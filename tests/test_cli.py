import json
from pathlib import Path

import pytest

from specspace.catalog import BUILTIN_CATALOG, chain
from specspace import cli
from specspace.cli import hasse_dot, main
from specspace.poset import FinitePoset
from specspace.spacefile import SpaceDocument, serialize_document
from specspace.spaces import GOA, Dual, Finite, Sum, normalize

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def goa_file(tmp_path):
    f = tmp_path / "goa.json"
    f.write_text(serialize_document(SpaceDocument(GOA)))
    return str(f)


@pytest.fixture
def chain3_file(tmp_path):
    f = tmp_path / "chain3.json"
    f.write_text(
        '{"space": {"kind": "finite", "elements": ["a","b","c"],'
        ' "leq": [["a","b"],["b","c"]]}}'
    )
    return str(f)


@pytest.fixture
def chain21_file(tmp_path):
    # one element past the down-set enumeration cap
    f = tmp_path / "chain21.json"
    f.write_text(serialize_document(SpaceDocument(Finite(chain(21)))))
    return str(f)


def test_props_table(goa_file, capsys):
    assert main(["props", goa_file]) == 0
    out = capsys.readouterr().out
    assert "noetherian:            yes" in out
    assert "inverse-noetherian:    no" in out
    assert "weakly-noetherian:     yes" in out
    assert "finite:                no" in out
    assert "radical ideals:        infinite" in out
    assert "non-fg prime" in out


def test_props_structured(goa_file, capsys):
    assert main(["props", goa_file, "--format", "structured"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["noetherian"] is True
    assert data["inverse_noetherian"] is False
    assert data["radical_ideals"] == "infinite"
    assert data["every_prime_ideal_fg"] is False
    assert "non_fg_prime" in data["witnesses"]


def test_props_dual_goa(tmp_path, capsys):
    f = tmp_path / "d.json"
    f.write_text(serialize_document(SpaceDocument(Dual(GOA))))
    assert main(["props", str(f)]) == 0
    out = capsys.readouterr().out
    assert "inverse-noetherian:    yes" in out
    assert "weakly-noetherian:     no" in out
    assert "every prime ideal finitely generated:   yes" in out


def test_props_chain3(chain3_file, capsys):
    assert main(["props", chain3_file]) == 0
    out = capsys.readouterr().out
    assert "radical ideals:        4" in out
    assert "finite:                yes" in out


def test_props_reports_named_subsets(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text(
        '{"space": {"kind": "generic_over_antichain"},'
        ' "subsets": {"pt": {"closed": {"mode": "finite", "indices": [0]}, "generic": false}}}'
    )
    assert main(["props", str(f)]) == 0
    out = capsys.readouterr().out
    assert "subset pt" in out
    assert "thomason=yes" in out


def test_ideals_count_finite(chain3_file, capsys):
    assert main(["ideals", chain3_file, "--count"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_ideals_count_infinite(goa_file, capsys):
    assert main(["ideals", goa_file, "--count"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("infinite")
    assert out.count("witness support") == 3


def test_ideals_enumerate(chain3_file, capsys):
    assert main(["ideals", chain3_file, "--enumerate"]) == 0
    out = capsys.readouterr().out
    assert "total: 4" in out
    assert "(zero)" in out and "(unit)" in out


def test_ideals_enumerate_infinite_fails(goa_file, capsys):
    assert main(["ideals", goa_file, "--enumerate"]) == 1


def test_ideals_cap_exceeded(chain3_file):
    assert main(["ideals", chain3_file, "--enumerate", "--cap", "2"]) == 1


def test_ideals_count_past_enumeration_cap(chain21_file, capsys):
    assert main(["ideals", chain21_file, "--count"]) == 0
    assert capsys.readouterr().out.strip() == "22"


def test_props_past_enumeration_cap(chain21_file, capsys):
    assert main(["props", chain21_file]) == 0
    out = capsys.readouterr().out
    assert "radical ideals:        22" in out
    assert "weakly-noetherian:     yes" in out


def test_ideals_enumerate_past_cap_refused_cleanly(chain21_file, capsys):
    assert main(["ideals", chain21_file, "--enumerate"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in captured.err


def test_ideals_enumerate_counts_once(tmp_path, capsys, monkeypatch):
    f = tmp_path / "chain14.json"
    f.write_text(serialize_document(SpaceDocument(Finite(chain(14)))))
    calls = []
    count = FinitePoset.count_down_sets

    def counting(self):
        calls.append(self)
        return count(self)

    monkeypatch.setattr(FinitePoset, "count_down_sets", counting)
    assert main(["ideals", str(f), "--enumerate"]) == 0
    assert "total: 15" in capsys.readouterr().out
    assert len(calls) == 1


def test_check_builtin_catalog(capsys):
    assert main(["check", "--builtin", "catalog", "theorem"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_posets_scope(capsys):
    assert main(["check", "--posets", "3", "wv-inverse"]) == 0
    out = capsys.readouterr().out
    assert "instances" in out and "PASS" in out


def test_check_single_file(goa_file, capsys):
    assert main(["check", goa_file, "proposition"]) == 0


def test_check_file_past_shape_cap_refused_cleanly(tmp_path, capsys):
    f = tmp_path / "chain15.json"
    f.write_text(serialize_document(SpaceDocument(Finite(chain(15)))))
    assert main(["check", str(f), "wv-inverse"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in captured.err


def test_check_unknown_statement(capsys):
    assert main(["check", "--builtin", "catalog", "bogus"]) == 2


def test_check_requires_a_source(capsys):
    assert main(["check", "theorem"]) == 2


def test_dual_round_trip(goa_file, tmp_path):
    out1 = tmp_path / "dual1.json"
    out2 = tmp_path / "dual2.json"
    assert main(["dual", goa_file, "-o", str(out1)]) == 0
    assert main(["dual", str(out1), "-o", str(out2)]) == 0
    # dualizing twice lands on the normalized original serialization
    assert out2.read_text() == serialize_document(SpaceDocument(normalize(GOA)))
    assert out1.read_text() == serialize_document(SpaceDocument(Dual(GOA)))


def test_hasse_golden_chain3(chain3_file, tmp_path):
    out = tmp_path / "c3.dot"
    assert main(["hasse", chain3_file, "--dot", "-o", str(out)]) == 0
    assert out.read_text() == (GOLDEN / "chain3.dot").read_text()


def test_hasse_dot_deterministic():
    p = chain(3)
    assert hasse_dot(p) == hasse_dot(chain(3))
    assert hasse_dot(p).count("->") == 2


def test_hasse_rejects_infinite(goa_file, tmp_path):
    assert main(["hasse", goa_file, "--dot", "-o", str(tmp_path / "x.dot")]) == 2


def test_hasse_works_on_finite_sums(tmp_path):
    f = tmp_path / "sum.json"
    f.write_text(
        serialize_document(
            SpaceDocument(Sum((Finite(chain(2)), Finite(chain(2)))))
        )
    )
    out = tmp_path / "sum.dot"
    assert main(["hasse", str(f), "--dot", "-o", str(out)]) == 0
    text = out.read_text()
    assert text.count("->") == 2
    assert '"0.a0"' in text or "0.a0" in text


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{nope")
    assert main(["props", str(f)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["props", "/nonexistent/file.json"]) == 2


def test_verify_quick(capsys):
    assert main(["verify", "--posets", "2", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert out.count("PASS") == len(out.strip().splitlines())  # one per line


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["ideals", "x.json"])  # neither --count nor --enumerate
    assert exc.value.code == 2


def test_catalog_files_parse_and_round_trip(tmp_path):
    for entry in BUILTIN_CATALOG:
        f = tmp_path / f"{entry.name}.json"
        doc = SpaceDocument(normalize(entry.space))
        f.write_text(serialize_document(doc))
        assert main(["ideals", str(f), "--count"]) == 0


def test_parser_built_once_per_process(goa_file, chain3_file, capsys):
    runs = (["props", goa_file], ["ideals", chain3_file, "--count"])
    separate = []
    for argv in runs:
        cli._build_parser.cache_clear()
        assert main(argv) == 0
        separate.append(capsys.readouterr())
    cli._build_parser.cache_clear()
    together = []
    for argv in runs:
        assert main(argv) == 0
        together.append(capsys.readouterr())
    assert cli._build_parser.cache_info().misses == 1
    assert together == separate
