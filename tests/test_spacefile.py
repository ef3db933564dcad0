import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from specspace.catalog import BUILTIN_CATALOG, chain
from specspace.cli import main
from specspace.poset import FiniteSubset
from specspace.spaces import GOA, Dual, Finite, Sum, normalize
from specspace.spacefile import (
    SpaceDocument,
    SpaceFileError,
    parse_document,
    serialize_document,
)
from specspace.subsets import GoaSet, SumSet, SymbolicSubset


def test_round_trip_catalog_spaces():
    for entry in BUILTIN_CATALOG:
        e = normalize(entry.space)
        doc = SpaceDocument(e)
        text = serialize_document(doc)
        parsed = parse_document(text)
        assert parsed.space == e, entry.name
        assert serialize_document(parsed) == text


def test_round_trip_subsets():
    space = Sum((Finite(chain(2)), GOA))
    p = chain(2)
    doc = SpaceDocument(
        normalize(space),
        {
            "mix": SymbolicSubset(
                normalize(space),
                SumSet((FiniteSubset(p, 0b01), GoaSet(True, frozenset({1, 5}), True))),
            )
        },
    )
    text = serialize_document(doc)
    parsed = parse_document(text)
    assert parsed.subsets == doc.subsets
    assert serialize_document(parsed) == text


def test_parse_finite_space():
    doc = parse_document(
        '{"space": {"kind": "finite", "elements": ["a","b"], "leq": [["a","b"]]}}'
    )
    assert isinstance(doc.space, Finite)
    assert doc.space.poset.leq(0, 1)


def test_parse_takes_closure_of_leq():
    doc = parse_document(
        '{"space": {"kind": "finite", "elements": ["a","b","c"], '
        '"leq": [["a","b"],["b","c"]]}}'
    )
    assert doc.space.poset.leq(0, 2)


def test_parse_location_on_bad_json():
    with pytest.raises(SpaceFileError) as err:
        parse_document('{"space": \n  {"kind" }')
    assert "line 2" in str(err.value)


def test_unknown_fields_rejected():
    with pytest.raises(SpaceFileError) as err:
        parse_document('{"space": {"kind": "generic_over_antichain", "extra": 1}}')
    assert "extra" in str(err.value)
    with pytest.raises(SpaceFileError):
        parse_document('{"space": {"kind": "generic_over_antichain"}, "other": {}}')


def test_unknown_kind_rejected():
    with pytest.raises(SpaceFileError) as err:
        parse_document('{"space": {"kind": "profinite"}}')
    assert "profinite" in str(err.value)


def test_cycle_surfaces_as_parse_error():
    with pytest.raises(SpaceFileError) as err:
        parse_document(
            '{"space": {"kind": "finite", "elements": ["a","b"], '
            '"leq": [["a","b"],["b","a"]]}}'
        )
    assert "cycle" in str(err.value)


def test_subset_against_dual_space_uses_leaf_record():
    text = """
    {
      "space": {"kind": "dual", "space": {"kind": "generic_over_antichain"}},
      "subsets": {
        "s": {"closed": {"mode": "cofinite", "indices": [0]}, "generic": true}
      }
    }
    """
    doc = parse_document(text)
    assert normalize(doc.space) == Dual(GOA)
    assert doc.subsets["s"].node == GoaSet(True, frozenset({0}), True)
    assert doc.subsets["s"].space == Dual(GOA)


def test_subset_shape_must_match_space():
    with pytest.raises(SpaceFileError):
        parse_document(
            '{"space": {"kind": "generic_over_antichain"},'
            ' "subsets": {"s": {"members": ["a"]}}}'
        )
    with pytest.raises(SpaceFileError):
        parse_document(
            '{"space": {"kind": "finite", "elements": ["a"], "leq": []},'
            ' "subsets": {"s": {"members": ["z"]}}}'
        )


def test_subset_sum_arity_checked():
    text = json.dumps(
        {
            "space": {
                "kind": "sum",
                "summands": [
                    {"kind": "generic_over_antichain"},
                    {"kind": "generic_over_antichain"},
                ],
            },
            "subsets": {
                "s": {
                    "summands": [
                        {"closed": {"mode": "finite", "indices": []}, "generic": True}
                    ]
                }
            },
        }
    )
    with pytest.raises(SpaceFileError) as err:
        parse_document(text)
    assert "summands" in str(err.value)


def test_bad_mode_rejected():
    with pytest.raises(SpaceFileError):
        parse_document(
            '{"space": {"kind": "generic_over_antichain"},'
            ' "subsets": {"s": {"closed": {"mode": "open", "indices": []}, "generic": false}}}'
        )


def test_boolean_index_rejected():
    with pytest.raises(SpaceFileError) as err:
        parse_document(
            '{"space": {"kind": "generic_over_antichain"},'
            ' "subsets": {"s": {"closed": {"mode": "finite", "indices": [true]}, "generic": false}}}'
        )
    assert "indices" in str(err.value)


@pytest.mark.parametrize("records", ["[1]", "null", '"s"', "3"])
def test_subsets_must_be_an_object(records, tmp_path, capsys):
    text = '{"space": {"kind": "generic_over_antichain"}, "subsets": %s}' % records
    with pytest.raises(SpaceFileError) as err:
        parse_document(text)
    assert "subsets" in str(err.value)
    f = tmp_path / "bad.json"
    f.write_text(text)
    assert main(["props", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: subsets")


def _nested_duals(levels: int) -> str:
    return (
        '{"space": ' + '{"kind": "dual", "space": ' * levels
        + '{"kind": "generic_over_antichain"}' + "}" * levels + "}\n"
    )


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    # a fresh interpreter, so the recursion budget is not the test runner's
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    return subprocess.run(
        [sys.executable, "-m", "specspace", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_deeply_nested_records_are_a_parse_error(tmp_path):
    text = _nested_duals(3000)
    with pytest.raises(SpaceFileError) as err:
        parse_document(text)
    assert "nested too deeply" in str(err.value)
    f = tmp_path / "deep.json"
    f.write_text(text)
    proc = _run_cli("props", str(f))
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_nested_duals_below_the_limit_still_answer(tmp_path):
    f = tmp_path / "deep.json"
    f.write_text(_nested_duals(980))  # an even count: the space is GOA itself
    proc = _run_cli("props", str(f))
    assert proc.returncode == 0, proc.stderr
    assert "noetherian:            yes" in proc.stdout
    assert proc.stderr == ""


def test_deeply_nested_sums_answer(tmp_path):
    # 250 levels of sum(GOA, sum(GOA, ...)): the reports compare the
    # normalized space with itself, which must not walk the whole tree
    goa = '{"kind": "generic_over_antichain"}'
    record = goa
    for _ in range(250):
        record = '{"kind": "sum", "summands": [' + goa + ", " + record + "]}"
    f = tmp_path / "deep-sum.json"
    f.write_text('{"space": ' + record + "}\n")
    proc = _run_cli("props", str(f))
    assert proc.returncode == 0, proc.stderr
    assert "finite:                no" in proc.stdout
    proc = _run_cli("ideals", str(f), "--count")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
