"""Command-line front end.

Exit codes are a stable contract: 0 for success (including passing checks),
1 when a requested check or operation reports failure (a counterexample, an
infinite enumeration, a cap overrun), 2 for usage and parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .ideals import (
    NotThomasonError,
    cohen_report,
    count_radical_ideals,
    enumerate_radical_ideals,
    ideal_from_thomason,
    is_finitely_generated,
)
from .poset import EnumerationCapError, FinitePoset
from .spaces import amalgamated_poset, describe_space, dual, is_finite_space, normalize
from .spacefile import SpaceDocument, SpaceFileError, parse_document, serialize_document
from .subsets import SymbolicSubset
from .topology import (
    is_closed,
    is_constructible,
    is_open,
    is_quasi_compact_open,
    is_thomason,
    is_weakly_visible,
)
from .verify import STATEMENTS, CheckResult, check_statement, random_poset


def hasse_dot(p: FinitePoset) -> str:
    """DOT digraph of the covering relation, specialization -> generization."""
    lines = ["digraph hasse {"]
    for i, label in enumerate(p.labels):
        safe = label.replace('"', '\\"')
        lines.append(f'  n{i} [label="{safe}"];')
    for i, j in sorted(p.covers):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _load(path: str) -> SpaceDocument:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpaceFileError(f"cannot read {path}: {exc}") from exc
    return parse_document(text)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _subset_report(s: SymbolicSubset) -> dict:
    report = {
        "open": is_open(s),
        "closed": is_closed(s),
        "quasi_compact_open": is_quasi_compact_open(s),
        "thomason": is_thomason(s),
        "constructible": is_constructible(s),
        "weakly_visible": is_weakly_visible(s),
    }
    if report["thomason"]:
        report["ideal_finitely_generated"] = is_finitely_generated(
            ideal_from_thomason(s)
        )
    return report


def _cmd_props(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    space = normalize(doc.space)
    report = cohen_report(space)
    props = report.props
    count = report.ideal_count

    if args.format == "structured":
        out = {
            "space": describe_space(space),
            "finite": props.finite,
            "noetherian": props.noetherian,
            "inverse_noetherian": props.inverse_noetherian,
            "weakly_noetherian": props.weakly_noetherian,
            "radical_ideals": count.count if count.finite else "infinite",
            "every_radical_ideal_fg": report.every_radical_ideal_fg,
            "every_prime_ideal_fg": report.every_prime_ideal_fg,
            "witnesses": {},
            "subsets": {
                name: _subset_report(s) for name, s in sorted(doc.subsets.items())
            },
        }
        w = out["witnesses"]
        if report.non_fg_prime is not None:
            w["non_fg_prime"] = report.non_fg_prime.point.describe()
        if report.non_fg_ideal is not None:
            w["non_fg_ideal_support"] = report.non_fg_ideal.support.describe()
        if props.non_visible_class is not None:
            w["non_weakly_visible_point"] = props.non_visible_class.describe()
        if props.descending_chain is not None:
            w["descending_chain"] = props.descending_chain.description
        if not count.finite and count.family is not None:
            w["ideal_family"] = count.family.description
        print(json.dumps(out, indent=2))
        return 0

    print(f"space:                 {describe_space(space)}")
    print(f"finite:                {_yn(props.finite)}")
    print(f"noetherian:            {_yn(props.noetherian)}")
    print(f"inverse-noetherian:    {_yn(props.inverse_noetherian)}")
    print(f"weakly-noetherian:     {_yn(props.weakly_noetherian)}")
    if count.finite:
        print(f"radical ideals:        {count.count}")
    else:
        assert count.family is not None
        heads = ", ".join(count.family.term(k).describe() for k in range(3))
        print(f"radical ideals:        infinite ({count.family.description}; e.g. {heads})")
    print(f"every radical ideal finitely generated: {_yn(report.every_radical_ideal_fg)}")
    print(f"every prime ideal finitely generated:   {_yn(report.every_prime_ideal_fg)}")
    if report.non_fg_prime is not None:
        print(f"  non-fg prime at:     {report.non_fg_prime.point.describe()}")
        print(f"    support:           {report.non_fg_prime.support().describe()}")
    if report.non_fg_ideal is not None:
        print(f"  non-fg ideal:        support {report.non_fg_ideal.support.describe()}")
    if props.non_visible_class is not None:
        print(f"  not weakly visible:  {props.non_visible_class.describe()}")
    if props.descending_chain is not None:
        chain = props.descending_chain
        heads = " > ".join(chain.term(k).describe() for k in range(3))
        print(f"  descending chain:    {chain.description} ({heads} > ...)")
    for name, s in sorted(doc.subsets.items()):
        rep = _subset_report(s)
        flags = " ".join(f"{k}={_yn(v)}" for k, v in rep.items())
        print(f"subset {name}: {s.describe()}")
        print(f"  {flags}")
    return 0


def _cmd_ideals(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    space = normalize(doc.space)
    if args.mode == "count":
        counted = count_radical_ideals(space)
        if counted.finite:
            print(counted.count)
        else:
            assert counted.family is not None
            print(f"infinite ({counted.family.description})")
            for k in range(3):
                print(f"  witness support: {counted.family.term(k).describe()}")
        return 0
    ideals = list(enumerate_radical_ideals(space, cap=args.cap))
    for ideal in ideals:
        kind = " (zero)" if ideal.is_zero else " (unit)" if ideal.is_unit else ""
        print(f"support {ideal.support.describe()}{kind}")
    print(f"total: {len(ideals)}")
    return 0


def _print_check(res: CheckResult) -> None:
    print(res.summary())
    for f in res.failures:
        print(f"  counterexample: {f.instance}: expected {f.expected}, got {f.actual}")


def _cmd_check(args: argparse.Namespace) -> int:
    statement = args.statement
    if statement not in STATEMENTS:
        print(
            f"error: unknown statement {statement!r}; choose from: {', '.join(STATEMENTS)}",
            file=sys.stderr,
        )
        return 2
    if args.builtin is not None:
        res = check_statement(statement, scope="catalog")
    elif args.posets is not None:
        res = check_statement(statement, max_size=args.posets, scope="posets")
    elif args.file is not None:
        doc = _load(args.file)
        from .catalog import CatalogEntry
        from .topology import space_props

        props = space_props(doc.space)
        entry = CatalogEntry(
            name=Path(args.file).name,
            space=doc.space,
            finite=props.finite,
            noetherian=props.noetherian,
            inverse_noetherian=props.inverse_noetherian,
            weakly_noetherian=props.weakly_noetherian,
            ideal_count=count_radical_ideals(doc.space).count,
        )
        res = check_statement(statement, scope="catalog", entries=(entry,))
    else:
        print("error: give a FILE, --builtin catalog, or --posets N", file=sys.stderr)
        return 2
    _print_check(res)
    return 0 if res.passed else 1


def _cmd_dual(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    out = SpaceDocument(
        dual(doc.space),
        {name: s.in_dual() for name, s in doc.subsets.items()},
    )
    Path(args.output).write_text(serialize_document(out))
    return 0


def _cmd_hasse(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    if not is_finite_space(doc.space):
        print("error: Hasse diagrams exist only for finite spaces", file=sys.stderr)
        return 2
    p = amalgamated_poset(doc.space)
    text = hasse_dot(p)
    if args.output == "-":
        print(text, end="")
    else:
        Path(args.output).write_text(text)
    return 0


# statements whose brute-force oracle stays cheap on 6-8 element posets;
# the weak-visibility pair scan is exponential in the down-set count
_RANDOM_SAFE = ("finiteness", "proposition", "theorem", "remark", "duality-involution")


def _cmd_verify(args: argparse.Namespace) -> int:
    extra = []
    if args.seed is not None:
        extra = [random_poset(args.seed + i, n) for i, n in enumerate((6, 7, 8))]
    results = []
    for statement in STATEMENTS:
        use_extra = extra if statement in _RANDOM_SAFE else []
        res = check_statement(
            statement, max_size=args.posets, scope="both", extra_posets=use_extra
        )
        _print_check(res)
        results.append(res)
    ok = all(r.passed for r in results)
    print(f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="specspace",
        description=(
            "Decide point-set properties of spectral spaces, classify radical "
            "ideals by Thomason supports, and verify the structural statements "
            "behind those decisions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("props", help="report all space-level properties of a space file")
    p.add_argument("file")
    p.add_argument("--format", choices=("table", "structured"), default="table")
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser("ideals", help="count or enumerate the radical ideals")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--count", dest="mode", action="store_const", const="count")
    mode.add_argument("--enumerate", dest="mode", action="store_const", const="enumerate")
    p.add_argument("--cap", type=int, default=1000)
    p.set_defaults(func=_cmd_ideals)

    p = sub.add_parser("check", help="run one statement check")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("statement", metavar="STATEMENT")
    p.add_argument("--builtin", choices=("catalog",), default=None)
    p.add_argument("--posets", type=int, default=None, metavar="N")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("dual", help="write the dual space file")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("hasse", help="emit the Hasse diagram of a finite space as DOT")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser("verify", help="run every statement check")
    p.add_argument("--posets", type=int, default=4, metavar="N")
    p.add_argument("--seed", type=int, default=None, metavar="S")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpaceFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotThomasonError, EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
