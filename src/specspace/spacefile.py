"""Reading and writing space files.

A space file is a JSON document with a required ``space`` record and an
optional ``subsets`` map of named subset records.  Space records are tagged
by ``kind``:

* ``{"kind": "finite", "elements": [...], "leq": [["a","b"], ...]}`` --
  pairs mean "a is a specialization of b"; the stored order is the
  reflexive-transitive closure of the pairs;
* ``{"kind": "generic_over_antichain"}``;
* ``{"kind": "dual", "space": {...}}``;
* ``{"kind": "sum", "summands": [{...}, ...]}``.

Subset records follow the shape of the *normalized* space: ``members`` on a
finite leaf, ``{"closed": {"mode": "finite"|"cofinite", "indices": [...]},
"generic": bool}`` on an infinite leaf (dual wrappers are transparent), and
``{"kind": "sum", "summands": [...]}`` across a sum.  Unknown fields are
rejected.  ``parse_document(serialize_document(d))`` is the identity on
normalized expressions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .poset import FiniteSubset, PosetError, build_poset
from .spaces import Dual, Finite, GenericOverAntichain, SpaceExpr, Sum, normalize
from .subsets import GoaSet, SetNode, SumSet, SymbolicSubset


class SpaceFileError(ValueError):
    """Malformed space file; the message carries the offending location."""


@dataclass
class SpaceDocument:
    space: SpaceExpr
    subsets: dict[str, SymbolicSubset] = dc_field(default_factory=dict)


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise SpaceFileError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise SpaceFileError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise SpaceFileError(f"{where}: missing field(s) {sorted(missing)}")


def _parse_space(obj: object, where: str) -> SpaceExpr:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpaceFileError(f"{where}: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "finite":
        _require_keys(obj, {"kind", "elements", "leq"}, {"kind", "elements"}, where)
        elements = obj["elements"]
        if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
            raise SpaceFileError(f"{where}.elements: expected a list of strings")
        pairs = obj.get("leq", [])
        if not isinstance(pairs, list):
            raise SpaceFileError(f"{where}.leq: expected a list of pairs")
        covers = []
        for i, pair in enumerate(pairs):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(x, str) for x in pair)
            ):
                raise SpaceFileError(f"{where}.leq[{i}]: expected a pair of element names")
            covers.append((pair[0], pair[1]))
        try:
            return Finite(build_poset(elements, covers))
        except PosetError as exc:
            raise SpaceFileError(f"{where}: {exc}") from exc
    if kind == "generic_over_antichain":
        _require_keys(obj, {"kind"}, {"kind"}, where)
        return GenericOverAntichain()
    if kind == "dual":
        _require_keys(obj, {"kind", "space"}, {"kind", "space"}, where)
        return Dual(_parse_space(obj["space"], where + ".space"))
    if kind == "sum":
        _require_keys(obj, {"kind", "summands"}, {"kind", "summands"}, where)
        parts = obj["summands"]
        if not isinstance(parts, list):
            raise SpaceFileError(f"{where}.summands: expected a list")
        return Sum(
            tuple(
                _parse_space(p, f"{where}.summands[{i}]") for i, p in enumerate(parts)
            )
        )
    raise SpaceFileError(f"{where}.kind: unknown kind {kind!r}")


def _parse_subset_node(space: SpaceExpr, obj: object, where: str) -> SetNode:
    match space:
        case Finite(p):
            _require_keys(obj, {"kind", "members"}, {"members"}, where)
            assert isinstance(obj, dict)
            if obj.get("kind", "finite") != "finite":
                raise SpaceFileError(f"{where}.kind: expected 'finite'")
            members = obj["members"]
            if not isinstance(members, list) or not all(isinstance(x, str) for x in members):
                raise SpaceFileError(f"{where}.members: expected a list of element names")
            try:
                return p.subset(members)
            except PosetError as exc:
                raise SpaceFileError(f"{where}: {exc}") from exc
        case GenericOverAntichain() | Dual(GenericOverAntichain()):
            _require_keys(obj, {"kind", "closed", "generic"}, {"closed", "generic"}, where)
            assert isinstance(obj, dict)
            if obj.get("kind", "generic_over_antichain") != "generic_over_antichain":
                raise SpaceFileError(f"{where}.kind: expected 'generic_over_antichain'")
            closed = obj["closed"]
            _require_keys(closed, {"mode", "indices"}, {"mode", "indices"}, where + ".closed")
            mode = closed["mode"]
            if mode not in ("finite", "cofinite"):
                raise SpaceFileError(f"{where}.closed.mode: expected 'finite' or 'cofinite'")
            indices = closed["indices"]
            # bool is an int subclass; JSON true/false are not indices
            if not isinstance(indices, list) or not all(
                type(i) is int and i >= 0 for i in indices
            ):
                raise SpaceFileError(f"{where}.closed.indices: expected non-negative integers")
            generic = obj["generic"]
            if not isinstance(generic, bool):
                raise SpaceFileError(f"{where}.generic: expected a boolean")
            return GoaSet(mode == "cofinite", frozenset(indices), generic)
        case Sum(parts):
            _require_keys(obj, {"kind", "summands"}, {"summands"}, where)
            assert isinstance(obj, dict)
            if obj.get("kind", "sum") != "sum":
                raise SpaceFileError(f"{where}.kind: expected 'sum'")
            docs = obj["summands"]
            if not isinstance(docs, list) or len(docs) != len(parts):
                raise SpaceFileError(
                    f"{where}.summands: expected {len(parts)} records to match the space"
                )
            return SumSet(
                tuple(
                    _parse_subset_node(part, doc, f"{where}.summands[{i}]")
                    for i, (part, doc) in enumerate(zip(parts, docs))
                )
            )
    raise SpaceFileError(f"{where}: space is not in a recognized normal form")


def parse_document(text: str) -> SpaceDocument:
    try:
        return _parse_document(text)
    except RecursionError as exc:
        raise SpaceFileError("records are nested too deeply") from exc


def _parse_document(text: str) -> SpaceDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpaceFileError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    _require_keys(data, {"space", "subsets"}, {"space"}, "document")
    space = _parse_space(data["space"], "space")
    norm = normalize(space)
    records = data.get("subsets", {})
    if not isinstance(records, dict):
        raise SpaceFileError("subsets: expected an object")
    subsets: dict[str, SymbolicSubset] = {}
    for name, obj in records.items():
        node = _parse_subset_node(norm, obj, f"subsets.{name}")
        subsets[name] = SymbolicSubset(norm, node)
    return SpaceDocument(space, subsets)


def _space_to_obj(e: SpaceExpr) -> dict:
    match e:
        case Finite(p):
            pairs = [
                [p.labels[i], p.labels[j]]
                for j in range(p.n)
                for i in range(p.n)
                if i != j and p.leq(i, j)
            ]
            pairs.sort()
            return {"kind": "finite", "elements": list(p.labels), "leq": pairs}
        case GenericOverAntichain():
            return {"kind": "generic_over_antichain"}
        case Dual(inner):
            return {"kind": "dual", "space": _space_to_obj(inner)}
        case Sum(parts):
            return {"kind": "sum", "summands": [_space_to_obj(s) for s in parts]}
    raise TypeError(f"not a space expression: {e!r}")


def _subset_to_obj(space: SpaceExpr, node: SetNode) -> dict:
    match space, node:
        case Finite(_), FiniteSubset() as fs:
            return {"kind": "finite", "members": sorted(fs.members())}
        case _, GoaSet() as g:
            return {
                "kind": "generic_over_antichain",
                "closed": {
                    "mode": "cofinite" if g.cofinite else "finite",
                    "indices": sorted(g.indices),
                },
                "generic": g.generic,
            }
        case Sum(parts), SumSet(sub):
            return {
                "kind": "sum",
                "summands": [
                    _subset_to_obj(p, s) for p, s in zip(parts, sub)
                ],
            }
    raise TypeError("descriptor does not fit the space")


def serialize_document(doc: SpaceDocument) -> str:
    out: dict = {"space": _space_to_obj(doc.space)}
    if doc.subsets:
        out["subsets"] = {
            name: _subset_to_obj(s.space, s.node)
            for name, s in sorted(doc.subsets.items())
        }
    return json.dumps(out, indent=2) + "\n"
