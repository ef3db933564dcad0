"""The three workloads: seeded inputs, one timed pass over them, checks.

Each workload class has the same steps:

* ``setup(ss, seed)`` makes the inputs from the seed; the returned dict's
  ``"prepared"`` entry holds library objects no pass has touched yet;
* ``prepare(ss, inputs)`` builds such objects again (for the traced pass);
* ``run_pass(ss, prepared, latencies)`` runs every op once, in order,
  appending one latency per op, and returns the raw outputs;
* ``check(ss, inputs, outputs)`` compares the outputs with the answers of
  ``reference.py`` and returns ``(failed ops, details)``;
* ``probe(ss, inputs)`` runs the past-cap slice (posets on more than 20
  points) and returns ``(attempted, refused, wrong)``.

``ss`` is the freshly imported ``specspace`` package.  The library only
ever receives the generated inputs; expected answers are computed once
per workload object, since equal seeds give equal inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path
from time import perf_counter

import reference as ref

GOA_RECORD = {"kind": "generic_over_antichain"}


def random_order_pairs(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    """``round(density * n(n-1)/2)`` distinct pairs ``(a, b)``, ``a <= b``,
    compatible with a random linear order.  A fixed pair count instead of
    one coin per pair keeps the down-set counts, and with them the cost
    of the pair scan, from swinging between seeds."""
    perm = list(range(n))
    rng.shuffle(perm)
    slots = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)]
    return rng.sample(slots, round(density * len(slots)))


def build(ss, n: int, pairs):
    labels = [f"x{i}" for i in range(n)]
    return ss.build_poset(labels, [(labels[a], labels[b]) for a, b in pairs])


# ---------------------------------------------------------------------------
# verify-exhaustive


class VerifyExhaustive:
    """Every statement check on all labeled posets up to ``max_size``
    plus the builtin catalog; one op is one counted statement instance.

    ``check_statement(s, scope="both")`` is issued as the same checks in
    ``check_statement`` calls of their own: one over the posets and one
    per catalog entry, so that a pass gives 7 x 25 latency samples
    instead of seven.  Latencies are per call."""

    name = "verify-exhaustive"

    def __init__(self, smoke: bool) -> None:
        self.max_size = 2 if smoke else 4
        # sizes of the random extra posets, as ``specspace verify --seed``
        self.extra_sizes = (4, 5) if smoke else (6, 7, 8)
        self.expected = ref.expected_instances(self.max_size, self.extra_sizes)

    def setup(self, ss, seed: int) -> dict:
        rng = random.Random(seed)
        inputs = {"raw": [(n, random_order_pairs(rng, n, 0.5)) for n in self.extra_sizes]}
        inputs["prepared"] = self.prepare(ss, inputs)
        return inputs

    def prepare(self, ss, inputs: dict) -> list:
        extras = tuple(build(ss, n, pairs) for n, pairs in inputs["raw"])
        calls = []
        for statement in ss.STATEMENTS:
            extra = extras if statement in ref.RANDOM_SAFE else ()
            calls.append((statement, {"max_size": self.max_size, "scope": "posets",
                                      "extra_posets": extra}))
            calls += [(statement, {"scope": "catalog", "entries": (entry,)})
                      for entry in ss.BUILTIN_CATALOG]
        return calls

    def ops_per_pass(self, inputs: dict) -> int:
        return sum(self.expected.values())

    def run_pass(self, ss, calls, latencies: list) -> list:
        outputs = []
        for statement, kwargs in calls:
            t0 = perf_counter()
            try:
                res = ss.check_statement(statement, **kwargs)
                out = (statement, res.instances, res.failure_count, res.elapsed)
            except Exception as exc:  # a crash fails the statement, not the benchmark
                out = (statement, None, repr(exc), perf_counter() - t0)
            latencies.append(perf_counter() - t0)
            outputs.append(out)
        return outputs

    @staticmethod
    def _per_statement(outputs: list) -> dict:
        """statement -> [instances or None on a crash, failures, seconds]"""
        totals: dict = {}
        for statement, instances, failures, elapsed in outputs:
            row = totals.setdefault(statement, [0, 0, 0.0])
            if instances is None or row[0] is None:
                row[0] = None
                row[1] = failures
            else:
                row[0] += instances
                row[1] += failures
            row[2] += elapsed
        return totals

    def check(self, ss, inputs: dict, outputs: list) -> tuple[int, list]:
        failed, details = 0, []
        totals = self._per_statement(outputs)
        for statement, want in self.expected.items():
            instances, failures, _ = totals.get(statement, (None, "never run", 0.0))
            if instances != want:
                failed += want
                details.append(f"{statement}: {instances} instances, expected {want} "
                               f"({failures})")
            elif failures:
                failed += failures
                details.append(f"{statement}: {failures} counterexamples")
        return failed, details

    def statement_stats(self, outputs: list) -> dict:
        return {statement: (s, instances or 0)
                for statement, (instances, _, s) in self._per_statement(outputs).items()}

    def probe(self, ss, inputs: dict) -> tuple[int, int, int]:
        return 0, 0, 0  # no input of this workload passes the cap


# ---------------------------------------------------------------------------
# queries-wide


class QueriesWide:
    """Single-subset reports (the ``props`` subset report) on wide random
    posets and on the symbolic leaves; one op is one report.

    A space spec is ``("finite", n, pairs)``, ``("goa", dualized)`` or
    ``("sum", [leaf specs])``; a query is ``(space index, params)`` with a
    mask on a finite leaf, ``(cofinite, indices, generic)`` on an infinite
    leaf, and a tuple of those on a sum.
    """

    name = "queries-wide"

    def __init__(self, smoke: bool) -> None:
        self.sizes = range(8, 11) if smoke else range(8, 17)
        self.posets_per_size = 2 if smoke else 200
        self.symbolic_queries = 6 if smoke else 600
        self.cap_sizes = (21,) if smoke else (21, 22, 23, 24)
        self.cap_queries = 3 if smoke else 10
        self.answers: list | None = None

    @staticmethod
    def _finite_queries(rng, n: int, count: int, small: int) -> list[int]:
        """``small`` two- or three-point subsets, the rest random masks."""
        masks = [sum(1 << i for i in rng.sample(range(n), rng.choice((2, 3))))
                 for _ in range(small)]
        masks += [rng.getrandbits(n) for _ in range(count - small)]
        rng.shuffle(masks)
        return masks

    @staticmethod
    def _goa_params(rng) -> tuple:
        return (rng.random() < 0.5, frozenset(rng.sample(range(8), rng.randint(0, 3))),
                rng.random() < 0.5)

    def setup(self, ss, seed: int) -> dict:
        rng = random.Random(seed)
        spaces, queries = [], []
        k = self.posets_per_size
        for n in self.sizes:
            # edge densities on a fixed grid over 0.1-0.2; five queries a
            # poset, 4+1 and 3+2 small and random in turn (70% small)
            for i in range(k):
                density = 0.1 + 0.1 * (i + 0.5) / k
                spaces.append(("finite", n, random_order_pairs(rng, n, density)))
                queries += [(len(spaces) - 1, m)
                            for m in self._finite_queries(rng, n, 5, 4 - i % 2)]
        for dualized in (False, True):
            spaces.append(("goa", dualized))
            queries += [(len(spaces) - 1, self._goa_params(rng))
                        for _ in range(self.symbolic_queries)]
        for _ in range(self.symbolic_queries // 3):
            leaves = []
            for _ in range(rng.randint(2, 4)):
                kind = rng.randrange(3)
                if kind == 2:
                    n = rng.randint(2, 5)
                    leaves.append(("finite", n, random_order_pairs(rng, n, 0.3)))
                else:
                    leaves.append(("goa", kind == 1))
            spaces.append(("sum", leaves))
            for _ in range(3):
                params = tuple(rng.getrandbits(s[1]) if s[0] == "finite"
                               else self._goa_params(rng) for s in leaves)
                queries.append((len(spaces) - 1, params))
        rng.shuffle(queries)
        cap_spaces, cap_queries = [], []
        for n in self.cap_sizes:
            cap_spaces.append(("finite", n, random_order_pairs(rng, n, rng.uniform(0.1, 0.2))))
            cap_queries += [(len(cap_spaces) - 1, m)
                            for m in self._finite_queries(rng, n, self.cap_queries,
                                                          self.cap_queries * 7 // 10)]
        inputs = {"spaces": spaces, "queries": queries,
                  "cap_spaces": cap_spaces, "cap_queries": cap_queries}
        inputs["prepared"] = self.prepare(ss, inputs)
        return inputs

    def ops_per_pass(self, inputs: dict) -> int:
        return len(inputs["queries"])

    @staticmethod
    def _leaf(ss, spec):
        if spec[0] == "finite":
            return ss.Finite(build(ss, spec[1], spec[2]))
        return ss.Dual(ss.GOA) if spec[1] else ss.GOA

    def _build(self, ss, specs) -> list:
        return [
            ss.Sum(tuple(self._leaf(ss, s) for s in spec[1])) if spec[0] == "sum"
            else self._leaf(ss, spec)
            for spec in specs
        ]

    def prepare(self, ss, inputs: dict) -> tuple:
        return self._build(ss, inputs["spaces"]), inputs["queries"]

    @staticmethod
    def _node(ss, space, params):
        if isinstance(space, ss.Finite):
            return ss.FiniteSubset(space.poset, params)
        if isinstance(space, ss.Sum):
            return ss.SumSet(tuple(QueriesWide._node(ss, s, p)
                                   for s, p in zip(space.summands, params)))
        return ss.GoaSet(*params)

    @staticmethod
    def report(ss, space, params) -> dict:
        """One op: build the descriptor, then the ``props`` subset report."""
        s = ss.SymbolicSubset(space, QueriesWide._node(ss, space, params))
        out = {
            "open": ss.is_open(s),
            "closed": ss.is_closed(s),
            "quasi_compact_open": ss.is_quasi_compact_open(s),
            "thomason": ss.is_thomason(s),
            "constructible": ss.is_constructible(s),
            "weakly_visible": ss.is_weakly_visible(s),
        }
        if out["thomason"]:
            out["ideal_finitely_generated"] = ss.is_finitely_generated(
                ss.ideal_from_thomason(s)
            )
        return out

    def run_pass(self, ss, prepared: tuple, latencies: list) -> list:
        built, queries = prepared
        outputs = []
        report = self.report
        for index, params in queries:
            t0 = perf_counter()
            try:
                out = report(ss, built[index], params)
            except Exception as exc:
                out = exc
            latencies.append(perf_counter() - t0)
            outputs.append(out)
        return outputs

    @staticmethod
    def _answer(spec, params, memo: dict) -> dict:
        if spec[0] == "sum":
            return ref.sum_report([QueriesWide._answer(s, p, memo)
                                   for s, p in zip(spec[1], params)])
        if spec[0] == "goa":
            return ref.goa_report(spec[1], *params)
        if id(spec) not in memo:
            down = ref.down_masks(spec[1], spec[2])
            memo[id(spec)] = (down, ref.up_masks(down))
        return ref.finite_report(*memo[id(spec)], params)

    def _answers(self, spaces, queries) -> list:
        memo: dict = {}
        return [self._answer(spaces[i], params, memo) for i, params in queries]

    @staticmethod
    def _compare(queries, answers, outputs):
        wrong, refused, details = 0, 0, []
        for query, want, out in zip(queries, answers, outputs):
            if isinstance(out, Exception):
                refused += 1
                details.append(f"query {query}: {out!r}")
            elif out != want:
                wrong += 1
                details.append(f"query {query}: got {out}, expected {want}")
        return wrong, refused, details

    def check(self, ss, inputs: dict, outputs: list) -> tuple[int, list]:
        if self.answers is None:
            self.answers = self._answers(inputs["spaces"], inputs["queries"])
        wrong, refused, details = self._compare(inputs["queries"], self.answers, outputs)
        return wrong + refused, details

    def probe(self, ss, inputs: dict) -> tuple[int, int, int]:
        queries = inputs["cap_queries"]
        outputs = self.run_pass(ss, (self._build(ss, inputs["cap_spaces"]), queries), [])
        answers = self._answers(inputs["cap_spaces"], queries)
        wrong, refused, _ = self._compare(queries, answers, outputs)
        return len(outputs), refused, wrong


# ---------------------------------------------------------------------------
# cli-docs


def run_cli(ss, argv: list[str]):
    """``specspace`` in-process: (exit code or exception, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = ss.cli.main(argv)
        except Exception as exc:
            rc = exc
    return rc, buf.getvalue()


class CliDocs:
    """Space files through in-process ``specspace props --format
    structured``, ``ideals --count`` and ``dual -o``; one op is one command.

    Two families of files: *early-exit* sums carry a generic-over-antichain
    leaf and a dual one among their first three leaves, so the point-class
    scans of ``space_props`` and ``cohen_report`` stop early; *full-scan*
    sums have no dual GOA leaf, so ``space_props`` checks every point
    class.
    """

    name = "cli-docs"

    def __init__(self, smoke: bool) -> None:
        self.early_exit_files = 4 if smoke else 300
        self.full_scan_files = 2 if smoke else 50
        self.cap_files = 1 if smoke else 3
        self.workdir: Path | None = None
        self.facts: dict = {}
        self.twice_checked = False
        self.written: tuple | None = None

    @staticmethod
    def _finite(rng, n: int, density: float) -> dict:
        names = [f"p{i}" for i in range(n)]
        pairs = random_order_pairs(rng, n, density)
        return {"kind": "finite", "elements": names,
                "leq": [[names[a], names[b]] for a, b in pairs]}

    def _leaf(self, rng, goa_share: float, dual_goa_share: float) -> dict:
        """GOA, dual GOA, or a finite poset of 1-7 points that is wrapped
        in ``dual`` one time in five."""
        r = rng.random()
        if r < goa_share:
            return GOA_RECORD
        if r < goa_share + dual_goa_share:
            return {"kind": "dual", "space": GOA_RECORD}
        leaf = self._finite(rng, rng.randint(1, 7), 0.3)
        return {"kind": "dual", "space": leaf} if rng.random() < 0.2 else leaf

    @staticmethod
    def _sum(leaves: list) -> dict:
        return leaves[0] if len(leaves) == 1 else {"kind": "sum", "summands": leaves}

    def _full_scan_doc(self, rng, k: int) -> dict:
        """``k`` leaves, 40% of them GOA, the rest finite posets whose sizes
        step evenly through 1-7, one in five wrapped in ``dual``, all in a
        random order.  Fixed shares instead of one coin per leaf keep the
        cost of these files, which make the latency tail, from swinging
        between seeds."""
        goas = round(0.4 * k)
        finite = [self._finite(rng, 1 + (7 * j + rng.randrange(7)) // (k - goas), 0.3)
                  for j in range(k - goas)]
        for j in rng.sample(range(len(finite)), round(0.2 * len(finite))):
            finite[j] = {"kind": "dual", "space": finite[j]}
        leaves = [GOA_RECORD] * goas + finite
        rng.shuffle(leaves)
        return self._sum(leaves)

    def _early_exit_doc(self, rng, k: int) -> dict:
        leaves = [self._leaf(rng, 0.3, 0.15) for _ in range(k - 2)]
        leaves.insert(rng.randint(0, 1), GOA_RECORD)
        leaves.insert(rng.randint(0, 2), {"kind": "dual", "space": GOA_RECORD})
        space = self._sum(leaves)
        # dualizing the whole sum swaps the two infinite leaves
        return {"kind": "dual", "space": space} if rng.random() < 0.2 else space

    def setup(self, ss, seed: int) -> dict:
        rng = random.Random(seed)
        # leaf counts on fixed spreads, shuffled by the seed: 2..40 with most
        # files small for the early-exit family, 2..16 evenly for full scans
        m, f = self.early_exit_files, self.full_scan_files
        early = [2 + int(38 * ((i + 0.5) / m) ** 3) for i in range(m)]
        full = [2 + int(15 * (i + 0.5) / f) for i in range(f)]
        docs = ([self._early_exit_doc(rng, k) for k in early]
                + [self._full_scan_doc(rng, k) for k in full])
        rng.shuffle(docs)
        cap_docs = []
        for _ in range(self.cap_files):
            leaves = [self._leaf(rng, 0.3, 0.15) for _ in range(rng.randint(0, 4))]
            leaves.insert(rng.randint(0, len(leaves)),
                          self._finite(rng, rng.randint(21, 24), 0.25))
            cap_docs.append(self._sum(leaves))
        # The files depend on the seed only, so a later set-up of the run
        # reuses them: writing them took 60% of set-up time and made
        # ``setup_s`` follow the shared disk's load, not specspace.
        if self.written is None or self.written[0] != (docs, cap_docs):
            self.written = ((docs, cap_docs), self._write(docs, "doc"),
                            self._write(cap_docs, "cap"))
        inputs = {"docs": docs, "cap_docs": cap_docs}
        inputs["ops"] = inputs["prepared"] = self.written[1]
        inputs["cap_ops"] = self.written[2]
        return inputs

    def _write(self, docs: list, stem: str) -> list:
        ops = []
        for i, space in enumerate(docs):
            path = self.workdir / f"{stem}{i}.json"
            path.write_text(json.dumps({"space": space}, indent=1))
            ops += [
                (i, "props", ["props", str(path), "--format", "structured"]),
                (i, "ideals", ["ideals", str(path), "--count"]),
                (i, "dual", ["dual", str(path), "-o", f"{path}.dual"]),
            ]
        return ops

    def ops_per_pass(self, inputs: dict) -> int:
        return len(inputs["ops"])

    def prepare(self, ss, inputs: dict) -> list:
        return inputs["ops"]

    def run_pass(self, ss, ops: list, latencies: list) -> list:
        outputs = []
        for _, _, argv in ops:
            t0 = perf_counter()
            out = run_cli(ss, argv)
            latencies.append(perf_counter() - t0)
            outputs.append(out)
        return outputs

    def _compare(self, ss, docs, ops, outputs, facts: dict, twice: bool):
        wrong, refused, details = 0, 0, []
        for (i, command, argv), (rc, stdout) in zip(ops, outputs):
            if rc != 0:
                refused += 1
                details.append(f"{command} {argv[1]}: {rc!r}")
                continue
            if i not in facts:
                facts[i] = ref.space_facts(docs[i])
            want = facts[i]
            problem = None
            if command == "props":
                got = json.loads(stdout)
                got["witnesses"] = frozenset(got["witnesses"])
                got = {k: got.get(k) for k in want}
                if got != want:
                    problem = f"props {got} != {want}"
            elif command == "ideals":
                head = stdout.splitlines()[0] if stdout else ""
                ok = (head == str(want["radical_ideals"]) if want["finite"]
                      else head.startswith("infinite"))
                if not ok:
                    problem = f"ideals --count printed {head!r}, expected {want['radical_ideals']}"
            else:
                problem = self._check_dual(ss, docs[i], argv[-1], twice)
            if problem is not None:
                wrong += 1
                details.append(f"{argv[1]}: {problem}")
        return wrong, refused, details

    @staticmethod
    def _check_dual(ss, doc: dict, out: str, twice: bool) -> str | None:
        written = Path(out).read_bytes()
        got = json.loads(written)
        if set(got) != {"space"}:
            return f"dual wrote fields {sorted(got)}"
        if ref.comparable_record(got["space"]) != ref.normalized_record(
            {"kind": "dual", "space": doc}
        ):
            return "dual -o wrote the wrong space"
        if twice:
            # dualizing twice must give back the same bytes
            for src, dst in ((out, out + ".2"), (out + ".2", out + ".3")):
                rc, _ = run_cli(ss, ["dual", src, "-o", dst])
                if rc != 0:
                    return f"dual of the dual failed: {rc!r}"
            if Path(out + ".3").read_bytes() != written:
                return "dual twice is not byte-identical"
        return None

    def check(self, ss, inputs: dict, outputs: list) -> tuple[int, list]:
        twice, self.twice_checked = not self.twice_checked, True
        wrong, refused, details = self._compare(ss, inputs["docs"], inputs["ops"], outputs,
                                                self.facts, twice)
        return wrong + refused, details

    def probe(self, ss, inputs: dict) -> tuple[int, int, int]:
        outputs = self.run_pass(ss, inputs["cap_ops"], [])
        wrong, refused, _ = self._compare(ss, inputs["cap_docs"], inputs["cap_ops"],
                                          outputs, {}, True)
        return len(outputs), refused, wrong


WORKLOADS = {w.name: w for w in (VerifyExhaustive, QueriesWide, CliDocs)}
