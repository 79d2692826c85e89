"""The four benchmark workloads: inputs from a seed, one query call, answer gates.

Each workload is an object with

* ``setup(rootmult_cli)``: build the algebras and engines the workload uses
  (timed as ``setup_s``, together with the import of ``rootmult.cli``);
* ``inputs(seed, size)``: the queries of one pass, a list of :class:`Query`;
* ``run(query)``: one timed call into the program, returning its answer;
* ``gate(queries, answers, reference, seed)``: check every distinct answer
  outside the timed region and return ``{query key: reason}`` for each
  wrong one.

Only the generated inputs reach the program.  Costs of single queries vary
by orders of magnitude with the weight or bracket shape, so every generator
fixes what sets the cost (heights, shapes) and lets the seed draw the rest;
runs with different seeds then measure comparable work.
"""
from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

CHAINS = ((1, 2), (2, 2), (1, 3), (2, 3))
DEFAULT_SEED = 1
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Query:
    key: str
    payload: Any


def _shuffled(rng: random.Random, queries: list[Query]) -> list[Query]:
    rng.shuffle(queries)
    return queries


def _weight_key(chain: tuple[int, int], weight: tuple[int, int, int]) -> str:
    return f"{chain[0]},{chain[1]}:{weight[0]},{weight[1]},{weight[2]}"


def _cli_call(cli: Any, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    code = cli.main(argv, out)
    return code, out.getvalue()


class RecurrenceDeep:
    """Fresh ``MultiplicityTable`` per weight, as ``mult --method peterson`` does.

    Per chain, one weight at each height 27..32.  The seed moves up to two
    units between the coefficients of the balanced weight of that height,
    which changes the answer but hardly the cost (the box of weights the
    recurrence fills stays within a few percent).  Heights near 50 cost 2-6 s
    per query and would leave too few repeats in a run on a noisy machine;
    24 queries keep the tail above the median (see ``worker.latency_summary``).
    """

    name = "recurrence-deep"
    heights = {"full": (27, 28, 29, 30, 31, 32), "tiny": (8, 10, 12)}

    def setup(self, cli: Any) -> None:
        from rootmult import MultiplicityTable, rank3_chain

        self._table = MultiplicityTable
        self.algebras = {c: rank3_chain(*c) for c in CHAINS}
        for algebra in self.algebras.values():
            MultiplicityTable(algebra)

    def inputs(self, seed: int, size: str) -> list[Query]:
        rng = random.Random(f"{self.name}:{seed}")
        queries = []
        for chain in CHAINS:
            for h in self.heights[size]:
                n2 = -(-h // 3)
                n1 = (h - n2) // 2
                w = [n1, n2, h - n2 - n1]
                d = rng.choice((-1, 0, 1))
                w[0] += d
                w[2] -= d
                d = rng.choice((-1, 0, 1))
                side = rng.choice((0, 2))
                w[1] += d
                w[side] -= d
                weight = (w[0], w[1], w[2])
                queries.append(Query(_weight_key(chain, weight), (chain, weight)))
        return _shuffled(rng, queries)

    def run(self, q: Query) -> int:
        chain, weight = q.payload
        return self._table(self.algebras[chain]).multiplicity(weight)

    def gate(
        self, queries: list[Query], answers: dict[str, Any], reference: dict[str, Any], seed: int
    ) -> dict[str, str]:
        """Chain reversal, mult_(a1,a2)(n1,n2,n3) = mult_(a2,a1)(n3,n2,n1), plus stored values."""
        from rootmult import MultiplicityTable, rank3_chain

        stored = reference.get(self.name, {})
        reversed_tables: dict[tuple[int, int], Any] = {}
        bad = {}
        for q in sorted(queries, key=lambda q: sum(q.payload[1])):
            (a1, a2), (n1, n2, n3) = q.payload
            table = reversed_tables.get((a1, a2))
            if table is None:
                table = reversed_tables[(a1, a2)] = MultiplicityTable(rank3_chain(a2, a1))
            got = answers[q.key]
            mirror = table.multiplicity((n3, n2, n1))
            if got != mirror:
                bad[q.key] = f"answer {got!r}, chain reversal gives {mirror}"
            elif q.key in stored and stored[q.key] != got:
                bad[q.key] = f"answer {got!r}, stored reference {stored[q.key]}"
            elif seed == DEFAULT_SEED and q.key not in stored:
                bad[q.key] = "default-seed weight missing from the stored reference"
        return bad


class QuotientSlice:
    """Fresh ``SerreQuotient`` per weight; the tensor-word elimination dominates.

    Per chain: the three permutations of (4,3,3), which carry almost all of
    the cost and are the same for every seed, plus one weight of height 9
    and one of height 8 drawn by the seed from the near-balanced ones.
    Height 11, (4,4,3), takes 10 s per query and is left out.
    """

    name = "quotient-slice"
    fixed = {"full": ((4, 3, 3), (3, 4, 3), (3, 3, 4)), "tiny": ((2, 2, 2),)}
    drawn = {
        "full": (
            ((3, 3, 3), (4, 3, 2), (4, 2, 3), (3, 4, 2), (3, 2, 4), (2, 4, 3), (2, 3, 4)),
            ((3, 3, 2), (3, 2, 3), (2, 3, 3), (4, 2, 2), (2, 4, 2), (2, 2, 4)),
        ),
        "tiny": (((2, 2, 1), (2, 1, 2), (1, 2, 2)),),
    }

    def setup(self, cli: Any) -> None:
        from rootmult import SerreQuotient, rank3_chain

        self._engine = SerreQuotient
        self.algebras = {c: rank3_chain(*c) for c in CHAINS}
        for algebra in self.algebras.values():
            SerreQuotient(algebra)

    def inputs(self, seed: int, size: str) -> list[Query]:
        rng = random.Random(f"{self.name}:{seed}")
        queries = []
        for chain in CHAINS:
            weights = list(self.fixed[size]) + [rng.choice(pool) for pool in self.drawn[size]]
            queries.extend(Query(_weight_key(chain, w), (chain, w)) for w in weights)
        return _shuffled(rng, queries)

    def run(self, q: Query) -> int:
        chain, weight = q.payload
        return self._engine(self.algebras[chain]).multiplicity(weight)

    def gate(
        self, queries: list[Query], answers: dict[str, Any], reference: dict[str, Any], seed: int
    ) -> dict[str, str]:
        """Every answer must equal the Peterson recurrence's."""
        from rootmult import MultiplicityTable

        tables = {c: MultiplicityTable(a) for c, a in self.algebras.items()}
        bad = {}
        for q in queries:
            chain, weight = q.payload
            expected = tables[chain].multiplicity(weight)
            if answers[q.key] != expected:
                bad[q.key] = f"answer {answers[q.key]!r}, recurrence gives {expected}"
        return bad


class CompareGrid:
    """One ``compare`` report through ``cli.main``, written into a StringIO.

    The grid is fixed: the seed only names the run.  ``--workers`` keeps its
    default so the call stays valid when that flag goes away.
    """

    name = "compare-grid"
    argv = {
        "full": ["compare", "--gcm", "1,2", "--range", "1..6", "--height-cap", "8"],
        "tiny": ["compare", "--gcm", "1,2", "--range", "1..3", "--height-cap", "6"],
    }

    def setup(self, cli: Any) -> None:
        from rootmult import MultiplicityTable, SerreQuotient, rank3_chain

        self.cli = cli
        algebra = rank3_chain(1, 2)
        MultiplicityTable(algebra)
        SerreQuotient(algebra, height_cap=8)
        cli.build_parser()

    def inputs(self, seed: int, size: str) -> list[Query]:
        argv = self.argv[size]
        return [Query(f"{size}:" + " ".join(argv), argv)]

    def run(self, q: Query) -> tuple[int, str]:
        return _cli_call(self.cli, q.payload)

    def gate(
        self, queries: list[Query], answers: dict[str, Any], reference: dict[str, Any], seed: int
    ) -> dict[str, str]:
        """Exit code 0 and the report byte for byte as stored."""
        stored = reference.get(self.name, {})
        bad = {}
        for q in queries:
            code, text = answers[q.key]
            if code != 0:
                bad[q.key] = f"exit code {code}"
            elif q.key not in stored:
                bad[q.key] = "no stored reference report"
            elif text != stored[q.key]:
                bad[q.key] = "report differs from the stored reference"
        return bad


class RewriteVerify:
    """``rewrite EXPR --verify`` through ``cli.main``, one call per expression.

    The bracket trees and their letters are fixed (drawn once from a fixed
    stream): the rewriter's cost grows with the number of left-normed terms,
    and redrawing letters per seed moved a pass by over 4x.  The seed draws
    the order of the two sides of every bracket above the leaves, which only
    negates the rewritten form, and the order of the queries.
    """

    name = "rewrite-verify"
    shapes = {"full": (300, 4, 14), "tiny": (20, 4, 8)}

    def setup(self, cli: Any) -> None:
        self.cli = cli

    @staticmethod
    def _tree(rng: random.Random, leaves: int) -> Any:
        if leaves == 1:
            return rng.randint(1, 3)
        split = rng.randint(1, leaves - 1)
        return (RewriteVerify._tree(rng, split), RewriteVerify._tree(rng, leaves - split))

    @staticmethod
    def _text(rng: random.Random, tree: Any) -> str:
        if isinstance(tree, int):
            return f"e{tree}"
        left, right = RewriteVerify._text(rng, tree[0]), RewriteVerify._text(rng, tree[1])
        # [ei,ej] and [ej,ei] rewrite to different tuples, which changes what
        # cancels further up; any other swap only negates the rewritten form
        if not (isinstance(tree[0], int) and isinstance(tree[1], int)) and rng.random() < 0.5:
            left, right = right, left
        return f"[{left},{right}]"

    def inputs(self, seed: int, size: str) -> list[Query]:
        count, lo, hi = self.shapes[size]
        fixed = random.Random(f"{self.name}:trees")
        trees = [self._tree(fixed, lo + i % (hi - lo + 1)) for i in range(count)]
        rng = random.Random(f"{self.name}:{seed}")
        texts = [self._text(rng, t) for t in trees]
        return _shuffled(rng, [Query(f"{i}:{t}", t) for i, t in enumerate(texts)])

    def run(self, q: Query) -> tuple[int, str]:
        return _cli_call(self.cli, ["rewrite", q.payload, "--verify"])

    def gate(
        self, queries: list[Query], answers: dict[str, Any], reference: dict[str, Any], seed: int
    ) -> dict[str, str]:
        """``VERIFIED`` printed, and the printed tuples expand to the input here too."""
        bad = {}
        for q in queries:
            code, text = answers[q.key]
            lines = text.splitlines()
            if code != 0 or not lines or lines[-1] != "VERIFIED":
                bad[q.key] = f"exit code {code}, last line {lines[-1:]!r}"
                continue
            try:
                printed = combination_expansion(lines[:-1])
            except ValueError as exc:
                bad[q.key] = str(exc)
                continue
            if printed != bracket_expansion(q.payload):
                bad[q.key] = "printed tuples do not expand to the expression"
        return bad


WORKLOADS = {w.name: w for w in (RecurrenceDeep, QuotientSlice, CompareGrid, RewriteVerify)}


def load_reference(directory: Path) -> dict[str, dict[str, Any]]:
    """Stored answers: recurrence values by weight key, compare reports by query key."""
    reference: dict[str, dict[str, Any]] = {}
    with open(directory / "recurrence-deep.json", encoding="utf-8") as fh:
        reference["recurrence-deep"] = json.load(fh)
    reports = {}
    for size in SIZES:
        path = directory / f"compare-grid-{size}.csv"
        key = f"{size}:" + " ".join(CompareGrid.argv[size])
        reports[key] = path.read_text(encoding="utf-8")
    reference["compare-grid"] = reports
    return reference


# ---------------------------------------------------------------------------
# the benchmark's own tensor expansion, independent of rootmult.freelie
# ---------------------------------------------------------------------------

Poly = dict[tuple[int, ...], int]


def _add(out: Poly, word: tuple[int, ...], c: int) -> None:
    v = out.get(word, 0) + c
    if v:
        out[word] = v
    else:
        out.pop(word, None)


def _commutator(x: Poly, y: Poly) -> Poly:
    out: Poly = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            _add(out, wx + wy, cx * cy)
            _add(out, wy + wx, -cx * cy)
    return out


def bracket_expansion(text: str) -> Poly:
    """Image of a bracket expression under [x, y] -> xy - yx (stack parser)."""
    stack: list[Any] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "e":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            stack.append({(int(text[i + 1 : j]),): 1})
            i = j
            continue
        if ch == "]":
            y = stack.pop()
            x = stack.pop()
            stack.append(_commutator(x, y))
        i += 1
    if len(stack) != 1:
        raise ValueError(f"unbalanced expression {text!r}")
    return stack[0]


def combination_expansion(lines: list[str]) -> Poly:
    """Expansion of printed terms ``+c*[t1,...,tn]``, each a left-normed bracket."""
    total: Poly = {}
    for line in lines:
        try:
            coeff, body = line.split("*", 1)
            c = int(coeff)
            t = tuple(int(x) for x in body.strip("[]").split(","))
        except ValueError:
            raise ValueError(f"unreadable output line {line!r}") from None
        p: Poly = {(t[-1],): 1}
        for a in reversed(t[:-1]):
            p = _commutator({(a,): 1}, p)
        for w, k in p.items():
            _add(total, w, c * k)
    return total
