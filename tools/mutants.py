"""Mutation gate: named one-line mutants of the oracles, the verifier and the command line.

    python tools/mutants.py

Each mutant replaces one exact text, which must occur exactly once in its
file under ``src/``, by a one-line replacement.  For each mutant the working
tree, without ``.git``, is copied into a fresh temporary directory, the
mutant is applied there and the kill command runs there under a timeout of
``TIMEOUT`` seconds:

    python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0 tests
        --deselect tests/test_acceptance.py::test_ac08_combinatorial_identities

AC-08 is left out because it fails on the unmutated tree (the closed form's
pooled vanishing count), so a mutant is killed when any other test fails.
Each mutant is reported as killed (with the first failing test), survived
or timed out.  The exit code is 1 when a mutant times out, or survives and
is not in ``EQUIVALENT``; 2 when a mutant's text is missing or repeated,
or when the kill command fails on the unmutated tree; 0 otherwise.
Standard library only; the repository itself is never changed.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300.0  # seconds per run of the kill command
KILL_COMMAND = (
    *("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests"),
    *("--deselect", "tests/test_acceptance.py::test_ac08_combinatorial_identities"),
)


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    text: str
    replacement: str


MUTANTS = (
    Mutant(
        "linalg-insert-no-content-division",
        "src/rootmult/linalg.py",
        "x = _divide(x, g if x[q] > 0 else -g)",
        "x = _divide(x, 1 if x[q] > 0 else -1)",
    ),
    Mutant(
        "linalg-insert-clears-with-scaled-entry",
        "src/rootmult/linalg.py",
        "_axpy(x, -(row[p] * common // basis[p][p]), basis[p])",
        "_axpy(x, -x[p], basis[p])",
    ),
    Mutant(
        "linalg-insert-empty-lcm-2",
        "src/rootmult/linalg.py",
        "common = math.lcm(*(basis[p][p] for p in used))",
        "common = math.lcm(*(basis[p][p] for p in used)) if used else 2",
    ),
    Mutant(
        "serre-lowest-terms-without-gcd",
        "src/rootmult/serre.py",
        "g = math.gcd(den, *(v for row in rows for v in row.values()))",
        "g = 1",
    ),
    Mutant(
        "serre-shift-paired-with-lambda",
        "src/rootmult/serre.py",
        "shift = scale * sum(a * m for a, m in zip(A[i], mu))",
        "shift = scale * sum(a * m for a, m in zip(A[i], lam))",
    ),
    Mutant(
        "serre-shift-sign-flipped",
        "src/rootmult/serre.py",
        "row[t] = row.get(t, 0) - shift",
        "row[t] = row.get(t, 0) + shift",
    ),
    Mutant(
        "serre-evaluate-ignores-coefficient",
        "src/rootmult/serre.py",
        "_axpy(out, v, cols[c])",
        "_axpy(out, 1, cols[c])",
    ),
    Mutant(
        "serre-image-empty-lcm-2",
        "src/rootmult/serre.py",
        "image_den = math.lcm(*(b[p] for p, b in pivots.items()))",
        "image_den = math.lcm(*(b[p] for p, b in pivots.items())) if pivots else 2",
    ),
    Mutant(
        "serre-free-lie-guard-off",
        "src/rootmult/serre.py",
        "if free_lie_dim(lam) - mult < 0:",
        "if False and free_lie_dim(lam) - mult < 0:",
    ),
    Mutant(
        "peterson-store-without-divisor-part",
        "src/rootmult/peterson.py",
        "self._cnum[lam] = divisor_part + mult * denom",
        "self._cnum[lam] = mult * denom",
    ),
    Mutant(
        "peterson-denominator-lcm-to-h-minus-1",
        "src/rootmult/peterson.py",
        "target = lcm(self._denom, *range(2, height + 1))",
        "target = lcm(self._denom, *range(2, height))",
    ),
    Mutant(
        "peterson-singular-cells-reflect",
        "src/rootmult/peterson.py",
        "if lead and p > 0:",
        "if p > 0:",
    ),
    Mutant(
        "formula-vanishing-binomial",
        "src/rootmult/formula.py",
        "vanishing_first = comb(n1 + n3 - 1 + m1, m1)",
        "vanishing_first = comb(n1 + n3 + m1, m1)",
    ),
    Mutant(
        "gcm-chamber-walk-stops-at-height-3",
        "src/rootmult/gcm.py",
        "while sum(lam) >= 2:",
        "while sum(lam) >= 3:",
    ),
    Mutant(
        "freelie-left-quotient-keeps-other-letters",
        "src/rootmult/freelie.py",
        "return {w[1:]: c for w, c in coeffs.items() if w[0] == a}",
        "return {w[1:]: c for w, c in coeffs.items()}",
    ),
    Mutant(
        "cli-verifier-empty-combination-largest-letter",
        "src/rootmult/cli.py",
        "return not expand_tensor(expr, first=support[0]).coeffs",
        "return not expand_tensor(expr, first=support[-1]).coeffs",
    ),
    Mutant(
        "cli-integers-accept-non-ascii-digits",
        "src/rootmult/cli.py",
        "not all(d.isascii() and d.isdigit() for d in digits)",
        "not all(d.isdigit() for d in digits)",
    ),
    Mutant(
        "cli-out-checked-for-truth",
        "src/rootmult/cli.py",
        'sink = out if args.out is None else open(args.out, "w", encoding="utf-8")',
        'sink = out if not args.out else open(args.out, "w", encoding="utf-8")',
    ),
)

# mutants that change no answer, so no test can kill them
EQUIVALENT = {
    "linalg-insert-empty-lcm-2": (
        "a row that meets no pivot is only scaled by 2, and the content division removes it"
    ),
    "serre-free-lie-guard-off": (
        "g_lam is a quotient of the free Lie component, so with a right kernel "
        "the guard never fires"
    ),
    "cli-verifier-empty-combination-largest-letter": (
        "the left quotient by any letter of supp(lam) decides zero: a nonzero Lie polynomial has "
        "a nonzero Lyndon word for the order that puts that letter first, and it begins with it"
    ),
}


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "(no failing test named)"


def run(mutant: Mutant | None) -> tuple[str, str, float]:
    """(outcome, detail, seconds) of the kill command on a copy of the tree, mutated if given."""
    with tempfile.TemporaryDirectory(prefix="rootmult-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(
            ROOT,
            tree,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"),
        )
        if mutant:
            path = tree / mutant.path
            source = path.read_text(encoding="utf-8")
            path.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, *KILL_COMMAND],
                cwd=tree,
                capture_output=True,
                text=True,
                timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return "timed out", f"after {TIMEOUT:g} s", time.monotonic() - start
        elapsed = time.monotonic() - start
    if proc.returncode == 0:
        return "survived", "", elapsed
    return "killed", first_failure(proc.stdout), elapsed


def main() -> int:
    # every text is checked before the first run, so a stale mutant stops the gate at once
    source = {m.path: (ROOT / m.path).read_text(encoding="utf-8") for m in MUTANTS}
    for m in MUTANTS:
        count = source[m.path].count(m.text)
        if count != 1:
            print(f"error: mutant {m.name}: text occurs {count} times in {m.path}", file=sys.stderr)
            return 2
    # on the unmutated tree the kill command must pass, or every mutant would read killed
    outcome, detail, elapsed = run(None)
    if outcome != "survived":
        message = f"the unmutated tree fails the kill command: {outcome} {detail}"
        print(f"error: {message}", file=sys.stderr)
        return 2
    print(f"the unmutated tree passes the kill command in {elapsed:.1f}s", flush=True)
    bad = 0
    for m in MUTANTS:
        outcome, detail, elapsed = run(m)
        if outcome == "survived" and m.name in EQUIVALENT:
            detail = f"equivalent: {EQUIVALENT[m.name]}"
        elif outcome != "killed":
            bad += 1
        print(f"{outcome:<10} {m.name:<46} {elapsed:6.1f}s  {detail}".rstrip(), flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} timed out or survived outside the equivalents list")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
