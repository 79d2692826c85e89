"""Free Lie algebra machinery: bracket expressions, tensor-algebra expansion,
the left-normed rewriter, and multigraded dimension counts.

An element in standard form is a dict from standard tuples to integers.

Everything here is an identity of the free Lie algebra on generators
e_1..e_r; no defining relations of any particular algebra are applied.
The quotient by an algebra's defining relations is :mod:`rootmult.serre`.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from typing import Iterator, Mapping, Sequence, Union

from .gcm import WeightVector

# A left-normed bracket [e_{t[0]}, [e_{t[1]}, [... [e_{t[-2]}, e_{t[-1]}] ...]]]
# is encoded as the tuple t of its generator indices, outermost first.
StandardTuple = tuple[int, ...]

# deepest bracket nesting parse_bracket accepts; the parser, the rewriter and
# the tensor expansion all recurse once per level (the rewriter's expansion
# of one tuple recurses once per letter, about 21 deep at MAX_REWRITE_STEPS)
MAX_BRACKET_DEPTH = 256

# most steps one to_standard_form call may be charged; a bracket is charged
# its worst-case output words, |left| * |right| * 2^(k-1) for children of
# tuple lengths k and longer, before its pairs run.  The balanced bracket
# tree of depth 4 in the tests is charged 32,848 and its cancelling sibling
# 62,032; a depth-5 tree is refused at its root bracket
MAX_REWRITE_STEPS = 1_000_000

# most words one tensor expansion may hold; the alternating right-nested
# bracket [e1,[e2,[e1,...]]] rewrites to a single tuple, yet at 24 leaves it
# expands to 691,126 words, and each further 2 leaves cost about 3.4x that
MAX_EXPAND_WORDS = 1_000_000


# ---------------------------------------------------------------------------
# bracket expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    index: int

    @property
    def length(self) -> int:
        return 1


@dataclass(frozen=True)
class Node:
    left: "BracketExpr"
    right: "BracketExpr"

    @property
    def length(self) -> int:
        return self.left.length + self.right.length


BracketExpr = Union[Leaf, Node]


class ParseError(ValueError):
    """Syntax error in a bracket expression, with a 0-based position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at position {position}")
        self.position = position


def parse_bracket(text: str) -> BracketExpr:
    """Parse ``expr := atom | '[' expr ',' expr ']'`` with ``atom := 'e' digits``.

    Whitespace is insignificant.  Generator indices are stored verbatim;
    range checking happens at evaluation time.  Nesting deeper than
    :data:`MAX_BRACKET_DEPTH` is a :class:`ParseError`.
    """
    pos = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(ch: str) -> None:
        nonlocal pos
        skip_ws()
        if pos >= len(text) or text[pos] != ch:
            raise ParseError(f"expected '{ch}'", pos)
        pos += 1

    def expr(depth: int) -> BracketExpr:
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise ParseError("unexpected end of input", pos)
        if text[pos] == "[":
            if depth == MAX_BRACKET_DEPTH:
                raise ParseError(f"brackets nested deeper than {MAX_BRACKET_DEPTH}", pos)
            pos += 1
            left = expr(depth + 1)
            expect(",")
            right = expr(depth + 1)
            expect("]")
            return Node(left, right)
        if text[pos] == "e":
            pos += 1
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            if pos == start:
                raise ParseError("expected digits after 'e'", pos)
            return Leaf(int(text[start:pos]))
        raise ParseError("expected '[' or 'e'", pos)

    result = expr(0)
    skip_ws()
    if pos != len(text):
        raise ParseError("trailing input", pos)
    return result


def format_bracket(x: BracketExpr) -> str:
    """Print an expression in the same grammar the parser accepts, no whitespace."""
    if isinstance(x, Leaf):
        return f"e{x.index}"
    return f"[{format_bracket(x.left)},{format_bracket(x.right)}]"


def weight_of(x: BracketExpr, rank: int) -> WeightVector:
    """Multidegree of an expression: coefficient i counts the leaves e_{i+1}."""
    counts = [0] * rank
    stack = [x]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            if not 1 <= node.index <= rank:
                raise ValueError(f"generator index {node.index} out of range 1..{rank}")
            counts[node.index - 1] += 1
        else:
            stack.append(node.left)
            stack.append(node.right)
    return WeightVector(tuple(counts))


# ---------------------------------------------------------------------------
# tensor-algebra expansion
# ---------------------------------------------------------------------------

class NcPolynomial:
    """Sparse noncommutative polynomial: a map from generator words to integers.

    Words are byte strings of generator indices.  This is the substrate for
    the embedding [x, y] -> xy - yx, which turns Lie identities into exact
    integer linear algebra.  Zero coefficients are never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[bytes, int] | None = None) -> None:
        self.coeffs: dict[bytes, int] = {w: c for w, c in (coeffs or {}).items() if c}

    @classmethod
    def generator(cls, i: int) -> "NcPolynomial":
        if not 1 <= i <= 255:
            raise ValueError(f"generator index {i} does not fit the word encoding")
        return cls({bytes([i]): 1})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            v = out.get(w, 0) + c
            if v:
                out[w] = v
            else:
                out.pop(w, None)
        result = NcPolynomial()
        result.coeffs = out
        return result

    def __neg__(self) -> "NcPolynomial":
        result = NcPolynomial()
        result.coeffs = {w: -c for w, c in self.coeffs.items()}
        return result

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + (-other)

    def terms(self) -> list[tuple[bytes, int]]:
        """Terms ordered length-first, then lexicographically."""
        return sorted(self.coeffs.items(), key=lambda t: (len(t[0]), t[0]))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for w, c in self.terms():
            word = "".join(str(b) for b in w)
            parts.append(f"{'+' if c > 0 else '-'}{abs(c)}*{word}")
        return " ".join(parts)


def _ad_into(out: dict, prefix: bytes | StandardTuple, coeffs: Mapping) -> None:
    """Accumulate [e_i, p] into ``out``, where ``coeffs`` are the terms of p.

    ``prefix`` is the one-letter word e_i in the encoding of p's words:
    ``bytes([i])`` for byte-string words, ``(i,)`` for tuple words.
    """
    for w, c in coeffs.items():
        left = prefix + w
        v = out.get(left, 0) + c
        if v:
            out[left] = v
        else:
            out.pop(left, None)
        right = w + prefix
        v = out.get(right, 0) - c
        if v:
            out[right] = v
        else:
            out.pop(right, None)


def ad_generator(i: int, p: NcPolynomial) -> NcPolynomial:
    """Commutator [e_i, p] in the tensor algebra."""
    result = NcPolynomial()
    _ad_into(result.coeffs, bytes([i]), p.coeffs)
    return result


def _expansion_limit(words: int) -> None:
    if words > MAX_EXPAND_WORDS:
        raise ValueError(f"tensor expansion exceeds {MAX_EXPAND_WORDS} words")


def expand_tensor(x: BracketExpr) -> NcPolynomial:
    """Expand a bracket expression to its tensor-algebra image, exactly.

    Raises ``ValueError`` before forming a bracket [L, R] whose 2*|L|*|R|
    words would pass :data:`MAX_EXPAND_WORDS`.
    """
    if isinstance(x, Leaf):
        return NcPolynomial.generator(x.index)
    left = expand_tensor(x.left)
    right = expand_tensor(x.right)
    _expansion_limit(2 * len(left.coeffs) * len(right.coeffs))
    out: dict[bytes, int] = {}
    for w1, c1 in left.coeffs.items():
        for w2, c2 in right.coeffs.items():
            c = c1 * c2
            w = w1 + w2
            v = out.get(w, 0) + c
            if v:
                out[w] = v
            else:
                out.pop(w, None)
            w = w2 + w1
            v = out.get(w, 0) - c
            if v:
                out[w] = v
            else:
                out.pop(w, None)
    result = NcPolynomial()
    result.coeffs = out
    return result


def expand_combination(coeffs: Mapping[StandardTuple, int]) -> NcPolynomial:
    """Tensor expansion of a combination {standard tuple: integer} of one length.

    By linearity, k1*[e_a, u] + k2*[e_a, v] = [e_a, k1*u + k2*v], so the
    tuples are grouped by prefix and every distinct prefix is bracketed
    once.  Level by level from the longest prefixes, each group's summed
    tails are bracketed by the group's last letter into the sum of its
    parent group, and terms cancel before the next bracket.  Working by
    levels rather than by recursion keeps long tuples off the call stack.
    Zero coefficients are skipped.  A sum that passes
    :data:`MAX_EXPAND_WORDS` raises ``ValueError``.
    """
    result = NcPolynomial()
    if not coeffs:
        return result
    n = len(next(iter(coeffs)))
    if n == 0:
        raise ValueError("empty standard tuple")
    # each prefix of length n - 1 maps to the sum of k * e_{t[-1]} below it
    level: dict[StandardTuple, dict[bytes, int]] = {}
    for t, k in coeffs.items():
        if len(t) != n:
            raise ValueError("standard tuples of mixed length")
        if k:
            level.setdefault(t[:-1], {})[bytes(t[-1:])] = k
    for _ in range(n - 1):
        parents: dict[StandardTuple, dict[bytes, int]] = {}
        for prefix, tails in level.items():
            out = parents.setdefault(prefix[:-1], {})
            _ad_into(out, bytes(prefix[-1:]), tails)
            _expansion_limit(len(out))
        level = parents
    result.coeffs = level.get((), {})
    return result


# ---------------------------------------------------------------------------
# rewriting into left-normed form
# ---------------------------------------------------------------------------

def to_standard_form(x: BracketExpr) -> dict[StandardTuple, int]:
    """Rewrite a bracket expression as a dict {standard tuple: nonzero integer}.

    The result expands to exactly the same tensor polynomial as the input:
    the rewriting is an identity of the free Lie algebra.  Each bracket is
    rewritten from the rewrites of its two children, pair by pair: ad is a
    Lie homomorphism, so for standard tuples s and t

        [s, t] = sum over the words w of E(s) of E(s)_w * (w + t),

    E(s) being the tensor expansion of s with tuple words, memoized by
    suffix.  [s, s] vanishes, and a pair with s "larger" than t (length,
    then lexicographic) is flipped with a sign, so the shorter tuple is
    expanded and the output of [u, v] is the exact formal negation of that
    of [v, u], unless both are single generators (then the negation holds
    after expansion).  Before its pairs run, a bracket is charged
    |left| * |right| * 2^(k-1), its worst-case output words for children of
    tuple lengths k and longer; a rewrite charged more than
    :data:`MAX_REWRITE_STEPS` in all raises ``ValueError``.
    """
    expansions: dict[StandardTuple, dict[StandardTuple, int]] = {}
    spent = 0

    def expand(u: StandardTuple) -> dict[StandardTuple, int]:
        e = expansions.get(u)
        if e is None:
            if len(u) == 1:
                e = {u: 1}
            else:
                e = {}
                _ad_into(e, u[:1], expand(u[1:]))
            expansions[u] = e
        return e

    def rewrite(x: BracketExpr) -> dict[StandardTuple, int]:
        nonlocal spent
        if isinstance(x, Leaf):
            return {(x.index,): 1}
        left = rewrite(x.left)
        right = rewrite(x.right)
        if not left or not right:
            return {}
        k = min(len(next(iter(left))), len(next(iter(right))))
        spent += len(left) * len(right) << (k - 1)
        if spent > MAX_REWRITE_STEPS:
            raise ValueError(f"rewrite takes more than {MAX_REWRITE_STEPS} bracket steps")
        out: dict[StandardTuple, int] = {}
        for s, cs in left.items():
            for t, ct in right.items():
                if s == t:
                    continue
                if len(s) > 1 and (len(s), s) > (len(t), t):
                    head, tail, sign = t, s, -cs * ct
                else:
                    head, tail, sign = s, t, cs * ct
                for w, c in expand(head).items():
                    key = w + tail
                    v = out.get(key, 0) + sign * c
                    if v:
                        out[key] = v
                    else:
                        out.pop(key, None)
        return out

    return rewrite(x)


# ---------------------------------------------------------------------------
# dimension counts
# ---------------------------------------------------------------------------

def _mobius(n: int) -> int:
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def free_lie_dim(lam: WeightVector | Sequence[int]) -> int:
    """Dimension of the multidegree component of the free Lie algebra.

    Computed by the multigraded Witt formula
    (1/n) * sum over d | gcd(lam) of mu(d) * (n/d)! / prod (n_i/d)!.
    """
    lam = WeightVector.of(lam)
    n = lam.height
    if n < 1:
        raise ValueError("weight must have height >= 1")
    g = 0
    for c in lam:
        g = gcd(g, c)
    total = 0
    for d in range(1, g + 1):
        if g % d:
            continue
        mu = _mobius(d)
        if mu == 0:
            continue
        remaining = n // d
        ways = 1
        for c in lam:
            ways *= comb(remaining, c // d)
            remaining -= c // d
        total += mu * ways
    dim, rem = divmod(total, n)
    if rem:
        raise ArithmeticError(f"Witt count not divisible by height at {lam.coeffs}")
    return dim


def standard_tuples_of_weight(lam: WeightVector | Sequence[int]) -> Iterator[StandardTuple]:
    """All standard tuples of the given multidegree, in lexicographic order."""
    lam = WeightVector.of(lam)
    counts = list(lam.coeffs)

    def rec(prefix: list[int]) -> Iterator[StandardTuple]:
        if not any(counts):
            yield tuple(prefix)
            return
        for i, c in enumerate(counts):
            if c == 0:
                continue
            counts[i] -= 1
            prefix.append(i + 1)
            yield from rec(prefix)
            prefix.pop()
            counts[i] += 1

    yield from rec([])
