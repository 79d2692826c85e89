"""Free Lie algebra machinery: bracket expressions, tensor-algebra expansion,
the left-normed rewriter, and multigraded dimension counts.

A bracket expression is plain data: the leaf e_i is the int i, and the
bracket [x, y] is the pair (x, y), so [[e1,e2],e3] is ((1, 2), 3).  A node
is read by unpacking, ``left, right = x``, so a tuple of any other length
raises ``ValueError``.  An element in standard form is a dict from standard
tuples to integers.

Everything here is an identity of the free Lie algebra on generators
e_1..e_r; no defining relations of any particular algebra are applied.
The quotient by an algebra's defining relations is :mod:`rootmult.serre`.
"""
from __future__ import annotations

from math import comb, gcd
from typing import Mapping, NamedTuple, Sequence, Union

from .gcm import query_weight

# A left-normed bracket [e_{t[0]}, [e_{t[1]}, [... [e_{t[-2]}, e_{t[-1]}] ...]]]
# is encoded as the tuple t of its generator indices, outermost first.
StandardTuple = tuple[int, ...]
# the letters a byte of a word can hold; 0 marks a split walk's operator slot
_WORD_LETTERS = frozenset(range(1, 256))

# deepest bracket nesting parse_bracket accepts.  The parser keeps its own
# stack, but the rewriter and the tensor expansion recurse once per level, so
# this limit keeps them inside the interpreter's recursion limit (the
# rewriter's expansion of one tuple recurses once per letter, about 21 deep
# at MAX_REWRITE_STEPS)
MAX_BRACKET_DEPTH = 256

# most steps one to_standard_form call may be charged; a bracket is charged
# its worst-case output words, |left| * |right| * 2^(k-1) for children of
# tuple lengths k and longer, before its pairs run.  The balanced bracket
# tree of depth 4 in the tests is charged 32,848 and its cancelling sibling
# 62,032; a depth-5 tree is refused at its root bracket
MAX_REWRITE_STEPS = 1_000_000

# most words one tensor expansion may hold: full expansions below the root,
# and only the left quotient at the root when one is asked for; a split
# combination holds each operator, each suffix combination's expansion and
# the sum to it.
# The alternating right-nested bracket [e1,[e2,[e1,...]]] rewrites to a
# single tuple, yet at 24 leaves it expands to 691,126 words, and each
# further 2 leaves cost about 3.4x that
MAX_EXPAND_WORDS = 1_000_000


# ---------------------------------------------------------------------------
# bracket expressions
# ---------------------------------------------------------------------------

BracketExpr = Union[int, tuple["BracketExpr", "BracketExpr"]]


class ParseError(ValueError):
    """Syntax error in a bracket expression, with a 0-based position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at position {position}")
        self.position = position


def parse_bracket(text: str) -> BracketExpr:
    """Parse ``expr := atom | '[' expr ',' expr ']'`` with ``atom := 'e' digits``.

    Whitespace is insignificant.  Generator indices are stored verbatim;
    range checking happens at evaluation time.  Nesting deeper than
    :data:`MAX_BRACKET_DEPTH` is a :class:`ParseError`.  The text is read in
    one left-to-right scan: ``pending`` holds one entry per unclosed bracket,
    ``None`` until its left child is read and that child after.
    """
    end = len(text)
    pos = 0
    pending: list[BracketExpr | None] = []
    while True:
        # an expression: open brackets down to its leftmost leaf
        while True:
            while pos < end and text[pos].isspace():
                pos += 1
            if pos == end:
                raise ParseError("unexpected end of input", pos)
            ch = text[pos]
            if ch == "e":
                break
            if ch != "[":
                raise ParseError("expected '[' or 'e'", pos)
            if len(pending) == MAX_BRACKET_DEPTH:
                raise ParseError(f"brackets nested deeper than {MAX_BRACKET_DEPTH}", pos)
            pending.append(None)
            pos += 1
        pos += 1
        start = pos
        # ASCII digits only: str.isdigit also accepts '²' and '١'
        while pos < end and "0" <= text[pos] <= "9":
            pos += 1
        if pos == start:
            raise ParseError("expected digits after 'e'", pos)
        value: BracketExpr = int(text[start:pos])
        # close every bracket whose right child this completes, then read
        # the right child of the innermost one still open
        while True:
            while pos < end and text[pos].isspace():
                pos += 1
            if not pending:
                if pos != end:
                    raise ParseError("trailing input", pos)
                return value
            if pending[-1] is None:
                if pos == end or text[pos] != ",":
                    raise ParseError("expected ','", pos)
                pending[-1] = value
                pos += 1
                break
            if pos == end or text[pos] != "]":
                raise ParseError("expected ']'", pos)
            value = (pending.pop(), value)
            pos += 1


def weight_of(x: BracketExpr, rank: int) -> tuple[int, ...]:
    """Multidegree of an expression: coefficient i counts the leaves e_{i+1}."""
    counts = [0] * rank
    stack = [x]
    while stack:
        node = stack.pop()
        if isinstance(node, int):
            if not 1 <= node <= rank:
                raise ValueError(f"generator index {node} out of range 1..{rank}")
            counts[node - 1] += 1
        else:
            left, right = node
            stack.append(left)
            stack.append(right)
    return tuple(counts)


def _check_shape(x: BracketExpr) -> None:
    """Unpack every node of an expression that is skipped, not evaluated."""
    if not isinstance(x, int):
        left, right = x
        _check_shape(left)
        _check_shape(right)


# ---------------------------------------------------------------------------
# tensor-algebra expansion
# ---------------------------------------------------------------------------

class NcPolynomial(NamedTuple):
    """Tensor-algebra image of a Lie element under [x, y] -> xy - yx.

    ``coeffs`` maps words, byte strings of generator indices, to nonzero
    integers.  Two expansions are equal exactly when their maps are.
    """

    # a record rather than a bare dict only because the freelie.words_out
    # counter of bench/spans.py, and test_package.py's
    # test_benchmark_tracer_counts_words_configs_and_bytes, read .coeffs
    coeffs: dict[bytes, int]


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
    out: dict[bytes, int] = {}
    _ad_into(out, bytes([i]), p.coeffs)
    return NcPolynomial(out)


def _expansion_limit(words: int) -> None:
    if words > MAX_EXPAND_WORDS:
        raise ValueError(f"tensor expansion exceeds {MAX_EXPAND_WORDS} words")


def _product_into(
    out: dict[bytes, int], left: Mapping[bytes, int], right: Mapping[bytes, int], sign: int
) -> None:
    """Accumulate ``sign`` * (left · right) into ``out``; words concatenate."""
    for w2, c2 in right.items():
        k = sign * c2
        for w1, c1 in left.items():
            w = w1 + w2
            v = out.get(w, 0) + k * c1
            if v:
                out[w] = v
            else:
                out.pop(w, None)


def _left_quotient(coeffs: Mapping[bytes, int], a: int) -> dict[bytes, int]:
    """a⁻¹P: the words of P that begin with e_a, with that letter dropped."""
    return {w[1:]: c for w, c in coeffs.items() if w[0] == a}


def _tensor_words(x: BracketExpr, first: int | None) -> dict[bytes, int]:
    if isinstance(x, int):
        if x not in _WORD_LETTERS:
            raise ValueError(f"generator index {x} does not fit the word encoding")
        words = {bytes([x]): 1}
        return words if first is None else _left_quotient(words, first)
    left, right = x
    # E([L, R]) = E(L)E(R) - E(R)E(L) vanishes with either child, so a zero
    # child ends the bracket before its sibling is expanded
    left = _tensor_words(left, None)
    if not left:
        _check_shape(right)
        return {}
    right = _tensor_words(right, None)
    if not right:
        return {}
    if first is None:
        left_head, right_head = left, right
    else:
        left_head, right_head = _left_quotient(left, first), _left_quotient(right, first)
    _expansion_limit(len(left_head) * len(right) + len(right_head) * len(left))
    out: dict[bytes, int] = {}
    _product_into(out, left_head, right, 1)
    _product_into(out, right_head, left, -1)
    return out


def expand_tensor(x: BracketExpr, first: int | None = None) -> NcPolynomial:
    """Expand a bracket expression to its tensor-algebra image, exactly.

    With ``first`` = a, return only the left quotient a⁻¹E: the words that
    begin with e_a, with that letter dropped.  Only the root bracket changes,
    a⁻¹[L, R] = (a⁻¹L)·R - (a⁻¹R)·L, with L and R expanded in full.
    A bracket with a zero child is zero, and its other child is not
    expanded: L is expanded first, and R only when L is nonzero; a skipped R
    is only unpacked node by node, so a malformed node there still raises.
    Raises ``ValueError`` before forming a bracket whose 2*|L|*|R| words,
    or |a⁻¹L|*|R| + |a⁻¹R|*|L| at a quotient root, would pass
    :data:`MAX_EXPAND_WORDS`.
    """
    return NcPolynomial(_tensor_words(x, first))


def expand_combination(
    coeffs: Mapping[StandardTuple, int], first: int | None = None, *, split: int | None = None
) -> NcPolynomial:
    """Tensor expansion of a combination {standard tuple: integer} of one length.

    By linearity, k1*[e_a, u] + k2*[e_a, v] = [e_a, k1*u + k2*v], so the
    tuples are grouped by prefix and every distinct prefix is bracketed
    once.  Level by level from the longest prefixes, each group's summed
    tails are bracketed by the group's last letter into the sum of its
    parent group, and terms cancel before the next bracket.  Working by
    levels rather than by recursion keeps long tuples off the call stack.

    With ``first`` = a, return only the left quotient a⁻¹E, as
    :func:`expand_tensor` does.  A prefix that contains a holds its full
    sum; a prefix without a holds only the a-quotient of its sum.  Going
    from p·x to such a p, a⁻¹[e_a, P] = P - (a⁻¹P)·a for a full P, and
    a⁻¹[e_x, Q] = -(a⁻¹Q)·x for x ≠ a, where only a⁻¹Q is held.

    With ``split`` = m, each tuple t of length n is read as u + s with
    |s| = m, and E(t) = ad(e_{u1})∘…∘ad(e_{uk})(E(s)), ad(e_x)P = xP - Px.
    The tuples are grouped by suffix s, and each group's sum of c·ad(u) is
    a two-sided operator {α·0·β: d}, meaning the sum of d·α(·)β: it is the
    expansion of the tuples u + (0,), the letter 0 marking where E(s) goes.
    Suffixes whose operators are equal after division by their content g_s
    form one operator group.  It walks its operator once, expands its
    combination C = Σ_s g_s·s once and adds d·α·E(C)·β for each word.  With
    ``first`` = a, a word whose α does not begin with a adds nothing, the
    others add d·α[1:]·E(C)·β, and an empty α adds d·(a⁻¹E(C))·β.  E(C) is
    expanded in full when some α begins with a, and a⁻¹E(C) is read off it;
    otherwise only a⁻¹E(C) is walked.  The result is the same for every m
    in 1..n, and no split is the split n; a split at the root of the tree
    the tuples came from groups most.  The rewriter prints [L, R] as a Lie
    element P of the shorter child applied to the longer child's tuples, so
    every operator is a multiple of ad(P) = P⊗1 - 1⊗P and there is one
    group; only root children of equal leaf count, whose pairs the rewriter
    orders one by one, can form more.  A split with fewer than two letters
    before it runs the prefix walk, whose last level already groups the
    tuples by their first letter.

    Zero coefficients are skipped, but every split raises ``ValueError`` on
    an empty tuple, tuples of mixed length or a letter outside 1..255, which
    a byte-string word cannot hold, on a split outside 1..n, and on an
    operator, a C's expansion or a sum past :data:`MAX_EXPAND_WORDS`.
    """
    return NcPolynomial(_split_words(coeffs, first, split))


def _combination_words(coeffs: Mapping[StandardTuple, int], a: int | None) -> dict[bytes, int]:
    n = len(next(iter(coeffs)))
    # each prefix of length n - 1 maps to the sum of k * e_{t[-1]} below it,
    # or to its a-quotient: k times the empty word when t[-1] = a
    level: dict[StandardTuple, dict[bytes, int]] = {}
    for t, k in coeffs.items():
        if not k:
            continue
        if a is None or a in t[:-1]:
            level.setdefault(t[:-1], {})[bytes(t[-1:])] = k
        elif t[-1] == a:
            level.setdefault(t[:-1], {})[b""] = k
    for _ in range(n - 1):
        parents: dict[StandardTuple, dict[bytes, int]] = {}
        for prefix, tails in level.items():
            parent, x = prefix[:-1], bytes(prefix[-1:])
            out = parents.setdefault(parent, {})
            if a is None or a in parent:
                _ad_into(out, x, tails)
            elif x[0] == a:
                _product_into(out, tails, {b"": 1}, 1)
                _product_into(out, _left_quotient(tails, a), {x: 1}, -1)
            else:
                _product_into(out, tails, {x: 1}, -1)
            _expansion_limit(len(out))
        level = parents
    return level.get((), {})


def _content(coeffs: Mapping) -> tuple[int, tuple]:
    """(g, u) with coeffs = g·u: u as sorted items, g the gcd signed as the smallest key's."""
    items = sorted(coeffs.items())
    g = gcd(*coeffs.values())
    if items[0][1] < 0:
        g = -g
    return g, tuple((key, v // g) for key, v in items)


def _split_words(
    coeffs: Mapping[StandardTuple, int], a: int | None, m: int | None
) -> dict[bytes, int]:
    if not coeffs:
        return {}
    n = len(next(iter(coeffs)))
    if n == 0:
        raise ValueError("empty standard tuple")
    k = 0 if m is None else n - m
    if not 0 <= k < n:
        raise ValueError(f"split {m} outside 1..{n}")
    groups: dict[StandardTuple, dict[StandardTuple, int]] = {}
    for t, c in coeffs.items():
        if len(t) != n:
            raise ValueError("standard tuples of mixed length")
        if not _WORD_LETTERS.issuperset(t):
            bad = next(x for x in t if x not in _WORD_LETTERS)
            raise ValueError(f"generator index {bad} does not fit the word encoding")
        if c and k >= 2:
            groups.setdefault(t[k:], {})[t[:k] + (0,)] = c
    if k < 2:
        # the prefix walk's last level already groups the tuples by one letter
        return _combination_words(coeffs, a)
    # suffixes whose groups are proportional share one operator walk
    operators: dict[tuple, dict[StandardTuple, int]] = {}
    for s, heads in groups.items():
        g, unit = _content(heads)
        operators.setdefault(unit, {})[s] = g
    out: dict[bytes, int] = {}
    for unit, scales in operators.items():
        words = _combination_words(dict(unit), None)
        # the group's suffix combination C = Σ g_s·s, expanded once: in full
        # when some α begins with a, its a-quotient read off that expansion
        if a is None or any(w[0] == a for w in words):
            full = _combination_words(scales, None)
            quotient = full if a is None else _left_quotient(full, a)
        else:
            quotient = _combination_words(scales, a)
        for word, d in words.items():
            if a is not None and word[0] not in (0, a):
                continue
            alpha, _, beta = word.partition(b"\0")
            e = full if alpha else quotient
            if a is not None:
                alpha = alpha[1:]
            for w, c in e.items():
                key = alpha + w + beta
                v = out.get(key, 0) + d * c
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
            _expansion_limit(len(out))
    return out


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
    :data:`MAX_REWRITE_STEPS` in all raises ``ValueError``.  The left child
    is rewritten first, and a bracket whose left child rewrites to zero is
    zero at once: its right child is neither rewritten nor charged, only
    unpacked node by node, so a malformed node there still raises.  A zero
    right child is found only after the left child is rewritten and charged.
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
        if isinstance(x, int):
            return {(x,): 1}
        left, right = x
        left = rewrite(left)
        if not left:
            _check_shape(right)
            return {}
        right = rewrite(right)
        if not right:
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


def free_lie_dim(lam: Sequence[int]) -> int:
    """Dimension of the multidegree component of the free Lie algebra.

    Computed by the multigraded Witt formula
    (1/n) * sum over d | gcd(lam) of mu(d) * (n/d)! / prod (n_i/d)!.
    """
    lam = query_weight(None, lam)
    n = sum(lam)
    g = gcd(*lam)
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
        raise ArithmeticError(f"Witt count not divisible by height at {lam}")
    return dim
