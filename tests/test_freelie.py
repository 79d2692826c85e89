from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootmult.freelie as freelie
from rootmult import ParseError, free_lie_dim, parse_bracket, to_standard_form
from rootmult.freelie import (
    NcPolynomial,
    expand_combination,
    expand_tensor,
    weight_of,
)

from conftest import (
    corrupted,
    expand_tuple,
    format_bracket,
    leaf_count,
    poly_sum,
    random_expr,
    standard_tuples_of_weight,
)


def poly(terms: dict[str, int]) -> NcPolynomial:
    return NcPolynomial({bytes(int(ch) for ch in w): c for w, c in terms.items()})


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

def test_parse_examples():
    assert parse_bracket("e2") == 2
    assert parse_bracket("[e1,e2]") == (1, 2)
    big = parse_bracket("[[e1,e2],[[e1,e3],[e2,e3]]]")
    assert leaf_count(big) == 6
    assert weight_of(big, 3) == (2, 2, 2)


def test_parse_ignores_whitespace():
    assert parse_bracket(" [ e1 , [ e2 , e3 ] ] ") == parse_bracket("[e1,[e2,e3]]")


def test_parse_stores_indices_verbatim():
    assert parse_bracket("e12") == 12
    assert parse_bracket("e0") == 0  # rejected later, at evaluation
    with pytest.raises(ValueError):
        weight_of(0, 3)
    with pytest.raises(ValueError):
        weight_of(4, 3)


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("[e1,e2", 6),
        ("[e1 e2]", 4),
        ("e", 1),
        ("[x,e2]", 1),
        ("e1]", 2),
    ],
)
def test_parse_errors_carry_position(text, position):
    with pytest.raises(ParseError) as err:
        parse_bracket(text)
    assert err.value.position == position
    assert f"position {position}" in str(err.value)


@pytest.mark.parametrize("text,position", [("e²", 1), ("e١", 1), ("[e1,e٢]", 5)])
def test_parse_reads_only_ascii_digits(text, position):
    # str.isdigit accepts the superscript two and the Arabic-Indic digits
    with pytest.raises(ParseError) as err:
        parse_bracket(text)
    assert str(err.value) == f"expected digits after 'e' at position {position}"


NESTING_PROBE = """
import sys
from rootmult.freelie import MAX_BRACKET_DEPTH, ParseError, parse_bracket

shapes = {
    "right": (1, lambda d: "[e1," * d + "e2" + "]" * d),
    "left": (0, lambda d: "[" * d + "e1" + ",e2]" * d),
}
sys.setrecursionlimit(100)
for name, (side, text) in shapes.items():
    x, depth = parse_bracket(text(MAX_BRACKET_DEPTH)), 0
    while not isinstance(x, int):
        x, depth = x[side], depth + 1
    try:
        parse_bracket(text(MAX_BRACKET_DEPTH + 1))
    except ParseError as err:
        print(name, depth, err)
"""


def test_parse_keeps_deep_nesting_off_the_call_stack():
    # a fresh interpreter whose recursion limit is far below MAX_BRACKET_DEPTH
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", NESTING_PROBE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    depth = freelie.MAX_BRACKET_DEPTH
    refused = f"brackets nested deeper than {depth} at position"
    assert (proc.returncode, proc.stderr) == (0, "")
    # one level deeper is refused at its innermost '['
    assert proc.stdout.splitlines() == [
        f"right {depth} {refused} {4 * depth}",
        f"left {depth} {refused} {depth}",
    ]


def test_trees_are_ints_and_pairs():
    assert parse_bracket("[[e1,e2],e3]") == ((1, 2), 3)
    assert format_bracket(((1, 2), 3)) == "[[e1,e2],e3]"
    # a node is unpacked as (left, right): any other arity is refused, not
    # truncated, also in a right child skipped because its left sibling is zero
    for bad in ((1, 2, 3), (1,), ((1, 2, 3), 1), ((1, 1), (1, 2, 3)), ((1, 1), (2, (1,)))):
        with pytest.raises(ValueError):
            weight_of(bad, 3)
        with pytest.raises(ValueError):
            to_standard_form(bad)
        with pytest.raises(ValueError):
            expand_tensor(bad)
        with pytest.raises(ValueError):
            format_bracket(bad)


def test_print_round_trip():
    rng = random.Random(99)
    for _ in range(100):
        expr = random_expr(rng, rng.randint(1, 8))
        assert parse_bracket(format_bracket(expr)) == expr


BRACKET_CHARS = "[], e0123"
WHITESPACE = " \t\n"


@st.composite
def bracket_texts(draw) -> str:
    """Text over the parser's alphabet plus whitespace.

    Free text seldom parses, so half the draws render a well-formed
    expression, with whitespace between tokens and indices either all in
    1..3 or of one or two digits 0..3, and then maybe delete or insert one
    character.
    """
    alphabet = BRACKET_CHARS + WHITESPACE
    if draw(st.booleans()):
        return draw(st.text(alphabet, max_size=30))
    spaces = st.text(WHITESPACE, max_size=2)
    digits = draw(
        st.sampled_from((st.sampled_from("123"), st.text("0123", min_size=1, max_size=2)))
    )
    leaf = st.builds(lambda s, d: f"{s}e{d}", spaces, digits)
    text = draw(
        st.recursive(
            leaf,
            lambda kids: st.builds(lambda a, b, s: f"{s}[{a}{s},{b}{s}]", kids, kids, spaces),
            max_leaves=12,
        )
    )
    k = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(("keep", "delete", "insert")))
    if edit == "delete":
        return text[:k] + text[k + 1 :]
    if edit == "insert":
        return text[:k] + draw(st.sampled_from(alphabet)) + text[k:]
    return text


def leaf_indices(x) -> list[int]:
    if isinstance(x, int):
        return [x]
    left, right = x
    return leaf_indices(left) + leaf_indices(right)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(bracket_texts())
def test_parser_fuzz(text):
    # any text either fails with a ParseError inside it or parses to a tree
    # that prints back to itself; small trees over e1..e3 also rewrite soundly
    try:
        x = parse_bracket(text)
    except ParseError as err:
        assert 0 <= err.position <= len(text)
        return
    assert parse_bracket(format_bracket(x)) == x
    if leaf_count(x) <= 10 and all(1 <= i <= 3 for i in leaf_indices(x)):
        assert expand_combination(to_standard_form(x)) == expand_tensor(x)


def test_weight_of_examples():
    assert weight_of(parse_bracket("[e1,e2]"), 3) == (1, 1, 0)
    assert weight_of(parse_bracket("e3"), 3) == (0, 0, 1)


# ---------------------------------------------------------------------------
# tensor expansion
# ---------------------------------------------------------------------------

def test_expand_tensor_examples():
    assert expand_tensor(parse_bracket("[e1,e2]")) == poly({"12": 1, "21": -1})
    assert expand_tensor(parse_bracket("e3")) == poly({"3": 1})
    assert expand_tensor(parse_bracket("[e1,[e1,e2]]")) == poly({"112": 1, "121": -2, "211": 1})


def test_expansion_coefficients_sum_to_zero():
    rng = random.Random(5)
    for _ in range(60):
        expr = random_expr(rng, rng.randint(2, 8))
        expansion = expand_tensor(expr)
        assert sum(expansion.coeffs.values()) == 0
        if expansion.coeffs:  # [x, x] subtrees can collapse the whole expansion
            degree = weight_of(expr, 3)
            assert all(tuple(w.count(i) for i in (1, 2, 3)) == degree for w in expansion.coeffs)


def right_nested(t: tuple[int, ...]):
    """The bracket tree [e_t1, [e_t2, [... e_tn]]] that the tuple ``t`` encodes."""
    expr = t[-1]
    for a in reversed(t[:-1]):
        expr = (a, expr)
    return expr


def test_expand_standard_tuple_examples():
    assert expand_tuple((2,)) == poly({"2": 1})
    assert expand_tuple((1, 2)) == poly({"12": 1, "21": -1})
    # frozen from the expansion of [e2,[e1,e2]]
    assert expand_tuple((2, 1, 2)) == poly({"212": 2, "122": -1, "221": -1})


def test_expand_standard_tuple_matches_tree_expansion():
    rng = random.Random(31)
    for _ in range(60):
        t = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 7)))
        assert expand_tuple(t) == expand_tensor(right_nested(t))


@st.composite
def combinations(draw) -> tuple[dict[tuple[int, ...], int], bool]:
    """A combination of tuples of one multidegree, and whether it expands to zero.

    Every tuple is a permutation of one base tuple.  A general combination
    keeps a drawn prefix of the base and permutes only the rest, so long
    shared prefixes are common.  A cancelling one is a sum of multiples of
    the relations [p, [a, b]] + [p, [b, a]] and
    [p, [a, [b, c]]] + [p, [b, [c, a]]] + [p, [c, [a, b]]], which expand to 0.
    """
    base = draw(st.lists(st.integers(1, 3), min_size=1, max_size=8))
    cancelling = len(base) >= 2 and draw(st.booleans())
    coeffs: dict[tuple[int, ...], int] = {}
    for _ in range(draw(st.integers(0, 10))):
        k = draw(st.integers(-3, 3).filter(bool))
        if cancelling:
            perm = tuple(draw(st.permutations(base)))
            size = draw(st.sampled_from((2, 3) if len(base) >= 3 else (2,)))
            p, rest = perm[:-size], perm[-size:]
            # the rotations of (a, b) and of (a, b, c) are the two relations
            terms = [p + rest[i:] + rest[:i] for i in range(size)]
        else:
            shared = draw(st.integers(0, len(base)))
            terms = [tuple(base[:shared]) + tuple(draw(st.permutations(base[shared:])))]
        for t in terms:
            coeffs[t] = coeffs.get(t, 0) + k
    return coeffs, cancelling


@settings(max_examples=300, deadline=None)
@given(combinations())
def test_expand_combination_is_the_sum_of_its_tuples(drawn):
    combo, cancelling = drawn
    reference = poly_sum((k, expand_tuple(t)) for t, k in combo.items())
    assert expand_combination(combo) == reference
    if cancelling:
        assert not reference.coeffs


def test_expand_empty_combination_is_zero():
    assert expand_combination({}) == NcPolynomial({})


def test_expansions_stop_past_the_word_limit(monkeypatch):
    t = (1, 2) * 6
    words = len(expand_tuple(t).coeffs)
    monkeypatch.setattr(freelie, "MAX_EXPAND_WORDS", words - 1)
    message = f"tensor expansion exceeds {words - 1} words"
    with pytest.raises(ValueError, match=message):
        expand_tuple(t)
    with pytest.raises(ValueError, match=message):
        expand_combination({t: 1, (2, 1) * 6: -1})
    with pytest.raises(ValueError, match=message):
        expand_tensor(right_nested(t))
    # the tree expansion checks 2*|L|*|R| before it forms [L, R]
    monkeypatch.setattr(freelie, "MAX_EXPAND_WORDS", 2 * words)
    assert expand_tensor(right_nested(t)) == expand_tuple(t)


def left_quotient(p: NcPolynomial, a: int) -> NcPolynomial:
    """a⁻¹p, read off the full expansion: words beginning with e_a, that letter dropped."""
    return NcPolynomial({w[1:]: c for w, c in p.coeffs.items() if w[0] == a})


def test_quotient_root_is_charged_its_quotient_words(monkeypatch):
    t = (1, 2) * 6
    expr = right_nested(t)
    right = len(expand_tensor(expr[1]).coeffs)
    # the full root [e1, R] is charged 2 * 1 * |R|; the 2-quotient root only
    # |2⁻¹e1| * |R| + |2⁻¹R| * 1 = |2⁻¹R|, and every bracket below stays under
    monkeypatch.setattr(freelie, "MAX_EXPAND_WORDS", 2 * right - 1)
    with pytest.raises(ValueError, match=f"exceeds {2 * right - 1} words"):
        expand_tensor(expr)
    assert expand_tensor(expr, first=2) == left_quotient(expand_tuple(t), 2)


def test_a_zero_child_leaves_its_sibling_unexpanded(monkeypatch):
    big = right_nested((1, 2) * 6)
    words = len(expand_tensor(big).coeffs)
    monkeypatch.setattr(freelie, "MAX_EXPAND_WORDS", words - 1)
    with pytest.raises(ValueError, match=f"exceeds {words - 1} words"):
        expand_tensor(big)
    # [e1, e1] expands to zero, so big, past the limit, is never expanded
    for first in (None, 1, 2):
        assert expand_tensor(((1, 1), (2, big)), first=first) == NcPolynomial({})
    monkeypatch.setattr(freelie, "MAX_EXPAND_WORDS", 2 * words)
    # a zero right child: the root is never charged its product
    held = []
    limit = freelie._expansion_limit
    monkeypatch.setattr(freelie, "_expansion_limit", lambda n: held.append(n) or limit(n))
    expand_tensor(big)
    below = list(held)
    held.clear()
    assert expand_tensor((big, (2, 2))) == NcPolynomial({})
    assert held == below + [2]  # big's brackets and [e2, e2]'s, none for the root


@settings(max_examples=200, deadline=None)
@given(combinations())
def test_expand_combination_left_quotient(drawn):
    combo, _ = drawn
    full = expand_combination(combo)
    for a in (1, 2, 3):
        assert expand_combination(combo, first=a) == left_quotient(full, a)


def test_expand_tensor_left_quotient():
    rng = random.Random(20261020)
    for _ in range(300):
        expr = random_expr(rng, rng.randint(1, 10))
        full = expand_tensor(expr)
        combo = to_standard_form(expr)
        for a in (1, 2, 3):
            quotient = left_quotient(full, a)
            assert expand_tensor(expr, first=a) == quotient
            assert expand_combination(combo, first=a) == quotient


def test_quotient_verdict_matches_full_verdict_on_corrupted_rewrites():
    # E(expr) - E(bad) is a Lie polynomial of the expression's multidegree, so
    # its a-quotient vanishes exactly when it does, for every a in the support
    rng = random.Random(20261021)
    for _ in range(400):
        expr = random_expr(rng, rng.randint(1, 10))
        degree = weight_of(expr, 3)
        bad, t = corrupted(rng, to_standard_form(expr), degree)
        holds = expand_tensor(expr) == expand_combination(bad)
        # only a tuple ending in [e_x, e_x] expands to zero
        assert holds == (len(t) > 1 and t[-1] == t[-2])
        for a in (i + 1 for i, c in enumerate(degree) if c):
            assert (expand_tensor(expr, first=a) == expand_combination(bad, first=a)) == holds


@settings(max_examples=200, deadline=None)
@given(combinations())
def test_split_expansion_matches_the_prefix_walk(drawn):
    # E(u + s) = ad(e_{u1})∘…∘ad(e_{uk})(E(s)) for every split, so the split
    # decides only how the combination is grouped
    combo, _ = drawn
    n = len(next(iter(combo))) if combo else 1
    for m in range(1, n + 1):
        assert expand_combination(combo, split=m) == expand_combination(combo)
        for a in (1, 2, 3):
            assert expand_combination(combo, a, split=m) == expand_combination(combo, a)


def test_split_input_checks():
    for m in (0, 4):
        with pytest.raises(ValueError, match="split"):
            expand_combination({(1, 2, 3): 1}, split=m)
    # no split is the split n, and every split refuses a bad combination with
    # one message: the letter 0 marks the operator's argument, and a word is
    # a byte string
    for combo, message in [
        ({(1, 0, 3): 1}, "generator index 0 does not fit the word encoding"),
        ({(1, 2, 3): 1, (1, 2, 0): 2}, "generator index 0 does not fit the word encoding"),
        ({(1, 256, 3): 1}, "generator index 256 does not fit the word encoding"),
        ({(): 1}, "empty standard tuple"),
    ]:
        for m in (None, *range(1, len(next(iter(combo))) + 1)):
            for first in (None, 1):
                with pytest.raises(ValueError) as caught:
                    expand_combination(combo, first, split=m)
                assert str(caught.value) == message, (combo, m, first)


@pytest.mark.parametrize(
    "expand, message",
    [
        (lambda: expand_combination({(1, 2): 1, (1, 2, 3): 1}), "standard tuples of mixed length"),
        (
            lambda: expand_combination({(1, 2, 3, 1): 1, (1, 2, 3): 1}, split=1),
            "standard tuples of mixed length",
        ),
        (lambda: expand_combination({(): 1}), "empty standard tuple"),
        (lambda: expand_tensor(0), "generator index 0 does not fit the word encoding"),
        (lambda: expand_tensor((1, 256)), "generator index 256 does not fit the word encoding"),
    ],
    ids=["mixed-walk", "mixed-split", "empty-tuple", "index-0", "index-256"],
)
def test_expansion_input_messages(expand, message):
    with pytest.raises(ValueError) as caught:
        expand()
    assert str(caught.value) == message


def root_split_rewrites(rng: random.Random, count: int):
    """``count`` nonzero rewrites of [L, R] with |L| < |R|, and |R|, the root split."""
    while count:
        n = rng.randint(5, 11)
        m = rng.randint(n // 2 + 1, n - 2)
        expr = (random_expr(rng, n - m), random_expr(rng, m))
        combo = to_standard_form(expr)
        if combo:
            count -= 1
            yield expr, combo, m


def test_root_split_walks_one_operator_and_one_combination(monkeypatch):
    # every group's operator is a multiple of ad(E(L)), so the tuples form one
    # operator group: one walk of its operator and one expansion of R's
    # combination, whose a-quotient is read off the full expansion
    walk = freelie._combination_words
    calls = []
    monkeypatch.setattr(freelie, "_combination_words", lambda c, a: calls.append(a) or walk(c, a))
    for expr, combo, m in root_split_rewrites(random.Random(20261022), 30):
        for a in (i + 1 for i, c in enumerate(weight_of(expr, 3)) if c):
            calls.clear()
            expand_combination(combo, a, split=m)
            assert len(calls) <= 2 and calls[0] is None


def test_equal_root_children_walk_each_operator_group_once(monkeypatch):
    # with |L| = |R| the rewriter orders each pair of tuples on its own, so
    # the suffixes can form several operator groups; each group walks its
    # operator once and expands its suffix combination once
    walk = freelie._combination_words
    calls = []
    monkeypatch.setattr(freelie, "_combination_words", lambda c, a: calls.append(a) or walk(c, a))
    rng = random.Random(20261022)
    found = several = 0
    while found < 30:
        m = rng.randint(3, 6)
        expr = (random_expr(rng, m), random_expr(rng, m))
        combo = to_standard_form(expr)
        if not combo:
            continue
        found += 1
        heads: dict = {}
        for t, c in combo.items():
            heads.setdefault(t[m:], {})[t[:m]] = c
        groups = len({freelie._content(h)[1] for h in heads.values()})
        several += groups > 1
        for a in (i + 1 for i, c in enumerate(weight_of(expr, 3)) if c):
            calls.clear()
            expand_combination(combo, a, split=m)
            assert len(calls) <= 2 * groups, (expr, a)
    assert several, "no rewrite formed more than one operator group"


def test_equal_heads_in_another_order_form_one_operator_group(monkeypatch):
    # suffix (1, 3) lists its heads as 1·(1,2) + 2·(2,1), suffix (3, 1) as
    # -2·(2,1) - 1·(1,2): one operator up to content, so one operator walk
    combo = {(1, 2, 1, 3): 1, (2, 1, 1, 3): 2, (2, 1, 3, 1): -2, (1, 2, 3, 1): -1}
    walk = freelie._combination_words
    calls = []
    monkeypatch.setattr(freelie, "_combination_words", lambda c, a: calls.append(c) or walk(c, a))
    for a in (None, 1, 3):
        calls.clear()
        split = expand_combination(combo, a, split=2)
        operators = [c for c in calls if all(t[-1] == 0 for t in c)]
        assert len(operators) == 1, a
        assert split == expand_combination(combo, a), a


def test_split_expansion_stops_past_the_word_limit(monkeypatch):
    expr = parse_bracket("[[e3,[[e3,e2],[[e3,e2],e2]]],[[[[e1,e2],e1],e2],[[e2,e3],[e1,e3]]]]")
    combo = to_standard_form(expr)
    held = []
    limit = freelie._expansion_limit
    monkeypatch.setattr(freelie, "_expansion_limit", lambda words: held.append(words) or limit(words))
    expected = expand_combination(combo, 1, split=8)
    monkeypatch.setattr(freelie, "_expansion_limit", limit)
    largest = max(held)
    assert largest >= len(expected.coeffs)
    monkeypatch.setattr(freelie, "MAX_EXPAND_WORDS", largest - 1)
    with pytest.raises(ValueError, match=f"tensor expansion exceeds {largest - 1} words"):
        expand_combination(combo, 1, split=8)
    monkeypatch.setattr(freelie, "MAX_EXPAND_WORDS", largest)
    assert expand_combination(combo, 1, split=8) == expected


# ---------------------------------------------------------------------------
# rewriting
# ---------------------------------------------------------------------------

def test_to_standard_form_examples():
    assert to_standard_form(parse_bracket("[e1,[e2,e3]]")) == {(1, 2, 3): 1}
    assert to_standard_form(parse_bracket("[[e1,e2],e3]")) == {(3, 1, 2): -1}
    assert to_standard_form(parse_bracket("[[e1,e2],[e3,e2]]")) == {
        (1, 2, 3, 2): 1,
        (2, 1, 3, 2): -1,
    }


def test_rewriter_output_is_pinned():
    # digest of the rewrites of 3000 seeded random trees, frozen from the
    # Jacobi-recursion rewriter that the ad-expansion replaced
    rng = random.Random(20261018)
    digest = hashlib.sha1()
    for _ in range(3000):
        expr = random_expr(rng, rng.randint(1, 14))
        digest.update(repr(sorted(to_standard_form(expr).items())).encode())
    assert digest.hexdigest() == "72ce42f84b22a69fcee04f364f8874f37dc26eb9"


def test_rewrite_charges_each_bracket_its_worst_case_words(monkeypatch):
    # [e1,e2] and [e3,e2] are charged 1 each, and the root 1 * 1 * 2^(2-1)
    expr = parse_bracket("[[e1,e2],[e3,e2]]")
    monkeypatch.setattr(freelie, "MAX_REWRITE_STEPS", 3)
    with pytest.raises(ValueError, match="rewrite takes more than 3 bracket steps"):
        to_standard_form(expr)
    monkeypatch.setattr(freelie, "MAX_REWRITE_STEPS", 4)
    assert to_standard_form(expr) == {(1, 2, 3, 2): 1, (2, 1, 3, 2): -1}


def test_rewriter_antisymmetry():
    rng = random.Random(13)
    for _ in range(80):
        u = random_expr(rng, rng.randint(1, 4))
        v = random_expr(rng, rng.randint(1, 4))
        forward = to_standard_form((u, v))
        backward = to_standard_form((v, u))
        if leaf_count((u, v)) > 2:
            assert forward == {t: -c for t, c in backward.items()}
        else:
            # generator pairs stay verbatim; negation holds after expansion
            assert expand_combination(forward) == poly_sum([(-1, expand_combination(backward))])


# ---------------------------------------------------------------------------
# dimension counts
# ---------------------------------------------------------------------------

def test_free_lie_dim_examples():
    assert free_lie_dim((1, 1, 1)) == 2
    assert free_lie_dim((2, 1, 0)) == 1
    assert free_lie_dim((2, 2, 2)) == 14
    assert free_lie_dim((1, 0, 0)) == 1
    assert free_lie_dim((2, 0, 0)) == 0
    with pytest.raises(ValueError):
        free_lie_dim((0, 0, 0))


def test_standard_tuples_of_weight():
    tuples = list(standard_tuples_of_weight((2, 1, 0)))
    assert tuples == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    n = 5
    count = sum(1 for _ in standard_tuples_of_weight((2, 2, 1)))
    assert count == comb(n, 2) * comb(3, 2)

