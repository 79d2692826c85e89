from __future__ import annotations

import hashlib
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootmult.freelie as freelie
from rootmult import ParseError, free_lie_dim, parse_bracket, to_standard_form
from rootmult.freelie import (
    Leaf,
    NcPolynomial,
    Node,
    expand_combination,
    expand_tensor,
    format_bracket,
    standard_tuples_of_weight,
    weight_of,
)
from rootmult.linalg import matrix_rank

from conftest import expand_tuple, random_expr


def poly(terms: dict[str, int]) -> NcPolynomial:
    return NcPolynomial({bytes(int(ch) for ch in w): c for w, c in terms.items()})


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

def test_parse_examples():
    assert parse_bracket("e2") == Leaf(2)
    assert parse_bracket("[e1,e2]") == Node(Leaf(1), Leaf(2))
    big = parse_bracket("[[e1,e2],[[e1,e3],[e2,e3]]]")
    assert big.length == 6
    assert weight_of(big, 3).coeffs == (2, 2, 2)


def test_parse_ignores_whitespace():
    assert parse_bracket(" [ e1 , [ e2 , e3 ] ] ") == parse_bracket("[e1,[e2,e3]]")


def test_parse_stores_indices_verbatim():
    assert parse_bracket("e12") == Leaf(12)
    assert parse_bracket("e0") == Leaf(0)  # rejected later, at evaluation
    with pytest.raises(ValueError):
        weight_of(Leaf(0), 3)
    with pytest.raises(ValueError):
        weight_of(Leaf(4), 3)


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
    return [x.index] if isinstance(x, Leaf) else leaf_indices(x.left) + leaf_indices(x.right)


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
    if x.length <= 10 and all(1 <= i <= 3 for i in leaf_indices(x)):
        assert expand_combination(to_standard_form(x)) == expand_tensor(x)


def test_weight_of_examples():
    assert weight_of(parse_bracket("[e1,e2]"), 3).coeffs == (1, 1, 0)
    assert weight_of(parse_bracket("e3"), 3).coeffs == (0, 0, 1)


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
        if expansion:  # [x, x] subtrees can collapse the whole expansion
            degree = weight_of(expr, 3).coeffs
            assert all(tuple(w.count(i) for i in (1, 2, 3)) == degree for w in expansion.coeffs)


def right_nested(t: tuple[int, ...]):
    """The bracket tree [e_t1, [e_t2, [... e_tn]]] that the tuple ``t`` encodes."""
    expr = Leaf(t[-1])
    for a in reversed(t[:-1]):
        expr = Node(Leaf(a), expr)
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
    reference = NcPolynomial()
    for t, k in combo.items():
        reference = reference + NcPolynomial(
            {w: k * c for w, c in expand_tuple(t).coeffs.items()}
        )
    assert expand_combination(combo) == reference
    if cancelling:
        assert not reference


def test_expand_empty_combination_is_zero():
    assert expand_combination({}) == NcPolynomial()


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


def test_nc_polynomial_term_order_is_length_then_lex():
    p = poly({"21": 1, "112": 2, "3": -1, "12": 1})
    words = [w for w, _ in p.terms()]
    assert words == [bytes([3]), bytes([1, 2]), bytes([2, 1]), bytes([1, 1, 2])]


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


def test_rewriter_soundness_random_trees():
    rng = random.Random(424242)
    for _ in range(120):
        expr = random_expr(rng, rng.randint(1, 8))
        combo = to_standard_form(expr)
        assert expand_combination(combo) == expand_tensor(expr)


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


def test_rewriter_preserves_length():
    rng = random.Random(11)
    for _ in range(80):
        expr = random_expr(rng, rng.randint(1, 8))
        for t in to_standard_form(expr):
            assert len(t) == expr.length


def test_rewriter_antisymmetry():
    rng = random.Random(13)
    for _ in range(80):
        u = random_expr(rng, rng.randint(1, 4))
        v = random_expr(rng, rng.randint(1, 4))
        forward = to_standard_form(Node(u, v))
        backward = to_standard_form(Node(v, u))
        if u.length + v.length > 2:
            assert forward == {t: -c for t, c in backward.items()}
        else:
            # generator pairs stay verbatim; negation holds after expansion
            assert expand_combination(forward) == -expand_combination(backward)


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


def test_witt_formula_matches_span_rank_small_heights():
    # all multidegree components of height <= 5 over three generators
    for n1 in range(6):
        for n2 in range(6):
            for n3 in range(6):
                if not 1 <= n1 + n2 + n3 <= 5:
                    continue
                lam = (n1, n2, n3)
                rows = [expand_tuple(t).coeffs for t in standard_tuples_of_weight(lam)]
                assert matrix_rank(rows) == free_lie_dim(lam), lam
