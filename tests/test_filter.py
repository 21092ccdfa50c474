"""Filtered exact comparisons: float estimates decide, cross powers break ties.

The filter may only ever return what the plain big-integer cross powers
return; these tests hold it to that on random and adversarial inputs.
"""

import random
from fractions import Fraction
from functools import reduce

from hypothesis import given, settings, strategies as st

import maxalg.semiring as semiring
import maxalg.spectral as spectral
from maxalg import EXACT_TIMES, gmean_cmp, spectral_analysis

from helpers import fmat, random_irreducible, symbolic_critical_edges

# weights whose logs agree with 1, or with each other, to the last bit
NEAR_ONE = [
    Fraction(10**20 + 1, 10**20),
    Fraction(10**20 - 1, 10**20),
    Fraction(2**60 + 1, 2**60),
    Fraction(3**40, 3**40 + 1),
    Fraction(1),
]

positive = st.fractions(
    min_value=Fraction(1, 10**12), max_value=10**12, max_denominator=10**12
)
weights = st.one_of(positive, st.sampled_from(NEAR_ONE))
lengths = st.integers(min_value=1, max_value=7)


def plain_sign(lhs, rhs):
    return (lhs > rhs) - (lhs < rhs)


def plain_gmean_cmp(pair_a, pair_b):
    (wa, la), (wb, lb) = pair_a, pair_b
    return plain_sign(wa**lb, wb**la)


@st.composite
def near_tie_pairs(draw):
    """Two mean pairs r^(la) and r^(lb) (1 + d) with |d| tiny or zero."""
    r = draw(weights)
    la, lb = draw(lengths), draw(lengths)
    d = Fraction(draw(st.integers(-1, 1)), 10 ** draw(st.integers(15, 40)))
    return (r**la, la), (r**lb * (1 + d), lb)


@settings(max_examples=150, deadline=None)
@given(st.tuples(weights, lengths), st.tuples(weights, lengths))
def test_gmean_cmp_matches_plain_cross_powers(pair_a, pair_b):
    want = plain_gmean_cmp(pair_a, pair_b)
    assert gmean_cmp(EXACT_TIMES, pair_a, pair_b) == want
    assert gmean_cmp(EXACT_TIMES, pair_b, pair_a) == -want


@settings(max_examples=150, deadline=None)
@given(near_tie_pairs())
def test_gmean_cmp_on_near_ties(pairs):
    pair_a, pair_b = pairs
    assert gmean_cmp(EXACT_TIMES, pair_a, pair_b) == plain_gmean_cmp(
        pair_a, pair_b
    )


@st.composite
def symbolic_case(draw):
    """A _Symbolic over drawn entries, and two products of its entries.

    Half the time lam is the first entry r times a near-one weight, and r
    times another near-one weight is an entry too, so that products sit on
    or next to lam^m.
    """
    entries = draw(st.lists(weights, min_size=1, max_size=5))
    l0 = draw(lengths)
    if draw(st.booleans()):
        near = st.sampled_from(NEAR_ONE)
        entries.append(entries[0] * draw(near))
        w0 = (entries[0] * draw(near)) ** l0
    else:
        w0 = draw(weights)
    ops = spectral._Symbolic(EXACT_TIMES, (w0, l0), [entries])
    lifted = ops.rows[0]
    paths = st.lists(st.integers(0, len(entries) - 1), max_size=8)
    x, y = (
        reduce(ops.mul, (lifted[t] for t in draw(paths)), ops.one)
        for _ in range(2)
    )
    return ops, x, y


def symbolic_value(x):
    """(q, m) of a _Symbolic value (p, r, m, f), meaning (p/r) lam^(-m)."""
    p, r, m, _estimate = x
    return Fraction(p, r), m


@settings(max_examples=200, deadline=None)
@given(symbolic_case())
def test_symbolic_cmp_matches_plain_cross_powers(case):
    ops, x, y = case
    w0, l0 = ops.w0, ops.l0
    (qx, mx), (qy, my) = symbolic_value(x), symbolic_value(y)
    lhs = qx**l0 * w0**my
    rhs = qy**l0 * w0**mx
    assert ops.cmp(x, y) == plain_sign(lhs, rhs)
    assert ops.cmp(y, x) == plain_sign(rhs, lhs)


def _loop_free_irreducible(rng, n):
    a = random_irreducible(rng, n, density=0.3)
    return fmat(
        [[0 if i == j else v for j, v in enumerate(row)]
         for i, row in enumerate(a.rows)]
    )


def test_filtered_analysis_matches_unfiltered_reference(monkeypatch):
    rng = random.Random(2024)
    cases = [_loop_free_irreducible(rng, n) for n in (6, 9, 13, 18, 24, 30)]
    filtered = [spectral_analysis(a) for a in cases]
    # the unfiltered reference: no estimate ever decides
    monkeypatch.setattr(semiring, "filtered_sign", lambda *args: 0)
    monkeypatch.setattr(spectral, "filtered_sign", lambda *args: 0)
    irrational = 0
    for a, got in zip(cases, filtered):
        want = spectral_analysis(a)
        assert got.mean.pair() == want.mean.pair()
        assert got.mean.witness.nodes == want.mean.witness.nodes
        assert got.critical.edges == want.critical.edges
        assert got.critical.cyclicity == want.critical.cyclicity
        if got.lam is None:
            irrational += 1
            assert got.critical.edges == tuple(
                symbolic_critical_edges(a.rows, got.mean.pair())
            )
    assert irrational >= 4


def _counting(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_near_ties_reach_the_exact_fallback(monkeypatch):
    fallback = _counting(monkeypatch, semiring, "_cross_power_cmp")
    one = (Fraction(1), 1)
    # clear differences never reach the big-integer powers
    assert gmean_cmp(EXACT_TIMES, (Fraction(3), 2), (Fraction(2), 1)) == -1
    assert gmean_cmp(EXACT_TIMES, (Fraction(9, 7), 1), one) == 1
    assert fallback == []
    # ties and near-ties all do
    for w in NEAR_ONE:
        assert gmean_cmp(EXACT_TIMES, (w, 1), one) == (w > 1) - (w < 1)
    assert gmean_cmp(EXACT_TIMES, (Fraction(6), 2), (Fraction(36), 4)) == 0
    assert len(fallback) == len(NEAR_ONE) + 1

    sym = _counting(monkeypatch, spectral._Symbolic, "_cross_cmp")
    r = Fraction(7, 3)
    ops = spectral._Symbolic(
        EXACT_TIMES, (r**3, 3), [[r, r * NEAR_ONE[0], Fraction(5)]]
    )
    near, above, far = ops.rows[0]
    assert ops.cmp(near, far) == -1
    assert sym == []
    assert ops.cmp(ops.mul(near, near), ops.one) == 0  # r^2 against lam^2
    assert ops.cmp(near, above) == -1  # last-bit difference
    assert ops.cmp(ops.mul(near, above), ops.mul(above, near)) == 0
    assert len(sym) == 3
