"""One power ladder: the power asymptotics against plain references.

csr_decompose reads the powers its periodicity scans computed, and
nachtigall_expansion keeps one ladder of powers across horizon doublings
and cycles each term's C S^t R products once S^t repeats. These tests
compare both with the references in helpers.py, which compute every power
afresh, in exact, float max-times and float max-plus; they count the
products made; and they check the fraction-free agreement test against
the scale / oplus / allclose combination it replaces.
"""

import math
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxalg import (
    EXACT_TIMES,
    FLOAT_PLUS,
    FLOAT_TIMES,
    DimensionError,
    MaxMatrix,
    csr_decompose,
    csr_power,
    expansion_power,
    mat_power,
    nachtigall_expansion,
    normalize_to_unit,
    oplus,
    otimes,
    semiring_convert,
    transient_and_period,
)
from maxalg.asymptotics import normalized_periodicity
from maxalg.matrix import is_max_combination

from helpers import (
    additive,
    count_calls,
    csr_reference,
    expansion_onset_reference,
    fmat,
    fraction_scan_reference,
    power_two_dominant,
    scan_reference,
    two_level_planted,
    unit_mean_corpus,
)

MODES = {
    "exact": EXACT_TIMES,
    "float-times": FLOAT_TIMES,
    "float-plus": FLOAT_PLUS,
}


def _in_mode(a, mode):
    return semiring_convert(a, MODES[mode])


def _outcome(f, *args, **kwargs):
    """f's result, or the name of the exception it raised."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc).__name__


def _csr_summary(a):
    trip = csr_decompose(a)
    return trip.transient, trip.certified_from, trip.gamma


@pytest.mark.parametrize("mode", MODES)
def test_csr_decompose_matches_mat_power_reference(mode):
    for a in unit_mean_corpus():
        m = _in_mode(a, mode)
        assert _outcome(_csr_summary, m) == _outcome(csr_reference, m)


def _profile_summary(profile):
    return (
        profile.transient,
        profile.period,
        profile.predicted_period,
        profile.budget,
        profile.powers[0],
    )


@pytest.mark.parametrize("mode", MODES)
def test_normalized_periodicity_matches_two_analyses(mode):
    rng = random.Random(5)
    for a in unit_mean_corpus():
        m = _in_mode(a.scale(Fraction(rng.randint(1, 9), rng.randint(1, 9))),
                     mode)

        def two_analyses():
            tilde, mean = normalize_to_unit(m)
            return _profile_summary(transient_and_period(tilde)), mean

        def one_analysis():
            profile = normalized_periodicity(m)
            return _profile_summary(profile), profile.lam

        assert _outcome(one_analysis) == _outcome(two_analyses)


def _planted(count, seed):
    rng = random.Random(seed)
    return [two_level_planted(rng, rng.randint(3, 6))[0] for _ in range(count)]


@pytest.mark.parametrize("horizon", [None, 2, 7])
@pytest.mark.parametrize("mode", MODES)
def test_nachtigall_matches_restarting_reference(mode, horizon):
    for a in _planted(40, 410):
        m = _in_mode(a, mode)
        e = nachtigall_expansion(m, horizon=horizon)
        want = expansion_onset_reference(m, e.terms, horizon)
        if MODES[mode].exact and horizon is not None:
            # an exact onset is proven, so an explicit horizon caps it with
            # no margin: the onset the reference sees at the default
            # horizon whenever it fits, unknown otherwise
            onset, _h = expansion_onset_reference(m, e.terms)
            want = (onset if onset <= horizon else None, horizon)
        assert (e.validity_start, e.horizon) == want


def _repeat_products(term):
    """Products _csr_products makes for one term: S^2 .. S^(rho + gamma)
    and two per C S^t R for t < rho + gamma, where rho is the least t with
    S^(t + gamma) == S^t."""
    rho, _p = scan_reference(term.s, 1000)
    return 3 * (rho + term.gamma)


def test_nachtigall_makes_one_product_per_power(monkeypatch):
    # _multiply makes every product: otimes's and the ladders' alike
    calls = count_calls(monkeypatch, "_multiply")
    for seed in (6, 7, 8, 9):
        rng = random.Random(seed)
        a, _l1, _l2 = two_level_planted(rng, 6)
        counts = []
        for horizon in (None, 10_000):
            calls.clear()
            e = nachtigall_expansion(a, horizon=horizon)
            counts.append(len(calls))
        assert e.validity_start is not None
        terms = e.terms
        period = math.lcm(*(t.gamma for t in terms))
        # the climb of A^t up to the onset, each term's products until S
        # repeats, one product A (x) C S^t R per term and residue mod the
        # period, and a few for tilde^gamma and A^v0 by squaring; none
        # depends on the horizon, which is 3n^2 + 2L at least
        bound = (e.validity_start + len(terms) * period + 8
                 + sum(_repeat_products(t) for t in terms))
        assert counts[0] == counts[1] <= bound
        assert counts[0] < 3 * 6 * 6


def test_csr_decompose_reads_the_scanned_powers(monkeypatch):
    calls = count_calls(monkeypatch, "mat_power")
    for a in unit_mean_corpus()[:40]:
        calls.clear()
        trip = csr_decompose(a)
        # the only power taken from scratch is tilde^gamma, for the star
        assert calls
        assert all(t <= trip.gamma for _m, t in calls)


def test_csr_decompose_scans_once_past_the_default_budget(monkeypatch):
    # the first repeat among the powers of these two corpus matrices lies
    # past the default budget 3n^2 + 2 gamma; a grown budget must not
    # restart the scan at t = 1, so each power of tilde and of S is made
    # once, by one product with the matrix itself (one more is allowed for
    # the power tilde^gamma that the star of C and R is taken from)
    corpus = unit_mean_corpus()
    calls = count_calls(monkeypatch, "_multiply")
    for k in (130, 183):
        a = corpus[k]
        tilde, _mean = normalize_to_unit(a)
        calls.clear()
        trip = csr_decompose(a)
        # scan_reference's own products run through _multiply too
        products = list(calls)
        t, p = scan_reference(tilde, 1000)
        assert t + p > 3 * a.n * a.n + 2 * trip.gamma
        for m in (tilde, trip.s):
            t, p = scan_reference(m, 1000)
            made = sum(1 for _left, right, _cols in products if right == m)
            assert made
            assert made <= max(t + p, trip.certified_from + trip.gamma)


# ---------------------------------------------------------------------------
# the hashed exact scan, and S^t read off its period


def _long_transient(k):
    """[[1, 1], [1/2, (k - 1)/k]]: mean 1, transient about k ln 2."""
    return fmat([[1, 1], [Fraction(1, 2), Fraction(k - 1, k)]])


def _scan_outcome(m, budget):
    found = fraction_scan_reference(m.rows, budget)
    return "IterationBudgetError" if found is None else found


def test_exact_scan_matches_the_fraction_reference():
    for a in unit_mean_corpus():
        trip = csr_decompose(a)
        budget = 3 * a.n * a.n + 2 * trip.gamma
        prof = _outcome(transient_and_period, a)
        got = prof if isinstance(prof, str) else (prof.transient, prof.period)
        assert got == _scan_outcome(a, budget)
        # csr_decompose's default cap is 2^7 times the usual budget
        cap = budget << 7
        tilde, _mean = normalize_to_unit(a)
        assert trip.certified_from == max(
            fraction_scan_reference(tilde.rows, cap)[0],
            fraction_scan_reference(trip.s.rows, cap)[0],
        )


@pytest.mark.parametrize("k", [200, 400, 800])
def test_exact_scan_on_long_transients(k):
    a = _long_transient(k)
    want = fraction_scan_reference(a.rows, 2000)
    prof = transient_and_period(a, budget=2000)
    assert (prof.transient, prof.period) == want
    assert want[0] > k // 2
    # S is the 1 x 1 loop at node 0, which repeats at once
    assert csr_decompose(a).certified_from == want[0]


def test_exact_scan_makes_one_product_per_power(monkeypatch):
    products = count_calls(monkeypatch, "_multiply")
    compared = []
    allclose = MaxMatrix.allclose

    def counting(self, other):
        compared.append(self)
        return allclose(self, other)

    monkeypatch.setattr(MaxMatrix, "allclose", counting)
    cases = [(_long_transient(k), transient_and_period) for k in (200, 400)]
    cases += [(a, transient_and_period) for a in unit_mean_corpus()[:30]]
    cases += [(additive(a), normalized_periodicity)
              for a in unit_mean_corpus()[30:60]]
    for a, scan in cases:
        products.clear()
        prof = scan(a, budget=1000)
        # powers 2 .. transient + period, one product each
        assert len(products) == prof.transient + prof.period - 1
    assert compared == []


def _csr_reference_power(trip, t):
    sr = trip.c.semiring
    prod = otimes(otimes(trip.c, mat_power(trip.s, t)), trip.r)
    return prod.scale(sr.power(trip.lam, t))


def _expansion_reference_power(e, t):
    sr = e.semiring
    out = MaxMatrix.zeros(e.n, e.n, semiring=sr)
    for term in e.terms:
        prod = otimes(otimes(term.c, mat_power(term.s, t)), term.r)
        out = oplus(out, prod.scale(sr.power(term.coefficient, t)))
    return out


def _counted(monkeypatch, f, *args):
    """f(*args) and the number of products it made."""
    calls = count_calls(monkeypatch, "_multiply")
    value = f(*args)
    monkeypatch.undo()
    return value, len(calls)


def test_csr_power_reads_s_off_its_period(monkeypatch):
    rng = random.Random(24)
    corpus = unit_mean_corpus()[:40]
    # a mean other than one, whose powers stay small enough up to 1000
    corpus += [a.scale(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
               for a in unit_mean_corpus()[40:50]]
    for a in corpus:
        trip = csr_decompose(a)
        f = trip.certified_from
        huge = [10**6] if trip.lam == 1 else []
        made = {}
        for t in [1, 2, trip.gamma, f - 1, f, f + 1, 1000] + huge:
            if t >= 1:
                got, made[t] = _counted(monkeypatch, csr_power, trip, t)
                assert got == _csr_reference_power(trip, t)
        if huge:
            assert made[10**6] <= made[1000]
        with pytest.raises(ValueError):
            csr_power(trip, -1)


def test_expansion_power_reads_s_off_its_ladder(monkeypatch):
    rng = random.Random(25)
    # powers of two as coefficients keep coefficient^(10^6) cheap to scale
    cases = [(power_two_dominant(rng, rng.randint(2, 4)), True)
             for _ in range(6)]
    cases += [(two_level_planted(rng, rng.randint(3, 6))[0], False)
              for _ in range(12)]
    for a, huge in cases:
        e = nachtigall_expansion(a)
        v = e.validity_start
        ts = {1, 2, v - 1, v, v + 1, 1000} | {t.gamma for t in e.terms}
        ts |= {10**6} if huge else set()
        made = {}
        for t in sorted(t for t in ts if t >= 1):
            got, made[t] = _counted(monkeypatch, expansion_power, e, t)
            want, plain = _counted(monkeypatch, _expansion_reference_power,
                                   e, t)
            # no more products than mat_power(S, t) would make
            assert got == want and made[t] <= plain
        if huge:
            assert made[10**6] <= made[1000]
        with pytest.raises(ValueError):
            expansion_power(e, -1)


# ---------------------------------------------------------------------------
# the fraction-free agreement test


def _combination(terms, shape):
    zeros = MaxMatrix.zeros(*shape, semiring=EXACT_TIMES)
    return reduce(oplus, (prod.scale(coef) for coef, prod in terms), zeros)


_DENOMINATORS = [1, 2, 3, 4, 5, 7, 11, 13]
_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(1, 12), st.sampled_from(_DENOMINATORS)),
)
_coefs = st.builds(
    Fraction, st.integers(1, 12), st.sampled_from(_DENOMINATORS)
)


@st.composite
def _cases(draw):
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))

    def matrix():
        return MaxMatrix(
            draw(st.lists(
                st.lists(_entries, min_size=shape[1], max_size=shape[1]),
                min_size=shape[0],
                max_size=shape[0],
            )),
            EXACT_TIMES,
        )

    terms = [(draw(_coefs), matrix())]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            # a term tying the first one entry for entry
            coef = draw(_coefs)
            terms.append((coef, terms[0][1].scale(terms[0][0] / coef)))
        else:
            terms.append((draw(_coefs), matrix()))
    kind = draw(st.sampled_from(["equal", "nudged", "random"]))
    if kind == "random":
        return matrix(), terms
    rows = [list(row) for row in _combination(terms, shape).rows]
    if kind == "nudged":
        i = draw(st.integers(0, shape[0] - 1))
        j = draw(st.integers(0, shape[1] - 1))
        rows[i][j] = draw(_entries)
    return MaxMatrix(rows, EXACT_TIMES), terms


@settings(max_examples=400, deadline=None)
@given(_cases())
def test_exact_agreement_equals_scale_oplus_allclose(case):
    m, terms = case
    want = m.allclose(_combination(terms, m.shape))
    assert is_max_combination(m, terms) == want


def test_exact_agreement_zero_target_and_shapes():
    one = MaxMatrix([[1, 0]], EXACT_TIMES)
    zero = MaxMatrix([[0, 0]], EXACT_TIMES)
    assert is_max_combination(zero, [(Fraction(3), zero)])
    assert not is_max_combination(zero, [(Fraction(3), one)])
    assert is_max_combination(one, [(Fraction(1, 2), one.scale(2))])
    assert is_max_combination(zero, [])
    assert not is_max_combination(one, [])
    with pytest.raises(DimensionError):
        is_max_combination(one, [(1, MaxMatrix([[1], [0]], EXACT_TIMES))])
