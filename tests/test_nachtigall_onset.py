"""The proven Nachtigall onset against the scanning reference.

In exact mode nachtigall_expansion proves its onset by induction: the
least v with A^v == E(v) from which A (x) E(s) == E(s + 1) holds for
every later s, the latter decided by comparing two upper envelopes of
lines exactly (asymptotics._last_failure). These tests compare the
proven onset with helpers.expansion_onset_reference, which observes the
onset by computing every power up to the default horizon, in exact
max-times and exact max-plus and up to n = 10; compare _last_failure
with a plain scan over the exponents; and check the refusal of an
expansion that can never hold.
"""

import math
import random
from fractions import Fraction

import pytest

from maxalg import (
    EXACT_PLUS,
    EXACT_TIMES,
    CertificationError,
    ExactnessError,
    nachtigall_expansion,
)
from maxalg.asymptotics import _last_failure, _proven_onset

from helpers import (
    additive,
    expansion_onset_reference,
    fmat,
    near_tie_planted,
    two_level_planted,
    unit_mean_corpus,
)


def _criterion_10():
    rng = random.Random(110)
    return [two_level_planted(rng, rng.randint(3, 6))[0] for _ in range(80)]


def _planted_to_10():
    rng = random.Random(21)
    return [two_level_planted(rng, rng.randint(7, 10))[0] for _ in range(12)]


def _near_tie():
    return [near_tie_planted(n, k, heavy)
            for n in (4, 5, 6, 7) for k in (10, 1000, 10**6)
            for heavy in (8, 1024)]


CORPORA = {
    "criterion-10": _criterion_10,
    "unit-mean": unit_mean_corpus,
    "planted-to-10": _planted_to_10,
    "near-tie": _near_tie,
}


@pytest.mark.parametrize("plus", [False, True], ids=["times", "plus"])
@pytest.mark.parametrize("corpus", CORPORA)
def test_proven_onset_matches_the_scanning_reference(corpus, plus):
    compared = 0
    for a in CORPORA[corpus]():
        m = additive(a) if plus else a
        try:
            e = nachtigall_expansion(m)
        except ExactnessError:
            # an irrational stage mean: no exact terms to expand with
            continue
        assert (e.validity_start, e.horizon) == expansion_onset_reference(
            m, e.terms
        )
        compared += 1
    assert compared >= 12


def test_near_tie_onset_does_not_grow_with_the_tie():
    # the near tie moves the power at which the lighter term stops leading
    # the heavy entry's row, not the onset: both terms are realized by
    # walks of every length from 2n - 5 on
    for n in (4, 5, 6, 8):
        for k in (10, 1000, 10**6):
            e = nachtigall_expansion(near_tie_planted(n, k, 64))
            assert e.validity_start == 2 * n - 5


# ---------------------------------------------------------------------------
# the envelope comparison against a plain scan

_TIMES_SLOPES = [Fraction(2), Fraction(3, 2), Fraction(5, 4), Fraction(21, 20),
                 Fraction(1), Fraction(19, 20), Fraction(3, 4), Fraction(1, 2)]
_PLUS_SLOPES = [Fraction(2), Fraction(3, 2), Fraction(1), Fraction(1, 2),
                Fraction(0), Fraction(-1, 2), Fraction(-1)]
_SCAN = 200  # past every crossing the values below can produce


def _line_values(rng, plus, count):
    sr = EXACT_PLUS if plus else EXACT_TIMES
    slopes = sorted(rng.sample(_PLUS_SLOPES if plus else _TIMES_SLOPES,
                               count), reverse=True)

    def value():
        if plus:
            return Fraction(rng.randint(-12, 12), rng.choice([1, 2]))
        return Fraction(2) ** rng.randint(-6, 6) * rng.choice([1, 1, 3])

    alphas, betas = [], []
    for k in range(count):
        kind = rng.choice(["zero", "shared", "shared", "one", "one", "half"])
        if k == 0 and rng.random() < 0.9:
            kind = "shared"
        x = value()
        if kind == "zero":
            alphas.append(sr.zero)
            betas.append(sr.zero)
        elif kind == "shared":
            alphas.append(x)
            betas.append(x)
        elif kind == "one":
            alphas.append(x)
            betas.append(value())
        else:
            pair = [x, sr.zero]
            rng.shuffle(pair)
            alphas.append(pair[0])
            betas.append(pair[1])
    return sr, slopes, alphas, betas


def _envelope(sr, slopes, values, u):
    return max((sr.mul(v, sr.power(c, u))
                for v, c in zip(values, slopes) if not sr.is_zero(v)),
               default=sr.zero)


def _scan_last_failure(sr, slopes, alphas, betas, floor, step):
    for u in range(_SCAN - (_SCAN - floor) % step, floor - 1, -step):
        if (_envelope(sr, slopes, alphas, u)
                != _envelope(sr, slopes, betas, u)):
            return u
    return None


@pytest.mark.parametrize("plus", [False, True], ids=["times", "plus"])
def test_last_failure_matches_a_scan(plus):
    rng = random.Random(31 + plus)
    checked = failures = refused = 0
    while checked < 400:
        sr, slopes, alphas, betas = _line_values(rng, plus,
                                                 rng.randint(1, 4))
        if alphas == betas:
            continue
        floor, step = rng.randint(1, 5), rng.randint(1, 3)
        args = (sr, not plus, slopes, alphas, betas, floor, step, 10_000)
        lead = next(k for k, (x, y) in enumerate(zip(alphas, betas))
                    if not (sr.is_zero(x) and sr.is_zero(y)))
        if alphas[lead] != betas[lead]:
            with pytest.raises(CertificationError):
                _last_failure(*args)
            refused += 1
            continue
        want = _scan_last_failure(sr, slopes, alphas, betas, floor, step)
        assert _last_failure(*args) == want
        checked += 1
        failures += want is not None
    # both outcomes, and the refusal, are exercised
    assert 50 < failures < 350
    assert refused > 10


def test_last_failure_past_the_limit_is_answered_with_the_limit():
    # the lighter one-sided line stays above the leading one until about
    # u = 5000, beyond the limit of 100
    slopes = [Fraction(1), Fraction(999, 1000)]
    alphas = [Fraction(1), Fraction(2) ** 7]
    betas = [Fraction(1), Fraction(0)]
    assert _last_failure(EXACT_TIMES, True, slopes, alphas, betas, 1, 1,
                         100) == 100
    assert _last_failure(EXACT_TIMES, True, slopes, alphas, betas, 1, 1,
                         10_000) == math.floor(7 * math.log(2)
                                               / -math.log(0.999))


@pytest.mark.parametrize("rows", [
    [[2, 1], [0, Fraction(1, 2)]],
    [[0, 2, 0], [2, 0, 1], [0, 0, 1]],
])
def test_proven_onset_refuses_an_expansion_that_never_holds(rows):
    # the heavy cycle reaches the lighter one
    a = fmat(rows)
    terms = nachtigall_expansion(a).terms
    assert len(terms) == 2
    # without its leading term, A (x) E(s) keeps the walks that leave the
    # heavy cycle for the lighter one, which E(s + 1) lacks at every power
    with pytest.raises(CertificationError):
        _proven_onset(a, terms[1:], terms[1].gamma, 1000, 10_000)
    # without its lighter term the induction holds, but no power ever
    # equals the expansion: the onset lies beyond any cap
    assert _proven_onset(a, terms[:1], terms[0].gamma, 200, 10_000) is None
