"""Scalar layer: the four modes, coercion rules, and mean-pair compares."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from maxalg import (
    EXACT_PLUS,
    EXACT_TIMES,
    FLOAT_PLUS,
    FLOAT_TIMES,
    NEG_INF,
    PLUS,
    TIMES,
    ExactnessError,
    MaxMatrix,
    ModeError,
    Semiring,
    gmean_cmp,
    gmean_cmp_one,
    gmean_eq,
    gmean_float,
    gmean_value,
    max_cycle_gmean,
)
from maxalg.semiring import checked_float

ALL_MODES = (EXACT_TIMES, FLOAT_TIMES, EXACT_PLUS, FLOAT_PLUS)


def test_constants_per_mode():
    assert EXACT_TIMES.zero == Fraction(0)
    assert EXACT_TIMES.one == Fraction(1)
    assert FLOAT_TIMES.zero == 0.0
    assert FLOAT_TIMES.one == 1.0
    assert EXACT_PLUS.zero == NEG_INF
    assert EXACT_PLUS.one == Fraction(0)
    assert FLOAT_PLUS.zero == NEG_INF
    assert FLOAT_PLUS.one == 0.0
    for sr in ALL_MODES:
        assert sr.is_zero(sr.zero)
        assert not sr.is_zero(sr.one)


def test_constants_are_built_once_outside_equality():
    sr = Semiring("max-times", exact=True)
    assert sr.zero is sr.zero and sr.one is sr.one
    assert sr == EXACT_TIMES and hash(sr) == hash(EXACT_TIMES)
    assert repr(sr) == "Semiring(domain='max-times', exact=True, tol=1e-09)"


def test_coerce_exact_times():
    sr = EXACT_TIMES
    assert sr.coerce("3/4") == Fraction(3, 4)
    assert sr.coerce(2) == Fraction(2)
    with pytest.raises(ModeError):
        sr.coerce(0.5)
    with pytest.raises(ValueError):
        sr.coerce(Fraction(-1, 2))
    with pytest.raises(ValueError):
        sr.coerce(float("nan"))
    with pytest.raises(ValueError):
        sr.coerce(float("inf"))


def test_coerce_plus_and_float():
    assert FLOAT_TIMES.coerce("0.5") == 0.5
    with pytest.raises(ValueError):
        FLOAT_TIMES.coerce(-0.5)
    with pytest.raises(ValueError):
        FLOAT_TIMES.coerce(NEG_INF)
    assert EXACT_PLUS.coerce("-inf") == NEG_INF
    assert EXACT_PLUS.coerce("-3/2") == Fraction(-3, 2)
    with pytest.raises(ModeError):
        EXACT_PLUS.coerce(1.5)
    assert FLOAT_PLUS.coerce(-1.5) == -1.5
    assert FLOAT_PLUS.coerce(NEG_INF) == NEG_INF


@pytest.mark.parametrize("sr", [FLOAT_TIMES, FLOAT_PLUS])
@pytest.mark.parametrize(
    "value",
    ["1e400", "-1e400", Fraction(10**400), 10**400],
    ids=["str", "negative-str", "fraction", "int"],
)
def test_float_coerce_refuses_values_beyond_the_range(sr, value):
    with pytest.raises(ModeError):
        sr.coerce(value)


def test_float_max_times_coerce_never_loses_an_edge():
    for value in ("1e-400", Fraction(1, 10**400)):
        with pytest.raises(ModeError):
            FLOAT_TIMES.coerce(value)
        with pytest.raises(ModeError):
            MaxMatrix([[1, value], [1, 1]], FLOAT_TIMES)
    # the smallest subnormal still fits, and a float is taken as it is
    assert FLOAT_TIMES.coerce("5e-324") == 5e-324
    assert FLOAT_TIMES.coerce(5e-324) == 5e-324
    assert FLOAT_TIMES.coerce(0) == 0.0
    # in max-plus a tiny weight is a real edge of weight ~0, not the zero
    assert FLOAT_PLUS.coerce("1e-400") == 0.0
    # exact mode keeps every value
    assert EXACT_TIMES.coerce("1e-400") == Fraction(1, 10**400)
    assert EXACT_PLUS.coerce("1e400") == Fraction(10**400)


def test_checked_float_names_the_value_it_refuses():
    assert checked_float(Fraction(1, 3), underflow=True) == 1 / 3
    with pytest.raises(ModeError, match="^'1e400' overflows the float range"):
        checked_float(Fraction(10**400), underflow=False, what="'1e400'")
    with pytest.raises(ModeError, match="^a value underflows the float range"):
        checked_float(Fraction(1, 10**400), underflow=True)
    # without the underflow check a tiny value is a real max-plus weight
    assert checked_float(Fraction(1, 10**400), underflow=False) == 0.0


@pytest.mark.parametrize(
    "tol", [-1, math.nan, 1, 1.5, math.inf], ids=str
)
def test_semiring_refuses_a_tolerance_outside_zero_to_one(tol):
    for domain in (TIMES, PLUS):
        for exact in (True, False):
            with pytest.raises(ValueError, match="tolerance"):
                Semiring(domain, exact, tol)
    with pytest.raises(ValueError, match="tolerance"):
        dataclasses.replace(FLOAT_PLUS, tol=tol)


def test_semiring_accepts_the_tolerances_in_use():
    for tol in (0, 0.0, 1e-9, 0.5):
        sr = Semiring(PLUS, False, tol)
        assert sr.tol == tol
        assert sr.eq(1.0, 1.0)


def test_coerce_abs_is_times_only():
    assert EXACT_TIMES.coerce_abs(Fraction(-3, 4)) == Fraction(3, 4)
    assert EXACT_TIMES.coerce_abs("-2") == Fraction(2)
    with pytest.raises(ModeError):
        EXACT_PLUS.coerce_abs(Fraction(-1))


def test_semiring_axioms_both_domains():
    rng = random.Random(7)
    for sr in (EXACT_TIMES, EXACT_PLUS):
        pool = [sr.zero, sr.one] + [
            sr.coerce(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            if sr.domain != "max-times"
            else sr.coerce(Fraction(rng.randint(0, 6), rng.randint(1, 4)))
            for _ in range(6)
        ]
        for a in pool:
            assert sr.add(a, sr.zero) == a
            assert sr.mul(a, sr.one) == a
            assert sr.mul(a, sr.zero) == sr.zero
            for b in pool:
                assert sr.add(a, b) == sr.add(b, a)
                for c in pool:
                    lhs = sr.mul(a, sr.add(b, c))
                    rhs = sr.add(sr.mul(a, b), sr.mul(a, c))
                    assert lhs == rhs


def test_div_and_power():
    sr = EXACT_TIMES
    assert sr.div(Fraction(3), Fraction(2)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        sr.div(sr.one, sr.zero)
    assert sr.power(Fraction(2), 5) == Fraction(32)
    assert sr.power(Fraction(2), 0) == Fraction(1)
    assert sr.power(Fraction(2), -2) == Fraction(1, 4)
    sp = EXACT_PLUS
    assert sp.div(Fraction(3), Fraction(2)) == Fraction(1)
    assert sp.mul(NEG_INF, Fraction(5)) == NEG_INF
    assert sp.power(Fraction(3), 4) == Fraction(12)
    assert sp.power(NEG_INF, 3) == NEG_INF
    assert sp.power(NEG_INF, 0) == sp.one


def test_float_comparisons_use_relative_tolerance():
    sr = FLOAT_TIMES
    assert sr.eq(1.0, 1.0 + 1e-12)
    assert not sr.eq(1.0, 1.0 + 1e-6)
    assert sr.le(1.0 + 1e-12, 1.0)
    assert sr.lt(1.0, 1.1)
    assert not sr.lt(1.0, 1.0 + 1e-12)
    wide = Semiring("max-times", exact=False, tol=0.5)
    assert wide.eq(1.0, 1.4)


def test_ordinary_sum():
    assert EXACT_TIMES.ordinary_sum(
        [Fraction(1, 2), Fraction(1, 3)]
    ) == Fraction(5, 6)
    assert EXACT_TIMES.ordinary_sum([]) == Fraction(0)
    with pytest.raises(ExactnessError):
        EXACT_PLUS.ordinary_sum([Fraction(0), Fraction(1)])
    got = FLOAT_PLUS.ordinary_sum([0.0, 0.0])
    assert math.isclose(got, math.log(2.0))
    assert FLOAT_PLUS.ordinary_sum([]) == NEG_INF


def test_gmean_cmp_exact_cross_powers():
    sr = EXACT_TIMES
    # 8^(1/3) = 2 = 4^(1/2)
    assert gmean_eq(sr, (Fraction(8), 3), (Fraction(4), 2))
    assert gmean_cmp(sr, (Fraction(9), 2), (Fraction(2), 1)) > 0
    assert gmean_cmp(sr, (Fraction(1, 8), 3), (Fraction(1, 2), 1)) == 0
    assert gmean_cmp_one(sr, (Fraction(1), 5)) == 0
    assert gmean_cmp_one(sr, (Fraction(33, 32), 5)) > 0
    assert gmean_cmp_one(sr, (Fraction(0), 1)) < 0
    sp = EXACT_PLUS
    assert gmean_eq(sp, (Fraction(6), 3), (Fraction(4), 2))
    assert gmean_cmp(sp, (Fraction(-1), 2), (Fraction(0), 1)) < 0
    assert gmean_cmp(sp, (NEG_INF, 1), (Fraction(-50), 1)) < 0


def test_gmean_agreement_between_exact_and_float():
    rng = random.Random(11)
    for _ in range(300):
        wa = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        wb = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        la, lb = rng.randint(1, 5), rng.randint(1, 5)
        exact = gmean_cmp(EXACT_TIMES, (wa, la), (wb, lb))
        approx = gmean_cmp(FLOAT_TIMES, (float(wa), la), (float(wb), lb))
        if approx != 0:
            assert exact == approx
        plus_exact = gmean_cmp(EXACT_PLUS, (wa, la), (wb, lb))
        plus_float = gmean_cmp(FLOAT_PLUS, (float(wa), la), (float(wb), lb))
        if plus_float != 0:
            assert plus_exact == plus_float


def test_gmean_value_rational_and_irrational():
    sr = EXACT_TIMES
    assert gmean_value(sr, (Fraction(8, 27), 3)) == Fraction(2, 3)
    assert gmean_value(sr, (Fraction(4), 2)) == Fraction(2)
    assert gmean_value(sr, (Fraction(6), 2)) is None
    assert gmean_value(sr, (Fraction(2), 3)) is None
    assert gmean_value(sr, (Fraction(0), 1)) == Fraction(0)
    assert gmean_value(EXACT_PLUS, (Fraction(7), 2)) == Fraction(7, 2)
    assert math.isclose(gmean_float(sr, (Fraction(6), 2)), math.sqrt(6.0))
    assert math.isclose(
        gmean_value(FLOAT_TIMES, (6.0, 2)), math.sqrt(6.0)
    )


def test_gmean_float_of_weights_outside_the_float_range():
    # the weights underflow or overflow a float, their means do not
    tiny = MaxMatrix([[0, Fraction(1, 10**300)], [Fraction(1, 10**300), 0]])
    assert math.isclose(max_cycle_gmean(tiny).float_value(), 1e-300)
    huge = MaxMatrix([[0, Fraction(10**300)], [Fraction(10**300, 3), 0]])
    assert math.isclose(
        max_cycle_gmean(huge).float_value(), 1e300 / math.sqrt(3)
    )
    # a mean outside the float range is a typed refusal
    for w in (Fraction(1, 10**700), Fraction(10**700, 3)):
        with pytest.raises(ModeError):
            gmean_float(EXACT_TIMES, (w, 2))


def test_gmean_float_max_plus_divides_before_converting():
    # the weight 3e308 overflows a float, the mean 1.5e308 does not
    big = MaxMatrix([["-inf", 3 * 10**308], [0, "-inf"]], EXACT_PLUS)
    assert max_cycle_gmean(big).float_value() == 1.5e308
    assert gmean_float(EXACT_PLUS, (Fraction(-3 * 10**308), 2)) == -1.5e308
    # a mean outside the float range is a typed refusal
    for w in (Fraction(5 * 10**308), Fraction(-5 * 10**308)):
        with pytest.raises(ModeError):
            gmean_float(EXACT_PLUS, (w, 2))


def test_is_zero_matches_equality_with_zero():
    values = {
        EXACT_TIMES: [Fraction(0), Fraction(1, 10**400), Fraction(3, 7), 0],
        FLOAT_TIMES: [0.0, -0.0, 5e-324, 1.0, math.nan],
        EXACT_PLUS: [NEG_INF, Fraction(0), Fraction(-10**400)],
        FLOAT_PLUS: [NEG_INF, 0.0, -1e308, math.nan],
    }
    for sr, vs in values.items():
        for v in vs:
            assert sr.is_zero(v) == (v == sr.zero), (sr, v)


def test_gmean_value_large_exact_roots():
    sr = EXACT_TIMES
    base = Fraction(12345, 67)
    for k in (2, 3, 7):
        assert gmean_value(sr, (base ** k, k)) == base
        assert gmean_value(sr, (base ** k + 1, k)) is None


def test_semiring_identity_survives_per_instance_ops():
    # mul, eq and le are chosen per instance; they must stay out of ==,
    # hash and repr, and travel through pickle, deepcopy and replace
    import copy
    import dataclasses
    import pickle

    from maxalg.cli import parse_matrix_text

    cli_built = parse_matrix_text("maxplus 2 float\n0 1\n1 0\n", tol=0.0)[0]
    modes = {
        "Semiring(domain='max-times', exact=True, tol=1e-09)": EXACT_TIMES,
        "Semiring(domain='max-times', exact=False, tol=1e-09)": FLOAT_TIMES,
        "Semiring(domain='max-plus', exact=True, tol=1e-09)": EXACT_PLUS,
        "Semiring(domain='max-plus', exact=False, tol=1e-09)": FLOAT_PLUS,
        "Semiring(domain='max-plus', exact=False, tol=0.0)": cli_built.semiring,
    }
    probes = [(1, 2), (2, 2), (NEG_INF, 1), (NEG_INF, NEG_INF)]
    for text, sr in modes.items():
        assert repr(sr) == text
        assert sr == Semiring(sr.domain, sr.exact, sr.tol)
        assert hash(sr) == hash((sr.domain, sr.exact, sr.tol))
        copies = [
            pickle.loads(pickle.dumps(sr)),
            copy.deepcopy(sr),
            copy.copy(sr),
            dataclasses.replace(sr),
        ]
        for other in copies:
            assert other == sr and hash(other) == hash(sr)
            assert repr(other) == text
            for a, b in probes:
                if sr.domain == TIMES and NEG_INF in (a, b):
                    continue
                a, b = sr.coerce(a), sr.coerce(b)
                assert other.mul(a, b) == sr.mul(a, b)
                assert other.eq(a, b) == sr.eq(a, b)
                assert other.le(a, b) == sr.le(a, b)
        for op in (sr.mul, sr.eq, sr.le, sr.is_zero):
            pickle.dumps(op)
    # replace chooses the ops again from the new fields
    loose = dataclasses.replace(FLOAT_PLUS, tol=0.5)
    assert loose.eq(1.0, 1.4) and not FLOAT_PLUS.eq(1.0, 1.4)
    assert loose != FLOAT_PLUS
    assert dataclasses.replace(FLOAT_PLUS, domain=TIMES) == FLOAT_TIMES
    assert dataclasses.replace(FLOAT_PLUS, domain=TIMES).mul(2.0, 3.0) == 6.0
    assert {FLOAT_TIMES: 1}[Semiring(TIMES, False)] == 1
