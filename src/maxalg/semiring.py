"""Scalar arithmetic for the two isomorphic max semirings.

Values live in one of four modes, the cross product of

* domain: max-times (nonnegative reals, plus = max, times = product) or
  max-plus (reals with -inf, plus = max, times = sum), and
* arithmetic: exact (Fraction) or float with relative tolerance.

Exact max-times is the reference mode. A ``Semiring`` instance bundles the
mode and provides every scalar operation the matrix layer needs, so the
algorithms above it never branch on the mode themselves.

Cycle geometric means are handled as (weight, length) pairs and compared by
cross powers, which stays exact even when the mean itself is irrational; a
float filter with a proven error bound decides all but the near-ties
without computing the powers.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .errors import ExactnessError, ModeError

TIMES = "max-times"
PLUS = "max-plus"

NEG_INF = float("-inf")


def _is_neg_inf(a):
    return a == NEG_INF


# The per-domain scalar operations a Semiring picks in __post_init__. They
# are module-level functions, or partials of them, so that a Semiring
# pickles and deep-copies.


def _plus_mul(a, b):
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    return a + b


# Exact max-plus values are Fractions and the float NEG_INF. Comparing a
# Fraction with a float takes Fraction.__eq__'s slow path, so the zero
# test of exact max-plus asks for the type first.


def _exact_is_neg_inf(a):
    return a.__class__ is float and a == NEG_INF


def _exact_plus_mul(a, b):
    if (a.__class__ is float and a == NEG_INF) or (
        b.__class__ is float and b == NEG_INF
    ):
        return NEG_INF
    return a + b


def _float_eq(tol, a, b):
    if a == NEG_INF or b == NEG_INF:
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _float_le(tol, a, b):
    return a <= b or _float_eq(tol, a, b)


def float_range_error(what, overflow=True):
    """The ModeError refusing a value that leaves the float range.

    ``what`` names the value at the head of the message; ``overflow``
    tells beyond the range from rounding to 0.0.
    """
    leaves = "overflows" if overflow else "underflows"
    return ModeError(f"{what} {leaves} the float range; use exact mode")


def checked_float(v, underflow, what="a value"):
    """float(v) for an int or Fraction, refusing a value it would lose.

    Beyond the float range is a ModeError; so, with ``underflow``, is a
    nonzero value that rounds to 0.0, the max-times zero. ``what`` names
    the value at the head of the message.
    """
    try:
        result = float(v)
    except OverflowError:
        raise float_range_error(what) from None
    if underflow and v and not result:
        raise float_range_error(what, overflow=False)
    return result


@dataclass(frozen=True)
class Semiring:
    """A max semiring in a fixed domain and arithmetic mode.

    ``tol`` is the relative tolerance for float comparisons: a and b are
    considered equal iff |a - b| <= tol * max(1, |a|, |b|). It must lie
    in [0, 1): below zero nothing equals itself, and from one on max-plus
    comparisons stop being monotone.
    """

    domain: str = TIMES
    exact: bool = True
    tol: float = 1e-9
    # the constants, the zero test, mul, eq and le are chosen once per
    # instance; they take no part in ==, hash or repr
    zero: object = field(init=False, compare=False, repr=False)
    one: object = field(init=False, compare=False, repr=False)
    is_zero: object = field(init=False, compare=False, repr=False)
    mul: object = field(init=False, compare=False, repr=False)
    eq: object = field(init=False, compare=False, repr=False)
    le: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.domain not in (TIMES, PLUS):
            raise ValueError(f"unknown domain {self.domain!r}")
        if not 0 <= self.tol < 1:
            raise ValueError(f"tolerance {self.tol!r} is not in [0, 1)")
        if self.domain == TIMES:
            zero = Fraction(0) if self.exact else 0.0
            one = Fraction(1) if self.exact else 1.0
            # `not a` equals `a == 0` for every Fraction and float,
            # -0.0 and nan included, without Fraction.__eq__'s type checks
            is_zero = operator.not_
            mul = operator.mul
        else:
            zero = NEG_INF
            one = Fraction(0) if self.exact else 0.0
            if self.exact:
                is_zero, mul = _exact_is_neg_inf, _exact_plus_mul
            else:
                is_zero, mul = _is_neg_inf, _plus_mul
        if self.exact:
            eq, le = operator.eq, operator.le
        else:
            eq = partial(_float_eq, self.tol)
            le = partial(_float_le, self.tol)
        for name, value in (
            ("zero", zero),
            ("one", one),
            ("is_zero", is_zero),
            ("mul", mul),
            ("eq", eq),
            ("le", le),
        ):
            object.__setattr__(self, name, value)

    @property
    def mode_name(self):
        return "exact" if self.exact else "float"

    # -- validation --------------------------------------------------------

    def coerce(self, v):
        """Validate and normalize a scalar into this mode's representation.

        In float mode a value that is not already a float must fit the
        float range, and in max-times a nonzero one must not round to 0.0,
        the semiring zero; otherwise ModeError, as for MatrixFile tokens.
        """
        if isinstance(v, str):
            v = NEG_INF if v == "-inf" else Fraction(v)
        if isinstance(v, float) and math.isnan(v):
            raise ValueError("NaN is not a semiring value")
        if isinstance(v, float) and v == math.inf:
            raise ValueError("+inf is not a semiring value")
        if self.domain == TIMES:
            if isinstance(v, float) and v == NEG_INF:
                raise ValueError("-inf is not a max-times value")
            if self.exact:
                if isinstance(v, float):
                    raise ModeError(
                        "float value in exact mode; pass int, Fraction, or a "
                        "numeric string"
                    )
                v = Fraction(v)
            elif not isinstance(v, float):
                v = checked_float(v, underflow=True)
            if v < 0:
                raise ValueError(f"negative value {v} in max-times domain")
            return v
        # max-plus
        if isinstance(v, float):
            if v == NEG_INF:
                return NEG_INF
            if self.exact:
                raise ModeError(
                    "finite float value in exact max-plus mode; pass int, "
                    "Fraction, or a numeric string"
                )
            return v
        return Fraction(v) if self.exact else checked_float(v, underflow=False)

    def coerce_abs(self, v):
        """Coerce the modulus of a signed number (for moduli matrices)."""
        if isinstance(v, str):
            v = Fraction(v)
        if self.domain != TIMES:
            raise ModeError("moduli live in the max-times domain")
        return self.coerce(abs(v))

    # -- semiring operations -----------------------------------------------

    def add(self, a, b):
        """Semiring addition, i.e. max."""
        return a if b < a else b

    def div(self, a, b):
        """Semiring division a (x) b^-1; b must be nonzero."""
        if self.is_zero(b):
            raise ZeroDivisionError("division by the semiring zero")
        if self.domain == TIMES:
            return a / b
        if a == NEG_INF:
            return NEG_INF
        return a - b

    def power(self, a, k):
        """k-th semiring power of a, with a^0 = one for every a."""
        if k == 0:
            return self.one
        if k < 0:
            return self.div(self.one, self.power(a, -k))
        if self.domain == TIMES:
            return a ** k
        if a == NEG_INF:
            return NEG_INF
        return a * k

    # -- comparisons ---------------------------------------------------------

    # eq(a, b): equality, under the tolerance in float mode, where a and b
    # are equal iff |a - b| <= tol * max(1, |a|, |b|); le(a, b): a <= b or
    # eq(a, b). Both, and mul, are fields set in __post_init__.

    def lt(self, a, b):
        return not self.le(b, a)

    def ge(self, a, b):
        return self.le(b, a)

    def gt(self, a, b):
        return self.lt(b, a)

    # -- beyond the semiring -------------------------------------------------

    def ordinary_sum(self, values):
        """Ordinary (school) sum of the given values, in this domain.

        In max-times this is a plain sum. In max-plus it is log-sum-exp,
        which is irrational in exact mode and therefore refused there.
        """
        values = list(values)
        if self.domain == TIMES:
            return sum(values, self.zero)
        if self.exact:
            raise ExactnessError(
                "ordinary sums in the additive domain need float mode"
            )
        m = max(values, default=NEG_INF)
        if m == NEG_INF:
            return NEG_INF
        return m + math.log(math.fsum(math.exp(v - m) for v in values))

    def to_float(self, a):
        """Numeric value of a scalar, for display and for log-domain bounds."""
        return float(a)


EXACT_TIMES = Semiring(TIMES, True)
FLOAT_TIMES = Semiring(TIMES, False)
EXACT_PLUS = Semiring(PLUS, True)
FLOAT_PLUS = Semiring(PLUS, False)


# -- filtered exact comparisons ----------------------------------------------
#
# Exact max-times comparisons of products and roots reduce to the sign of a
# sum of integer logarithms. A float estimate of that sum decides the sign
# whenever it is clear of its proven error bound; only near-ties pay for the
# exact big-integer cross powers.

_FILTER_EPS = 2.0 ** -52  # twice the unit roundoff 2^-53


def log_terms(q):
    """(ln numerator, ln denominator) of a positive rational, as floats.

    math.log of an int works at any size, whereas float(q) would underflow
    or overflow. Both results are >= 0.
    """
    return math.log(q.numerator), math.log(q.denominator)


def filtered_sign(estimate, size, depth):
    """Sign of a real d from a float estimate of it, or 0 when undecided.

    d = sum_i c_i ln(n_i) for positive ints n_i and rational weights c_i.
    ``estimate`` is computed from g_i = math.log(n_i) by float additions,
    subtractions, and multiplications or divisions by ints below 2^53, with
    at most ``depth`` roundings between any g_i and the result. ``size``
    is an upper bound on sum_i |c_i| (g_i + 1), over every occurrence.

    Bound. Let eps = 2^-53. For n_i < 2^1024 the conversion to a double
    moves ln(n_i) by at most 1.01 eps, and a log faithful to 1 ulp (glibc,
    the macOS libm) adds at most 2 eps g_i; above 2^1024 CPython takes the
    log of the frexp mantissa plus e ln 2, whose roundings add at most
    eps (3 g_i + 4). So |g_i - ln n_i| <= 4 eps (g_i + 1). Each later
    rounding multiplies an intermediate by (1 + delta), |delta| <= eps, so
    the float combination of the g_i is off by at most
    ((1 + eps)^depth - 1) sum |c_i| g_i <= 1.01 depth eps sum |c_i| g_i.
    Together

        |estimate - d| <= 1.01 (depth + 4) eps size.

    The threshold used, (depth + 4) size 2^-52, is twice that, which also
    covers the roundings made in computing ``size`` and the threshold
    itself. An exact tie d = 0 is therefore never decided here.
    """
    bound = (depth + 4) * size * _FILTER_EPS
    if estimate > bound:
        return 1
    if estimate < -bound:
        return -1
    return 0


def _cross_power_cmp(wa, la, wb, lb):
    """Exact three-way compare of wa^(1/la) and wb^(1/lb): wa^lb vs wb^la."""
    x, y = wa ** lb, wb ** la
    return (x > y) - (x < y)


# -- geometric means of cycles ---------------------------------------------
#
# A cycle of weight w and length l has geometric mean w^(1/l) in max-times
# and w/l in max-plus. Pairs (w, l) compare by cross powers so that exact
# mode never materializes an irrational root.


def gmean_cmp(sr, pair_a, pair_b):
    """Three-way compare two (weight, length) geometric-mean pairs.

    Exact max-times pairs go through filtered_sign first: d = lb ln wa -
    la ln wb is estimated with depth 3 (the log difference of each weight,
    its product by the other length, and the final subtraction).
    """
    wa, la = pair_a
    wb, lb = pair_b
    za, zb = sr.is_zero(wa), sr.is_zero(wb)
    if za or zb:
        if za and zb:
            return 0
        return -1 if za else 1
    if sr.domain == TIMES:
        if sr.exact:
            pa, qa = log_terms(wa)
            pb, qb = log_terms(wb)
            sign = filtered_sign(
                lb * (pa - qa) - la * (pb - qb),
                lb * (pa + qa + 2.0) + la * (pb + qb + 2.0),
                3,
            )
            return sign or _cross_power_cmp(wa, la, wb, lb)
        ma = math.exp(math.log(wa) / la)
        mb = math.exp(math.log(wb) / lb)
    else:
        if sr.exact:
            x, y = wa * lb, wb * la
            return (x > y) - (x < y)
        ma, mb = wa / la, wb / lb
    if sr.eq(ma, mb):
        return 0
    return -1 if ma < mb else 1


def gmean_eq(sr, pair_a, pair_b):
    return gmean_cmp(sr, pair_a, pair_b) == 0


def gmean_cmp_one(sr, pair):
    """Three-way compare a mean pair against the semiring unit."""
    return gmean_cmp(sr, pair, (sr.one, 1))


def _int_nthroot(x, n):
    """Exact n-th root of a nonnegative int, or None."""
    if x < 0:
        return None
    if x in (0, 1) or n == 1:
        return x
    lo, hi = 0, 1 << (x.bit_length() // n + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** n < x:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** n == x else None


def gmean_value(sr, pair):
    """Collapse a (weight, length) pair to a scalar, or None.

    None occurs only in exact max-times mode when the root is irrational.
    """
    w, l = pair
    if sr.is_zero(w):
        return sr.zero
    if sr.domain == TIMES:
        if not sr.exact:
            return math.exp(math.log(w) / l)
        if l == 1:
            return w
        p = _int_nthroot(w.numerator, l)
        q = _int_nthroot(w.denominator, l)
        if p is None or q is None:
            return None
        return Fraction(p, q)
    if sr.exact:
        return Fraction(w) / l
    return w / l


def gmean_float(sr, pair):
    """Float approximation of a mean pair, for reports.

    An exact weight outside the normal float range is not converted on its
    own: a max-times weight goes through its integer logarithms, and a
    max-plus weight is divided by the length before the conversion. Only
    a mean that is itself outside the float range is refused, with
    ModeError.
    """
    w, l = pair
    if sr.is_zero(w):
        return sr.to_float(sr.zero)
    if sr.domain != TIMES:
        if not sr.exact:
            return float(w) / l
        try:
            return float(Fraction(w) / l)
        except OverflowError:
            raise ModeError(
                f"the mean of a cycle of length {l} lies outside the float "
                "range"
            ) from None
    if not sr.exact or sys.float_info.min <= w <= sys.float_info.max:
        return math.exp(math.log(w) / l)
    p, q = log_terms(w)
    try:
        value = math.exp((p - q) / l)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ModeError(
            f"the mean of a cycle of length {l} lies outside the float range"
        )
    return value
