"""Independent answer checks, from the input entries alone.

Each check recomputes what it needs in plain Fraction or float
arithmetic over lists of rows and never calls maxalg's own certificate
checkers, so a wrong answer that the library would wave through still
fails here. A failed check raises CheckFailed.

Float comparisons use a relative tolerance of 1e-7, looser than the
library's 1e-9, so rounding in a correct answer never counts as a
failure while a wrong entry still does.
"""

from __future__ import annotations

import math
from fractions import Fraction

FLOAT_TOL = 1e-7


class CheckFailed(Exception):
    """An answer failed the benchmark's own check."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


class Arith:
    """Scalar rules of one mode: exact max-times, float max-times or float
    max-plus."""

    def __init__(self, exact=True, plus=False):
        self.exact = exact
        self.plus = plus
        self.zero = -math.inf if plus else (Fraction(0) if exact else 0.0)
        self.one = (Fraction(0) if exact else 0.0) if plus else (
            Fraction(1) if exact else 1.0)

    def mul(self, x, y):
        return x + y if self.plus else x * y

    def div(self, x, y):
        return x - y if self.plus else x / y

    def power(self, x, k):
        return x * k if self.plus else x ** k

    def root(self, w, k):
        """The float k-th root of w in this domain's multiplicative sense."""
        return float(w) / k if self.plus else float(w) ** (1.0 / k)

    def is_zero(self, x):
        return x == self.zero

    def eq(self, x, y):
        if self.exact or x == y:
            return x == y
        if self.is_zero(x) or self.is_zero(y):
            return False
        return abs(x - y) <= FLOAT_TOL * max(1.0, abs(x), abs(y))

    def ge(self, x, y):
        """x >= y, within tolerance in float mode."""
        return x >= y or self.eq(x, y)


EXACT = Arith()


def grid(matrix):
    """Rows of a maxalg matrix, or a list of rows, as lists."""
    rows = getattr(matrix, "rows", matrix)
    return [list(r) for r in rows]


def vector(v):
    return list(getattr(v, "entries", v))


def mat_mul(a, b, ar=EXACT):
    cols = list(zip(*b))
    if ar.plus:
        return [[max(x + y for x, y in zip(row, col)) for col in cols]
                for row in a]
    return [[max(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def mat_vec(a, x, ar=EXACT):
    if ar.plus:
        return [max(v + w for v, w in zip(row, x)) for row in a]
    return [max(v * w for v, w in zip(row, x)) for row in a]


def mat_power(a, t, ar=EXACT):
    """a^t by repeated squaring, t >= 1."""
    result = None
    base = a
    while t:
        if t & 1:
            result = base if result is None else mat_mul(result, base, ar)
        t >>= 1
        if t:
            base = mat_mul(base, base, ar)
    return result


def mats_equal(a, b, ar=EXACT):
    if len(a) != len(b):
        return False
    return all(
        len(ra) == len(rb) and all(ar.eq(x, y) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def max_bits(values):
    """Largest numerator or denominator bit length among Fractions."""
    out = 0
    for v in values:
        if isinstance(v, Fraction):
            out = max(out, v.numerator.bit_length(),
                      v.denominator.bit_length())
    return out


def flat(*mats):
    for m in mats:
        for row in m:
            yield from row


# ---------------------------------------------------------------------------
# spectral answers


def check_cycle(a, nodes, weight, length, ar=EXACT):
    """The closed walk exists in a and has the reported weight and length."""
    nodes = list(nodes)
    require(len(nodes) >= 2 and nodes[0] == nodes[-1],
            f"witness {nodes} is not a closed walk")
    require(len(set(nodes[:-1])) == len(nodes) - 1,
            f"witness {nodes} repeats a node")
    require(len(nodes) - 1 == length,
            f"witness has {len(nodes) - 1} edges, reported length {length}")
    w = ar.one
    for u, v in zip(nodes, nodes[1:]):
        require(not ar.is_zero(a[u][v]), f"witness edge {u}->{v} is absent")
        w = ar.mul(w, a[u][v])
    require(ar.eq(w, weight), f"witness weighs {w}, reported {weight}")


def check_edges_within(nodes, edges):
    inside = set(map(tuple, edges))
    for e in zip(nodes, nodes[1:]):
        require(e in inside, f"witness edge {e} is not critical")


def exact_root(w, k):
    """The rational k-th root of w, or None when it is irrational."""
    if k == 1:
        return w
    p = round(float(w.numerator) ** (1.0 / k)) if w.numerator else 0
    q = round(float(w.denominator) ** (1.0 / k))
    for pp in (p - 1, p, p + 1):
        for qq in (q - 1, q, q + 1):
            if pp >= 0 and qq > 0 and Fraction(pp, qq) ** k == w:
                return Fraction(pp, qq)
    return None


def check_eigenvector(a, x, lam, ar=EXACT):
    """A (x) x == lam (x) x with x positive (finite in max-plus)."""
    require(all(not ar.is_zero(v) and (ar.plus or v > 0) for v in x),
            "eigenvector is not positive")
    ax = mat_vec(a, x, ar)
    for i, (lhs, xi) in enumerate(zip(ax, x)):
        require(ar.eq(lhs, ar.mul(lam, xi)),
                f"eigen-equation fails in row {i}: {lhs} != {lam} * {xi}")


def check_mean_value(lam, weight, length, ar=EXACT):
    """The scalar mean matches the (weight, length) pair."""
    if ar.exact:
        require(ar.power(lam, length) == weight,
                f"mean {lam} does not match the pair ({weight}, {length})")
    else:
        require(ar.eq(lam, ar.root(weight, length)),
                f"mean {lam} does not match the pair ({weight}, {length})")


# ---------------------------------------------------------------------------
# powers


def check_periodicity(a, transient, period, window):
    """A^(T+p) == A^T with T and p minimal, and the window matches.

    window[k] is the reported A^(T+k), for as many k as were reported;
    A^T is recomputed here by repeated squaring and the later powers by
    multiplying on by A. Returns the recomputed A^T .. A^(T+p-1), which
    hold every later power: A^t is entry (t - T) mod p.
    """
    require(transient >= 1 and period >= 1, "transient and period must be >= 1")
    own = [mat_power(a, transient)]
    for _ in range(period):
        own.append(mat_mul(own[-1], a))
    for k, (mine, theirs) in enumerate(zip(own, window)):
        require(mats_equal(mine, grid(theirs)), f"window power {k} is wrong")
    require(own[period] == own[0],
            f"A^(T+p) != A^T at T={transient}, p={period}")
    for q in range(1, period):
        require(own[q] != own[0], f"period {period} is not minimal: {q} works")
    if transient > 1:
        before = mat_power(a, transient - 1)
        require(before != own[period - 1],
                f"transient {transient} is not minimal")
    return own[:period]


def check_power_matches(a, t, claimed):
    require(mats_equal(mat_power(a, t), grid(claimed)),
            f"claimed power {t} differs from the plain power")


# ---------------------------------------------------------------------------
# stars, scalings and balancing


def star_of(a, ar):
    """I (+) the Floyd-Warshall closure of a; the star when no cycle
    weighs more than one."""
    d = [list(row) for row in a]
    n = len(d)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if ar.is_zero(dik):
                continue
            di = d[i]
            for j in range(n):
                cand = ar.mul(dik, dk[j])
                if cand > di[j]:
                    di[j] = cand
    for i in range(n):
        d[i][i] = max(d[i][i], ar.one)
    return d


def check_star(t, star, ar):
    require(mats_equal(star_of(t, ar), star, ar), "star is wrong")


def check_scaled(a, x, b, ar=EXACT):
    """b[i][j] == a[i][j] * x[j] / x[i] entrywise."""
    for i, row in enumerate(a):
        for j, v in enumerate(row):
            want = ar.zero if ar.is_zero(v) else ar.div(ar.mul(v, x[j]), x[i])
            require(ar.eq(want, b[i][j]), f"scaled entry ({i}, {j}) is wrong")


def widest_paths(b, ar):
    """w[i][j]: the largest m such that some i->j path has all edges >= m."""
    n = len(b)
    w = [[b[i][j] for j in range(n)] for i in range(n)]
    for k in range(n):
        wk = w[k]
        for i in range(n):
            wik = w[i][k]
            if ar.is_zero(wik):
                continue
            wi = w[i]
            for j in range(n):
                m = wik if wk[j] > wik else wk[j]
                if m > wi[j]:
                    wi[j] = m
    return w


def check_cycle_cover(b, ar):
    """Every nonzero b[i][j] lies on a cycle of edges weighing >= b[i][j]."""
    w = widest_paths(b, ar)
    for i, row in enumerate(b):
        for j, v in enumerate(row):
            if i != j and not ar.is_zero(v):
                require(ar.ge(w[j][i], v),
                        f"balanced entry ({i}, {j}) closes into no cycle "
                        "of at least its weight")
