"""Diagonal similarity scalings and the problems they solve.

A positive vector x acts on a square matrix by b[i][j] = a[i][j] * x[j] /
x[i] (semiring division by x[i]). The solvable questions here: scale all
entries to at most one (fp_scaling), strictly below one (strong_fp_scaling),
make the diagonal dominate rows and columns (row_col_maxima_scalings),
sandwich scaled matrices between bounds (sandwich_scalings), and decide the
cycle test on moduli of a signed real matrix (hadamard_scaling_test). Each
solver certifies its output before returning and reports impossibility with
a witness cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .digraph import Digraph, nonzero_pattern, scaled_pattern
from .errors import (
    CertificationError,
    DimensionError,
    DivergenceError,
    HadamardFailsError,
    ModeError,
    NoScalingError,
    NotAnFpScalingError,
    PatternViolationError,
    ZeroDiagonalError,
)
from .matrix import (
    MaxMatrix,
    MaxVector,
    entrywise_div,
    kleene_star,
    oplus,
    otimes,
)
from .semiring import EXACT_TIMES, TIMES
from .spectral import max_cycle_gmean


@dataclass(frozen=True)
class DiagonalScaling:
    """A positive diagonal similarity, stored as its diagonal vector."""

    x: MaxVector

    def __post_init__(self):
        if not self.x.is_positive():
            raise ValueError("scaling vectors must be entrywise positive")

    def __len__(self):
        return len(self.x)

    def _scaled(self, a):
        """The pairs (j, a[i][j] * x[j] / x[i]) of a's nonzero entries, row
        by row (digraph.scaled_pattern)."""
        sr = a.semiring
        if sr != self.x.semiring:
            raise ModeError("matrix and scaling live in different modes")
        if a.n != len(self.x):
            raise DimensionError("scaling length does not match the matrix")
        return scaled_pattern(nonzero_pattern(a), self.x.entries, sr)

    def apply(self, a):
        """The scaled matrix with entries a[i][j] * x[j] / x[i] (_scaled);
        a zero entry stays the zero it is."""
        rows = [list(row) for row in a.rows]
        for row, out in zip(rows, self._scaled(a)):
            for j, w in out:
                row[j] = w
        return MaxMatrix._raw(rows, a.semiring)


def _as_vector(x, sr):
    """The diagonal of x: a DiagonalScaling's, a MaxVector, or raw entries."""
    if isinstance(x, DiagonalScaling):
        return x.x
    if isinstance(x, MaxVector):
        return x
    return MaxVector(x, sr)


def as_scaling(x, semiring=None):
    if isinstance(x, DiagonalScaling):
        return x
    return DiagonalScaling(_as_vector(x, semiring or EXACT_TIMES))


def apply_scaling(a, x):
    """Scale a by the positive vector or DiagonalScaling x."""
    return as_scaling(x, a.semiring).apply(a)


def _within_one(sr, scaled, strict=False):
    """Is every scaled entry (DiagonalScaling._scaled) at most (below) one?"""
    one = sr.one
    test = sr.lt if strict else sr.le
    return all(test(w, one) for out in scaled for _j, w in out)


def is_fp_scaling(a, x, strict=False):
    """Does x scale every entry of a to at most one (strictly below, if asked)?

    Non-positive x never qualifies. Float mode compares with tolerance.
    """
    x = _as_vector(x, a.semiring)
    if len(x) != a.n or not x.is_positive():
        return False
    return _within_one(a.semiring, DiagonalScaling(x)._scaled(a), strict)


def fp_scaling(a, u=None):
    """A scaling of a with all entries at most one, or a negative answer.

    Exists iff star(A) converges, that is, iff no cycle weight exceeds
    one; the solution is star(A) (x) u for a positive vector u (all ones
    by default), and ranges over the whole solution set as u varies.
    NoScalingError carries the star's witness, a cycle of weight above one.
    """
    scaling = _family(
        a, "no scaling reaches entries <= 1: a cycle has weight above one"
    ).sample(u)
    if not is_fp_scaling(a, scaling):
        raise CertificationError("computed scaling failed its own check")
    return scaling


def strong_fp_scaling(a):
    """A scaling with all entries strictly below one, or a negative answer.

    Exists iff the maximum cycle geometric mean is strictly below one; the
    solution takes ordinary row sums of star(A), an interior point of the
    solution set.
    """
    sr = a.semiring
    mean = max_cycle_gmean(a)
    if mean.cmp_one() >= 0:
        raise NoScalingError(
            "no strict scaling exists: a cycle has weight at least one",
            witness=mean.witness,
        )
    star = kleene_star(a)
    x = MaxVector._raw(
        [sr.ordinary_sum(row) for row in star.rows], sr
    )
    scaling = DiagonalScaling(x)
    if not is_fp_scaling(a, x, strict=True):
        raise CertificationError("computed strict scaling failed its check")
    return scaling


@dataclass(frozen=True)
class SaturationGraph:
    """Edges a scaling leaves exactly at one, with the scaling that did it."""

    graph: Digraph
    scaling: DiagonalScaling

    @property
    def edges(self):
        return self.graph.edge_set()


def saturation_graph(a, x):
    """The subgraph of entries scaled exactly to one by the scaling x."""
    sr = a.semiring
    scaling = as_scaling(x, sr)
    if len(scaling) != a.n or not _within_one(sr, b := scaling._scaled(a)):
        raise NotAnFpScalingError(
            "the vector does not scale all entries to at most one"
        )
    one = sr.one
    edges = [(i, j, one) for i, out in enumerate(b) for j, w in out
             if sr.eq(w, one)]
    return SaturationGraph(Digraph(a.n, edges, sr), scaling)


def random_positive_vector(sr, n, rng):
    """n positive scalars drawn from rng, spread over a few orders."""
    if sr.domain == TIMES:
        if sr.exact:
            entries = [
                Fraction(rng.randint(1, 16), rng.randint(1, 16))
                for _ in range(n)
            ]
        else:
            entries = [math.exp(rng.uniform(-2.0, 2.0)) for _ in range(n)]
    elif sr.exact:
        entries = [
            Fraction(rng.randint(-16, 16), rng.randint(1, 4))
            for _ in range(n)
        ]
    else:
        entries = [rng.uniform(-2.0, 2.0) for _ in range(n)]
    return MaxVector(entries, sr)


@dataclass(frozen=True)
class ScalingFamily:
    """All solutions of a scaling problem: the positive range of q_star.

    Every positive u yields the solution x = q_star (x) u, and every
    solution arises this way.
    """

    q: MaxMatrix
    q_star: MaxMatrix

    def sample(self, u=None):
        sr = self.q_star.semiring
        if u is None:
            u = MaxVector.ones(self.q_star.n, sr)
        elif not isinstance(u, MaxVector):
            u = MaxVector(u, sr)
        if not u.is_positive():
            raise ValueError("the combining vector u must be positive")
        return DiagonalScaling(otimes(self.q_star, u))

    def sample_random(self, rng):
        """A sample with u drawn from a spread of positive values."""
        return self.sample(
            random_positive_vector(self.q_star.semiring, self.q_star.n, rng)
        )

    def contains(self, x):
        """Membership test: x solves the problem iff q_star (x) x == x."""
        x = _as_vector(x, self.q_star.semiring)
        if not x.is_positive():
            return False
        return otimes(self.q_star, x).allclose(x)


def _family(q, reason):
    """The solutions of q (x) x <= x, or NoScalingError when star(q) diverges.

    The refusal carries the star's own witness, a cycle of q of weight
    above one.
    """
    try:
        return ScalingFamily(q, kleene_star(q))
    except DivergenceError as exc:
        raise NoScalingError(reason, witness=exc.witness) from None


def row_col_maxima_scalings(a):
    """Scalings making each diagonal entry its row and column maximum.

    The constraints condense to q (x) x <= x for q built from a and its
    diagonal; solutions are the positive range of star(q). Zero diagonal
    entries admit no scaling at all and raise ZeroDiagonalError.
    """
    sr = a.semiring
    n = a.n
    d = [a.rows[i][i] for i in range(n)]
    for i, v in enumerate(d):
        if sr.is_zero(v):
            raise ZeroDiagonalError(i)
    rows = []
    for i, row in enumerate(a.rows):
        rows.append(
            [
                sr.add(sr.div(v, d[j]), sr.div(v, d[i]))
                if not sr.is_zero(v)
                else sr.zero
                for j, v in enumerate(row)
            ]
        )
    return _family(
        MaxMatrix._raw(rows, sr),
        "no scaling puts the maxima on the diagonal: the constraint matrix "
        "has a cycle of weight above one",
    )


def has_rowcol_maxima_diagonal(b):
    """Check b[i][i] == max of row i == max of column i, for every i."""
    sr = b.semiring
    n = b.n
    for i in range(n):
        row_max = b.rows[i][0]
        col_max = b.rows[0][i]
        for k in range(1, n):
            row_max = sr.add(row_max, b.rows[i][k])
            col_max = sr.add(col_max, b.rows[k][i])
        if not sr.eq(row_max, b.rows[i][i]) or not sr.eq(col_max, b.rows[i][i]):
            return False
    return True


def sandwich_scalings(triples):
    """Scalings x with lower[k] <= scaled middle[k] <= upper[k] for all k.

    Each triple is (lower, middle, upper) with nested zero patterns
    (lower inside middle inside upper); violations raise
    PatternViolationError. Solutions form the positive range of star(q)
    for the stacked quotient matrix q.
    """
    triples = list(triples)
    if not triples:
        raise ValueError("at least one (lower, middle, upper) triple needed")
    sr = triples[0][1].semiring
    n = triples[0][1].n
    q = MaxMatrix.zeros(n, n, semiring=sr)
    for k, (lo, mid, up) in enumerate(triples):
        if lo.shape != (n, n) or mid.shape != (n, n) or up.shape != (n, n):
            raise DimensionError("all triples must share the same shape")
        for i in range(n):
            for j in range(n):
                if not sr.is_zero(lo.rows[i][j]) and sr.is_zero(mid.rows[i][j]):
                    raise PatternViolationError(
                        f"triple {k}: lower bound has entry ({i}, {j}) "
                        "outside the middle pattern"
                    )
                if not sr.is_zero(mid.rows[i][j]) and sr.is_zero(up.rows[i][j]):
                    raise PatternViolationError(
                        f"triple {k}: middle matrix has entry ({i}, {j}) "
                        "outside the upper pattern"
                    )
        q = oplus(q, entrywise_div(mid, up))
        q = oplus(
            q, entrywise_div(lo.transpose(), mid.transpose())
        )
    return _family(
        q,
        "no scaling fits between the bounds: the constraint matrix has a "
        "cycle of weight above one",
    )


def satisfies_sandwich(triples, x):
    """Check lower <= scaled middle <= upper entrywise for every triple."""
    for lo, mid, up in triples:
        sr = mid.semiring
        b = apply_scaling(mid, x)
        for i in range(mid.n):
            for j in range(mid.n):
                if not sr.le(lo.rows[i][j], b.rows[i][j]):
                    return False
                if not sr.le(b.rows[i][j], up.rows[i][j]):
                    return False
    return True


def hadamard_scaling_test(rows, semiring=EXACT_TIMES):
    """Decide the cycle test on moduli of a signed square matrix.

    Passes iff every cyclic product of moduli is bounded by the matching
    diagonal product with all diagonal entries nonzero; then some positive
    diagonal similarity makes every diagonal entry dominate its row, and
    the returned scaling certifies it. A zero diagonal entry raises
    ZeroDiagonalError, a violating cycle HadamardFailsError with the cycle
    on the moduli quotient matrix as witness.
    """
    if semiring.domain != TIMES:
        raise ModeError("the moduli test lives in the max-times domain")
    sr = semiring
    grid = [list(r) for r in rows]
    n = len(grid)
    if any(len(r) != n for r in grid):
        raise DimensionError("the matrix must be square")
    if n < 2:
        raise DimensionError("the moduli test needs dimension at least 2")
    mod = [[sr.coerce_abs(v) for v in r] for r in grid]
    for i in range(n):
        if sr.is_zero(mod[i][i]):
            raise ZeroDiagonalError(i)
    m = MaxMatrix._raw(
        [
            [
                sr.zero if i == j else sr.div(mod[i][j], mod[i][i])
                for j in range(n)
            ]
            for i in range(n)
        ],
        sr,
    )
    try:
        scaling = fp_scaling(m)
    except NoScalingError as exc:
        raise HadamardFailsError(
            "a cyclic product of moduli exceeds its diagonal product",
            witness=exc.witness,
        ) from None
    scaled = scaling._scaled(MaxMatrix._raw(mod, sr))
    for i, out in enumerate(scaled):
        for j, w in out:
            if i != j and not sr.le(w, mod[i][i]):
                raise CertificationError(
                    "scaled moduli do not sit below the diagonal"
                )
    return scaling
