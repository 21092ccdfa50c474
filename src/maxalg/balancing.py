"""Max-balancing by diagonal similarity.

A matrix is max-balanced when every nonzero entry b[i][j] closes into a
cycle whose edges all weigh at least b[i][j]; equivalently, across every
directed cut the two maximum crossing weights agree. max_balance finds the
similarity scaling producing such a matrix by repeatedly freezing the
heaviest cycles (Schneider and Schneider, Math. Oper. Res. 16, 1991):
find the top cycle geometric mean, saturate its critical edges with an
eigenvector scaling, collapse each critical component to a point, and
recurse on the strictly lighter remainder. The scaling of a level is the
sum of the star columns at its critical nodes, read off one best-walk run
on the level's certificate, or off the closure of the level's normalized
entries where no run answers.

This module keeps what the input decides: its SCC decomposition, the
refusal of an entry that bridges two components, the float restart, and
the checks of the answer (strictly decreasing level means, the cycle
cover). The level loop of each component, spectral.balance_levels,
runs on the component's successor lists in the input's nonzero pattern
and the entry tables that Howard's iteration reads, which belong to
spectral: a level builds no sub-matrix or analysis, and rescales and
contracts its lists straight into the next level's.

Exact max-times inputs whose level means are irrational roots cannot be
balanced in exact arithmetic; the run restarts in float mode and the
certificate records the downgrade.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import nonzero_pattern, pattern_scc
from .errors import (
    CertificationError,
    ExactnessError,
    NoScalingError,
    SizeLimitError,
)
from .matrix import MaxMatrix, MaxVector, semiring_convert
from .scaling import DiagonalScaling
from .semiring import Semiring, gmean_cmp
from .spectral import balance_levels


@dataclass(frozen=True)
class BalancingCertificate:
    """The scaling, the balanced matrix, and what was verified about them.

    levels holds, per strongly connected component (ordered by smallest
    node), the sequence of frozen cycle means as (weight, length) pairs.
    exact_degraded flags a restart in float mode forced by an irrational
    level mean.
    """

    scaling: DiagonalScaling
    balanced: MaxMatrix
    checked_properties: tuple
    exact_degraded: bool
    levels: tuple


def is_max_balanced_cyclecover(b):
    """Every nonzero b[i][j] closes into a cycle of edges weighing >= it.

    One Floyd-Warshall max-min (bottleneck) closure decides all entries at
    once, in O(n^3): b[i][j] = w is covered when some path from j back to
    i has its lightest edge x with sr.ge(x, w). The closure runs on the
    ranks of the distinct entry values, as ints. Zero entries take part:
    in float max-times a weight w <= tol counts them as edges. Under a
    float tolerance below one sr.ge(x, w) is monotone in x, so the path
    with the heaviest lightest edge decides (Pollack 1960). Above one,
    max-plus comparisons are no longer monotone and a path of lighter
    edges may pass where this check fails. A nan entry is no edge.
    """
    sr = b.semiring
    rows = b.rows
    vals = sorted({v for row in rows for v in row if v == v})
    rank = {v: r for r, v in enumerate(vals, 1)}
    best = [[rank.get(v, 0) for v in row] for row in rows]
    for k, bk in enumerate(best):
        for bi in best:
            bik = bi[k]
            for j, y in enumerate(bk):
                if y > bik:
                    y = bik
                if y > bi[j]:
                    bi[j] = y
    for i, row in enumerate(rows):
        for j, w in enumerate(row):
            if i == j or sr.is_zero(w):
                continue
            r = best[j][i]
            if not (r and sr.ge(vals[r - 1], w)):
                return False
    return True


def is_max_balanced_cut(b, size_limit=14):
    """Across every directed cut the two maximum crossing weights agree.

    Exhaustive over all 2^n - 2 cuts, so refuses matrices beyond
    size_limit nodes. An empty crossing set counts as the semiring zero.
    """
    sr = b.semiring
    n = b.n
    if n > size_limit:
        raise SizeLimitError(
            f"cut check enumerates 2^n subsets; {n} nodes exceeds the "
            f"limit of {size_limit}"
        )
    for mask in range(1, (1 << n) - 1):
        out_max = sr.zero
        in_max = sr.zero
        for i in range(n):
            i_in = mask >> i & 1
            for j in range(n):
                if i_in and not (mask >> j & 1):
                    out_max = sr.add(out_max, b.rows[i][j])
                elif not i_in and (mask >> j & 1):
                    in_max = sr.add(in_max, b.rows[i][j])
        if not sr.eq(out_max, in_max):
            return False
    return True


def _max_balance_core(a, degraded):
    sr = a.semiring
    n = a.n
    pattern = nonzero_pattern(a)
    dec = pattern_scc(pattern)
    for i, out in enumerate(pattern):
        for j, _w in out:
            if i != j and dec.component_of(i) != dec.component_of(j):
                raise NoScalingError(
                    f"entry ({i}, {j}) joins different strongly connected "
                    "components and lies on no cycle, so no scaling can "
                    "balance it"
                )
    x_total = [sr.one] * n
    all_levels = []
    for comp in dec.components:
        if len(comp) == 1:
            continue
        x_local, levels = balance_levels(sr, pattern, comp)
        for k, node in enumerate(comp):
            x_total[node] = x_local[k]
        all_levels.append(tuple(levels))
    x = MaxVector._raw(x_total, sr)
    scaling = DiagonalScaling(x)
    balanced = scaling.apply(a)
    checked = []
    for seq in all_levels:
        for k in range(len(seq) - 1):
            if gmean_cmp(sr, seq[k + 1], seq[k]) >= 0:
                raise CertificationError(
                    "level means failed to decrease strictly"
                )
    checked.append("levels_strictly_decreasing")
    if not is_max_balanced_cyclecover(balanced):
        raise CertificationError(
            "scaled matrix failed the cycle cover check"
        )
    checked.append("cycle_cover")
    checked.append("scaling_positive")
    return BalancingCertificate(
        scaling=scaling,
        balanced=balanced,
        checked_properties=tuple(checked),
        exact_degraded=degraded,
        levels=tuple(all_levels),
    )


def max_balance(a):
    """Scale a to a max-balanced matrix and certify the result.

    Requires every nonzero off-diagonal entry to stay inside a strongly
    connected component; a bridging entry makes balancing impossible and
    raises NoScalingError. Exact max-times inputs fall back to float
    arithmetic when a level mean has no exact root; the certificate's
    exact_degraded flag records this.
    """
    try:
        return _max_balance_core(a, degraded=False)
    except ExactnessError:
        if not a.semiring.exact:
            raise
        target = Semiring(a.semiring.domain, exact=False)
        return _max_balance_core(semiring_convert(a, target), degraded=True)
