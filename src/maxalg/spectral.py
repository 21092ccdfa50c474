"""Maximum cycle geometric mean, critical graph, and eigenvectors.

Exact mode certifies the mean of each strongly connected component with a
subeigenvector. Howard's policy iteration, run in floats on the logs of
the entries, proposes a policy (one successor per node); its best cycle is
the candidate mean lam, kept as a (weight, length) pair. Exact potentials
x along the policy graph then satisfy a_ij x_j <= lam x_i with equality on
the policy's edges, and the inequality is checked on every edge of the
component. When it holds, x proves that no cycle has a mean above lam;
an edge that breaks it starts a round of exact policy improvement. The
tight edges (equality) contain every critical cycle, and every cycle made
of them has mean lam, so the critical edges are the tight edges inside
the nontrivial components of the tight graph.

When the mean is irrational in exact max-times mode the potentials are
symbolic values (p/r) lam^(-m), compared by a float filter with a proven
error bound and by exact cross powers where the filter cannot decide, so
the critical graph itself stays exact. The normalized matrix and its
star, one closure, are built when they are first read.

Float mode runs Karp's recurrence for the mean and one Floyd-Warshall
closure of the normalized matrix, which gives the critical edges and the
star.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import partial

from .digraph import (
    Digraph,
    Path,
    SccDecomposition,
    component_cycle,
    component_gcd,
    digraph_of,
    scc,
)
from .errors import (
    AcyclicMatrixError,
    CertificationError,
    ExactnessError,
    NotIrreducibleError,
)
from .matrix import (
    MaxMatrix,
    MaxVector,
    Ratios,
    closure_rows,
    kleene_star,
    oplus,
    otimes,
)
from .semiring import (
    NEG_INF,
    TIMES,
    float_range_error,
    filtered_sign,
    gmean_cmp,
    gmean_cmp_one,
    gmean_eq,
    gmean_float,
    gmean_value,
    log_terms,
)


@dataclass(frozen=True)
class CycleMean:
    """The maximum cycle geometric mean as an exact (weight, length) pair.

    ``witness`` is a cycle attaining the mean, or None for acyclic input,
    in which case the pair is (zero, 1).
    """

    weight: object
    length: int
    witness: Path
    semiring: object

    def pair(self):
        return (self.weight, self.length)

    @property
    def is_zero(self):
        return self.semiring.is_zero(self.weight)

    def exact_value(self):
        """The mean as a scalar, or None when irrational in exact mode."""
        return gmean_value(self.semiring, self.pair())

    def float_value(self):
        return gmean_float(self.semiring, self.pair())

    def cmp_one(self):
        """-1, 0, or 1 against the semiring unit."""
        return gmean_cmp_one(self.semiring, self.pair())

    def cmp(self, other):
        return gmean_cmp(self.semiring, self.pair(), other.pair())


@dataclass(frozen=True)
class CriticalGraph:
    """Nodes and edges lying on some cycle of maximum geometric mean.

    ``components`` are the strongly connected components of the critical
    subgraph (tuples of original node ids); ``cyclicity`` is the lcm over
    components of the gcd of their cycle lengths. ``graph`` keeps the
    original weights on the critical edges, on the full node set.
    """

    nodes: tuple
    edges: tuple
    components: tuple
    cyclicity: int
    graph: Digraph


# -- exact mode: Howard's proposal and its certificate -----------------------

# Rounds of the float proposal. Each move raises the policy's potentials
# by more than the tolerance, so the rounds end by themselves; the cap
# only bounds what float rounding could prolong. The exact rounds that
# follow finish from any policy.
_HOWARD_ROUNDS = 64
# tolerance of the float proposal, relative to the component's size and
# widest log
_HOWARD_TOL = 1e-12
# float stand-in for an exact max-plus entry beyond the float range
_FLOAT_CAP = 2.0 ** 960


def _float_weight(sr, v):
    """The float weight Howard reads for the exact entry v.

    ln v in max-times, from the logs of its numerator and denominator,
    which never leave the float range; v itself in max-plus, clamped to
    +-2^960. Only the proposal reads it.
    """
    if sr.domain == TIMES:
        p, r = log_terms(v)
        return p - r
    try:
        return float(v)
    except OverflowError:
        return _FLOAT_CAP if v > 0 else -_FLOAT_CAP


def _policy_cycles(succ, policy):
    """The cycles of a policy graph, each from its first node reached."""
    k = len(succ)
    state = [0] * k  # 0 unseen, 1 on the current walk, 2 done
    cycles = []
    for start in range(k):
        walk = []
        u = start
        while not state[u]:
            state[u] = 1
            walk.append(u)
            u = succ[u][policy[u]][0]
        if state[u] == 1:
            cycles.append(walk[walk.index(u):])
        for c in walk:
            state[c] = 2
    return cycles


def _improve(succ, pred, policy, mean_of, better, normalized, limit=None):
    """Howard's policy iteration on one component; moves ``policy``.

    ``succ[u]`` lists the edges (v, w) out of u in local indices and
    ``pred[v]`` the pairs (u, t) with succ[u][t] leading to v;
    ``policy[u]`` is the index of the edge u follows. Each round takes the
    best cycle of the policy graph (``mean_of`` its list of weights,
    compared by ``better``), points every node whose policy does not
    reach that cycle at a node that does, builds the potentials x
    backwards from the cycle with x_u = (w_uv / lam) x_v along the
    policy, in the form normalized(mean) = (one, mul, cmp, entries)
    gives, and checks w_uv x_v <= lam x_u on every edge. A node with a
    violated edge moves to its most violated one. A move either closes a
    new cycle of a higher mean, or leaves the best cycle in place and
    raises the potentials, so no policy repeats.

    Ends after a round without a move, or after ``limit`` rounds. Returns
    the last round's (mean, potentials, tight), ``tight`` being the
    edges (u, v) where equality holds.
    """
    k = len(succ)
    rounds = 0
    chosen = None
    while limit is None or rounds < limit:
        rounds += 1
        best = None
        for cycle in _policy_cycles(succ, policy):
            mean = mean_of([succ[c][policy[c]][1] for c in cycle])
            if best is None or better(mean, best[0]):
                best = (mean, cycle)
        mean, cycle = best
        if cycle != chosen:
            chosen = cycle
            one, mul, cmp, entries = normalized(mean)
        x = [None] * k
        x[cycle[0]] = one
        for c in reversed(cycle[1:]):
            t = policy[c]
            x[c] = mul(entries[c][t], x[succ[c][t][0]])
        # the policy's own trees first, so that only nodes that cannot
        # reach the cycle through the policy are pointed elsewhere
        ppred = [[] for _ in range(k)]
        for u in range(k):
            ppred[succ[u][policy[u]][0]].append(u)
        order = list(cycle)
        for v in order:
            for u in ppred[v]:
                if x[u] is None:
                    x[u] = mul(entries[u][policy[u]], x[v])
                    order.append(u)
        if len(order) < k:
            for v in order:
                for u, t in pred[v]:
                    if x[u] is None:
                        policy[u] = t
                        x[u] = mul(entries[u][t], x[v])
                        order.append(u)
        tight = []
        moved = False
        for u, out in enumerate(entries):
            xu, own = x[u], policy[u]
            move = heaviest = None
            for t, e in enumerate(out):
                v = succ[u][t][0]
                if t == own:  # tight by the construction of x
                    tight.append((u, v))
                    continue
                y = mul(e, x[v])
                sign = cmp(y, xu)
                if sign == 0:
                    tight.append((u, v))
                elif sign > 0 and (move is None or cmp(y, heaviest) > 0):
                    move, heaviest = t, y
            if move is not None:
                policy[u] = move
                moved = True
        if not moved:
            break
    return mean, x, tight


def _float_mean(weights):
    return math.fsum(weights) / len(weights)


def _float_proposal(sr, succ, pred):
    """Howard's policy for one component, run in floats on the logs.

    The first policy follows each node's heaviest edge; a move must win
    by more than the tolerance.
    """
    logs = [[(v, _float_weight(sr, a)) for v, a in out] for out in succ]
    tol = _HOWARD_TOL * len(succ) * (
        1.0 + max(abs(w) for out in logs for _v, w in out)
    )

    def cmp(x, y):
        return 0 if abs(x - y) <= tol else (1 if x > y else -1)

    def normalized(mean):
        return 0.0, operator.add, cmp, [
            [w - mean for _v, w in out] for out in logs
        ]

    policy = [max(range(len(out)), key=lambda t: out[t][1]) for out in logs]
    _improve(
        logs, pred, policy, _float_mean, operator.gt, normalized,
        _HOWARD_ROUNDS,
    )
    return policy


def _plain_cmp(x, y):
    return (x > y) - (x < y)


def _normalized_entries(sr, succ, pair):
    """(one, mul, cmp, entries) of a component divided by the mean ``pair``.

    ``entries[u][t]`` is a_uv / lam for the edge succ[u][t] = (v, a_uv):
    a Fraction a_uv - lam in max-plus, a Ratios pair in max-times when
    lam is rational, and a _Symbolic value when it is irrational.
    """
    lam = gmean_value(sr, pair)
    if sr.domain != TIMES:
        return (
            sr.one,
            sr.mul,
            _plain_cmp,
            [[a - lam for _v, a in out] for out in succ],
        )
    if lam is None:
        ops = _Symbolic(sr, pair, [[a for _v, a in out] for out in succ])
        return ops.one, ops.mul, ops.cmp, ops.rows
    p, q = lam.numerator, lam.denominator
    return (
        Ratios.one,
        Ratios.mul,
        Ratios.cmp,
        [[(a.numerator * q, a.denominator * p) for _v, a in out]
         for out in succ],
    )


def _component(g, comp):
    """(succ, pred) of one component of g in local indices; see _improve."""
    index = {v: s for s, v in enumerate(comp)}
    succ = [
        [(index[v], a) for v, a in g.successors(u) if v in index]
        for u in comp
    ]
    pred = [[] for _ in comp]
    for u, out in enumerate(succ):
        for t, (v, _a) in enumerate(out):
            pred[v].append((u, t))
    return succ, pred


def _certificate(sr, g, comp):
    """The certified mean of one nontrivial component, with its evidence.

    Returns (pair, potentials, tight). ``pair`` is the (weight, length)
    pair of a cycle of the component whose mean no cycle of it exceeds;
    ``potentials[s]`` is x at comp[s], in the form of
    _normalized_entries, with a_uv x_v <= lam x_u on every edge of the
    component; ``tight`` lists the edges (u, v), in original node ids,
    where equality holds. Howard's float policy is the start, and exact
    rounds of _improve, comparing cycles by gmean_cmp, finish it.
    """
    succ, pred = _component(g, comp)
    policy = _float_proposal(sr, succ, pred)

    def mean_of(weights):
        w = sr.one
        for a in weights:
            w = sr.mul(w, a)
        return (w, len(weights))

    pair, x, tight = _improve(
        succ, pred, policy, mean_of,
        lambda p, q: gmean_cmp(sr, p, q) > 0,
        partial(_normalized_entries, sr, succ),
    )
    return pair, x, [(comp[u], comp[v]) for u, v in tight]


class _Symbolic:
    """Scalars (p, r, m, f) meaning (p/r) lam^(-m), lam = w0^(1/l0) irrational.

    p/r is the product of m entries of the matrix, kept as an unreduced
    int pair: mul multiplies the ints without a gcd. f is a float estimate
    of ln(p/r) - m ln lam: each entry's term ln p - ln r - ln lam is
    estimated once, from the entry's reduced fraction, and mul adds the
    estimates. None is the zero. Values compare through filtered_sign, and
    by exact cross powers only when the estimates cannot decide, so the
    potentials of an irrational mean are checked exactly. On an exact tie
    add keeps the value of the shorter path. ``rows`` holds the lifted
    entries of ``rows``, row by row; the rows need not be square.

    Error bound: comparing x and y, with k = m_x + m_y, sums k entry
    terms. Each reads the two logs of its entry, which sum to at most G
    (the largest over the entries), and, through ln lam = (ln p0 - ln r0)
    / l0 with w0 = p0/r0, 1/l0 times two logs that sum to G0. So size <=
    k (G + 2 + (G0 + 2)/l0) in filtered_sign's terms. A log passes at most
    3 roundings to become its term (for w0's: difference, division by l0,
    subtraction from the entry's), at most m - 1 in the products and one
    in the final difference, so depth <= k + 3. The estimate reads only
    the entries' logs and m, never the ints p and r (which the unreduced
    products leave with common factors), so the bound does not depend on
    how p/r is stored.
    """

    def __init__(self, sr, lam_pair, rows):
        self.w0, self.l0 = lam_pair
        self.p0, self.r0 = self.w0.numerator, self.w0.denominator
        self.one = (1, 1, 0, 0.0)
        p0, r0 = log_terms(self.w0)
        ln_lam = (p0 - r0) / self.l0
        widest = 0.0
        lifted = []
        for row in rows:
            out = []
            for v in row:
                if sr.is_zero(v):
                    out.append(None)
                    continue
                p, r = log_terms(v)
                widest = max(widest, p + r)
                out.append((v.numerator, v.denominator, 1, (p - r) - ln_lam))
            lifted.append(out)
        self.rows = lifted
        self.unit = widest + 2.0 + (p0 + r0 + 2.0) / self.l0

    def is_zero(self, x):
        return x is None

    def cmp(self, x, y):
        """Three-way compare of two nonzero values."""
        k = x[2] + y[2]
        sign = filtered_sign(x[3] - y[3], k * self.unit, k + 3)
        return sign or self._cross_cmp(x, y)

    def _cross_cmp(self, x, y):
        """Sign of q_x^l0 w0^(m_y) - q_y^l0 w0^(m_x), in ints."""
        l0 = self.l0
        lhs = (x[0] * y[1]) ** l0
        rhs = (y[0] * x[1]) ** l0
        d = y[2] - x[2]
        if d > 0:
            lhs *= self.p0 ** d
            rhs *= self.r0 ** d
        elif d < 0:
            lhs *= self.r0 ** -d
            rhs *= self.p0 ** -d
        return (lhs > rhs) - (lhs < rhs)

    def add(self, x, y):
        if x is None:
            return y
        if y is None:
            return x
        sign = self.cmp(x, y)
        if sign:
            return x if sign > 0 else y
        return x if x[2] <= y[2] else y

    def mul(self, x, y):
        if x is None or y is None:
            return None
        return (x[0] * y[0], x[1] * y[1], x[2] + y[2], x[3] + y[3])

    def eq(self, x, y):
        return self.cmp(x, y) == 0


# -- float mode: Karp and the closure ----------------------------------------


def _karp_best_pair(sr, ops, rows, comp):
    """Best cycle-mean pair inside one nontrivial component of a float
    matrix, via Karp's table on plain floats.

    ``ops`` gives the zero test of ``rows``. The table runs
    matrix._float_closure's inline loop and tie rule. The min/max takes
    each quotient's float mean once, with gmean_cmp's formula, and
    decides as gmean_cmp does (see _float_mean_cmp). A walk weight that
    overflows to inf is a ModeError: every node of the component has a
    successor in it, so an inf in any row of the table leaves one in the
    last.
    """
    m = len(comp)
    index = {v: t for t, v in enumerate(comp)}
    in_edges = [[] for _ in comp]
    for u in comp:
        for t, w in enumerate(rows[u]):
            if t in index and not ops.is_zero(w):
                in_edges[index[t]].append((index[u], w))
    times = sr.domain == TIMES
    zero = sr.zero
    d = [zero] * m
    d[0] = sr.one
    table = [d]
    for _ in range(m):
        prev = d
        d = []
        for edges in in_edges:
            acc = zero
            if times:
                for u, w in edges:
                    x = prev[u]
                    if x:
                        p = x * w
                        if not p < acc:
                            acc = p
            else:
                for u, w in edges:
                    x = prev[u]
                    if x != NEG_INF:
                        p = x + w
                        if not p < acc:
                            acc = p
            d.append(acc)
        table.append(d)
    if math.inf in d:
        raise float_range_error("a walk weight in Karp's table")
    tol, is_zero = sr.tol, sr.is_zero
    best = best_mean = None
    for v, top in enumerate(d):
        if is_zero(top):
            continue
        inner = inner_mean = None
        for k in range(m):
            below = table[k][v]
            if is_zero(below):
                continue
            length = m - k
            if times:
                w = top / below
                mean = math.exp(math.log(w) / length) if w else None
            else:
                w = top - below
                mean = None if w == NEG_INF else w / length
            if inner is None or _float_mean_cmp(tol, mean, inner_mean) < 0:
                inner, inner_mean = (w, length), mean
        if inner is not None and (
            best is None or _float_mean_cmp(tol, inner_mean, best_mean) > 0
        ):
            best, best_mean = inner, inner_mean
    return best


def _float_mean_cmp(tol, a, b):
    """gmean_cmp on float means taken beforehand, None for a zero weight.

    No mean is -inf, so Semiring.eq's tolerant test is written out.
    """
    if a is None or b is None:
        if a is None and b is None:
            return 0
        return -1 if a is None else 1
    if abs(a - b) <= tol * max(1.0, abs(a), abs(b)):
        return 0
    return -1 if a < b else 1


def _critical_edges(rows, closure, ops):
    """Edges (i, j) of a unit-mean grid with edge (x) best path back == one."""
    one = ops.one
    crit = []
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if ops.is_zero(v):
                continue
            back = one if i == j else closure[j][i]
            if not ops.is_zero(back) and ops.eq(ops.mul(v, back), one):
                crit.append((i, j))
    return crit


# -- the analysis ------------------------------------------------------------


def _critical_graph(a, edges, exact):
    """The CriticalGraph of a from the edge list ``edges``.

    Exact: ``edges`` are the tight edges of a certificate, and the
    critical ones are those whose ends lie in one strongly connected
    component of the graph they span. Float: ``edges`` are the critical
    edges the closure found, and one that lies on no critical cycle is a
    CertificationError.
    """
    sr = a.semiring
    sub = Digraph(a.n, [(i, j, a.rows[i][j]) for (i, j) in edges], sr)
    dec = scc(sub)
    components = dec.nontrivial_components
    if exact:
        crit = [
            (i, j) for i, j in edges
            if dec.component_of(i) == dec.component_of(j)
        ]
        if len(crit) < len(edges):
            sub = Digraph(a.n, [(i, j, a.rows[i][j]) for (i, j) in crit], sr)
    else:
        crit = edges
        on_cycle = dec.nontrivial_nodes()
        for i, j in crit:
            if i not in on_cycle or j not in on_cycle:
                # float rounding under a very tight tolerance
                raise CertificationError(
                    f"critical edge ({i}, {j}) lies on no critical cycle"
                )
    return CriticalGraph(
        nodes=tuple(sorted(v for comp in components for v in comp)),
        edges=tuple(sorted(crit)),
        components=components,
        cyclicity=math.lcm(*(component_gcd(sub, c) for c in components)),
        graph=sub,
    )


def _witness_mean(sr, critical, best):
    """The CycleMean of a cycle of the first critical component.

    It is re-checked against the mean pair ``best`` it must attain.
    """
    if not critical.components:
        raise CertificationError("no cycle found in the critical edge set")
    witness = component_cycle(critical.graph, critical.components[0])
    if not gmean_eq(sr, witness.gmean_pair(), best):
        raise CertificationError(
            "witness cycle mean disagrees with the computed maximum"
        )
    return CycleMean(witness.weight, witness.length, witness, sr)


@dataclass(frozen=True)
class SpectralAnalysis:
    """Everything the spectral theory reads off one square matrix.

    Built once by spectral_analysis and passed down. ``components`` is the
    SCC decomposition of the matrix's digraph, ``mean`` the maximum cycle
    mean with its witness. ``lam`` is that mean as a scalar, ``tilde`` the
    matrix divided by it and ``star`` the closure of ``tilde`` plus the
    identity; these three are None when the matrix is acyclic or its mean
    is irrational in exact mode. In exact mode ``tilde`` and ``star`` are
    built when first read, ``star`` by kleene_star's one closure, whether
    through ``star`` or ``checked_star()``; float mode passes in the ones
    its analysis computed. ``critical`` is the CriticalGraph, None for
    acyclic matrices. ``_range_loss`` is None unless a float division by
    lam left the float range in ``tilde``: then it is True when an entry
    overflowed to inf and False when a nonzero entry rounded to the zero
    (float_range_error's ``overflow``).
    """

    components: SccDecomposition
    mean: CycleMean
    lam: object
    critical: CriticalGraph
    _matrix: MaxMatrix = field(default=None, compare=False, repr=False)
    _range_loss: object = field(default=None, compare=False, repr=False)
    _tilde: MaxMatrix = field(default=None, compare=False, repr=False)
    _star: MaxMatrix = field(default=None, compare=False, repr=False)

    @property
    def tilde(self):
        if self._tilde is None and self.lam is not None:
            sr = self.mean.semiring
            tilde = self._matrix.scale(sr.div(sr.one, self.lam))
            object.__setattr__(self, "_tilde", tilde)
        return self._tilde

    @property
    def star(self):
        if self._star is None and self.lam is not None:
            object.__setattr__(self, "_star", kleene_star(self.tilde))
        return self._star

    @property
    def is_irreducible(self):
        return self.components.is_single

    def normalized(self):
        """``tilde``, after the checks that it exists and is usable.

        Raises when the matrix is acyclic, when lam is irrational, and
        (ModeError) when 1/lam overflows the float range or the division
        by lam overflows an entry to inf or rounds a nonzero entry to the
        zero, losing its edge.
        """
        if self.mean.is_zero:
            raise AcyclicMatrixError("cannot normalize an acyclic matrix")
        if self.tilde is None:
            raise ExactnessError(
                f"the maximum cycle mean {self.mean.weight}^"
                f"(1/{self.mean.length}) is irrational; use float mode"
            )
        sr = self.tilde.semiring
        if sr.div(sr.one, self.lam) == math.inf:
            raise float_range_error(
                f"the maximum cycle mean {self.lam!r} is so small that its "
                "inverse"
            )
        if self._range_loss is not None:
            raise float_range_error(
                "an entry divided by the maximum cycle mean",
                overflow=self._range_loss,
            )
        return self.tilde

    def checked_star(self):
        """``star`` after ``normalized()`` and kleene_star's divergence check.

        Under a very tight float tolerance rounding can leave a normalized
        cycle above one; kleene_star then raises its DivergenceError with
        a witness. Only the diagonal is read on the normal path.
        """
        tilde = self.normalized()
        sr = tilde.semiring
        star = self.star
        if any(sr.lt(sr.one, star[i, i]) for i in range(star.n)):
            return kleene_star(tilde)
        return star

    def eigenspace_basis(self):
        """One star column per critical component of ``tilde``.

        The matrix must be irreducible with at least one cycle. Inside a
        critical component all star columns are proportional; this is
        verified and each component is represented by its smallest node's
        column.
        """
        if not self.is_irreducible:
            raise NotIrreducibleError("eigenvectors need an irreducible matrix")
        star = self.checked_star()
        sr = star.semiring
        for comp in self.critical.components:
            r = comp[0]
            for v in comp[1:]:
                factor = star[r, v]
                for i in range(star.n):
                    if not sr.eq(star[i, v], sr.mul(star[i, r], factor)):
                        raise CertificationError(
                            "star columns inside a critical component are "
                            "not proportional"
                        )
        return tuple(star.col(comp[0]) for comp in self.critical.components)

    def principal_eigenvector(self):
        """Semiring sum of the eigenspace basis; positive when irreducible."""
        basis = self.eigenspace_basis()
        x = basis[0]
        for v in basis[1:]:
            x = oplus(x, v)
        if not x.is_positive():
            raise CertificationError(
                "principal eigenvector of an irreducible matrix must be "
                "positive"
            )
        return x


def _divided_rows(a, lam):
    """Rows of a divided by lam.

    Unlike a.scale this does not check the range of 1/lam, so a float mean
    below the normal range still yields its critical graph.
    """
    sr = a.semiring
    inv = sr.div(sr.one, lam)
    return [[sr.mul(inv, v) for v in row] for row in a.rows]


def spectral_analysis(a):
    """The SpectralAnalysis of a square matrix.

    Exact mode certifies each nontrivial component's mean with a
    subeigenvector (see _certificate) and reads the critical edges off
    the tight edges of the components at the top mean: one scc pass on
    the matrix's digraph and one on the tight graph. No closure runs;
    tilde and the star are built when first read. When the mean is
    irrational in exact max-times mode the potentials are symbolic, so
    the critical graph stays exact while lam, tilde and star are None.
    Float mode runs Karp's recurrence per component and one
    Floyd-Warshall closure of the normalized matrix for the critical
    edges and the star. The witness is a cycle of the first critical
    component.
    """
    sr = a.semiring
    g = digraph_of(a)
    dec = scc(g)
    if not sr.exact:
        return _float_analysis(a, dec, len(g.edges))
    best = None
    tight = []
    for comp in dec.nontrivial_components:
        pair, _x, edges = _certificate(sr, g, comp)
        sign = 1 if best is None else gmean_cmp(sr, pair, best)
        if sign > 0:
            best, tight = pair, edges
        elif sign == 0:
            tight += edges
    if best is None:
        return SpectralAnalysis(
            dec, CycleMean(sr.zero, 1, None, sr), None, None
        )
    critical = _critical_graph(a, tight, exact=True)
    mean = _witness_mean(sr, critical, best)
    return SpectralAnalysis(dec, mean, gmean_value(sr, best), critical, a)


def _float_analysis(a, dec, edges):
    """spectral_analysis of a float matrix with SCC decomposition ``dec``
    and ``edges`` nonzero entries."""
    sr = a.semiring
    best = None
    for comp in dec.nontrivial_components:
        pair = _karp_best_pair(sr, sr, a.rows, comp)
        if pair is not None and (best is None or gmean_cmp(sr, pair, best) > 0):
            best = pair
    if best is None:
        return SpectralAnalysis(
            dec, CycleMean(sr.zero, 1, None, sr), None, None
        )
    lam = gmean_value(sr, best)
    tilde = _divided_rows(a, lam)
    closure = closure_rows(tilde, sr)
    critical = _critical_graph(
        a, _critical_edges(tilde, closure, sr), exact=False
    )
    mean = _witness_mean(sr, critical, best)
    if mean.exact_value() != lam:
        # Float rounding: Karp's pair and the witness can round to
        # different scalars; the reported mean is the witness's.
        lam = mean.exact_value()
        tilde = _divided_rows(a, lam)
        closure = closure_rows(tilde, sr)
    for i in range(a.n):
        closure[i][i] = sr.add(closure[i][i], sr.one)
    return SpectralAnalysis(
        dec,
        mean,
        lam,
        critical,
        a,
        _range_loss(tilde, sr, edges),
        MaxMatrix._raw(tilde, sr),
        MaxMatrix._raw(closure, sr),
    )


def _range_loss(tilde, sr, edges):
    """SpectralAnalysis._range_loss of the float rows ``tilde``.

    ``edges`` counts the edges of the matrix divided by lam. Dividing
    keeps every zero, so fewer nonzero entries than that mean a lost edge.
    """
    if any(math.inf in row for row in tilde):
        return True
    if len(tilde) ** 2 - sum(row.count(sr.zero) for row in tilde) < edges:
        return False
    return None


def max_cycle_gmean(a):
    """Maximum over cycles of the geometric mean of the cycle weight.

    Returns a CycleMean; acyclic input yields the zero mean with no
    witness. Exact mode keeps the mean as a (weight, length) pair.
    """
    return spectral_analysis(a).mean


def critical_graph(a):
    """Union of all cycles attaining the maximum cycle geometric mean."""
    critical = spectral_analysis(a).critical
    if critical is None:
        raise AcyclicMatrixError(
            "the digraph has no cycle; the critical graph is undefined"
        )
    return critical


def is_irreducible(a):
    """True when the digraph of the square matrix is strongly connected."""
    return scc(digraph_of(a)).is_single


def _irreducible_analysis(a):
    # irreducibility is checked before the analysis is built, so that a
    # reducible float matrix whose critical cycles fail to certify is still
    # reported as reducible
    if not is_irreducible(a):
        raise NotIrreducibleError("eigenvectors need an irreducible matrix")
    return spectral_analysis(a)


def eigenspace_basis(a):
    """One star column per critical component of the normalized matrix.

    See SpectralAnalysis.eigenspace_basis.
    """
    return _irreducible_analysis(a).eigenspace_basis()


def principal_eigenvector(a):
    """Semiring sum of the eigenspace basis; positive for irreducible input."""
    return _irreducible_analysis(a).principal_eigenvector()


def is_eigenvector(a, x, lam):
    """Check A (x) x == lam (x) x with a nonzero x, under the mode's equality."""
    sr = a.semiring
    if isinstance(x, (list, tuple)):
        x = MaxVector(x, sr)
    if all(sr.is_zero(v) for v in x):
        return False
    lam = sr.coerce(lam)
    return otimes(a, x).allclose(x.scale(lam))
