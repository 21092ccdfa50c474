"""Maximum cycle geometric mean, critical graph, and eigenvectors.

The mean of each strongly connected component is certified with a
subeigenvector, in both arithmetic modes. Howard's policy iteration runs
on the float logs of the entries (ln a in max-times, a itself in
max-plus) and moves a policy, one successor per node; the best cycle of
the policy graph is the candidate mean lam. Potentials x along the policy
graph satisfy a_ij x_j <= lam x_i with equality on the policy's edges, and
the inequality is checked on every edge of the component; a node whose
edge breaks it moves to that edge and starts another round. When it holds
everywhere, x proves that no cycle has a mean above lam. The tight edges
(equality) contain every critical cycle, and every cycle made of them has
mean lam, so the critical edges are the tight edges inside the nontrivial
components of the tight graph.

Float mode stops there, comparing under the semiring's tolerance; the
mean is the weight of the best policy cycle, and a weight that leaves the
float range is refused. Exact mode takes the float policy as its start
and finishes with exact rounds of the same loop. When the mean is
irrational in exact max-times mode the potentials are symbolic values
(p/r) lam^(-m), compared by a float filter with a proven error bound and
by exact cross powers where the filter cannot decide, so the critical
graph itself stays exact.

In both modes the normalized matrix and its star, one closure, are built
when they are first read.
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


# -- Howard's policy iteration and its certificate ---------------------------

# Rounds of the float proposal in exact mode. Each move raises the
# policy's potentials by more than the tolerance, so the rounds end by
# themselves; the cap only bounds what float rounding could prolong. The
# exact rounds that follow finish from any policy.
_HOWARD_ROUNDS = 64
# tolerance of the float proposal, relative to the component's size and
# widest log
_HOWARD_TOL = 1e-12
# Rounds of a float analysis, which has no exact rounds after it: one
# that still moves after them is a CertificationError.
_FLOAT_ROUNDS = 1024
# float stand-in for an exact max-plus entry beyond the float range
_FLOAT_CAP = 2.0 ** 960


def _float_weight(sr, v):
    """The float weight Howard reads for the entry v.

    ln v in max-times, for an exact v from the logs of its numerator and
    denominator, so it never leaves the float range; v itself in
    max-plus, an exact v clamped to +-2^960.
    """
    if sr.domain == TIMES:
        if not sr.exact:
            return math.log(v)
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
    policy, in the form normalized(mean) = (one, mul, entries, check)
    gives, and checks w_uv x_v <= lam x_u on every edge with
    check(x, policy) (see _check). A node with a violated edge moves to
    its most violated one. A move either closes a new cycle of a higher
    mean, or leaves the best cycle in place and raises the potentials, so
    no policy repeats.

    Returns the (mean, cycle, potentials, tight) of the first round
    without a move, ``cycle`` being the best cycle's nodes and ``tight``
    the edges (u, v) where equality holds; None when ``limit`` rounds
    all moved.
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
            one, mul, entries, check = normalized(mean)
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
        tight, moved = check(x, policy)
        if not moved:
            return mean, cycle, x, tight
    return None


def _check(succ, entries, mul, cmp):
    """The check of _improve for potentials that mul and cmp handle.

    check(x, policy) compares entries[u][t] x_v with x_u on every edge
    (u, v) = succ[u][t], moves ``policy`` at each node with a violated
    edge to its most violated one, and returns (tight, moved): the edges
    where equality holds, and whether a node moved.
    """

    def check(x, policy):
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
        return tight, moved

    return check


def _float_check(succ, entries, tol, seen):
    """_check for float log potentials, where equality is within ``tol``.

    The slack of an edge is e + (x_v - x_u): the potentials are
    subtracted first, so that a small e is not lost in a large x_v.
    ``seen`` collects the policies checked. Rounding can make the moves
    of a tie come back to a policy already checked; that policy is then
    final, and check moves nothing.
    """

    def check(x, policy):
        key = tuple(policy)
        final = key in seen
        seen.add(key)
        tight = []
        moves = []
        for u, out in enumerate(entries):
            xu, own = x[u], policy[u]
            move = heaviest = None
            for t, e in enumerate(out):
                v = succ[u][t][0]
                if t == own:  # tight by the construction of x
                    tight.append((u, v))
                    continue
                d = e + (x[v] - xu)
                if d > tol:
                    if move is None or d - heaviest > tol:
                        move, heaviest = t, d
                elif d >= -tol:
                    tight.append((u, v))
            if move is not None:
                moves.append((u, move))
        if final:
            return tight, False
        for u, t in moves:
            policy[u] = t
        return tight, bool(moves)

    return check


def _float_mean(weights):
    return math.fsum(weights) / len(weights)


def _howard(logs, pred, tol, limit):
    """Howard's policy iteration in floats on one component's logs.

    ``logs`` is succ with _float_weight's weights. The first policy
    follows each node's heaviest edge; an edge is tight within ``tol``,
    and a move must win by more than that (see _float_check). Returns
    (policy, _improve's result).
    """
    seen = set()

    def normalized(mean):
        entries = [[w - mean for _v, w in out] for out in logs]
        return 0.0, operator.add, entries, _float_check(
            logs, entries, tol, seen
        )

    policy = [max(range(len(out)), key=lambda t: out[t][1]) for out in logs]
    return policy, _improve(
        logs, pred, policy, _float_mean, operator.gt, normalized, limit
    )


def _float_logs(sr, succ):
    """(logs, widest, scale): succ with _float_weight's weights.

    ``widest`` is the largest modulus of a weight. The weights are scaled
    by ``scale``: 1, unless ``widest`` exceeds 2^960, which only a float
    max-plus entry can; then 2^-64, exact on normal floats, so that sums
    along n edges, and with them the potentials, stay in the float range.
    """
    logs = [[(v, _float_weight(sr, a)) for v, a in out] for out in succ]
    widest = max(abs(w) for out in logs for _v, w in out)
    if widest <= _FLOAT_CAP:
        return logs, widest, 1.0
    scale = 2.0 ** -64
    return [[(v, w * scale) for v, w in out] for out in logs], widest, scale


def _float_proposal(sr, succ, pred):
    """Exact mode's start: Howard's policy after at most _HOWARD_ROUNDS
    float rounds, under _HOWARD_TOL relative to the component's size and
    widest log."""
    logs, widest, _scale = _float_logs(sr, succ)
    tol = _HOWARD_TOL * len(logs) * (1.0 + widest)
    return _howard(logs, pred, tol, _HOWARD_ROUNDS)[0]


def _plain_cmp(x, y):
    return (x > y) - (x < y)


def _normalized_entries(sr, succ, pair):
    """_improve's (one, mul, entries, check) for the mean ``pair``.

    ``entries[u][t]`` is a_uv / lam for the edge succ[u][t] = (v, a_uv):
    a Fraction a_uv - lam in max-plus, a Ratios pair in max-times when
    lam is rational, and a _Symbolic value when it is irrational.
    """
    lam = gmean_value(sr, pair)
    if sr.domain != TIMES:
        one, mul, cmp = sr.one, sr.mul, _plain_cmp
        entries = [[a - lam for _v, a in out] for out in succ]
    elif lam is None:
        ops = _Symbolic(sr, pair, [[a for _v, a in out] for out in succ])
        one, mul, cmp, entries = ops.one, ops.mul, ops.cmp, ops.rows
    else:
        p, q = lam.numerator, lam.denominator
        one, mul, cmp = Ratios.one, Ratios.mul, Ratios.cmp
        entries = [
            [(a.numerator * q, a.denominator * p) for _v, a in out]
            for out in succ
        ]
    return one, mul, entries, _check(succ, entries, mul, cmp)


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


def _cycle_pair(sr, weights):
    """The (weight, length) pair of a cycle with the given edge weights."""
    w = sr.one
    for a in weights:
        w = sr.mul(w, a)
    return (w, len(weights))


def _in_float_range(sr, pair, nodes):
    """``pair``, after the check that a float cycle weight kept its range.

    A weight of inf (or -inf in max-plus) overflowed, and a max-times
    weight of 0.0, made of nonzero entries, underflowed: either is the
    float_range_error ModeError. ``nodes`` names the cycle.
    """
    w = pair[0]
    if w in (math.inf, NEG_INF):
        raise float_range_error(f"the weight of the cycle {nodes}")
    if sr.domain == TIMES and not w:
        raise float_range_error(
            f"the weight of the cycle {nodes}", overflow=False
        )
    return pair


def _certificate(sr, g, comp):
    """The certified mean of one nontrivial component, with its evidence.

    Returns (pair, potentials, tight). ``pair`` is the (weight, length)
    pair of a cycle of the component whose mean no cycle of it exceeds;
    ``potentials[s]`` is x at comp[s], with a_uv x_v <= lam x_u on every
    edge of the component; ``tight`` lists the edges (u, v), in original
    node ids, where equality holds. In float mode Howard's iteration on
    the logs is the whole certificate, comparing under the semiring's
    tolerance, and the potentials are logs. In exact mode its policy is
    the start, and exact rounds of _improve, comparing cycles by
    gmean_cmp, finish it with potentials in the form of
    _normalized_entries.
    """
    succ, pred = _component(g, comp)
    if not sr.exact:
        logs, _widest, scale = _float_logs(sr, succ)
        policy, settled = _howard(logs, pred, sr.tol * scale, _FLOAT_ROUNDS)
        if settled is None:
            raise CertificationError(
                f"Howard's policy iteration still moved after "
                f"{_FLOAT_ROUNDS} rounds"
            )
        _mean, cycle, x, tight = settled
        pair = _in_float_range(
            sr,
            _cycle_pair(sr, [succ[c][policy[c]][1] for c in cycle]),
            tuple(comp[c] for c in cycle + cycle[:1]),
        )
    else:
        policy = _float_proposal(sr, succ, pred)
        pair, _cycle, x, tight = _improve(
            succ, pred, policy, partial(_cycle_pair, sr),
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
    potentials of an irrational mean are checked exactly. ``rows`` holds
    the lifted entries of ``rows``, row by row; the rows need not be
    square.

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

    def mul(self, x, y):
        if x is None or y is None:
            return None
        return (x[0] * y[0], x[1] * y[1], x[2] + y[2], x[3] + y[3])


# -- the analysis ------------------------------------------------------------


def _critical_graph(a, tight):
    """The CriticalGraph of a from the tight edges of its certificates.

    The critical edges are those whose ends lie in one strongly connected
    component of the graph the tight edges span.
    """
    sr = a.semiring
    sub = Digraph(a.n, [(i, j, a.rows[i][j]) for (i, j) in tight], sr)
    dec = scc(sub)
    components = dec.nontrivial_components
    crit = [
        (i, j) for i, j in tight
        if dec.component_of(i) == dec.component_of(j)
    ]
    if len(crit) < len(tight):
        sub = Digraph(a.n, [(i, j, a.rows[i][j]) for (i, j) in crit], sr)
    return CriticalGraph(
        nodes=tuple(sorted(v for comp in components for v in comp)),
        edges=tuple(sorted(crit)),
        components=components,
        cyclicity=math.lcm(*(component_gcd(sub, c) for c in components)),
        graph=sub,
    )


def _witness_mean(sr, critical, best):
    """The CycleMean of a cycle of the first critical component.

    It is re-checked against the mean pair ``best`` it must attain, and a
    float weight against the float range.
    """
    if not critical.components:
        raise CertificationError("no cycle found in the critical edge set")
    witness = component_cycle(critical.graph, critical.components[0])
    pair = witness.gmean_pair()
    if not sr.exact:
        _in_float_range(sr, pair, witness.nodes)
    if not gmean_eq(sr, pair, best):
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
    is irrational in exact mode. ``tilde`` and ``star`` are built when
    first read, ``star`` by one closure, whether through ``star`` or
    ``checked_star()``: in exact mode kleene_star's, in float mode a
    closure with no divergence check, which ``checked_star()`` makes.
    ``critical`` is the CriticalGraph, None for acyclic matrices.
    ``_range_loss``, set with a float ``tilde``, is None unless the
    division by lam left the float range: then it is True when an entry
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
            a, sr = self._matrix, self.mean.semiring
            if sr.exact:
                tilde = a.scale(sr.div(sr.one, self.lam))
            else:
                rows = _divided_rows(a, self.lam)
                object.__setattr__(
                    self, "_range_loss", _range_loss(a.rows, rows, sr)
                )
                tilde = MaxMatrix._raw(rows, sr)
            object.__setattr__(self, "_tilde", tilde)
        return self._tilde

    @property
    def star(self):
        if self._star is None and self.lam is not None:
            tilde = self.tilde
            sr = tilde.semiring
            if sr.exact:
                star = kleene_star(tilde)
            else:
                closure = closure_rows(tilde.rows, sr)
                for i, row in enumerate(closure):
                    row[i] = sr.add(row[i], sr.one)
                star = MaxMatrix._raw(closure, sr)
            object.__setattr__(self, "_star", star)
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
    """Rows of a float matrix divided by lam.

    Unlike a.scale this does not coerce 1/lam, which refuses inf, so
    reading ``tilde`` never raises; normalized() reports the range loss
    as a ModeError instead.
    """
    sr = a.semiring
    inv = sr.div(sr.one, lam)
    return [[sr.mul(inv, v) for v in row] for row in a.rows]


def _range_loss(rows, tilde, sr):
    """SpectralAnalysis._range_loss of the float ``rows`` divided by lam.

    Dividing keeps every zero, so more zeros in ``tilde`` than in ``rows``
    mean a lost edge.
    """
    if any(math.inf in row for row in tilde):
        return True
    zero = sr.zero
    if sum(r.count(zero) for r in tilde) > sum(r.count(zero) for r in rows):
        return False
    return None


def spectral_analysis(a):
    """The SpectralAnalysis of a square matrix.

    Each nontrivial component's mean is certified with a subeigenvector
    (see _certificate), and the critical edges are read off the tight
    edges of the components at the top mean: one scc pass on the matrix's
    digraph and one on the tight graph. No closure runs; tilde and the
    star are built when first read. When the mean is irrational in exact
    max-times mode the potentials are symbolic, so the critical graph
    stays exact while lam, tilde and star are None. The witness is a
    cycle of the first critical component, and lam is its mean: in float
    mode it can differ in the last bits from the best policy cycle's.
    """
    g = digraph_of(a)
    return _analysis(a, g, scc(g))


def _analysis(a, g, dec):
    """spectral_analysis of a with digraph g and SCC decomposition dec."""
    sr = a.semiring
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
    critical = _critical_graph(a, tight)
    mean = _witness_mean(sr, critical, best)
    return SpectralAnalysis(dec, mean, mean.exact_value(), critical, a)


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
    # reported as reducible; the analysis reuses the digraph and its SCCs
    g = digraph_of(a)
    dec = scc(g)
    if not dec.is_single:
        raise NotIrreducibleError("eigenvectors need an irreducible matrix")
    return _analysis(a, g, dec)


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
