"""Maximum cycle geometric mean, critical graph, and eigenvectors.

The mean of each strongly connected component is certified with a
subeigenvector, in both arithmetic modes. Howard's policy iteration runs
on the float logs of the entries (ln a in max-times, a itself in
max-plus) and moves a policy, one successor per node; the best cycle of
the policy graph is the candidate mean lam. Potentials x along the policy
graph satisfy a_ij x_j <= lam x_i with equality on the policy's edges, and
the inequality is checked on every edge of the component; a node whose
edge breaks it moves to that edge and starts another round. When it holds
everywhere, x proves that no cycle has a mean above lam (_certify). The
tight edges (equality) contain every critical cycle, and every cycle made
of them has mean lam, so the critical edges are the tight edges inside
the nontrivial components of the tight graph (_critical).

Float mode stops there, comparing under the semiring's tolerance; the
mean is the weight of the best policy cycle, and a weight that leaves the
float range is refused. Exact mode takes the float policy as its start
and finishes with exact rounds of the same loop. When the mean is
irrational in exact max-times mode the potentials are symbolic values
(p/r) lam^(-m), compared by a float filter with a proven error bound and
by exact cross powers where the filter cannot decide, so the critical
graph itself stays exact.

Every division by lam goes through one kit per (pattern, mean), _Kit:
the entries a_uv / lam on the pattern's edges with the one, zero,
products, comparisons and float log keys of one arithmetic: Fractions
a - lam in exact max-plus, Ratios pairs in exact max-times with a
rational lam, _Symbolic values with an irrational one, and floats, with
their range check, in float mode. The exact rounds build their
potentials in it, and an irreducible exact analysis keeps the last
round's kit; a float analysis builds its kit when first normalized.

In both modes the normalized matrix and its star, kleene_star's one
closure, are built when they are first read; a float normalized matrix
is the dense form of its kit's steps (_kit_matrix). Eigenvectors and
balancing levels need only the star's columns at critical nodes, and
read no closure: the potentials x of an irreducible matrix's certificate
make the costs -log(a_ij x_j / (lam x_i)) nonnegative, as Johnson's
reweighting does, so one Dijkstra-ordered run of best walks in the kit's
arithmetic into the chosen nodes, keyed by the potentials (_walk_keys),
gives the sum of their columns, and an O(m) check certifies it
(_Kit.run). One step, shared by analyses and levels, makes that run
and, where no run answers, sums the columns of a closure instead
(_star_columns).

An analysis reads the matrix's nonzero pattern (digraph.nonzero_pattern),
which the matrix keeps, and no dense row unless ``tilde`` or the star is
read: each certificate takes its component's edges from the pattern,
its tight edges carry their entries into the critical graph, and the
kit divides only the entries. The pattern also keeps what
depends on the entries alone, made by the matrix's first analysis and
read by every later one: its SCC decomposition, one Tarjan pass per
matrix, and, for an irreducible matrix, the reverse edges and the entry
table (_float_logs) that Howard's iteration and the exact kits read
(_component). Nothing that depends on the mean is kept there.

The max-balancing levels (balance_levels) run on a component's lists
and entry tables (_component) with no analysis, by the analysis' own
steps: each level certifies its mean (_certify), finds its critical
components and witness (_critical), refuses as normalized() does
(_check_division) and takes its scale from _star_columns, whose closure
is kleene_star of its kit's matrix (balance_level), then rescales and
contracts its lists into the next level's (_next_level).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from heapq import heapify, heappop, heappush
from types import SimpleNamespace
from typing import NamedTuple

from .digraph import (
    Digraph,
    Path,
    SccDecomposition,
    component_gcd,
    cycle_walk,
    nonzero_pattern,
    pattern_scc,
    reverse_edges,
    scaled_pattern,
    strong_components,
)
from .errors import (
    AcyclicMatrixError,
    CertificationError,
    ExactnessError,
    ModeError,
    NotIrreducibleError,
)
from .matrix import (
    MaxMatrix,
    MaxVector,
    Ratios,
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
# Rounding of a float walk weight per edge, generously: 8 units of 2^-53,
# relative in max-times and times the widest entry in max-plus. Below n
# times this, the tolerance cannot absorb the different rounding of a
# best-walk run and of the closure, so the closure answers.
_WALK_ROUNDING = 2.0 ** -50


def _float_weight(sr, v):
    """The float weight Howard reads for the entry v, outside exact
    max-times (see _float_logs): ln v in float max-times, v itself in
    max-plus, an exact v clamped to +-2^960.
    """
    if sr.domain == TIMES:
        return math.log(v)
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
    policy, in the arithmetic of kit = normalized(mean): from its
    ``one``, with mul(e, x_v) = (w_uv / lam) x_v for the weight e that
    ``steps[u][t]`` pairs with v, and checks w_uv x_v <= lam x_u on every
    edge with kit.check(x, policy) (see _Kit.check). A node with a
    violated edge moves to its most violated one. A move either closes a
    new cycle of a higher mean, or leaves the best cycle in place and
    raises the potentials, so no policy repeats.

    Returns the (mean, cycle, potentials, tight, kit) of the first round
    without a move, ``cycle`` being the best cycle's nodes and ``tight``
    the edges (u, t), succ[u][t], where equality holds; None when
    ``limit`` rounds all moved.
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
            kit = normalized(mean)
            one, mul, steps = kit.one, kit.mul, kit.steps
        x = [None] * k
        x[cycle[0]] = one
        for c in reversed(cycle[1:]):
            v, e = steps[c][policy[c]]
            x[c] = mul(e, x[v])
        # the policy's own trees first, so that only nodes that cannot
        # reach the cycle through the policy are pointed elsewhere
        ppred = [[] for _ in range(k)]
        for u in range(k):
            ppred[succ[u][policy[u]][0]].append(u)
        order = list(cycle)
        for v in order:
            for u in ppred[v]:
                if x[u] is None:
                    x[u] = mul(steps[u][policy[u]][1], x[v])
                    order.append(u)
        if len(order) < k:
            for v in order:
                for u, t in pred[v]:
                    if x[u] is None:
                        policy[u] = t
                        x[u] = mul(steps[u][t][1], x[v])
                        order.append(u)
        tight, moved = kit.check(x, policy)
        if not moved:
            return mean, cycle, x, tight, kit
    return None


def _float_check(logs, mean, tol, seen):
    """_Kit.check for float log potentials, where equality is within ``tol``.

    The slack of an edge of log w is (w - mean) + (x_v - x_u): the
    potentials are subtracted first, so that a small w - mean is not
    lost in a large x_v. ``seen`` collects the policies checked. Rounding
    can make the moves of a tie come back to a policy already checked;
    that policy is then final, and check moves nothing.
    """

    def check(x, policy):
        key = tuple(policy)
        final = key in seen
        seen.add(key)
        tight = []
        moves = []
        for u, out in enumerate(logs):
            xu, own = x[u], policy[u]
            move = heaviest = None
            for t, (v, w) in enumerate(out):
                if t == own:  # tight by the construction of x
                    tight.append((u, t))
                    continue
                d = (w - mean) + (x[v] - xu)
                if d > tol:
                    if move is None or d - heaviest > tol:
                        move, heaviest = t, d
                elif d >= -tol:
                    tight.append((u, t))
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
        # the logs stay as they are, and each read subtracts the mean
        return SimpleNamespace(
            one=0.0, mul=lambda w, y: (w - mean) + y, steps=logs,
            check=_float_check(logs, mean, tol, seen),
        )

    policy = [max(range(len(out)), key=lambda t: out[t][1]) for out in logs]
    return policy, _improve(
        logs, pred, policy, _float_mean, operator.gt, normalized, limit
    )


class _Table(NamedTuple):
    """The entry table of successor lists (_float_logs).

    ``logs`` is succ with the float weights Howard reads, ``widest`` the
    largest modulus of a weight, and the weights are scaled by ``scale``
    (see _float_logs). In exact max-times ``entries`` is succ with each
    entry a = p/r as (p, r, ln p - ln r), the ints and the log weight
    that the exact kits read, and ``span`` the largest ln p + ln r, which
    _Symbolic's error bound reads; both are None in every other mode.
    """

    logs: list
    widest: float
    scale: float
    entries: list = None
    span: float = None


def _float_logs(sr, succ):
    """The _Table of succ under sr: one pass that weighs each entry once.

    A weight is ln a in max-times and a in max-plus. In exact max-times
    it is ln p - ln r from log_terms of a = p/r, so it never leaves the
    float range, and the same pass keeps p, r and that difference in
    ``entries``. Elsewhere it is _float_weight's. The weights are scaled
    by ``scale``: 1, unless ``widest`` exceeds 2^960, which only a float
    max-plus entry can; then 2^-64, exact on normal floats, so that sums
    along n edges, and with them the potentials, stay in the float range.
    A matrix's nonzero_pattern keeps its table from the first analysis
    on (see _component), so each entry is weighed once per matrix. A
    pattern with no entry, such as a balancing level's last, has widest 0.
    """
    if not (sr.exact and sr.domain == TIMES):
        logs = [[(v, _float_weight(sr, a)) for v, a in out] for out in succ]
        widest = max((abs(w) for out in logs for _v, w in out), default=0.0)
        if widest <= _FLOAT_CAP:
            return _Table(logs, widest, 1.0)
        scale = 2.0 ** -64
        logs = [[(v, w * scale) for v, w in out] for out in logs]
        return _Table(logs, widest, scale)
    logs, entries = [], []
    span = 0.0
    for out in succ:
        weights, row = [], []
        for v, a in out:
            p, r = log_terms(a)
            w = p - r
            weights.append((v, w))
            row.append((v, (a.numerator, a.denominator, w)))
            if span < p + r:
                span = p + r
        logs.append(weights)
        entries.append(row)
    widest = max((abs(w) for out in logs for _v, w in out), default=0.0)
    return _Table(logs, widest, 1.0, entries, span)


def _float_proposal(pred, table):
    """Exact mode's start: Howard's policy after at most _HOWARD_ROUNDS
    float rounds on the _float_logs ``table``, under _HOWARD_TOL relative
    to the component's size and widest log."""
    logs = table.logs
    tol = _HOWARD_TOL * len(logs) * (1.0 + table.widest)
    return _howard(logs, pred, tol, _HOWARD_ROUNDS)[0]


def _component(sr, pattern, comp):
    """(succ, pred, table) of one component of a nonzero_pattern in local
    indices: see _improve, and ``table`` is succ's _float_logs under sr.

    A component of every node reads the pattern itself, with the reverse
    edges and the table the pattern keeps, so every analysis of an
    irreducible matrix shares them. A smaller component builds its own.
    """
    if len(comp) == len(pattern):
        return pattern, pattern.pred, pattern.float_logs(sr, _float_logs)
    index = {v: s for s, v in enumerate(comp)}
    succ = [
        [(index[v], a) for v, a in pattern[u] if v in index]
        for u in comp
    ]
    return succ, reverse_edges(succ), _float_logs(sr, succ)


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


class _Cert(NamedTuple):
    """The certified mean of one strongly connected component, with its
    evidence, in the component's local indices (see _certify)."""

    pair: tuple
    x: list
    tight: list
    kit: object
    table: _Table


def _certify(sr, succ, pred, table, comp):
    """The _Cert of one nontrivial strongly connected component given as
    (succ, pred, table) (see _component); ``comp[s]`` names local node s
    in messages.

    ``pair`` is the (weight, length) pair of a cycle whose mean no cycle
    of the component exceeds. ``x[s]`` is the potential of node s, with
    a_uv x_v <= lam x_u on every edge; ``tight`` lists the edges
    (u, v, a_uv) where equality holds, the entry carried from succ. In
    float mode Howard's iteration on the logs is the whole certificate,
    comparing under the semiring's tolerance, the potentials are logs,
    scaled as _float_logs scales them, and ``kit`` is None. In exact
    mode its policy is the start, and exact rounds of _improve, comparing
    cycles by gmean_cmp, finish it; the potentials are values of ``kit``,
    the _Kit of the last round. ``table`` is the one given.
    """
    if not sr.exact:
        policy, settled = _howard(
            table.logs, pred, sr.tol * table.scale, _FLOAT_ROUNDS
        )
        if settled is None:
            raise CertificationError(
                f"Howard's policy iteration still moved after "
                f"{_FLOAT_ROUNDS} rounds"
            )
        _mean, cycle, x, tight, _rounds = settled
        kit = None
        pair = _in_float_range(
            sr,
            _cycle_pair(sr, [succ[c][policy[c]][1] for c in cycle]),
            tuple(comp[c] for c in cycle + cycle[:1]),
        )
    else:
        policy = _float_proposal(pred, table)
        pair, _cycle, x, tight, kit = _improve(
            succ, pred, policy, partial(_cycle_pair, sr),
            lambda p, q: gmean_cmp(sr, p, q) > 0,
            partial(_Kit, sr, succ, table=table),
        )
    tight = [(u,) + succ[u][t] for u, t in tight]
    return _Cert(pair, x, tight, kit, table)


# -- a / lam: one kit per pattern and mean -----------------------------------


class _Symbolic:
    """Scalars (p, r, m, f) meaning (p/r) lam^(-m), lam = w0^(1/l0) irrational.

    The values of the _Kit of an irrational mean. p/r is the product of m
    entries of the matrix, kept as an unreduced int pair: mul multiplies
    the ints without a gcd. f is a float estimate of ln(p/r) - m ln lam:
    each entry's term ln p - ln r - ln lam is estimated once, from the
    entry's reduced fraction, and mul adds the estimates. Values compare
    through filtered_sign, and by exact cross powers only when the
    estimates cannot decide, so the potentials of an irrational mean are
    checked exactly. ``steps`` is the kit's: the successor lists of the
    _Table ``table`` with each entry a, never the zero, as a / lam = (a's
    numerator, its denominator, 1, its term), read off the table's
    ``entries``, whose ln p - ln r is the entry's log weight.

    Error bound: comparing x and y, with k = m_x + m_y, sums k entry
    terms. Each reads the two logs of its entry, which sum to at most G
    (the table's ``span``), and, through ln lam = (ln p0 - ln r0) / l0
    with w0 = p0/r0, 1/l0 times two logs that sum to G0. So size <=
    k (G + 2 + (G0 + 2)/l0) in filtered_sign's terms. A log passes at most
    3 roundings to become its term (for w0's: difference, division by l0,
    subtraction from the entry's), at most m - 1 in the products and one
    in the final difference, so depth <= k + 3. The estimate reads only
    the entries' logs and m, never the ints p and r (which the unreduced
    products leave with common factors), so the bound does not depend on
    how p/r is stored.
    """

    one = (1, 1, 0, 0.0)

    def __init__(self, lam_pair, table):
        self.w0, self.l0 = lam_pair
        self.p0, self.r0 = self.w0.numerator, self.w0.denominator
        p0, r0 = log_terms(self.w0)
        ln_lam = (p0 - r0) / self.l0
        self.steps = [
            [(v, (p, r, 1, w - ln_lam)) for v, (p, r, w) in out]
            for out in table.entries
        ]
        self.unit = table.span + 2.0 + (p0 + r0 + 2.0) / self.l0

    def cmp(self, x, y):
        """Three-way compare of two values."""
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

    @staticmethod
    def mul(x, y):
        return (x[0] * y[0], x[1] * y[1], x[2] + y[2], x[3] + y[3])


class _Kit:
    """The arithmetic of a / lam on one nonzero pattern's successor lists.

    Built once per (``succ``, mean ``pair``): ``steps[u]`` lists the pairs
    (v, a_uv / lam) for the edges (v, a_uv) of succ[u], none of them the
    zero. The mode picks the values once:

    - exact max-plus: Fractions a - lam;
    - exact max-times, lam rational: Ratios pairs, so no Fraction is
      built until a value is read;
    - exact max-times, lam irrational: _Symbolic values;
    - float: the entries times 1/lam, not coerced, so building never
      raises. Only an entry can leave the float range: ``loss`` is None
      unless one overflowed to inf (True, reported first) or rounded to
      the zero (False), float_range_error's ``overflow``.

    The exact max-times kits read each entry's ints, and its log weight,
    off ``table``, succ's _Table (_float_logs), and no Fraction of succ.

    ``one``, ``zero`` and ``mul`` are the unit, zero and product;
    ``better`` and ``le`` compare (``le`` under the float tolerance), and
    an exact kit's ``cmp`` is three-way. ``flog`` is the float log that
    orders _best_walks, and ``values`` reads labels back as scalars (a
    symbolic kit's stay (p, r, m, f)). Exact kits ``check`` Howard's
    exact rounds; every kit ``run``s best walks, settling each node
    ``once`` in float mode.
    """

    def __init__(self, sr, succ, pair, table=None):
        lam = gmean_value(sr, pair)
        self.once = not sr.exact
        self.loss = self.value = None
        self.zero, self.one = sr.zero, sr.one
        self.better = operator.gt
        if not sr.exact:
            inv = sr.div(sr.one, lam)
            # sr.mul(inv, a), written out, since neither is the zero
            if sr.domain == TIMES:
                self.mul, self.flog = operator.mul, math.log
                self.steps = [[(v, inv * a) for v, a in out] for out in succ]
            else:
                self.mul, self.flog = operator.add, float
                self.steps = [[(v, inv + a) for v, a in out] for out in succ]
            values = [e for out in self.steps for _v, e in out]
            if math.inf in values:
                self.loss = True
            elif sr.zero in values:
                self.loss = False
            self.le = sr.le
        elif sr.domain != TIMES:
            self.steps = [[(v, a - lam) for v, a in out] for out in succ]
            self.mul, self.le = operator.add, operator.le
            self.cmp = lambda x, y: (x > y) - (x < y)
            self.flog = partial(_float_weight, sr)
        elif lam is not None:
            p, q = lam.numerator, lam.denominator
            self.steps = [
                [(v, (x * q, y * p)) for v, (x, y, _w) in out]
                for out in table.entries
            ]
            self.zero, self.one = (0, 1), Ratios.one
            self.mul, self.cmp = Ratios.mul, Ratios.cmp
            self.value = Ratios.value
            self.better = lambda x, y: x[0] * y[1] > y[0] * x[1]
            self.le = lambda x, y: x[0] * y[1] <= y[0] * x[1]
            self.flog = lambda x: math.log(x[0]) - math.log(x[1])
        else:
            sym = _Symbolic(pair, table)
            self.steps, self.zero, self.one = sym.steps, None, sym.one
            self.mul, self.cmp = sym.mul, sym.cmp
            self.better = lambda x, y: y is None or sym.cmp(x, y) > 0
            self.le = lambda x, y: sym.cmp(x, y) <= 0
            self.flog = operator.itemgetter(3)

    def check(self, x, policy):
        """Compare steps[u][t] x_v with x_u on every edge, exactly.

        Moves ``policy`` at each node with a violated edge to its most
        violated one, and returns (tight, moved): the edges (u, t),
        steps[u][t], where equality holds, and whether a node moved.
        """
        mul, cmp = self.mul, self.cmp
        tight = []
        moved = False
        for u, out in enumerate(self.steps):
            xu, own = x[u], policy[u]
            move = heaviest = None
            for t, (v, e) in enumerate(out):
                if t == own:  # tight by the construction of x
                    tight.append((u, t))
                    continue
                y = mul(e, x[v])
                sign = cmp(y, xu)
                if sign == 0:
                    tight.append((u, t))
                elif sign > 0 and (move is None or cmp(y, heaviest) > 0):
                    move, heaviest = t, y
            if move is not None:
                policy[u] = move
                moved = True
        return tight, moved

    @cached_property
    def into(self):
        """``steps`` reversed: into[v] lists the pairs (u, a_uv / lam)."""
        into = [[] for _ in self.steps]
        for u, out in enumerate(self.steps):
            for v, e in out:
                into[v].append((u, e))
        return into

    def run(self, sources, sign, h):
        """Labels of _best_walks, or None when they fail the certificate.

        ``sign`` is -1 for walks into the sources (over ``into``, key
        label / x) and 1 for walks out of them (over ``steps``, key label
        * x), with ``h`` the float logs of the potentials x, a
        subeigenvector. The certificate is one pass over the steps: no
        step improves a label, beyond the tolerance in float mode, and
        every source is at least one. By induction on the length of a
        walk, each walk into a source then weighs at most the label at
        its start; each label is the weight of a walk; so the labels are
        the best walk weights, the sum of the star's columns (or rows) at
        the sources.
        """
        steps = self.into if sign < 0 else self.steps
        flog, le, mul, one = self.flog, self.le, self.mul, self.one
        labels = _best_walks(
            steps, sources, self.zero, one, mul, self.better,
            lambda w, c: flog(c) + sign * h[w], self.once,
        )
        if not all(le(one, labels[s]) for s in sources):
            return None
        for y, out in zip(labels, steps):
            for w, e in out:
                if not le(mul(e, y), labels[w]):
                    return None
        return labels

    def is_one(self, c):
        return self.le(c, self.one) and self.le(self.one, c)

    def values(self, labels):
        if self.value is None:
            return labels
        return [self.value(y) for y in labels]


def _walk_keys(sr, x, table, kit):
    """The float keys h that order kit.run (_best_walks) by the
    potentials ``x`` of a _Cert, or None when the closure must answer.

    In exact mode h is kit.flog of each potential, a value of ``kit``.
    Float potentials are logs, and h is x itself, unless the tolerance
    is below the rounding of a walk's weight on n nodes, n
    _WALK_ROUNDING, times the widest entry of the _Table ``table`` in
    max-plus. A max-plus entry beyond 2^960 sets a rounding above every
    tolerance, so potentials that _float_logs scaled are never keys.
    """
    if sr.exact:
        return [kit.flog(v) for v in x]
    rounding = len(x) * _WALK_ROUNDING
    if sr.domain != TIMES:
        rounding *= table.widest
    return None if sr.tol < rounding else x


def _check_division(sr, pair, lam, kit):
    """The refusals of a division by the mean ``pair``, whose value is
    ``lam`` (gmean_value): an irrational exact mean, and in float mode a
    1/lam beyond the float range or an entry that the division overflows
    to inf or rounds to the zero, the ``loss`` of the float _Kit that
    ``kit()`` returns, called only when the other checks pass."""
    if lam is None:
        raise ExactnessError(
            f"the maximum cycle mean {pair[0]}^(1/{pair[1]}) is irrational; "
            "use float mode"
        )
    if sr.exact:
        return
    if sr.div(sr.one, lam) == math.inf:
        raise float_range_error(
            f"the maximum cycle mean {lam!r} is so small that its inverse"
        )
    loss = kit().loss
    if loss is not None:
        raise float_range_error(
            "an entry divided by the maximum cycle mean", overflow=loss
        )


# -- the analysis ------------------------------------------------------------


def _critical(sr, n, tight, best):
    """(components, crit, witness) of the tight edges (u, v, a_uv) of the
    certificates at the top mean pair ``best``, on nodes 0..n-1.

    ``components`` are the nontrivial strongly connected components of
    the tight graph, ordered by smallest node: one Tarjan pass over int
    adjacency lists. The critical edges are the tight edges whose ends
    lie in one of them, and ``crit[u]`` lists those out of u as pairs
    (v, a_uv) in nonzero_pattern's form, v ascending, as the tight edges
    of a node come in the order of its successor list. ``witness`` is the
    nodes and (weight, length) pair of a cycle of the first component
    (digraph.cycle_walk), re-checked against ``best``, and a float weight
    against the float range.
    """
    succ = [[] for _ in range(n)]
    for u, v, _a in tight:
        succ[u].append(v)
    comp_of = [0] * n
    components = []
    for k, comp in enumerate(strong_components(n, succ)):
        for v in comp:
            comp_of[v] = k
        if len(comp) > 1 or comp[0] in succ[comp[0]]:
            components.append(comp)
    if not components:
        raise CertificationError("no cycle found in the critical edge set")
    crit = [[] for _ in range(n)]
    for u, v, a in tight:
        if comp_of[u] == comp_of[v]:
            crit[u].append((v, a))
    nodes = cycle_walk(crit.__getitem__, components[0])
    pair = _cycle_pair(
        sr, [dict(crit[u])[v] for u, v in zip(nodes, nodes[1:])]
    )
    if not sr.exact:
        _in_float_range(sr, pair, nodes)
    if not gmean_eq(sr, pair, best):
        raise CertificationError(
            "witness cycle mean disagrees with the computed maximum"
        )
    return components, crit, (nodes, pair)


# -- star columns by best walks ----------------------------------------------


def _best_walks(steps, sources, zero, one, mul, better, key, once):
    """Best walk weights into ``sources`` by one run of labels.

    ``steps[v]`` lists the pairs (w, e) by which a walk at v extends to
    w with a step of weight e: the label of w becomes mul(e, label of v)
    when that is ``better``. Every source starts at ``one`` and every
    other node at ``zero``. Labels leave a heap largest ``key(w, label)``
    first: the float log of label_w / x_w for walks into the sources, of
    label_w x_w for walks out of them, with x a subeigenvector. Every
    step then lowers the key or keeps it, which is Dijkstra's order on
    costs made nonnegative by the potentials, as in Johnson's
    reweighting. With ``once`` (float mode) each node is
    settled when it first leaves the heap. Without it a node is
    relabelled on every exact improvement, so the fixed point is exact
    whatever the float order, which can only cost extra relaxations; it
    ends because no cycle weighs more than one.
    """
    labels = [zero] * len(steps)
    heap = []
    for s in sources:
        labels[s] = one
        heap.append((-key(s, one), s, one))
    heapify(heap)
    settled = [False] * len(steps)
    while heap:
        _k, v, y = heappop(heap)
        if y is not labels[v] or settled[v]:
            continue
        settled[v] = once
        for w, e in steps[v]:
            c = mul(e, y)
            if better(c, labels[w]) and not settled[w]:
                labels[w] = c
                heappush(heap, (-key(w, c), w, c))
    return labels


def _kit_matrix(sr, kit):
    """The dense normalized matrix of the kit's steps, a_uv / lam as a
    scalar of sr on each edge and the zero elsewhere."""
    value = kit.value or (lambda e: e)
    rows = [[sr.zero] * len(kit.steps) for _ in kit.steps]
    for row, out in zip(rows, kit.steps):
        for v, e in out:
            row[v] = value(e)
    return MaxMatrix._raw(rows, sr)


def _star_columns(sr, kit, h, nodes, star):
    """The sum of the star's columns at ``nodes``, as a list: the labels
    of one best-walk run into them (kit.run keyed by ``h``), or, where
    ``h`` is None or the run fails its certificate, the semiring sum of
    the columns of the matrix that ``star()`` returns, the closure, whose
    refusal and witness are then the answer's. An empty ``nodes`` gives
    the zero vector on both routes."""
    labels = None if h is None else kit.run(nodes, -1, h)
    if labels is not None:
        return kit.values(labels)
    return [
        reduce(sr.add, [row[v] for v in nodes], sr.zero)
        for row in star().rows
    ]


@dataclass(frozen=True)
class SpectralAnalysis:
    """Everything the spectral theory reads off one square matrix.

    Built once by spectral_analysis and passed down. ``components`` is the
    SCC decomposition of the matrix's digraph, ``mean`` the maximum cycle
    mean with its witness. ``lam`` is that mean as a scalar, ``tilde`` the
    matrix divided by it and ``star`` kleene_star(tilde), in both modes;
    these three are None when the matrix is acyclic or its mean is
    irrational in exact mode. ``tilde`` and ``star`` are built when first
    read, ``star`` by one closure, whether through ``star`` or
    ``checked_star()``, and a star that diverges raises kleene_star's
    DivergenceError either way. ``critical`` is the CriticalGraph, None
    for acyclic matrices. ``_kit`` is the _Kit of the matrix's
    nonzero_pattern and the mean: an irreducible exact analysis keeps
    the one its certificate's last round built, and a float analysis
    builds it on the first check or read of ``tilde`` (_normal), whose
    range loss normalized() refuses; the float ``tilde`` is its dense
    matrix (_kit_matrix), and an exact ``tilde`` is a.scale(1/lam).
    ``_cert``, set only when the matrix is irreducible, is its
    certificate (_certify): its potentials x, values of the exact kit or
    float logs, are the Fiedler-Ptak scaling, a subeigenvector of
    ``tilde``. Star columns at critical nodes, which
    the eigenvectors are, come from best-walk runs in the kit keyed by
    them (_walk_keys, _Kit.run), so reading those runs no closure, and
    the star only where no run answers (_star_columns). The balancing
    levels take the same steps on successor lists (balance_level).
    """

    components: SccDecomposition
    mean: CycleMean
    lam: object
    critical: CriticalGraph
    _matrix: MaxMatrix = field(default=None, compare=False, repr=False)
    _kit: object = field(default=None, compare=False, repr=False)
    _tilde: MaxMatrix = field(default=None, compare=False, repr=False)
    _star: MaxMatrix = field(default=None, compare=False, repr=False)
    _cert: _Cert = field(default=None, compare=False, repr=False)

    @property
    def tilde(self):
        if self._tilde is None and self.lam is not None:
            a, sr = self._matrix, self.mean.semiring
            if sr.exact:
                tilde = a.scale(sr.div(sr.one, self.lam))
            else:
                tilde = _kit_matrix(sr, self._normal())
            object.__setattr__(self, "_tilde", tilde)
        return self._tilde

    def _normal(self):
        """``_kit``, built on the first call when the analysis has none."""
        if self._kit is None:
            kit = _Kit(
                self.mean.semiring, nonzero_pattern(self._matrix),
                self.mean.pair(),
            )
            object.__setattr__(self, "_kit", kit)
        return self._kit

    @property
    def star(self):
        if self._star is None and self.lam is not None:
            object.__setattr__(self, "_star", kleene_star(self.tilde))
        return self._star

    @property
    def is_irreducible(self):
        return self.components.is_single

    def _check_normal(self):
        """The refusals of normalized(), without building an exact tilde:
        an acyclic matrix, then _check_division's on the mean."""
        if self.mean.is_zero:
            raise AcyclicMatrixError("cannot normalize an acyclic matrix")
        _check_division(
            self.mean.semiring, self.mean.pair(), self.lam, self._normal
        )

    def normalized(self):
        """``tilde``, after the checks that it exists and is usable.

        Raises when the matrix is acyclic, when lam is irrational, and
        (ModeError) when 1/lam overflows the float range or the division
        by lam overflows an entry to inf or rounds a nonzero entry to the
        zero, losing its edge.
        """
        self._check_normal()
        return self.tilde

    def checked_star(self):
        """``star`` after the checks of ``normalized()``.

        Under a very tight float tolerance rounding can leave a normalized
        cycle above one; kleene_star then raises its DivergenceError with
        a witness.
        """
        self._check_normal()
        return self.star

    def star_columns(self, nodes):
        """The sum of ``star``'s columns at ``nodes``, as a list.

        Entry i is the best walk weight of ``tilde`` from i into a node
        of ``nodes``; no node gives the zero vector. After the checks
        of ``normalized()``, _star_columns answers: an irreducible matrix
        reads it off one best-walk run (see _Kit.run) and builds no
        closure. A reducible one, a float tolerance too tight for the
        runs (see _walks), or a run that fails its certificate sums the
        columns of ``checked_star()`` instead, so the refusal and its
        witness are the closure's.
        """
        self._check_normal()
        kit, h = self._walks() or (None, None)
        return _star_columns(
            self.mean.semiring, kit, h, nodes, self.checked_star
        )

    def eigenspace_basis(self):
        """One star column per critical component of ``tilde``.

        The matrix must be irreducible with at least one cycle. Each
        component is represented by its smallest node r's column, from
        one best-walk run into r, whose certificate proves col[v] =
        star[v][r]. Inside a critical component all star columns are
        proportional, and this is verified in O(k) along the critical
        edges: one walk from r along those inside the component gives
        each of its nodes v the weight w_v of a walk from r to v, so
        star[r][v] >= w_v, and the potentials prove that no cycle weighs
        more than one, so star[r][v] star[v][r] <= 1. A product w_v col[v]
        of one therefore gives 1 = w_v star[v][r] <= star[r][v] star[v][r]
        <= 1. That suffices: joining walks gives star[i][v] >= star[i][r]
        star[r][v] and star[i][r] >= star[i][v] star[v][r], so star[i][v]
        >= star[i][r] star[r][v] >= star[i][v] (star[v][r] star[r][v]) =
        star[i][v], and column v is column r times star[r][v]. When the
        float tolerance is too tight for the runs (see _walks), the run
        fails its certificate, or a node is unreached or its product is
        not one, the whole star is read instead (``checked_star()``) and
        every column is compared, so the answer, or the refusal, is the
        closure's.
        """
        if not self.is_irreducible:
            raise NotIrreducibleError("eigenvectors need an irreducible matrix")
        self._check_normal()
        walks = self._walks()
        if walks is None:
            return self._star_basis()
        kit, h = walks
        sr = self.mean.semiring
        graph = self.critical.graph
        basis = []
        for comp in self.critical.components:
            r = comp[0]
            col = kit.run((r,), -1, h)
            if col is None:
                return self._star_basis()
            # critical edges join only nodes of one critical component
            weight = {r: kit.one}
            order = [r]
            for u in order:
                steps = dict(kit.steps[u])
                for v, _a in graph.successors(u):
                    if v not in weight:
                        weight[v] = kit.mul(steps[v], weight[u])
                        order.append(v)
            if len(order) < len(comp) or not all(
                kit.is_one(kit.mul(w, col[v])) for v, w in weight.items()
            ):
                return self._star_basis()
            basis.append(MaxVector._raw(kit.values(col), sr))
        return tuple(basis)

    def _walks(self):
        """(kit, h) for the best-walk runs of an irreducible matrix: its
        _Kit and the keys _walk_keys reads off its certificate's
        potentials. None when the closure must answer: a reducible
        matrix, or a float tolerance below the rounding of a walk's
        weight."""
        cert = self._cert
        if cert is None:
            return None
        kit = self._normal()
        h = _walk_keys(self.mean.semiring, cert.x, cert.table, kit)
        return None if h is None else (kit, h)

    def _star_basis(self):
        """eigenspace_basis read off the whole checked star."""
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


def spectral_analysis(a):
    """The SpectralAnalysis of a square matrix.

    Each nontrivial component's mean is certified with a subeigenvector
    (_certify on its _component), and the critical edges and the witness
    are read off the tight edges of the components at the top mean
    (_critical): one Tarjan pass on the tight graph, and one on the
    matrix's nonzero_pattern, which the pattern keeps for every later
    analysis of the matrix. The critical graph's weights are the
    entries the tight edges carry, so no dense row is read. No closure
    runs; tilde and the star are built when first read. When the mean
    is irrational in exact max-times mode the potentials are symbolic,
    so the critical graph stays exact while lam, tilde and star are
    None. The witness is a cycle of the first critical component, and
    lam is its mean: in float mode it can differ in the last bits from
    the best policy cycle's.
    """
    pattern = nonzero_pattern(a)
    return _analysis(a, pattern, pattern_scc(pattern))


def _analysis(a, pattern, dec):
    """spectral_analysis of a with its nonzero_pattern and its SCCs dec."""
    sr = a.semiring
    best = None
    tight = []
    for comp in dec.nontrivial_components:
        cert = _certify(sr, *_component(sr, pattern, comp), comp)
        sign = 1 if best is None else gmean_cmp(sr, cert.pair, best)
        if sign >= 0:
            edges = [(comp[u], comp[v], w) for u, v, w in cert.tight]
            if sign > 0:
                best, tight = cert.pair, edges
            else:
                tight += edges
    if best is None:
        return SpectralAnalysis(
            dec, CycleMean(sr.zero, 1, None, sr), None, None
        )
    components, crit, (nodes, (weight, length)) = _critical(
        sr, a.n, tight, best
    )
    graph = Digraph.from_pattern(tuple(map(tuple, crit)), sr)
    critical = CriticalGraph(
        nodes=tuple(sorted(v for comp in components for v in comp)),
        edges=tuple((u, v) for u, v, _w in graph.edges),
        components=tuple(components),
        cyclicity=math.lcm(*(component_gcd(graph, c) for c in components)),
        graph=graph,
    )
    mean = CycleMean(weight, length, Path(nodes, weight), sr)
    if not dec.is_single:
        return SpectralAnalysis(dec, mean, mean.exact_value(), critical, a)
    # one component of every node: its certificate and kit are on the
    # matrix's own indices
    return SpectralAnalysis(
        dec, mean, mean.exact_value(), critical, a,
        _kit=cert.kit, _cert=cert,
    )


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
    return pattern_scc(nonzero_pattern(a)).is_single


def _irreducible_analysis(a):
    # irreducibility is checked before the analysis is built, so that a
    # reducible float matrix whose critical cycles fail to certify is still
    # reported as reducible; the analysis reuses the pattern and its SCCs
    pattern = nonzero_pattern(a)
    dec = pattern_scc(pattern)
    if not dec.is_single:
        raise NotIrreducibleError("eigenvectors need an irreducible matrix")
    return _analysis(a, pattern, dec)


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


# -- max-balancing levels ----------------------------------------------------


def balance_level(sr, succ, pred, table):
    """One level of max-balancing: (pair, components, x).

    The level is a strongly connected nonzero pattern given as (succ,
    pred, table) (see _component), and each part is what an analysis of
    its matrix would give, by the same steps: the mean is certified by
    _certify, the critical ``components`` and the witness's mean
    ``pair`` come from _critical, and a division by the mean is refused
    by normalized()'s rule (_check_division). ``x`` is the sum of the
    star's columns at the critical nodes from _star_columns, as
    star_columns reads it: one best-walk run keyed by _walk_keys, in the
    certificate's kit in exact mode and in a float kit of the witness
    pair otherwise, or, where no run answers, kleene_star of the kit's
    matrix (_kit_matrix), which is checked_star() of the level's matrix.
    No Digraph, cyclicity or SpectralAnalysis is built.
    """
    n = len(succ)
    cert = _certify(sr, succ, pred, table, range(n))
    components, _crit, (_nodes, pair) = _critical(
        sr, n, cert.tight, cert.pair
    )
    nodes = sorted(v for comp in components for v in comp)
    kit = cert.kit if sr.exact else _Kit(sr, succ, pair)
    _check_division(sr, pair, gmean_value(sr, pair), lambda: kit)
    x = _star_columns(
        sr, kit, _walk_keys(sr, cert.x, table, kit), nodes,
        lambda: kleene_star(_kit_matrix(sr, kit)),
    )
    return pair, components, x


def _next_level(sr, level, x, group_of, k):
    """The balancing level after ``level`` = (succ, pred, table), scaled
    by ``x`` with each node u made the point group_of[u] of the k points
    of the next level: (next level, dropped).

    One pass over the rescaled entries a_uv x_v / x_u (scaled_pattern)
    keeps the semiring sum of the entries of each group pair (g, h),
    g != h; a tie keeps the later entry, as Semiring.add does. A float
    entry that rounded to the zero leaves the pattern, and ``dropped``
    tells whether one did; a pair with no entry stays off the pattern.
    The next table is _float_logs' of the next pattern. (Carrying a
    float max-times weight over as ln a + ln x_v - ln x_u, one log per
    node instead of one per kept entry, measured slower end to end.)
    """
    succ = level[0]
    is_zero = sr.is_zero
    acc = [[None] * k for _ in range(k)]
    dropped = False
    for u, out in enumerate(scaled_pattern(succ, x, sr)):
        gu = group_of[u]
        row = acc[gu]
        for v, b in out:
            gv = group_of[v]
            if gv == gu:
                continue
            if is_zero(b):
                dropped = True
                continue
            y = row[gv]
            if y is None or not b < y:
                row[gv] = b
    succ = tuple(
        tuple([(v, b) for v, b in enumerate(row) if b is not None])
        for row in acc
    )
    return (succ, reverse_edges(succ), _float_logs(sr, succ)), dropped


def balance_levels(sr, pattern, comp):
    """Max-balance the component ``comp`` of a nonzero_pattern under sr:
    (x, levels).

    Schneider and Schneider's loop: each level freezes its heaviest
    cycles (balance_level), scales by the sum of the star columns at its
    critical nodes, and makes each critical component a point of the
    next, strictly lighter level (_next_level), until one node is left.
    ``x[k]`` is the product of the scales met by node comp[k], and
    ``levels`` the levels' mean pairs in order. The first level is
    _component's. A level whose float entries dropped out in the
    rounding to the zero and left it reducible, with no cycle left or
    not, is the float range ModeError: contraction merges nodes of one
    strongly connected component only, so the loop could never reach a
    single node.
    """
    level = _component(sr, pattern, comp)
    # owner[p]: the node of the current level that node comp[p] is in
    owner = list(range(len(comp)))
    x_comp = [sr.one] * len(comp)
    levels = []
    while len(level[0]) > 1:
        pair, components, x = balance_level(sr, *level)
        levels.append(pair)
        if any(sr.is_zero(v) for v in x):
            # a float max-times normalized entry can underflow to zero
            raise ModeError("a balancing scale underflows the float range")
        x_comp = [sr.mul(y, x[c]) for y, c in zip(x_comp, owner)]
        # the points of the next level, numbered by their smallest node: a
        # critical component is the point of its first node, and every
        # other node a point of its own
        first = list(range(len(x)))
        for group in components:
            for v in group:
                first[v] = group[0]
        number = {}
        group_of = [number.setdefault(r, len(number)) for r in first]
        owner = [group_of[c] for c in owner]
        level, dropped = _next_level(sr, level, x, group_of, len(number))
        if dropped and not pattern_scc(level[0]).is_single:
            raise float_range_error(
                "a rescaled entry of a balancing level", overflow=False
            )
    return x_comp, levels
