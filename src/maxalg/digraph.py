"""Weighted digraphs of matrices: components, cycles, cyclicity, thresholds.

Nodes are 0-based integers. A matrix entry a[i][j] above the semiring zero
is the edge i -> j with that weight. This module only reads matrices through
their ``rows`` / ``semiring`` attributes and the ``_pattern`` cache slot that
nonzero_pattern fills, so it sits below the matrix layer.

nonzero_pattern(a) lists, per row, the pairs (j, a_ij) with a nonzero a_ij,
j ascending. A MaxMatrix keeps it in its _pattern slot from the first call
on, so every analysis of one matrix reads its n^2 entries once: digraph_of
is a view of the pattern. The pattern is a tuple that also keeps three
facts of the matrix's entries, each made on its first read and shared by
every later reader of that matrix: its SCC decomposition (pattern_scc, and
scc of a digraph_of view), its reverse edges and its entry table.
None of them depends on a mean or on any other result of an analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import AcyclicNodeError, SizeLimitError
from .semiring import EXACT_TIMES, NEG_INF, TIMES, float_range_error


@dataclass(frozen=True)
class Path:
    """A walk i1 -> ... -> ik given by its node sequence and total weight.

    ``length`` counts edges. A closed walk (first node == last node) is a
    cycle when all interior nodes are distinct.
    """

    nodes: tuple
    weight: object

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))

    @property
    def length(self):
        return len(self.nodes) - 1

    @property
    def is_cycle(self):
        return len(self.nodes) >= 2 and self.nodes[0] == self.nodes[-1]

    def gmean_pair(self):
        """(weight, length) pair of this walk, for geometric-mean compares."""
        return (self.weight, self.length)


class Digraph:
    """Immutable weighted digraph on nodes 0..n-1."""

    __slots__ = ("n", "edges", "semiring", "_succ")

    def __init__(self, n, edges, semiring=EXACT_TIMES):
        self.n = n
        self.semiring = semiring
        seen = {}
        for i, j, w in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) outside 0..{n - 1}")
            if semiring.is_zero(w):
                raise ValueError("edges must carry nonzero weight")
            seen[(i, j)] = w
        self.edges = tuple(sorted((i, j, w) for (i, j), w in seen.items()))
        succ = [[] for _ in range(n)]
        for i, j, w in self.edges:
            succ[i].append((j, w))
        self._succ = succ

    @classmethod
    def from_pattern(cls, pattern, semiring=EXACT_TIMES):
        """The Digraph whose successors of node i are ``pattern[i]``.

        ``pattern`` is in nonzero_pattern's form: per node, the pairs
        (j, w) with w nonzero and j ascending. It is taken as it is, not
        validated or copied, so it must not change afterwards.
        """
        g = object.__new__(cls)
        g.n = len(pattern)
        g.semiring = semiring
        g.edges = tuple(
            (i, j, w) for i, out in enumerate(pattern) for j, w in out
        )
        g._succ = pattern
        return g

    def successors(self, i):
        return self._succ[i]

    def edge_set(self):
        return frozenset((i, j) for i, j, _ in self.edges)

    def weight(self, i, j):
        for k, w in self._succ[i]:
            if k == j:
                return w
        return self.semiring.zero

    def has_edge(self, i, j):
        return any(k == j for k, _ in self._succ[i])

    def subgraph(self, keep_edges):
        """Subgraph on the same node set keeping only the given (i, j) pairs."""
        keep = set(keep_edges)
        return Digraph(
            self.n,
            [(i, j, w) for i, j, w in self.edges if (i, j) in keep],
            self.semiring,
        )

    def path_weight(self, nodes):
        sr = self.semiring
        w = sr.one
        for u, v in zip(nodes, nodes[1:]):
            w = sr.mul(w, self.weight(u, v))
        return w

    def path(self, nodes):
        return Path(tuple(nodes), self.path_weight(nodes))

    def __eq__(self, other):
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.edges == other.edges
            and self.semiring == other.semiring
        )

    def __hash__(self):
        return hash((self.n, self.edges, self.semiring))

    def __repr__(self):
        return f"Digraph(n={self.n}, edges={[(i, j) for i, j, _ in self.edges]})"


class _Pattern(tuple):
    """nonzero_pattern's tuple of rows, with the facts of its entries.

    It equals, hashes and compares as the plain tuple of the same rows.
    Each fact is made on its first read, kept, and must not be changed:

    - ``components``: its SccDecomposition (see pattern_scc);
    - ``pred``: its reverse_edges, as tuples;
    - ``float_logs(sr, build)``: build(sr, self), the entry table that
      spectral's Howard iteration and exact kits read under sr, the
      semiring of the pattern's matrix.

    Pickles and copies carry the rows only.
    """

    def __reduce__(self):
        return _Pattern, (tuple(self),)

    @cached_property
    def components(self):
        return _decompose(self)

    @cached_property
    def pred(self):
        return tuple(map(tuple, reverse_edges(self)))

    def float_logs(self, sr, build):
        if "_logs" not in self.__dict__:
            self._logs = build(sr, self)
        return self._logs


def nonzero_pattern(a):
    """Per row of the square matrix a, the pairs (j, a_ij) with a_ij nonzero.

    Rows come in order and j ascends within each. The result is a tuple of
    tuples, filled once into a's _pattern slot and shared by every later
    call, so it must not be changed; == and copies of a ignore it. It
    keeps the facts of a's entries that every analysis reads (see
    _Pattern). Only this function fills the slot.
    """
    pattern = getattr(a, "_pattern", None)
    if pattern is not None:
        return pattern
    a.n  # raises DimensionError unless a is square
    sr = a.semiring
    # the zero tests of is_zero, inline where it is one operator
    if sr.domain == TIMES:
        rows = (
            tuple([(j, v) for j, v in enumerate(row) if v])
            for row in a.rows
        )
    elif not sr.exact:
        rows = (
            tuple([(j, v) for j, v in enumerate(row) if v != NEG_INF])
            for row in a.rows
        )
    else:
        is_zero = sr.is_zero
        rows = (
            tuple([(j, v) for j, v in enumerate(row) if not is_zero(v)])
            for row in a.rows
        )
    a._pattern = pattern = _Pattern(rows)
    return pattern


def scaled_pattern(pattern, x, sr):
    """The pairs (j, a_ij x_j / x_i) of a nonzero_pattern, row by row.

    The one place that forms the entries of a diagonal similarity: both
    DiagonalScaling.apply and the max_balance levels (spectral._next_level)
    read them here; x must be positive. The product and the quotient are
    the semiring's mul and div, written out: in max-plus v + x_j - x_i,
    since neither a pattern entry nor a positive x_j is the zero. A float
    entry that leaves the range stays in the result, as inf or as the zero
    it rounded to.
    """
    if sr.domain == TIMES:
        return [
            [(j, v * x[j] / xi) for j, v in out]
            for out, xi in zip(pattern, x)
        ]
    return [
        [(j, v + x[j] - xi) for j, v in out]
        for out, xi in zip(pattern, x)
    ]


def digraph_of(a):
    """The weighted digraph of a square matrix: a view of its pattern."""
    return Digraph.from_pattern(nonzero_pattern(a), a.semiring)


@dataclass(frozen=True)
class SccDecomposition:
    """Strongly connected components, each sorted, ordered by smallest node.

    A component is trivial when it is a single node without a loop; only
    nontrivial components contain cycles.
    """

    components: tuple
    trivial: tuple
    _index: dict = field(default=None, compare=False, repr=False)

    def component_of(self, node):
        if self._index is None:
            idx = {v: k for k, comp in enumerate(self.components) for v in comp}
            object.__setattr__(self, "_index", idx)
        return self._index[node]

    @property
    def nontrivial_components(self):
        """The components that contain a cycle, in component order."""
        return tuple(
            comp
            for comp, triv in zip(self.components, self.trivial)
            if not triv
        )

    def nontrivial_nodes(self):
        return frozenset(
            v for comp in self.nontrivial_components for v in comp
        )

    @property
    def is_single(self):
        return len(self.components) == 1


def reverse_edges(succ):
    """The reverse edges of successor lists of pairs (v, w): pred[v] lists
    the pairs (u, t) with succ[u][t] leading to v, u ascending."""
    pred = [[] for _ in succ]
    for u, out in enumerate(succ):
        for t, (v, _w) in enumerate(out):
            pred[v].append((u, t))
    return pred


def strong_components(n, succ):
    """Tarjan's strongly connected components of int adjacency lists.

    ``succ[v]`` lists the heads of the edges out of node v, for nodes
    0..n-1. Returns the components as sorted tuples, ordered by smallest
    node. Iterative, so deep graphs do not reach the recursion limit.
    """
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    counter = 0
    components = []
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comp.sort()
                    components.append(tuple(comp))
    components.sort()
    return components


def _decompose(pattern):
    """One Tarjan pass over a nonzero_pattern: its SccDecomposition."""
    succ = [[j for j, _w in out] for out in pattern]
    components = strong_components(len(succ), succ)
    trivial = tuple(
        len(c) == 1 and c[0] not in succ[c[0]] for c in components
    )
    return SccDecomposition(tuple(components), trivial)


def pattern_scc(pattern):
    """Tarjan's strongly connected components of a nonzero_pattern.

    The pattern of a matrix keeps its decomposition from the first call
    on, so every later call, and scc of its digraph_of view, reads it
    without another pass. Successor lists of nonzero_pattern's form that
    are not a matrix's pattern are decomposed at each call.
    """
    if type(pattern) is _Pattern:
        return pattern.components
    return _decompose(pattern)


def scc(g):
    """Tarjan's strongly connected components of a Digraph.

    Returns an SccDecomposition with components sorted by smallest node.
    A digraph_of view reads its matrix's decomposition (see pattern_scc).
    """
    return pattern_scc(g._succ)


def component_cycle(g, comp):
    """A cycle of g inside one nontrivial strongly connected component.

    The walk starts at the component's smallest node and follows the
    smallest successor inside the component until a node repeats; the
    repeated stretch comes back as a closed Path weighted by g's edges
    (see cycle_walk).
    """
    return g.path(cycle_walk(g.successors, comp))


def cycle_walk(successors, comp):
    """The closed node tuple of component_cycle's cycle inside ``comp``,
    with ``successors(u)`` the pairs (v, w) of the edges out of u."""
    members = set(comp)
    index = {}
    walk = []
    u = min(comp)
    while u not in index:
        index[u] = len(walk)
        walk.append(u)
        u = min(v for v, _w in successors(u) if v in members)
    return tuple(walk[index[u]:]) + (u,)


def is_strongly_connected(g):
    return scc(g).is_single


def enumerate_cycles(g, max_len=None, node_limit=8):
    """All elementary cycles of length <= max_len, as closed Paths.

    Exhaustive by design and guarded by ``node_limit``: this is the oracle
    the faster spectral routines are tested against, intended for n <= 8.
    Cycles start at their smallest node and are sorted by (length, nodes).
    """
    if g.n > node_limit:
        raise SizeLimitError(
            f"cycle enumeration is exhaustive; {g.n} nodes exceeds the "
            f"guard of {node_limit}"
        )
    if max_len is None:
        max_len = g.n
    sr = g.semiring
    cycles = []

    def dfs(root, u, nodes, weight, visiting):
        for v, w in g.successors(u):
            if v == root:
                cycles.append(Path(nodes + (root,), sr.mul(weight, w)))
            elif v > root and v not in visiting and len(nodes) <= max_len - 1:
                visiting.add(v)
                dfs(root, v, nodes + (v,), sr.mul(weight, w), visiting)
                visiting.remove(v)

    for root in range(g.n):
        dfs(root, root, (root,), sr.one, {root})
    cycles.sort(key=lambda p: (p.length, p.nodes))
    return tuple(cycles)


def component_gcd(g, comp):
    """gcd of all cycle lengths inside one strongly connected component."""
    comp_set = set(comp)
    root = comp[0]
    dist = {root: 0}
    queue = [root]
    while queue:
        u = queue.pop()
        for v, _ in g.successors(u):
            if v in comp_set and v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    # Tree distances make every edge value d[u] + 1 - d[v] a multiple of the
    # cyclicity, and tree edges contribute 0, so one sweep suffices.
    g_acc = 0
    for u in comp:
        for v, _ in g.successors(u):
            if v in comp_set:
                g_acc = math.gcd(g_acc, dist[u] + 1 - dist[v])
    return abs(g_acc)


def graph_cyclicity(g):
    """lcm over components of the gcd of that component's cycle lengths.

    Every node must lie on a cycle, i.e. in a nontrivial component.
    """
    dec = scc(g)
    for comp, triv in zip(dec.components, dec.trivial):
        if triv:
            raise AcyclicNodeError(
                f"node {comp[0]} lies on no cycle; cyclicity is undefined"
            )
    return math.lcm(*(component_gcd(g, comp) for comp in dec.components))


def threshold_digraph(a, theta):
    """Digraph keeping the entries at or above a threshold above the
    semiring zero."""
    sr = a.semiring
    theta = sr.coerce(theta)
    if sr.is_zero(theta):
        raise ValueError("threshold must be above the semiring zero")
    edges = [
        (i, j, w)
        for i, row in enumerate(a.rows)
        for j, w in enumerate(row)
        if not sr.is_zero(w) and sr.ge(w, theta)
    ]
    return Digraph(a.n, edges, sr)


def threshold_reach(sr, pattern):
    """Reachability in the threshold digraphs of a nonzero_pattern, as the
    threshold falls through its entry values.

    Yields (theta, pairs, reach, closed) per distinct entry value theta,
    in decreasing order:

    - ``pairs``: the (i, j) of the entries equal to theta;
    - ``reach``: per node u, the int bitset of the nodes that a walk of
      one or more entries x with sr.ge(x, theta) leads to from u, so u
      lies on a cycle exactly when bit u of reach[u] is set;
    - ``closed``: whether an entry entered at this level closed a new
      cycle: a loop at a node on no cycle, or an entry (i, j) whose head
      reached i while i did not reach j. The strong components and the
      nodes on cycles change exactly at such levels.

    A level enters the entries x with sr.ge(x, theta), a prefix of the
    entries in decreasing order, since under a tolerance in [0, 1) ge is
    monotone in x. Entering (i, j) joins j and reach[j] to the reach of
    i and of every node that reaches i; an entry whose tail already
    reaches its head costs one bit test. reach changes in place, so a
    reader reads it before asking for the next level. A nan entry is no
    edge. Under a positive tolerance Semiring.eq finds inf equal to every
    float, so the level of an inf entry holds every entry; the level
    below it starts again from none and counts as closed.
    """
    groups = {}
    for i, out in enumerate(pattern):
        for j, w in out:
            if w == w:
                groups.setdefault(w, []).append((i, j))
    values = sorted(groups, reverse=True)
    le = sr.le
    n = len(pattern)
    reach = [0] * n
    k = 0
    for theta in values:
        closed = False
        if k and values[k - 1] < theta and not le(theta, values[k - 1]):
            # the level above was inf's, which held every entry
            reach = [0] * n
            k = 0
            closed = True
        while k < len(values) and (
            values[k] >= theta or le(theta, values[k])
        ):
            for i, j in groups[values[k]]:
                if reach[i] >> j & 1:
                    continue
                add = reach[j] | 1 << j
                if add >> i & 1:
                    closed = True
                bit = 1 << i
                reach[i] |= add
                for u, r in enumerate(reach):
                    if r & bit:
                        reach[u] = r | add
            k += 1
        yield theta, groups[theta], reach, closed


def threshold_spectrum(a):
    """Component structure of the threshold digraph at every entry level.

    Returns ((theta, SccDecomposition), ...) over the distinct nonzero
    entries of ``a`` in decreasing order, with runs of consecutive levels
    that share the same decomposition merged (the highest level is kept).
    The digraph at theta keeps the entries x with sr.ge(x, theta), so
    under a float tolerance an entry within it below theta is kept at
    theta. The levels come from one threshold_reach pass: a level that
    closes no new cycle keeps the decomposition of the level above, and
    at one that does, a node on a cycle shares its component with the
    nodes of equal reach. A float entry that is inf or nan is refused
    with a ModeError.
    """
    sr = a.semiring
    pattern = nonzero_pattern(a)
    if not sr.exact and any(
        w != w or w == math.inf for out in pattern for _j, w in out
    ):
        raise float_range_error("an entry")
    out = []
    for theta, _pairs, reach, closed in threshold_reach(sr, pattern):
        if closed or not out:
            # keyed by reach on a cycle, by the negative ~u on none
            groups = {}
            for u, r in enumerate(reach):
                groups.setdefault(r if r >> u & 1 else ~u, []).append(u)
            out.append((theta, SccDecomposition(
                tuple(map(tuple, groups.values())),
                tuple(key < 0 for key in groups),
            )))
    return tuple(out)
