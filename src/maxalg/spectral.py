"""Maximum cycle geometric mean, critical graph, and eigenvectors.

The mean is computed per strongly connected component with Karp's
recurrence, kept as a (weight, length) pair so exact mode never touches an
irrational root. Critical edges are detected on the normalized matrix; when
the mean is irrational in exact max-times mode the normalization is carried
symbolically as pairs (q, m) meaning q * mean^(-m), compared by a float
filter with a proven error bound and by exact cross powers where the filter
cannot decide, so the critical graph itself stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _karp_best_pair(sr, ops, rows, comp):
    """Best cycle-mean pair inside one nontrivial component, via Karp.

    ``rows`` holds the matrix in the representation of ``ops`` (the
    semiring, or Ratios in exact max-times); only the final quotients
    are semiring scalars, compared by gmean_cmp. Float semirings run
    _float_karp.
    """
    m = len(comp)
    index = {v: t for t, v in enumerate(comp)}
    in_edges = [[] for _ in comp]
    is_zero, add, mul = ops.is_zero, ops.add, ops.mul
    for u in comp:
        for t, w in enumerate(rows[u]):
            if t in index and not is_zero(w):
                in_edges[index[t]].append((index[u], w))
    if not sr.exact:
        return _float_karp(sr, in_edges)
    zero = ops.zero
    d = [zero] * m
    d[0] = ops.one
    table = [d]
    for _ in range(m):
        prev = table[-1]
        nxt = []
        for v in range(m):
            acc = zero
            for u, w in in_edges[v]:
                if not is_zero(prev[u]):
                    acc = add(acc, mul(prev[u], w))
            nxt.append(acc)
        table.append(nxt)
    best = None
    last = table[m]
    for v in range(m):
        if is_zero(last[v]):
            continue
        inner = None
        for k in range(m):
            if is_zero(table[k][v]):
                continue
            pair = (ops.div(last[v], table[k][v]), m - k)
            if inner is None or gmean_cmp(sr, pair, inner) < 0:
                inner = pair
        if inner is not None and (best is None or gmean_cmp(sr, inner, best) > 0):
            best = inner
    return best


def _float_karp(sr, in_edges):
    """_karp_best_pair's table and min/max on plain floats.

    The table runs matrix._float_closure's inline loop and tie rule. The
    min/max takes each quotient's float mean once, with gmean_cmp's
    formula, and decides as gmean_cmp does (see _float_mean_cmp). A walk
    weight that overflows to inf is a ModeError: every node of the
    component has a successor in it, so an inf in any row of the table
    leaves one in the last.
    """
    times = sr.domain == TIMES
    m = len(in_edges)
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


class _Symbolic:
    """Scalars (p, r, m, f) meaning (p/r) lam^(-m), lam = w0^(1/l0) irrational.

    p/r is the product of m entries of the matrix, kept as an unreduced
    int pair: mul multiplies the ints without a gcd. f is a float estimate
    of ln(p/r) - m ln lam: each entry's term ln p - ln r - ln lam is
    estimated once, from the entry's reduced fraction, and mul adds the
    estimates. None is the zero. Values compare through filtered_sign, and
    by exact cross powers only when the estimates cannot decide, so
    Floyd-Warshall and the critical-edge test run on them exactly. On an
    exact tie add keeps the value of the shorter path: at an irrational
    mean many cycles can tie, and a closure that let its paths absorb them
    would double their length, and the size of every later fallback, in
    each pass. ``rows`` is the matrix in this representation.

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


def _critical_graph(a, crit):
    """The CriticalGraph of a spanned by the critical edge list crit."""
    sub = Digraph(a.n, [(i, j, a.rows[i][j]) for (i, j) in crit], a.semiring)
    components = scc(sub).nontrivial_components
    nodes = tuple(sorted(v for comp in components for v in comp))
    on_cycle = set(nodes)
    for i, j in crit:
        if i not in on_cycle or j not in on_cycle:
            # float rounding under a very tight tolerance
            raise CertificationError(
                f"critical edge ({i}, {j}) lies on no critical cycle"
            )
    return CriticalGraph(
        nodes=nodes,
        edges=tuple(sorted(crit)),
        components=components,
        cyclicity=math.lcm(*(component_gcd(sub, c) for c in components)),
        graph=sub,
    )


@dataclass(frozen=True)
class SpectralAnalysis:
    """Everything the spectral theory reads off one square matrix.

    Built once by spectral_analysis and passed down. ``components`` is the
    SCC decomposition of the matrix's digraph, ``mean`` the maximum cycle
    mean with its witness. ``lam`` is that mean as a scalar, ``tilde`` the
    matrix divided by it and ``star`` the closure of ``tilde`` plus the
    identity; these three are None when the matrix is acyclic or its mean
    is irrational in exact mode. ``critical`` is the CriticalGraph, None
    for acyclic matrices. ``_range_loss`` is None unless a float division
    by lam left the float range in ``tilde``: then it is True when an
    entry overflowed to inf and False when a nonzero entry rounded to the
    zero (float_range_error's ``overflow``).
    """

    components: SccDecomposition
    mean: CycleMean
    lam: object
    tilde: MaxMatrix
    star: MaxMatrix
    critical: CriticalGraph
    _range_loss: object = field(default=None, compare=False, repr=False)

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

    Karp's recurrence gives the mean per component; one Floyd-Warshall
    closure of the normalized matrix gives the critical edges and the
    star. When the mean is irrational in exact max-times mode the
    normalization is carried symbolically, so the critical graph stays
    exact while lam, tilde and star are None. The witness is a cycle of
    the first critical component. In exact max-times the table and the
    closures run on Ratios or _Symbolic int pairs.
    """
    sr = a.semiring
    fraction_free = sr.exact and sr.domain == TIMES
    ops = Ratios if fraction_free else sr
    rows = Ratios.lift_rows(a.rows) if fraction_free else a.rows
    g = digraph_of(a)
    dec = scc(g)
    best = None
    for comp in dec.nontrivial_components:
        pair = _karp_best_pair(sr, ops, rows, comp)
        if pair is not None and (best is None or gmean_cmp(sr, pair, best) > 0):
            best = pair
    if best is None:
        return SpectralAnalysis(
            dec, CycleMean(sr.zero, 1, None, sr), None, None, None, None
        )
    lam = gmean_value(sr, best)
    if lam is None:
        ops = _Symbolic(sr, best, a.rows)
        rows = ops.rows
    else:
        tilde = _divided_rows(a, lam)
        rows = Ratios.lift_rows(tilde) if fraction_free else tilde
    closure = closure_rows(rows, ops)
    critical = _critical_graph(a, _critical_edges(rows, closure, ops))
    if not critical.components:
        raise CertificationError("no cycle found in the critical edge set")
    witness = component_cycle(critical.graph, critical.components[0])
    if not gmean_eq(sr, witness.gmean_pair(), best):
        raise CertificationError(
            "witness cycle mean disagrees with the computed maximum"
        )
    mean = CycleMean(witness.weight, witness.length, witness, sr)
    if lam is None:
        return SpectralAnalysis(dec, mean, None, None, None, critical)
    if fraction_free:
        closure = [[Ratios.value(x) for x in row] for row in closure]
    elif mean.exact_value() != lam:
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
        MaxMatrix._raw(tilde, sr),
        MaxMatrix._raw(closure, sr),
        critical,
        None if sr.exact else _range_loss(tilde, sr, len(g.edges)),
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
