"""Shared brute-force oracles and seeded corpus generators for the tests.

The oracles work straight from definitions (walk tables, elementary cycle
enumeration over plain Fractions) so the fast library routines have an
independent reference. Everything here is exact max-times unless stated;
the cycle oracles read max-plus matrices too.
The power-asymptotics references and the kernel references (the
semiring-generic closure and Karp loops, the cycle-cover DFS, the
threshold levels by search, the dense balancing levels) work in any
mode, and count_calls counts the library's internal calls of one
function.
"""

import math
import operator
import random
import sys
from fractions import Fraction
from functools import reduce

from maxalg import (
    EXACT_PLUS,
    EXACT_TIMES,
    NEG_INF,
    PLUS,
    CertificationError,
    Digraph,
    ExactnessError,
    IterationBudgetError,
    MaxMatrix,
    MaxVector,
    ModeError,
    NoScalingError,
    SccDecomposition,
    Semiring,
    critical_graph,
    gmean_cmp,
    kleene_star,
    mat_power,
    normalize_to_unit,
    oplus,
    otimes,
    scc,
    semiring_convert,
    spectral_analysis,
)
from maxalg.semiring import float_range_error


# ---------------------------------------------------------------------------
# plain-Fraction views


def grid_of(a):
    """Rows of a as Fractions with None marking the semiring zero."""
    sr = a.semiring
    return [
        [None if sr.is_zero(w) else Fraction(w) for w in row] for row in a.rows
    ]


def fmat(rows):
    return MaxMatrix(rows, EXACT_TIMES)


def fvec(entries):
    return MaxVector(entries, EXACT_TIMES)


def left_residual_reference(v, w, plus=False):
    """The greatest X with V (x) X <= W, on plain grids, or None when a
    column of V is zero and its row of X is unbounded.

    X[i][j] is the minimum over the rows k with V[k][i] nonzero of
    W[k][j] / V[k][i], by Fraction or float division, with 0 the zero;
    with ``plus``, of W[k][j] - V[k][i], with NEG_INF the zero, which
    stays NEG_INF.
    """
    zero = NEG_INF if plus else 0

    def quotient(x, y):
        if not plus:
            return x / y
        return zero if x == zero else x - y

    out = []
    for i in range(len(v[0])):
        support = [k for k, row in enumerate(v) if row[i] != zero]
        if not support:
            return None
        out.append([min(quotient(w[k][j], v[k][i]) for k in support)
                    for j in range(len(w[0]))])
    return out


# ---------------------------------------------------------------------------
# walk and star oracles


def walk_table_brute(a, t):
    """Best weight of an i->j walk with exactly t edges, as a None/Fraction
    grid. Plain cubic folding, t >= 1."""
    grid = grid_of(a)
    n = a.n
    cur = [row[:] for row in grid]
    for _ in range(t - 1):
        nxt = [[None] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                step = grid[i][k]
                if step is None:
                    continue
                for j in range(n):
                    tail = cur[k][j]
                    if tail is None:
                        continue
                    w = step * tail
                    if nxt[i][j] is None or w > nxt[i][j]:
                        nxt[i][j] = w
        cur = nxt
    return cur


def star_brute(a):
    """I + best walks of every length up to n-1, as a None/Fraction grid.

    Equals the Kleene star whenever no cycle weighs more than 1 (longer
    walks then never beat their loop-erased versions).
    """
    n = a.n
    out = [[Fraction(1) if i == j else None for j in range(n)]
           for i in range(n)]
    for t in range(1, n):
        table = walk_table_brute(a, t)
        for i in range(n):
            for j in range(n):
                w = table[i][j]
                if w is not None and (out[i][j] is None or w > out[i][j]):
                    out[i][j] = w
    return out


def grids_equal(grid, b):
    """Compare a None/Fraction grid against a MaxMatrix, exactly."""
    sr = b.semiring
    for i, row in enumerate(grid):
        for j, w in enumerate(row):
            other = b.rows[i][j]
            if w is None:
                if not sr.is_zero(other):
                    return False
            elif sr.is_zero(other) or Fraction(other) != w:
                return False
    return True


# ---------------------------------------------------------------------------
# cycle oracles


def cycles_brute(a, max_len=None):
    """Every elementary cycle as (closed node tuple, Fraction weight).

    Depth-first from each root over the nonzero pattern, visiting only
    nodes above the root so each cycle is listed once, rooted at its
    smallest node. Weights multiply, or add in max-plus.
    """
    grid = grid_of(a)
    n = a.n
    if max_len is None:
        max_len = n
    plus = a.semiring.domain == PLUS
    step = operator.add if plus else operator.mul
    found = []

    def dfs(root, u, path, weight, onpath):
        for v in range(n):
            w = grid[u][v]
            if w is None:
                continue
            if v == root:
                found.append((path + (root,), step(weight, w)))
            elif v > root and v not in onpath and len(path) <= max_len - 1:
                onpath.add(v)
                dfs(root, v, path + (v,), step(weight, w), onpath)
                onpath.remove(v)

    for root in range(n):
        dfs(root, root, (root,), Fraction(0 if plus else 1), {root})
    return found


def has_cycle_above_one_brute(a):
    return any(w > 1 for _nodes, w in cycles_brute(a))


def mean_diff_brute(a, pair, other):
    """A number with the sign of pair's mean minus other's, exactly.

    Cross powers w1^l2 - w2^l1 of the (weight, length) pairs, or cross
    products w1 l2 - w2 l1 in max-plus, on Fractions.
    """
    (w, l), (w2, l2) = pair, other
    if a.semiring.domain == PLUS:
        return w * l2 - w2 * l
    return w ** l2 - w2 ** l


def best_gmean_pair_brute(a):
    """(weight, length) of the heaviest cycle geometric mean, or None."""
    best = None
    for nodes, w in cycles_brute(a):
        pair = (w, len(nodes) - 1)
        if best is None or mean_diff_brute(a, pair, best) > 0:
            best = pair
    return best


def critical_edges_brute(a):
    """Set of directed edges lying on some cycle of maximum mean."""
    best = best_gmean_pair_brute(a)
    if best is None:
        return set()
    out = set()
    for nodes, w in cycles_brute(a):
        if mean_diff_brute(a, (w, len(nodes) - 1), best) == 0:
            out.update(zip(nodes, nodes[1:]))
    return out


def symbolic_critical_edges(rows, pair):
    """Critical edges of a grid for its mean lam = w0^(1/l0), in order.

    A plain Floyd-Warshall on values (q, m) meaning q lam^(-m), compared
    by cross powers: x < y iff q_x^l0 w0^(m_y) < q_y^l0 w0^(m_x). An edge
    is critical when it times the best path back is lam^0.
    """
    w0, l0 = pair
    n = len(rows)

    def less(x, y):
        return x[0] ** l0 * w0 ** y[1] < y[0] ** l0 * w0 ** x[1]

    d = [[(v, 1) if v else None for v in row] for row in rows]
    for k in range(n):
        for i in range(n):
            if d[i][k] is None:
                continue
            for j in range(n):
                if d[k][j] is None:
                    continue
                via = (d[i][k][0] * d[k][j][0], d[i][k][1] + d[k][j][1])
                if d[i][j] is None or less(d[i][j], via):
                    d[i][j] = via
    edges = []
    for i in range(n):
        for j in range(n):
            v = rows[i][j]
            back = (Fraction(1), 0) if i == j else d[j][i]
            if v and back is not None:
                q, m = v * back[0], 1 + back[1]
                if q**l0 == w0**m:
                    edges.append((i, j))
    return edges


def hadamard_condition_one_brute(rows):
    """Check every cyclic index sequence against the diagonal moduli.

    Asks, over the elementary cycles of the full pattern on the moduli,
    whether the product of the off-diagonal moduli ever beats the product
    of the diagonal moduli at the visited nodes. Repetitions add nothing:
    any closed sequence splits into elementary cycles.
    """
    n = len(rows)
    mod = [[abs(Fraction(v)) for v in row] for row in rows]
    support = fmat(
        [[mod[i][j] if mod[i][j] != 0 else 0 for j in range(n)]
         for i in range(n)]
    )
    for nodes, w in cycles_brute(support):
        diag = Fraction(1)
        for u in nodes[:-1]:
            diag *= mod[u][u]
        if w > diag:
            return False
    return True


def rowcol_constraints_brute(rows):
    """The matrix q with: x puts every maximum on the diagonal iff q x <= x.

    Straight from the definition: a[i][j] x[j] / x[i] <= a[i][i] and
    <= a[j][j] give q[i][j] = max(a[i][j] / a[i][i], a[i][j] / a[j][j]).
    Plain max-times arithmetic on the entries, exact or float.
    """
    n = len(rows)
    return [
        [
            max(rows[i][j] / rows[i][i], rows[i][j] / rows[j][j])
            if rows[i][j] else 0
            for j in range(n)
        ]
        for i in range(n)
    ]


def sandwich_constraints_brute(triples):
    """The matrix q with: x fits every (lower, middle, upper) iff q x <= x.

    middle[i][j] x[j] / x[i] <= upper[i][j] bounds q[i][j] by
    middle / upper, and lower[i][j] <= middle[i][j] x[j] / x[i] bounds
    q[j][i] by lower / middle; a zero numerator adds no constraint.
    """
    n = triples[0][1].n
    q = [[0] * n for _ in range(n)]
    for lo, mid, up in triples:
        for i in range(n):
            for j in range(n):
                if mid.rows[i][j]:
                    q[i][j] = max(q[i][j], mid.rows[i][j] / up.rows[i][j])
                if lo.rows[i][j]:
                    q[j][i] = max(q[j][i], lo.rows[i][j] / mid.rows[i][j])
    return q


def assert_heavy_cycle(cycle, rows):
    """cycle is a closed elementary walk of the max-times grid rows whose
    edge product is its weight, and that weight is above one."""
    nodes = cycle.nodes
    assert nodes[0] == nodes[-1]
    assert len(set(nodes[:-1])) == len(nodes) - 1
    w = 1
    for u, v in zip(nodes, nodes[1:]):
        assert rows[u][v]
        w *= rows[u][v]
    assert w == cycle.weight
    assert w > 1


def is_balanced_cut_brute(b):
    """Exhaustive subset check of maximum in- vs out-weight, small n."""
    grid = grid_of(b)
    n = b.n
    for mask in range(1, (1 << n) - 1):
        inside = [i for i in range(n) if mask >> i & 1]
        outside = [i for i in range(n) if not mask >> i & 1]
        out_w = max(
            (grid[i][j] for i in inside for j in outside
             if grid[i][j] is not None),
            default=None,
        )
        in_w = max(
            (grid[j][i] for i in inside for j in outside
             if grid[j][i] is not None),
            default=None,
        )
        if out_w != in_w:
            return False
    return True


# ---------------------------------------------------------------------------
# corpus generators (all driven by a caller-owned random.Random)


def rand_positive(rng, den=8):
    return Fraction(rng.randint(1, den), rng.randint(1, den))


def random_matrix(rng, n, density=0.5, entry=rand_positive):
    rows = [
        [entry(rng) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(n)
    ]
    return fmat(rows)


def random_irreducible(rng, n, density=0.3, entry=rand_positive):
    """Random matrix with a planted spanning cycle, hence one SCC."""
    rows = [
        [entry(rng) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(n)
    ]
    order = list(range(n))
    rng.shuffle(order)
    for u, v in zip(order, order[1:] + order[:1]):
        rows[u][v] = entry(rng)
    return fmat(rows)


def sub_unit(rng):
    """A positive Fraction strictly below 1 with a power-of-two denominator."""
    return Fraction(rng.randint(1, 7), 8)


def unit_lambda_irreducible(rng, n, extra_cycles=None):
    """Irreducible matrix whose maximum cycle mean is exactly 1.

    Plants one or more node-subset cycles with every edge equal to 1 and
    fills the rest (including a spanning connectivity cycle) with entries
    strictly below 1, so cycles through any filler edge stay below mean 1
    and the critical graph is the union of the planted unit edges.
    """
    rows = [[0] * n for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for u, v in zip(order, order[1:] + order[:1]):
        rows[u][v] = sub_unit(rng)
    if extra_cycles is None:
        extra_cycles = rng.randint(1, 2)
    for _ in range(extra_cycles):
        size = rng.randint(1, n)
        nodes = rng.sample(range(n), size)
        for u, v in zip(nodes, nodes[1:] + nodes[:1]):
            rows[u][v] = Fraction(1)
    for i in range(n):
        for j in range(n):
            if rows[i][j] == 0 and rng.random() < 0.25:
                rows[i][j] = sub_unit(rng)
    return fmat(rows)


def power_two_dominant(rng, n):
    """Distinct power-of-two loops that dominate every non-loop cycle.

    Off-diagonal exponents sit strictly below the smaller of the two loop
    exponents, so any cycle through k >= 2 nodes has mean below the
    largest visited loop; the expansion then peels loops in decreasing
    order and every stage mean is an exact power of two.
    """
    exps = rng.sample(range(-4, 6), n)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(2) ** exps[i]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.7:
                rows[i][j] = Fraction(2) ** (
                    min(exps[i], exps[j]) - rng.randint(1, 3)
                )
    return fmat(rows)


def two_level_planted(rng, n):
    """Two disjoint planted cycles with distinct rational means.

    Every other edge leaves or enters a planted node with weight at most
    half the smaller mean and the leftover nodes are wired acyclically,
    so the expansion peels exactly the two planted cycles and every stage
    mean stays rational.
    """
    lam1 = Fraction(rng.randint(5, 8), 4)
    lam2 = Fraction(rng.randint(1, 4), 4)
    size1 = rng.randint(1, max(1, n // 2))
    size2 = rng.randint(1, max(1, (n - size1) // 2)) if n - size1 else 0
    nodes = list(range(n))
    rng.shuffle(nodes)
    c1 = nodes[:size1]
    c2 = nodes[size1:size1 + size2]
    rest = nodes[size1 + size2:]
    rows = [[0] * n for _ in range(n)]
    for u, v in zip(c1, c1[1:] + c1[:1]):
        rows[u][v] = lam1
    for u, v in zip(c2, c2[1:] + c2[:1]):
        rows[u][v] = lam2
    cap = lam2 / 2
    planted = set(c1) | set(c2)
    pos = {v: k for k, v in enumerate(rest)}
    for i in range(n):
        for j in range(n):
            if rows[i][j] == 0 and rng.random() < 0.35:
                if i in planted or j in planted or pos[i] < pos[j]:
                    rows[i][j] = cap * Fraction(rng.randint(1, 4), 4)
    return fmat(rows), lam1, lam2


def near_tie_planted(n, k, heavy):
    """A heavy cycle and a lighter loop of mean (k - 1) / k, a near tie.

    Nodes 0 .. n-3 form the heavy cycle, every edge weighing one; node
    n-2 carries the lighter loop; node n-1 enters it by an edge of weight
    ``heavy``, so the lighter term leads entry (n-1, n-2) for about
    k ln(2 heavy) powers. Both cycles reach each other through lighter
    edges.
    """
    m = n - 2
    light, source = n - 2, n - 1
    rows = [[0] * n for _ in range(n)]
    for v in range(m):
        rows[v][(v + 1) % m] = 1
    rows[light][light] = Fraction(k - 1, k)
    rows[source][light] = Fraction(heavy)
    rows[light][0] = Fraction(1, heavy)
    rows[source][0] = Fraction(1, 2)
    rows[m - 1][light] = Fraction(1, 2)
    return fmat(rows)


def additive(a):
    """The exact max-plus matrix with a's entries as weights, 0 as -inf."""
    return MaxMatrix(
        [[v if v else NEG_INF for v in row] for row in a.rows], EXACT_PLUS
    )


def max_polynomial(a, coeffs):
    """c_0 I + c_1 A + c_2 A^2 + ... in the max-times sense."""
    sr = a.semiring
    out = MaxMatrix.zeros(a.n, a.n, semiring=sr)
    power = MaxMatrix.identity(a.n, sr)
    for k, c in enumerate(coeffs):
        if k:
            power = otimes(power, a)
        if c:
            out = oplus(out, power.scale(sr.coerce(c)))
    return out


def polynomial_pair(rng, n):
    """Two commuting matrices: max-polynomials of one unit-mean matrix.

    Coefficient 1 of each polynomial is forced positive so both values
    inherit the base pattern and stay irreducible; the top coefficient is
    the (rational) maximum cycle mean of the value.
    """
    base = unit_lambda_irreducible(rng, n)

    def draw():
        coeffs = [
            Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(4)
        ]
        coeffs[1] = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        return coeffs

    return max_polynomial(base, draw()), max_polynomial(base, draw()), base


def random_signed(rng, n, density=0.75):
    """Signed Fraction grid with nonzero diagonal, for the moduli test."""
    rows = [
        [
            Fraction(rng.choice([k for k in range(-8, 9) if k]), 4)
            if (i == j or rng.random() < density)
            else Fraction(0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return rows


def unit_mean_corpus():
    """The shared 300-matrix unit-mean irreducible corpus of criterion 7."""
    rng = random.Random(20260815)
    out = []
    for _ in range(300):
        n = rng.randint(2, 6)
        out.append(unit_lambda_irreducible(rng, n))
    return out


# ---------------------------------------------------------------------------
# plain references for the power asymptotics: every power from scratch,
# nothing kept between steps or between horizon doublings


def scan_reference(m, budget):
    """(transient, period) of the first repeat among m^1 .. m^budget.

    Each new power is compared with every earlier one; None when no power
    repeats within the budget.
    """
    powers = [None, m]
    for t in range(2, budget + 1):
        powers.append(otimes(powers[-1], m))
        for p in range(1, t):
            if powers[t].allclose(powers[t - p]):
                return t - p, p
    return None


def fraction_scan_reference(rows, budget):
    """(transient, period) of the first repeat among the powers of a square
    grid of exact max-times Fractions, 0 the zero; None within the budget.

    No maxalg code runs: each power is a plain triple loop on Fractions
    and is compared with every earlier one.
    """
    n = len(rows)
    base = [list(row) for row in rows]
    powers = [None, base]
    for t in range(2, budget + 1):
        last = powers[-1]
        powers.append([
            [max(last[i][k] * base[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ])
        for s in range(1, t):
            if powers[s] == powers[t]:
                return s, t - s
    return None


def repeat_start_reference(m, gamma):
    """The least s >= 1 with m^(s + gamma) == m^s, for an exact m of
    either domain whose powers repeat with a period dividing gamma.

    No maxalg product runs: each power is a plain triple loop on the
    Fractions of grid_of, None the zero, and is compared with the power
    gamma before it.
    """
    step = operator.add if m.semiring.domain == PLUS else operator.mul
    base = grid_of(m)
    n = len(base)

    def times(x, y):
        return None if x is None or y is None else step(x, y)

    def best(values):
        values = [v for v in values if v is not None]
        return max(values) if values else None

    powers = [None, base]
    while True:
        last = powers[-1]
        powers.append([
            [best(times(last[i][k], base[k][j]) for k in range(n))
             for j in range(n)]
            for i in range(n)
        ])
        s = len(powers) - 1 - gamma
        if s >= 1 and powers[s] == powers[s + gamma]:
            return s


def _transient_reference(m, budget, gamma):
    """Transient of m's powers; the default budget doubles 7 times."""
    b = 3 * m.n * m.n + 2 * gamma if budget is None else budget
    for _ in range(1 if budget is not None else 8):
        found = scan_reference(m, b)
        if found is not None:
            return found[0]
        b *= 2
    raise IterationBudgetError("no repeat within the budget")


def csr_reference(a, budget=None):
    """(transient, certified_from, gamma) of csr_decompose(a, budget).

    C, S and R are rebuilt from the public functions, and every power in
    the certified window and in the downward onset walk is a fresh
    mat_power.
    """
    tilde, _mean = normalize_to_unit(a)
    sr = tilde.semiring
    cg = critical_graph(a)
    gamma = cg.cyclicity
    crit = cg.nodes
    n = tilde.n
    star = kleene_star(mat_power(tilde, gamma))
    c = star.restrict(range(n), crit)
    r = star.restrict(crit, range(n))
    pos = {node: k for k, node in enumerate(crit)}
    s_rows = [[sr.zero] * len(crit) for _ in crit]
    for i, j, _w in cg.graph.edges:
        s_rows[pos[i]][pos[j]] = tilde.rows[i][j]
    s = MaxMatrix(s_rows, sr)

    def agrees(t):
        rhs = otimes(otimes(c, mat_power(s, t)), r)
        return mat_power(tilde, t).allclose(rhs)

    start = max(
        _transient_reference(tilde, budget, gamma),
        _transient_reference(s, budget, gamma),
    )
    for t in range(start, start + gamma):
        if not agrees(t):
            raise CertificationError(f"window disagrees at {t}")
    onset = start
    while onset > 1 and agrees(onset - 1):
        onset -= 1
    return onset, start, gamma


def expansion_onset_reference(a, terms, horizon=None):
    """(validity_start, horizon) of nachtigall_expansion from its terms.

    Each horizon restarts at t = 1, and at every t each term rebuilds
    C S^t R and the full right-hand side is summed with scale and oplus.
    """
    sr = a.semiring
    n = a.n
    combined = math.lcm(*(t.gamma for t in terms)) if terms else 1

    def measure(h):
        power = a
        s_pows = [t.s for t in terms]
        coeffs = [t.coefficient for t in terms]
        agree = [False]
        for t in range(1, h + 1):
            if t > 1:
                power = otimes(power, a)
                s_pows = [otimes(p, term.s) for p, term in zip(s_pows, terms)]
                coeffs = [
                    sr.mul(cf, term.coefficient)
                    for cf, term in zip(coeffs, terms)
                ]
            rhs = MaxMatrix.zeros(n, n, semiring=sr)
            for term, sp, cf in zip(terms, s_pows, coeffs):
                prod = otimes(otimes(term.c, sp), term.r)
                rhs = oplus(rhs, prod.scale(cf))
            agree.append(power.allclose(rhs))
        v = h + 1
        while v > 1 and agree[v - 1]:
            v -= 1
        return v

    explicit = horizon is not None
    h = horizon if explicit else 3 * n * n + 2 * combined
    for _ in range(1 if explicit else 8):
        v = measure(h)
        if v <= h - 2 * combined:
            return v, h
        if not explicit:
            h *= 2
    return None, h


# ---------------------------------------------------------------------------
# kernel references: the semiring-generic loops the float engine replaced


def closure_reference(rows, ops, diverges=None):
    """Floyd-Warshall closure folding ops.add and ops.mul, zeros skipped.

    The generic loop of matrix.closure_rows, which float semirings no
    longer run; same contract.
    """
    add, mul, is_zero = ops.add, ops.mul, ops.is_zero
    d = [list(row) for row in rows]
    n = len(d)
    for k in range(n):
        dk = d[k]
        if diverges is not None and diverges(dk[k]):
            return None
        support = [j for j, v in enumerate(dk) if not is_zero(v)]
        for i in range(n):
            dik = d[i][k]
            if is_zero(dik):
                continue
            di = d[i]
            for j in support:
                di[j] = add(di[j], mul(dik, dk[j]))
    return d


def karp_reference(sr, rows, comp):
    """Karp's best mean pair on one component, folding the semiring's ops
    and comparing every quotient with gmean_cmp; the float mean of the
    library before Howard's certificate replaced it. A float walk weight
    that overflows to inf in the last row of the table is refused with
    the library's float-range ModeError."""
    m = len(comp)
    index = {v: t for t, v in enumerate(comp)}
    in_edges = [[] for _ in comp]
    for u in comp:
        for t, w in enumerate(rows[u]):
            if t in index and not sr.is_zero(w):
                in_edges[index[t]].append((index[u], w))
    table = [[sr.one] + [sr.zero] * (m - 1)]
    for _ in range(m):
        prev = table[-1]
        nxt = []
        for v in range(m):
            acc = sr.zero
            for u, w in in_edges[v]:
                if not sr.is_zero(prev[u]):
                    acc = sr.add(acc, sr.mul(prev[u], w))
            nxt.append(acc)
        table.append(nxt)
    best = None
    last = table[m]
    if not sr.exact and math.inf in last:
        raise float_range_error("a walk weight in Karp's table")
    for v in range(m):
        if sr.is_zero(last[v]):
            continue
        inner = None
        for k in range(m):
            if sr.is_zero(table[k][v]):
                continue
            pair = (sr.div(last[v], table[k][v]), m - k)
            if inner is None or gmean_cmp(sr, pair, inner) < 0:
                inner = pair
        if inner is not None and (
            best is None or gmean_cmp(sr, inner, best) > 0
        ):
            best = inner
    return best


def cyclecover_reference(b):
    """is_max_balanced_cyclecover by one DFS per entry, O(n^4): from j,
    follow every edge u -> v with sr.ge(b[u][v], w), zero entries
    included, and look for i."""
    sr = b.semiring
    n = b.n
    for i in range(n):
        for j in range(n):
            w = b.rows[i][j]
            if sr.is_zero(w) or i == j:
                continue
            seen = {j}
            stack = [j]
            found = False
            while stack:
                u = stack.pop()
                if u == i:
                    found = True
                    break
                for v in range(n):
                    if v not in seen and sr.ge(b.rows[u][v], w):
                        seen.add(v)
                        stack.append(v)
            if not found:
                return False
    return True


def threshold_spectrum_reference(a):
    """threshold_spectrum by one search per node and level: at each
    distinct nonzero entry value theta, decreasing, the nodes that each
    node reaches in one or more steps on entries x with sr.ge(x, theta);
    a component is a class of mutual reach, trivial when it is one node
    that does not reach itself. A level whose decomposition equals the
    one listed before it is left out."""
    sr = a.semiring
    n = a.n
    values = sorted(
        {w for row in a.rows for w in row if not sr.is_zero(w)}, reverse=True
    )
    out = []
    for theta in values:
        succ = [
            [j for j, x in enumerate(row)
             if not sr.is_zero(x) and sr.ge(x, theta)]
            for row in a.rows
        ]
        reach = []
        for u in range(n):
            seen = set(succ[u])
            stack = list(seen)
            while stack:
                for v in succ[stack.pop()]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            reach.append(seen)
        components, trivial, placed = [], [], set()
        for u in range(n):
            if u in placed:
                continue
            comp = tuple(
                v for v in range(n)
                if v == u or (v in reach[u] and u in reach[v])
            )
            placed.update(comp)
            components.append(comp)
            trivial.append(comp == (u,) and u not in reach[u])
        dec = SccDecomposition(tuple(components), tuple(trivial))
        if not out or out[-1][1] != dec:
            out.append((theta, dec))
    return tuple(out)


def max_balance_reference(a):
    """max_balance's (scaling entries, balanced rows, levels, degraded) by
    dense levels, as it ran before levels lived on nonzero patterns.

    Every level rescales all n^2 entries, a[i][j] x[j] / x[i] in the
    semiring's mul and div, and contracts each group pair by a reduce of
    Semiring.add over all of its entries, zeros included. The levels'
    analyses are the library's own; the certificate checks are left out.
    """
    def dense_scaled(rows, x, sr):
        return [
            [sr.div(sr.mul(v, x[j]), x[i]) for j, v in enumerate(row)]
            for i, row in enumerate(rows)
        ]

    def component(sub, sr):
        members = [[k] for k in range(sub.n)]
        cur = sub
        x_local = [sr.one] * sub.n
        levels = []
        while cur.n > 1:
            an = spectral_analysis(cur)
            crit_nodes = an.critical.nodes
            x_cur = an.star_columns(crit_nodes)
            levels.append(an.mean.pair())
            if any(sr.is_zero(v) for v in x_cur):
                raise ModeError("a balancing scale underflows the float range")
            for c, mult in enumerate(x_cur):
                for p in members[c]:
                    x_local[p] = sr.mul(x_local[p], mult)
            scaled = dense_scaled(cur.rows, x_cur, sr)
            groups = sorted(
                list(an.critical.components)
                + [(k,) for k in range(cur.n) if k not in crit_nodes],
                key=min,
            )
            members = [
                sorted(p for c in g for p in members[c]) for g in groups
            ]
            cur = MaxMatrix._raw(
                [
                    [
                        sr.zero if gi is gj else reduce(
                            sr.add,
                            [scaled[u][v] for u in gi for v in gj],
                            sr.zero,
                        )
                        for gj in groups
                    ]
                    for gi in groups
                ],
                sr,
            )
        return x_local, levels

    def core(a):
        sr = a.semiring
        g = Digraph(a.n, [
            (i, j, w)
            for i, row in enumerate(a.rows)
            for j, w in enumerate(row)
            if not sr.is_zero(w)
        ], sr)
        dec = scc(g)
        for i, j, _w in g.edges:
            if i != j and dec.component_of(i) != dec.component_of(j):
                raise NoScalingError(f"entry ({i}, {j}) bridges")
        x = [sr.one] * a.n
        all_levels = []
        for comp in dec.components:
            if len(comp) == 1:
                continue
            x_local, levels = component(a.restrict(comp), sr)
            for k, node in enumerate(comp):
                x[node] = x_local[k]
            all_levels.append(tuple(levels))
        balanced = tuple(map(tuple, dense_scaled(a.rows, x, sr)))
        return tuple(x), balanced, tuple(all_levels)

    try:
        return core(a) + (False,)
    except ExactnessError:
        if not a.semiring.exact:
            raise
        target = Semiring(a.semiring.domain, exact=False)
        return core(semiring_convert(a, target)) + (True,)


def dense_level(sr, succ):
    """The matrix of a balancing level's successor lists: their entries,
    the zero elsewhere."""
    rows = [[sr.zero] * len(succ) for _ in succ]
    for row, out in zip(rows, succ):
        for j, v in out:
            row[j] = v
    return MaxMatrix._raw(rows, sr)


def criteria_corpus():
    """Criteria 4, 7, 10, 12 and 13 inputs and exact_powers-style ones,
    from the criteria's own generators and seeds."""
    rng = random.Random(104)
    for _ in range(80):
        yield random_matrix(rng, rng.randint(1, 6),
                            density=rng.uniform(0.2, 0.7))
    yield from unit_mean_corpus()[::3]
    rng = random.Random(110)
    for _ in range(30):
        yield two_level_planted(rng, rng.randint(3, 6))[0]
    rng = random.Random(112)
    for _ in range(80):
        yield random_irreducible(rng, rng.randint(2, 8))
    rng = random.Random(113)
    for _ in range(30):
        yield from polynomial_pair(rng, rng.randint(2, 5))[:2]
    rng = random.Random(3)
    for _ in range(30):
        yield unit_lambda_irreducible(rng, rng.randint(4, 9))
        yield two_level_planted(rng, rng.randint(4, 6))[0]


# ---------------------------------------------------------------------------
# call counting


def count_calls(monkeypatch, name):
    """Route every maxalg module's ``name`` through a counting wrapper.

    Returns the list of argument tuples of the calls made, in order. Every
    module binding the same function is patched, so calls from inside the
    library count too.
    """
    modules = [
        mod for key, mod in list(sys.modules.items())
        if key == "maxalg" or key.startswith("maxalg.")
    ]
    original = next(
        getattr(mod, name) for mod in modules if hasattr(mod, name)
    )
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for mod in modules:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls
