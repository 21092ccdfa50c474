"""Exact spectral analysis against a plain-Fraction reference.

maxalg certifies exact means with subeigenvectors on unreduced int pairs
and reads the critical edges off their tight edges. The reference here
is the textbook algorithms in plain Fraction arithmetic, written
independently: Karp's theorem over all
start nodes, Floyd-Warshall on the normalized matrix, and for an
irrational mean a Floyd-Warshall on (q, m) values compared by cross
powers. mean pair and witness, critical edges and cyclicity, and for a
rational mean tilde and star must all agree with it.
"""

import math
import random
from fractions import Fraction

from maxalg import critical_graph, max_cycle_gmean, spectral_analysis

from helpers import (
    fmat,
    random_irreducible,
    symbolic_critical_edges,
    unit_lambda_irreducible,
)


def _gmean_sign(pair_a, pair_b):
    """Sign of wa^(1/la) - wb^(1/lb), by cross powers."""
    (wa, la), (wb, lb) = pair_a, pair_b
    x, y = wa**lb, wb**la
    return (x > y) - (x < y)


def karp_reference(rows):
    """The maximum cycle mean as a (weight, length) pair, or None if acyclic.

    Karp's theorem with every node a start: d[k][v] is the best weight of
    a walk of exactly k edges ending at v, and the mean is the max over v
    of the min over k of (d[n][v] / d[k][v])^(1 / (n - k)).
    """
    n = len(rows)
    d = [[Fraction(1)] * n]
    for _ in range(n):
        prev = d[-1]
        d.append(
            [
                max(prev[u] * rows[u][v] for u in range(n))
                for v in range(n)
            ]
        )
    best = None
    for v in range(n):
        if not d[n][v]:
            continue
        inner = None
        for k in range(n):
            if d[k][v]:
                pair = (d[n][v] / d[k][v], n - k)
                if inner is None or _gmean_sign(pair, inner) < 0:
                    inner = pair
        if best is None or _gmean_sign(inner, best) > 0:
            best = inner
    return best


def exact_root(w, l):
    """The rational l-th root of w, or None."""
    def int_root(x):
        lo, hi = 0, 1 << (x.bit_length() // l + 1)
        while lo < hi:  # least lo with lo^l >= x
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if mid**l < x else (lo, mid)
        return lo if lo**l == x else None

    p, q = int_root(w.numerator), int_root(w.denominator)
    return None if p is None or q is None else Fraction(p, q)


def rational_reference(rows, lam):
    """tilde = A / lam, its Floyd-Warshall closure, and the critical edges."""
    n = len(rows)
    tilde = [[v / lam for v in row] for row in rows]
    d = [list(row) for row in tilde]
    for k in range(n):
        for i in range(n):
            if not d[i][k]:
                continue
            for j in range(n):
                via = d[i][k] * d[k][j]
                if via > d[i][j]:
                    d[i][j] = via
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if tilde[i][j] and tilde[i][j] * (1 if i == j else d[j][i]) == 1
    ]
    star = [
        [max(v, Fraction(1)) if i == j else v for j, v in enumerate(row)]
        for i, row in enumerate(d)
    ]
    return tilde, star, edges


def cyclicity_reference(n, edges):
    """lcm over the critical components of the gcd of their cycle lengths.

    Every critical edge lies on a critical cycle, so no edge joins two
    components, and a breadth-first search from any node of a component
    reaches all of it; the gcd of level(u) + 1 - level(v) over its edges
    is the gcd of its cycle lengths.
    """
    succ = [[] for _ in range(n)]
    for i, j in edges:
        succ[i].append(j)
    level = {}
    total = 1
    for root in range(n):
        if root in level or not succ[root]:
            continue
        level[root] = 0
        queue = [root]
        for u in queue:
            for v in succ[u]:
                if v not in level:
                    level[v] = level[u] + 1
                    queue.append(v)
        g = 0
        for u in queue:
            for v in succ[u]:
                g = math.gcd(g, level[u] + 1 - level[v])
        total = total * g // math.gcd(total, g)
    return total


def assert_matches_reference(a):
    """Check one exact max-times matrix; returns 'rational', 'irrational' or
    'acyclic'."""
    rows = a.rows
    analysis = spectral_analysis(a)
    mean = max_cycle_gmean(a)
    want = karp_reference(rows)
    if want is None:
        assert mean.is_zero and mean.witness is None
        assert analysis.critical is None
        return "acyclic"
    # the reported pair is the witness's: same mean, read off its edges
    assert _gmean_sign(mean.pair(), want) == 0
    nodes = mean.witness.nodes
    assert nodes[0] == nodes[-1]
    assert len(nodes) - 1 == mean.length == len(set(nodes[:-1]))
    weight = Fraction(1)
    for u, v in zip(nodes, nodes[1:]):
        weight *= rows[u][v]
    assert weight == mean.weight
    lam = exact_root(*want)
    if lam is None:
        edges = symbolic_critical_edges(rows, want)
        assert analysis.lam is analysis.tilde is analysis.star is None
        kind = "irrational"
    else:
        tilde, star, edges = rational_reference(rows, lam)
        assert analysis.lam == lam
        assert [list(row) for row in analysis.tilde.rows] == tilde
        assert [list(row) for row in analysis.star.rows] == star
        for grid in (analysis.tilde.rows, analysis.star.rows):
            assert all(type(v) is Fraction for row in grid for v in row)
        kind = "rational"
    assert set(zip(nodes, nodes[1:])) <= set(edges)
    crit = critical_graph(a)
    assert crit.edges == tuple(edges)
    assert crit.cyclicity == cyclicity_reference(a.n, edges)
    return kind


def mixed_entry(rng):
    den = rng.choice([1, 2, 3, 8, rng.randint(1, 9), rng.randint(10, 99),
                      2 ** rng.randint(5, 20)])
    return Fraction(rng.randint(1, 3 * den), den)


def sparse(rng, n, density, loops):
    return [
        [
            mixed_entry(rng) if (loops or i != j) and rng.random() < density
            else 0
            for j in range(n)
        ]
        for i in range(n)
    ]


def test_seeded_matrices_with_mixed_denominators():
    rng = random.Random(71)
    kinds = []
    for n in (3, 5, 8, 12, 17, 24, 33, 40):
        rows = sparse(rng, n, 0.3, loops=True)
        if n > 16:
            # a loop above every other entry keeps the mean rational, so
            # the reference stays a plain Fraction Floyd-Warshall
            rows[n // 2][n // 2] = Fraction(4)
        kinds.append(assert_matches_reference(fmat(rows)))
    assert kinds.count("rational") >= 4


def test_pairwise_coprime_denominators():
    # every entry has its own prime denominator near 2^17
    primes = [
        p
        for p in range(131101, 150000)
        if all(p % d for d in range(2, int(p**0.5) + 1))
    ]
    rng = random.Random(3)
    dens = iter(primes[:900])
    rows = [
        [Fraction(rng.randint(1, 2**17), next(dens)) for _ in range(30)]
        for _ in range(30)
    ]
    rows[7][7] = Fraction(2**17)
    assert assert_matches_reference(fmat(rows)) == "rational"


def test_reducible_with_zero_rows_and_columns():
    rng = random.Random(5)
    kinds = set()
    for n in (4, 7, 11, 16, 22):
        rows = sparse(rng, n, 0.25, loops=True)
        for t in rng.sample(range(n), 2):
            rows[t] = [0] * n
        for t in rng.sample(range(n), 2):
            for row in rows:
                row[t] = 0
        kinds.add(assert_matches_reference(fmat(rows)))
    assert kinds >= {"rational", "irrational"}
    assert assert_matches_reference(fmat([[0, 3], [0, 0]])) == "acyclic"


def test_planted_unit_means_tie_everywhere():
    # many cycles of mean one, moved by a diagonal similarity with mixed
    # denominators and scaled by a rational lam, so the critical graph
    # is large and every closure pass meets exact ties
    rng = random.Random(13)
    for n in (6, 10, 15, 20, 28):
        a = unit_lambda_irreducible(rng, n, extra_cycles=6)
        scale = [mixed_entry(rng) for _ in range(n)]
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        rows = [
            [lam * v * scale[j] / scale[i] for j, v in enumerate(row)]
            for i, row in enumerate(a.rows)
        ]
        assert assert_matches_reference(fmat(rows)) == "rational"
        assert len(critical_graph(fmat(rows)).edges) >= n // 2


def test_loop_free_irrational_means():
    rng = random.Random(29)
    kinds = []
    for n in (4, 6, 9, 12, 16, 20):
        a = random_irreducible(rng, n, density=0.3, entry=mixed_entry)
        rows = [
            [0 if i == j else v for j, v in enumerate(row)]
            for i, row in enumerate(a.rows)
        ]
        kinds.append(assert_matches_reference(fmat(rows)))
    assert kinds.count("irrational") >= 4


def test_certificates_past_n_28():
    # past the sizes above: at n = 32 and 40, a loop-free matrix with an
    # irrational mean and a planted one with a rational mean
    rng = random.Random(41)
    for n in (32, 40):
        a = random_irreducible(rng, n, density=0.1, entry=mixed_entry)
        rows = [
            [0 if i == j else v for j, v in enumerate(row)]
            for i, row in enumerate(a.rows)
        ]
        assert assert_matches_reference(fmat(rows)) == "irrational"
        b = unit_lambda_irreducible(rng, n, extra_cycles=6)
        scale = [mixed_entry(rng) for _ in range(n)]
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        rows = [
            [lam * v * scale[j] / scale[i] for j, v in enumerate(row)]
            for i, row in enumerate(b.rows)
        ]
        assert assert_matches_reference(fmat(rows)) == "rational"
