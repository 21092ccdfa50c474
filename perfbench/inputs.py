"""Seeded input generators for the benchmark workloads.

Every matrix is a plain list of rows. Exact max-times entries are
Fractions with 0 as the semiring zero; float entries are floats with
0.0 as zero. Nothing here imports maxalg, so the library only ever sees
finished inputs, and nothing is imported from the test suite, so editing
a test cannot shift the benchmark.

Instance ``i`` of a workload draws from its own ``random.Random`` keyed by
(workload, seed, i), so any instance can be rebuilt alone and the same
seed always gives the same inputs. Sizes are not drawn at random: each
kind of instance walks a seed-shuffled cycle of its size range, so every
run sees nearly the same size mix and the per-run medians stay steady.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from checks import mat_mul


def instance_rng(workload, seed, index):
    return random.Random(f"{workload}/{seed}/{index}")


class SizeCycle:
    """Sizes lo..hi in a seed-shuffled order, repeated."""

    def __init__(self, workload, seed, kind, lo, hi):
        self.sizes = list(range(lo, hi + 1))
        random.Random(f"{workload}/{seed}/sizes/{kind}").shuffle(self.sizes)

    def __getitem__(self, j):
        return self.sizes[j % len(self.sizes)]


def pattern_slot(pattern, i):
    """(kind, j) for job i: the kind from the repeating pattern, and how
    many jobs of that kind came before it."""
    kind = pattern[i % len(pattern)]
    per_round = pattern.count(kind)
    before = pattern[: i % len(pattern)].count(kind)
    return kind, (i // len(pattern)) * per_round + before


# ---------------------------------------------------------------------------
# exact max-times generators


def rand_positive(rng):
    """p/q with 1 <= p, q <= 8."""
    return Fraction(rng.randint(1, 8), rng.randint(1, 8))


def sub_unit(rng):
    """A positive Fraction strictly below 1 with denominator 8."""
    return Fraction(rng.randint(1, 7), 8)


def random_irreducible(rng, n, density=0.3, entry=rand_positive,
                       loops=True):
    """Random pattern plus a planted spanning cycle, hence one component.

    Without loops every cycle has length two or more, so the top mean of
    exact entries is almost always an irrational root.
    """
    rows = [
        [entry(rng) if rng.random() < density and (loops or i != j) else 0
         for j in range(n)]
        for i in range(n)
    ]
    order = list(range(n))
    rng.shuffle(order)
    for u, v in zip(order, order[1:] + order[:1]):
        rows[u][v] = entry(rng)
    return rows


def unit_lambda_irreducible(rng, n):
    """Irreducible matrix whose maximum cycle geometric mean is exactly 1.

    One or more planted cycles carry weight 1 on every edge; every other
    entry, the spanning connectivity cycle included, lies strictly below
    1, so the critical graph is the union of the planted unit cycles.
    """
    rows = [[Fraction(0)] * n for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for u, v in zip(order, order[1:] + order[:1]):
        rows[u][v] = sub_unit(rng)
    for _ in range(rng.randint(1, 2)):
        nodes = rng.sample(range(n), rng.randint(1, n))
        for u, v in zip(nodes, nodes[1:] + nodes[:1]):
            rows[u][v] = Fraction(1)
    for i in range(n):
        for j in range(n):
            if rows[i][j] == 0 and rng.random() < 0.25:
                rows[i][j] = sub_unit(rng)
    return rows


def scaled(rows, lam):
    return [[v * lam for v in row] for row in rows]


def random_lambda(rng):
    """A rational scale factor p/q with small p and q, never 1."""
    while True:
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if lam != 1:
            return lam


def two_level_planted(rng, n):
    """Two disjoint planted cycles with distinct rational means.

    Every other edge touches a planted node with weight at most half the
    smaller mean, or runs forward in a fixed order over the leftover
    nodes, so the expansion peels exactly the two planted cycles and each
    stage mean stays rational.
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
    rows = [[Fraction(0)] * n for _ in range(n)]
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
    return rows


def max_polynomial(a, coeffs):
    """c_0 I + c_1 A + c_2 A^2 + ... in the max-times sense."""
    n = len(a)
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    out = [[Fraction(0)] * n for _ in range(n)]
    for k, c in enumerate(coeffs):
        if k:
            power = mat_mul(power, a)
        out = [[max(o, c * p) for o, p in zip(orow, prow)]
               for orow, prow in zip(out, power)]
    return out


def polynomial_pair(rng, n):
    """Two commuting matrices: max-polynomials of one unit-mean base.

    The linear coefficient is forced positive so both polynomials keep
    the base pattern and stay irreducible.
    """
    base = unit_lambda_irreducible(rng, n)

    def draw():
        coeffs = [Fraction(rng.randint(0, 8), rng.randint(1, 4))
                  for _ in range(4)]
        coeffs[1] = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        return coeffs

    return max_polynomial(base, draw()), max_polynomial(base, draw())


def dominant_diagonal(rng, n):
    """Nonzero diagonal in [2, 4], off-diagonal entries at most 1.

    Every ratio a_ij / a_jj or a_ij / a_ii is below 1, so the rowcol
    constraint matrix has no cycle above one and a scaling exists.
    """
    rows = [
        [sub_unit(rng) if rng.random() < 0.4 else Fraction(0)
         for _ in range(n)]
        for _ in range(n)
    ]
    for i in range(n):
        rows[i][i] = Fraction(rng.randint(8, 16), 4)
    return rows


def signed_moduli(rng, n, passes):
    """Signed grid with a nonzero diagonal and a known moduli-test answer.

    Passing grids keep every off-diagonal modulus below every diagonal
    modulus, so each cyclic product stays below its diagonal product.
    Failing grids add one 2-cycle whose product exceeds the diagonal
    product at its two nodes.
    """
    def signed(v):
        return v if rng.random() < 0.5 else -v

    rows = [
        [signed(Fraction(rng.randint(1, 3), 4)) if rng.random() < 0.75
         else Fraction(0) for _ in range(n)]
        for _ in range(n)
    ]
    for i in range(n):
        rows[i][i] = signed(Fraction(rng.randint(4, 8), 4))
    if not passes:
        u, v = rng.sample(range(n), 2)
        rows[u][v] = signed(Fraction(rng.randint(9, 16), 4))
        rows[v][u] = signed(Fraction(rng.randint(9, 16), 4))
    return rows


# ---------------------------------------------------------------------------
# float max-times generator


def random_irreducible_float(rng, n):
    """Like random_irreducible, weights log-uniform over e^-3..e^3."""
    def entry(r):
        return math.exp(r.uniform(-3.0, 3.0))

    return random_irreducible(rng, n, entry=entry)


# ---------------------------------------------------------------------------
# MatrixFile text


def _token(v):
    if v == 0:
        return "."
    if isinstance(v, Fraction):
        return str(v)
    return repr(float(v))


def matrix_file_text(rows, mode="exact"):
    """MatrixFile text of a max-times grid (signed entries are written as is)."""
    header = f"maxtimes {len(rows)} {mode}"
    return "\n".join([header] + [" ".join(_token(v) for v in row)
                                 for row in rows]) + "\n"
