"""Float engine kernels against the semiring-generic loops they replaced,
and float spectra against Karp's table and brute force.

closure_rows runs a dedicated inner loop in float mode. It must give the
generic fold's answer bit for bit (compared by repr, which tells -0.0
from 0.0 and shows inf and nan), in float max-times and float max-plus,
at the default tolerance and at tolerance 0.

Float spectral_analysis certifies its mean with Howard's policy
iteration on the logs of the entries. On the same grids and in the same
four modes, check_spectra compares it with helpers.karp_reference, the
old float mean, and with brute force over the elementary cycles of the
entries read as exact Fractions.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from maxalg import (
    FLOAT_PLUS,
    FLOAT_TIMES,
    NEG_INF,
    PLUS,
    TIMES,
    DivergenceError,
    MaxMatrix,
    ModeError,
    Semiring,
    digraph_of,
    gmean_cmp,
    kleene_star,
    max_balance,
    scc,
    semiring_convert,
    spectral_analysis,
)
from maxalg.matrix import closure_rows
from maxalg.semiring import log_terms

from helpers import (
    closure_reference,
    count_calls,
    critical_edges_brute,
    cycles_brute,
    karp_reference,
    random_irreducible,
)

FLOAT_MODES = [
    Semiring(domain, False, tol)
    for domain in (TIMES, PLUS)
    for tol in (1e-9, 0.0)
]

# entries that stress the tie rule, overflow next to zeros, and underflow
TIMES_SPECIALS = [0.0, -0.0, 1.0, 1.0 + 2**-52, 1.0 - 2**-53, 2.0, 1e200, 1e-200]
PLUS_SPECIALS = [NEG_INF, 0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 2**-52]


@st.composite
def float_grids(draw, domain):
    n = draw(st.integers(min_value=1, max_value=7))
    if domain == TIMES:
        entry = st.one_of(
            st.sampled_from(TIMES_SPECIALS),
            st.floats(min_value=0.0, max_value=4.0),
        )
    else:
        entry = st.one_of(
            st.sampled_from(PLUS_SPECIALS),
            st.floats(min_value=-4.0, max_value=4.0),
        )
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


def kernel_reprs(rows, sr):
    """repr of the new and the reference answers of the closure."""
    diverges = lambda v: sr.lt(sr.one, v)  # kleene_star's early stop
    new = [closure_rows(rows, sr), closure_rows(rows, sr, diverges)]
    ref = [closure_reference(rows, sr), closure_reference(rows, sr, diverges)]
    return repr(new), repr(ref)


def _log_mean(domain, weight, length):
    """The mean of an exact cycle weight as a float: w / l in max-plus,
    ln w / l in max-times, at any size of w."""
    if domain == PLUS:
        return float(weight / length)
    p, q = log_terms(weight)
    return (p - q) / length


def _fits_float(domain, weight):
    """Whether an exact cycle weight keeps its value as a float."""
    try:
        value = float(weight)
    except OverflowError:
        return False
    return domain == PLUS or bool(value)


def _karp_mean(rows, sr):
    """karp_reference's best pair over the nontrivial components, or None
    when its table has no cycle left or refuses an overflowed walk."""
    best = None
    try:
        dec = scc(digraph_of(MaxMatrix._raw(rows, sr)))
        for comp in dec.nontrivial_components:
            pair = karp_reference(sr, rows, comp)
            if pair is not None and (
                best is None or gmean_cmp(sr, pair, best) > 0
            ):
                best = pair
    except ModeError:
        return None
    return best


def check_spectra(rows, sr):
    """Float spectral_analysis of a grid against Karp's table and the
    exact cycles of its entries.

    The certificate either refuses with ModeError, and then some cycle at
    the exact top mean has a weight that leaves the float range, or its
    mean is the exact top mean. Both are compared under the semiring's
    tolerance, or 1e-12 at tolerance 0: the float logs round. Karp's
    table can lose walks to underflow; where its mean is still the top
    one, the two means agree. Every exactly critical edge is critical in
    float, and every critical edge lies on a cycle at the top mean.
    """
    near = Semiring(sr.domain, False, max(sr.tol, 1e-12))
    exact_sr = Semiring(sr.domain)
    exact = MaxMatrix(
        [[exact_sr.zero if sr.is_zero(v) else Fraction(v) for v in row]
         for row in rows],
        exact_sr,
    )
    cycles = [
        (nodes, _log_mean(sr.domain, w, len(nodes) - 1), w)
        for nodes, w in cycles_brute(exact)
    ]
    top = max((m for _nodes, m, _w in cycles), default=None)

    def at_top(m):
        return abs(m - top) <= near.tol * max(1.0, abs(top))

    try:
        an = spectral_analysis(MaxMatrix._raw(rows, sr))
    except ModeError:
        assert any(
            at_top(m) and not _fits_float(sr.domain, w)
            for _nodes, m, w in cycles
        )
        return
    if top is None:
        assert an.mean.is_zero
        return
    mean = an.mean
    assert at_top(_log_mean(sr.domain, Fraction(mean.weight), mean.length))
    karp = _karp_mean(rows, sr)
    if karp is not None and at_top(
        _log_mean(sr.domain, Fraction(karp[0]), karp[1])
    ):
        assert gmean_cmp(near, mean.pair(), karp) == 0
    edges = set(an.critical.edges)
    assert critical_edges_brute(exact) <= edges
    assert edges <= {
        edge
        for nodes, m, _w in cycles
        if at_top(m)
        for edge in zip(nodes, nodes[1:])
    }


@pytest.mark.parametrize("domain", [TIMES, PLUS])
def test_float_kernels_match_reference_on_random_grids(domain):
    @seed(1101)
    @settings(max_examples=150, deadline=None)
    @given(float_grids(domain))
    def check(rows):
        for sr in FLOAT_MODES:
            if sr.domain == domain:
                new, ref = kernel_reprs(rows, sr)
                assert new == ref
                check_spectra(rows, sr)

    check()


def test_float_max_balance_closes_once_per_level(monkeypatch):
    # each level reads the star of one spectral analysis; nothing else
    # closes, and the analyses themselves close nothing
    closures = count_calls(monkeypatch, "closure_rows")
    rng = random.Random(1105)
    for target in (FLOAT_TIMES, FLOAT_PLUS):
        a = semiring_convert(random_irreducible(rng, 9, density=0.5), target)
        before = len(closures)
        cert = max_balance(a)
        levels = sum(len(seq) for seq in cert.levels)
        assert levels >= 3
        assert len(closures) - before == levels


def test_float_kernels_match_reference_on_normalized_matrices():
    # a normalized matrix has cycles of weight one, so its closure meets
    # diagonal entries that round just above one
    rng = random.Random(1103)
    above_one = 0
    for _ in range(60):
        n = rng.randint(2, 12)
        rows = [
            [rng.uniform(0.1, 3.0) if rng.random() < 0.6 else 0.0
             for _ in range(n)]
            for _ in range(n)
        ]
        a = MaxMatrix(rows, Semiring(TIMES, False))
        tilde = spectral_analysis(a).tilde
        if tilde is None:
            continue
        for domain in (TIMES, PLUS):
            grid = tilde.rows
            if domain == PLUS:
                grid = [[math.log(v) if v else NEG_INF for v in row]
                        for row in grid]
            for sr in FLOAT_MODES:
                if sr.domain == domain:
                    new, ref = kernel_reprs(grid, sr)
                    assert new == ref
        closure = closure_rows(tilde.rows, tilde.semiring)
        above_one += any(closure[i][i] > 1.0 for i in range(n))
    assert above_one > 5


def test_signed_zero_ties_take_the_new_operand():
    # Semiring.add keeps the second operand on a tie; max would keep the
    # first. In max-plus -0.0 would survive at (0, 1); in max-times the
    # product 1e-200 * 1e-200 underflows to 0.0 and ties the -0.0 at (1, 1)
    cases = [
        (PLUS, [[NEG_INF, -0.0], [0.0, NEG_INF]], (0, 1)),
        (TIMES, [[1e-200, 1e-200], [1e-200, -0.0]], (1, 1)),
    ]
    for domain, rows, (i, j) in cases:
        for sr in FLOAT_MODES:
            if sr.domain != domain:
                continue
            closure = closure_rows(rows, sr)
            assert repr(closure) == repr(closure_reference(rows, sr))
            assert math.copysign(1.0, closure[i][j]) == 1.0


@pytest.mark.parametrize("domain", [TIMES, PLUS])
def test_overflowed_inf_next_to_zero_entries(domain):
    # the 2-cycle overflows to inf; node 2 reaches it only through zeros,
    # and inf * 0 (or inf + -inf) would be nan
    big, z = (1e200, 0.0) if domain == TIMES else (1e308, NEG_INF)
    rows = [[z, big, z], [big, z, z], [z, big, z]]
    for sr in FLOAT_MODES:
        if sr.domain != domain:
            continue
        closure = closure_rows(rows, sr)
        assert repr(closure) == repr(closure_reference(rows, sr))
        assert not any(math.isnan(v) for row in closure for v in row)
        assert closure[0][0] == math.inf
        assert repr(closure[0][2]) == repr(z)


def test_pivot_diagonal_rounding_above_one_is_read_live():
    # the normalized matrix of [[0, 2.91, 0], [0.83, 0.39, 0.21],
    # [2.95, 1.83, 1.01]]: pivot 1 meets d[1][1] = 1.0000000000000004 and
    # updates its own row before rows below read it; a snapshot of the
    # pivot row taken before that gives 1.8981759881905067 at (2, 0)
    tilde = [
        [0.0, 1.8724380086896182, 0.0],
        [0.5340630746434306, 0.2509453001336602, 0.13512439237966317],
        [1.8981759881905065, 1.1775125621656362, 0.6498839823974276],
    ]
    loose, tight = Semiring(TIMES, False), Semiring(TIMES, False, tol=0.0)
    closure = closure_rows(tilde, loose)
    assert repr(closure) == repr(closure_reference(tilde, loose))
    assert closure[1][1] == 1.0000000000000004
    assert closure[2][0] == 1.8981759881905071
    # the default tolerance takes the rounded diagonal as one; tolerance 0
    # sees a cycle above one and stops
    assert kleene_star(MaxMatrix._raw(tilde, loose))[2, 0] == closure[2][0]
    with pytest.raises(DivergenceError):
        kleene_star(MaxMatrix._raw(tilde, tight))


@pytest.mark.parametrize("domain", [TIMES, PLUS])
def test_kleene_star_divergence_stops_early(domain):
    heavy = [[0.0, 2.0], [1.0, 0.0]]
    if domain == PLUS:
        heavy = [[NEG_INF, 2.0], [1.0, NEG_INF]]
    for sr in FLOAT_MODES:
        if sr.domain != domain:
            continue
        diverges = lambda v: sr.lt(sr.one, v)
        assert closure_rows(heavy, sr, diverges) is None
        assert closure_reference(heavy, sr, diverges) is None
        with pytest.raises(DivergenceError) as err:
            kleene_star(MaxMatrix._raw(heavy, sr))
        assert err.value.witness.nodes in ((0, 1, 0), (1, 0, 1))
