"""Commuting pairs: shared eigenvectors, Boolean saturation, cycle witnesses."""

import random
from fractions import Fraction

import pytest

from maxalg import (
    EXACT_PLUS,
    EXACT_TIMES,
    FLOAT_PLUS,
    FLOAT_TIMES,
    NEG_INF,
    BooleanDigraphPair,
    Digraph,
    DimensionError,
    MaxMatrix,
    ModeError,
    NotCommutingError,
    NotIrreducibleError,
    PatternViolationError,
    Semiring,
    boolean_saturation_pair,
    common_eigenvector,
    commutes,
    commuting_cycle_witness,
    critical_graph,
    is_eigenvector,
    left_residual,
    mat_power,
    otimes,
    principal_eigenvector,
    saturation_graph,
    scc,
    semiring_convert,
    spectral_analysis,
)

from maxalg.commuting import _is_unit_matrix, common_saturation_pair

from helpers import fmat, polynomial_pair, unit_lambda_irreducible


def test_commutes_hand_values():
    a = fmat([[1, 1], [1, 0]])
    assert commutes(a, mat_power(a, 2))
    assert commutes(a, MaxMatrix.identity(2, EXACT_TIMES))
    # products are diag(1,0) and diag(0,1)
    up = fmat([[0, 1], [0, 0]])
    down = fmat([[0, 0], [1, 0]])
    assert not commutes(up, down)


# per semiring: near-unit diagonal values and off-diagonal values, the
# semiring's own one and zero among them, with float values on both sides
# of the 1e-9 tolerance
_UNIT_CASES = (
    (EXACT_TIMES, (1, 1, Fraction(10**12 + 1, 10**12), 2, 0),
     (0, 0, 0, Fraction(1, 10**12), 1)),
    (EXACT_PLUS, (0, 0, Fraction(1, 10**12), -1, NEG_INF),
     (NEG_INF, NEG_INF, NEG_INF, -1000, 0)),
    (FLOAT_TIMES, (1.0, 1.0 + 1e-12, 1.0 - 5e-10, 1.0 + 1e-6, 2.0, 0.0),
     (0.0, 0.0, 1e-300, 1e-12, 5e-10, 2e-9, 0.5)),
    (FLOAT_PLUS, (0.0, 1e-12, -5e-10, 1e-6, -1.0, NEG_INF),
     (NEG_INF, NEG_INF, NEG_INF, -1e300, 1e-12, -5.0)),
)


def test_the_unit_matrix_test_agrees_with_allclose():
    # _is_unit_matrix reads the nonzero pattern; allclose compares every
    # entry with the identity's under the mode's equality
    rng = random.Random(2719)
    for sr, diagonal, off in _UNIT_CASES:
        seen = {True: 0, False: 0}
        for _ in range(300):
            n = rng.randint(1, 4)
            sparse = rng.random() < 0.5
            rows = [
                [rng.choice(diagonal) if i == j
                 else sr.zero if sparse else rng.choice(off)
                 for j in range(n)]
                for i in range(n)
            ]
            m = MaxMatrix(rows, sr)
            want = m.allclose(MaxMatrix.identity(n, sr))
            assert _is_unit_matrix(m) is want, (sr, rows)
            seen[want] += 1
        assert min(seen.values()) >= 30, (sr, seen)


def test_commutes_input_checks():
    a = fmat([[1, 1], [1, 0]])
    b = fmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(DimensionError):
        commutes(a, b)
    f = semiring_convert(a, FLOAT_TIMES)
    with pytest.raises(ModeError):
        commutes(a, f)


def test_common_eigenvector_worked_example():
    p = fmat([[0, 1], [1, 0]])
    ones = fmat([[1, 1], [1, 1]])
    x, lam_a, lam_b = common_eigenvector(p, ones)
    assert lam_a == Fraction(1)
    assert lam_b == Fraction(1)
    assert list(x.entries) == [Fraction(1), Fraction(1)]
    assert is_eigenvector(p, x, lam_a)
    assert is_eigenvector(ones, x, lam_b)


def test_common_eigenvector_with_self():
    rng = random.Random(701)
    for _ in range(20):
        n = rng.randint(2, 5)
        a = unit_lambda_irreducible(rng, n)
        x, lam_a, lam_b = common_eigenvector(a, a)
        assert lam_a == lam_b == Fraction(1)
        assert is_eigenvector(a, x, lam_a)
        assert x.is_positive()


def test_common_eigenvector_with_identity():
    b = fmat([[0, 2], [Fraction(1, 2), 0]])
    eye = MaxMatrix.identity(2, EXACT_TIMES)
    x, lam_a, lam_b = common_eigenvector(eye, b)
    assert lam_a == Fraction(1)
    assert lam_b == Fraction(1)
    assert is_eigenvector(b, x, lam_b)
    assert x.is_positive()
    # swapped order reports the unit coefficient on the other side
    y, lam_a2, lam_b2 = common_eigenvector(b, eye)
    assert (lam_a2, lam_b2) == (Fraction(1), Fraction(1))
    assert is_eigenvector(b, y, lam_a2)
    # two identities: any positive vector works, all-ones returned
    z, one_a, one_b = common_eigenvector(eye, eye)
    assert one_a == one_b == Fraction(1)
    assert list(z.entries) == [Fraction(1), Fraction(1)]


def test_common_eigenvector_errors():
    up = fmat([[0, 1], [0, 0]])
    down = fmat([[0, 0], [1, 0]])
    with pytest.raises(NotCommutingError):
        common_eigenvector(up, down)
    # reducible non-unit matrix, commuting with itself
    tri = fmat([[1, 1], [0, 1]])
    with pytest.raises(NotIrreducibleError):
        common_eigenvector(tri, tri)
    # the unit shortcut still demands an irreducible partner
    eye = MaxMatrix.identity(2, EXACT_TIMES)
    with pytest.raises(NotIrreducibleError):
        common_eigenvector(eye, tri)
    # also when, with no tolerance, the partner's critical cycles fail to
    # certify in float arithmetic
    tight = Semiring("max-times", exact=False, tol=0.0)
    diag = MaxMatrix([[1e97, 0], [0, 1e-68]], tight)
    with pytest.raises(NotIrreducibleError):
        common_eigenvector(MaxMatrix.identity(2, tight), diag)
    with pytest.raises(NotIrreducibleError):
        common_eigenvector(diag, diag)


def test_boolean_saturation_pair_worked_example():
    p = fmat([[0, 1], [1, 0]])
    ones = fmat([[1, 1], [1, 1]])
    pair = boolean_saturation_pair(p, ones, (Fraction(1), Fraction(1)))
    assert pair.verified_commuting
    assert {(i, j) for i, j, _w in pair.g1.edges} == {(0, 1), (1, 0)}
    assert {(i, j) for i, j, _w in pair.g2.edges} == {
        (0, 0), (0, 1), (1, 0), (1, 1)
    }
    m1, m2 = pair.boolean_matrices()
    assert m1 == fmat([[0, 1], [1, 0]])
    assert m2 == ones


def test_boolean_saturation_pair_identity_and_self():
    eye = MaxMatrix.identity(2, EXACT_TIMES)
    pair = boolean_saturation_pair(eye, eye, (Fraction(2), Fraction(5)))
    assert {(i, j) for i, j, _w in pair.g1.edges} == {(0, 0), (1, 1)}
    assert {(i, j) for i, j, _w in pair.g2.edges} == {(0, 0), (1, 1)}
    a = fmat([[1, 1], [1, 0]])
    x = principal_eigenvector(a)
    same = boolean_saturation_pair(a, a, x)
    assert same.g1.edges == same.g2.edges


def test_boolean_saturation_pair_rejects_non_commuting():
    # saturated patterns I+E01 and I+E12 disagree at entry (0, 2)
    a = fmat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    b = fmat([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    x = (Fraction(1), Fraction(1), Fraction(1))
    with pytest.raises(NotCommutingError):
        boolean_saturation_pair(a, b, x)


def _check_cycle(path, g, allowed):
    sr = g.semiring
    nodes = path.nodes
    assert len(nodes) >= 2
    assert nodes[0] == nodes[-1]
    assert set(nodes) <= set(allowed)
    w = sr.one
    for t in range(len(nodes) - 1):
        step = g.weight(nodes[t], nodes[t + 1])
        assert not sr.is_zero(step)
        w = sr.mul(w, step)
    assert sr.eq(w, path.weight)


def test_commuting_cycle_witness_worked_examples():
    sr = EXACT_TIMES
    loop = Digraph(1, [(0, 0, sr.one)], sr)
    c1, c2 = commuting_cycle_witness(BooleanDigraphPair(g1=loop, g2=loop))
    assert c1.nodes == (0, 0)
    assert c2.nodes == (0, 0)
    two_cycle = Digraph(2, [(0, 1, sr.one), (1, 0, sr.one)], sr)
    complete = Digraph(
        2,
        [(i, j, sr.one) for i in range(2) for j in range(2)],
        sr,
    )
    pair = BooleanDigraphPair(g1=two_cycle, g2=complete)
    c1, c2 = commuting_cycle_witness(pair)
    _check_cycle(c1, two_cycle, scc(complete).nontrivial_nodes())
    _check_cycle(c2, complete, scc(two_cycle).nontrivial_nodes())


def test_commuting_cycle_witness_out_degree_zero():
    sr = EXACT_TIMES
    dangling = Digraph(2, [(0, 1, sr.one)], sr)
    complete = Digraph(
        2,
        [(i, j, sr.one) for i in range(2) for j in range(2)],
        sr,
    )
    with pytest.raises(PatternViolationError):
        commuting_cycle_witness(BooleanDigraphPair(g1=dangling, g2=complete))


def test_commuting_cycle_witness_rechecks_commutation():
    sr = EXACT_TIMES
    g1 = Digraph(
        3, [(0, 0, sr.one), (1, 1, sr.one), (2, 2, sr.one), (0, 1, sr.one)],
        sr,
    )
    g2 = Digraph(
        3, [(0, 0, sr.one), (1, 1, sr.one), (2, 2, sr.one), (1, 2, sr.one)],
        sr,
    )
    with pytest.raises(NotCommutingError):
        commuting_cycle_witness(BooleanDigraphPair(g1=g1, g2=g2))


def test_polynomial_pairs_pipeline():
    rng = random.Random(709)
    for _ in range(60):
        n = rng.randint(2, 5)
        p, q, _base = polynomial_pair(rng, n)
        assert commutes(p, q)
        x, lam_p, lam_q = common_eigenvector(p, q)
        assert x.is_positive()
        assert is_eigenvector(p, x, lam_p)
        assert is_eigenvector(q, x, lam_q)
        pair = boolean_saturation_pair(p, q, x)
        assert pair.verified_commuting
        c1, c2 = commuting_cycle_witness(pair)
        _check_cycle(c1, pair.g1, scc(pair.g2).nontrivial_nodes())
        _check_cycle(c2, pair.g2, scc(pair.g1).nontrivial_nodes())


def cone_matrix(p, q):
    """k of common_eigenvector(p, q): the action of q's normalized matrix
    on the cone coordinates of p's eigenspace basis V, the greatest K
    with V (x) K <= q~ (x) V."""
    basis = spectral_analysis(p).eigenspace_basis()
    v = MaxMatrix([[col[i] for col in basis] for i in range(p.n)],
                  p.semiring)
    return left_residual(v, otimes(spectral_analysis(q).normalized(), v))


def test_the_cone_eigenvector_is_the_star_column():
    # common_eigenvector reads k's eigenvector off one best-walk run at
    # k's smallest critical node; it is the column the closure gives
    rng = random.Random(739)
    larger = 0
    for _ in range(60):
        p, q, _base = polynomial_pair(rng, rng.randint(2, 7))
        k = cone_matrix(p, q)
        an = spectral_analysis(k)
        node = an.critical.nodes[0]
        assert an.star_columns((node,)) == list(an.checked_star().col(node))
        larger += k.n > 1  # p has several critical components
    assert larger >= 10
    # the basis columns of an irreducible matrix are positive, so such a
    # pair's k is positive; a reducible k, from a V with zero entries,
    # takes the closure's column inside star_columns
    v = MaxMatrix.identity(3, EXACT_TIMES)
    w = fmat([[2, 1, 0], [0, 1, 0], [0, 3, Fraction(1, 2)]])
    an = spectral_analysis(left_residual(v, w))
    assert not an.is_irreducible
    node = an.critical.nodes[0]
    assert an.star_columns((node,)) == list(an.checked_star().col(node))


def test_common_saturation_pair_matches_the_two_steps():
    rng = random.Random(733)
    cases = []
    for _ in range(12):
        p, q, _base = polynomial_pair(rng, rng.randint(2, 5))
        pf, qf = (semiring_convert(m, FLOAT_TIMES) for m in (p, q))
        cases += [(p, q), (pf, qf)]
    eye = MaxMatrix.identity(3, EXACT_TIMES)
    b = fmat([[1, 2, 0], [0, 1, 2], [Fraction(1, 4), 0, 1]])
    cases += [(eye, b), (b, eye), (eye, eye)]
    for a, b in cases:
        ce = common_eigenvector(a, b)
        assert common_saturation_pair(a, b) == (
            ce,
            boolean_saturation_pair(a, b, ce.x),
        )


def test_scc_of_critical_equals_scc_of_saturation():
    rng = random.Random(719)
    for _ in range(60):
        n = rng.randint(2, 6)
        a = unit_lambda_irreducible(rng, n)
        x = principal_eigenvector(a)
        crit = critical_graph(a)
        dec = scc(saturation_graph(a, x).graph)
        sat_comps = {
            frozenset(comp)
            for comp, triv in zip(dec.components, dec.trivial)
            if not triv
        }
        assert {frozenset(c) for c in crit.components} == sat_comps


def test_float_mode_pipeline():
    rng = random.Random(727)
    for _ in range(20):
        n = rng.randint(2, 4)
        p, q, _base = polynomial_pair(rng, n)
        pf = semiring_convert(p, FLOAT_TIMES)
        qf = semiring_convert(q, FLOAT_TIMES)
        assert commutes(pf, qf)
        x, lam_p, lam_q = common_eigenvector(pf, qf)
        assert x.is_positive()
        assert is_eigenvector(pf, x, lam_p)
        assert is_eigenvector(qf, x, lam_q)
