"""Spectral layer: cycle means, critical graphs, eigenvectors."""

import math
import random
from fractions import Fraction

import pytest

import maxalg.spectral as spectral
from maxalg import (
    EXACT_TIMES,
    FLOAT_TIMES,
    ExactnessError,
    NotIrreducibleError,
    critical_graph,
    digraph_of,
    eigenspace_basis,
    gmean_cmp,
    is_eigenvector,
    is_irreducible,
    max_cycle_gmean,
    otimes,
    principal_eigenvector,
    semiring_convert,
    spectral_analysis,
)

from helpers import (
    best_gmean_pair_brute,
    count_calls,
    critical_edges_brute,
    fmat,
    random_irreducible,
    random_matrix,
    unit_lambda_irreducible,
)
from maxalg.matrix import Ratios, closure_rows


def test_max_cycle_gmean_hand_values():
    a = fmat([[0, 2], [Fraction(1, 2), 0]])
    mean = max_cycle_gmean(a)
    assert mean.pair() == (Fraction(1), 2)
    assert mean.exact_value() == Fraction(1)
    assert mean.cmp_one() == 0
    assert mean.witness.is_cycle
    acyclic = fmat([[0, 5], [0, 0]])
    zero = max_cycle_gmean(acyclic)
    assert zero.is_zero
    assert zero.witness is None
    irr = max_cycle_gmean(fmat([[0, 2], [3, 0]]))
    assert irr.pair() == (Fraction(6), 2)
    assert irr.exact_value() is None
    assert math.isclose(irr.float_value(), math.sqrt(6.0))


def test_max_cycle_gmean_matches_oracle():
    rng = random.Random(101)
    nonzero = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, density=rng.uniform(0.1, 0.7))
        mean = max_cycle_gmean(a)
        want = best_gmean_pair_brute(a)
        if want is None:
            assert mean.is_zero
        else:
            nonzero += 1
            assert gmean_cmp(a.semiring, mean.pair(), want) == 0
            # the witness cycle attains the mean
            pair = (mean.witness.weight, mean.witness.length)
            assert gmean_cmp(a.semiring, pair, want) == 0
    assert nonzero > 150


def test_critical_graph_matches_oracle():
    rng = random.Random(103)
    interesting = 0
    for _ in range(250):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, density=rng.uniform(0.15, 0.7))
        want = critical_edges_brute(a)
        if not want:
            continue
        cg = critical_graph(a)
        got = {(i, j) for i, j, _w in cg.graph.edges}
        assert got == want
        assert set(cg.nodes) == {u for u, _ in want} | {v for _, v in want}
        interesting += 1
        # critical edges keep their original weights
        for i, j, w in cg.graph.edges:
            assert w == a.rows[i][j]
    assert interesting > 100


def test_critical_graph_structure_fields():
    a = fmat([
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, Fraction(1, 2)],
        [0, 0, Fraction(1, 2), 0],
    ])
    cg = critical_graph(a)
    assert cg.components == ((0, 1),)
    assert cg.cyclicity == 2
    assert set(cg.nodes) == {0, 1}
    both = fmat([
        [0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 1, 0, 0],
    ])
    cg = critical_graph(both)
    assert cg.components == ((0, 1), (2, 3, 4))
    assert cg.cyclicity == 6


def test_is_irreducible():
    assert is_irreducible(fmat([[0, 1], [1, 0]]))
    assert not is_irreducible(fmat([[0, 1], [0, 0]]))
    assert not is_irreducible(fmat([[1, 1], [0, 1]]))
    assert is_irreducible(fmat([[1]]))
    # single node without a loop still counts as one component
    assert is_irreducible(fmat([[0]]))


def test_principal_eigenvector_hand_value():
    a = fmat([[0, 2], [Fraction(1, 2), 0]])
    x = principal_eigenvector(a)
    lam = max_cycle_gmean(a).exact_value()
    assert lam == Fraction(1)
    assert is_eigenvector(a, x, lam)
    assert x.is_positive()
    got = otimes(a, x)
    assert got.entries == tuple(lam * e for e in x.entries)


def test_principal_eigenvector_random_irreducible():
    rng = random.Random(107)
    for _ in range(150):
        n = rng.randint(1, 6)
        a = unit_lambda_irreducible(rng, n)
        x = principal_eigenvector(a)
        assert x.is_positive()
        assert is_eigenvector(a, x, Fraction(1))
        assert otimes(a, x).entries == x.entries


def test_principal_eigenvector_scales_with_lambda():
    rng = random.Random(109)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = unit_lambda_irreducible(rng, n)
        lam = Fraction(2) ** rng.randint(-2, 3)
        b = a.scale(lam)
        x = principal_eigenvector(b)
        assert is_eigenvector(b, x, lam)
        assert otimes(b, x).entries == tuple(lam * e for e in x.entries)


def test_eigenspace_basis_columns_are_eigenvectors():
    rng = random.Random(113)
    for _ in range(80):
        n = rng.randint(2, 6)
        a = unit_lambda_irreducible(rng, n)
        basis = eigenspace_basis(a)
        assert len(basis) >= 1
        for x in basis:
            assert x.is_positive()
            assert is_eigenvector(a, x, Fraction(1))
    # one basis vector per critical component: two unit 2-cycles bridged
    # by sub-unit edges in both directions
    a = fmat([
        [0, 1, 0, Fraction(1, 2)],
        [1, 0, 0, 0],
        [0, Fraction(1, 2), 0, 1],
        [0, 0, 1, 0],
    ])
    cg = critical_graph(a)
    assert cg.components == ((0, 1), (2, 3))
    assert len(eigenspace_basis(a)) == 2


def test_reducible_matrices_are_rejected_for_eigenvectors():
    with pytest.raises(NotIrreducibleError):
        principal_eigenvector(fmat([[1, 1], [0, 1]]))
    with pytest.raises(NotIrreducibleError):
        principal_eigenvector(fmat([[0, 1], [0, 0]]))
    # irreducibility is checked before the analysis, so a reducible float
    # matrix is reported as such even where its analysis would fail
    from maxalg import MaxMatrix, Semiring

    tight = MaxMatrix(
        [[1e97, 0], [0, 1e-68]], Semiring("max-times", exact=False, tol=0.0)
    )
    with pytest.raises(NotIrreducibleError):
        principal_eigenvector(tight)
    with pytest.raises(NotIrreducibleError):
        eigenspace_basis(tight)


def test_irrational_mean_exact_mode_behavior():
    a = fmat([[0, 2], [3, 0]])
    # the pair itself is fine in exact mode
    mean = max_cycle_gmean(a)
    assert mean.exact_value() is None
    # materializing the eigenvector needs the root: exact mode refuses
    with pytest.raises(ExactnessError):
        principal_eigenvector(a)
    f = semiring_convert(a, FLOAT_TIMES)
    x = principal_eigenvector(f)
    lam = max_cycle_gmean(f).float_value()
    assert is_eigenvector(f, x, lam)
    assert math.isclose(lam, math.sqrt(6.0))


def test_mean_below_float_range_keeps_its_critical_graph():
    # 1/lam overflows to inf, yet the mean and critical graph need no
    # normalized matrix that a caller could see
    from maxalg import MaxMatrix

    a = MaxMatrix([[1e-310]], FLOAT_TIMES)
    assert max_cycle_gmean(a).pair() == (1e-310, 1)
    assert critical_graph(a).edges == ((0, 0),)
    # a normalized entry overflows to inf; inf times a zero entry is nan,
    # which must not overwrite the path weights of the closure
    a = MaxMatrix(
        [[0, 1e-150, 1e200], [1e-150, 0, 0], [0, 0, 0]], FLOAT_TIMES
    )
    mean = max_cycle_gmean(a)
    assert mean.pair() == (1e-300, 2)
    assert mean.witness.nodes == (0, 1, 0)
    assert critical_graph(a).edges == ((0, 1), (1, 0))


def test_float_normalization_refuses_to_drop_an_edge():
    # 1e-300 / 1e200 rounds to 0.0: the normalized matrix would lose edge
    # (0, 1), so normalized() refuses, while the mean and the critical
    # graph still answer
    from maxalg import MaxMatrix, ModeError

    a = MaxMatrix([[0.5, 1e-300], [3 / 7, 1e200]], FLOAT_TIMES)
    an = spectral.spectral_analysis(a)
    assert an.mean.pair() == (1e200, 1)
    assert critical_graph(a).edges == ((1, 1),)
    with pytest.raises(ModeError, match="underflows the float range"):
        an.normalized()
    # an entry that only shrinks stays an edge
    b = MaxMatrix([[0.5, 1e-100], [3 / 7, 1e200]], FLOAT_TIMES)
    assert spectral.spectral_analysis(b).normalized().rows[0][1] > 0.0


def test_float_normalization_refuses_an_entry_that_overflows():
    # lam is 1e-150, so entry (0, 2) divided by it is 1e350: normalized()
    # refuses the inf, while the mean and the critical graph still answer
    from maxalg import MaxMatrix, ModeError

    a = MaxMatrix(
        [[0, 1e-150, 1e200], [1e-150, 0, 0], [0, 0, 0]], FLOAT_TIMES
    )
    an = spectral.spectral_analysis(a)
    assert an.mean.pair() == (1e-300, 2)
    assert an.critical.edges == ((0, 1), (1, 0))
    with pytest.raises(ModeError, match="overflows the float range"):
        an.normalized()


@pytest.mark.parametrize(
    "domain,rows,lam",
    [
        ("max-plus", [[1e308, -1e300], [0, 0]], 1e308),
        ("max-times", [[1e300, 1, 0], [1, 0, 1], [1, 0, 0]], 1e300),
    ],
    ids=["plus", "times"],
)
def test_float_mean_of_a_loop_whose_walks_overflow(domain, rows, lam):
    # walks of length n weigh 2e308 and 1e900, beyond the float range, but
    # no cycle does: the mean is the loop at node 0, as in exact mode
    from maxalg import MaxMatrix, Semiring

    a = MaxMatrix(rows, Semiring(domain, exact=False))
    exact = MaxMatrix(
        [[Fraction(v) for v in row] for row in rows], Semiring(domain)
    )
    an = spectral_analysis(a)
    assert an.mean.pair() == (lam, 1)
    assert an.mean.witness.nodes == (0, 0)
    assert an.critical.edges == ((0, 0),)
    assert max_cycle_gmean(exact).pair() == (Fraction(lam), 1)
    assert critical_graph(exact).edges == an.critical.edges


def test_float_range_is_checked_on_the_policy_cycle_and_the_witness():
    # a loop ties a 2-cycle of weight 1e400 under the tolerance. Here the
    # best policy cycle is the 2-cycle, and its pair is refused before
    # any comparison reads an inf weight
    from maxalg import MaxMatrix, ModeError

    overflow = r"cycle \(0, 1, 0\) overflows the float range"
    a = MaxMatrix([[1e200, 1.000000000001e200], [1e200, 0]], FLOAT_TIMES)
    with pytest.raises(ModeError, match=overflow):
        spectral._certificate(FLOAT_TIMES, digraph_of(a), (0, 1))
    # here the policy settles on the loop, but the witness, a cycle of
    # the critical component from its smallest node, is the 2-cycle
    b = MaxMatrix([[0, 1e200], [1e200, 1.000000000001e200]], FLOAT_TIMES)
    pair, _x, _tight = spectral._certificate(
        FLOAT_TIMES, digraph_of(b), (0, 1)
    )
    assert pair == (1.000000000001e200, 1)
    with pytest.raises(ModeError, match=overflow):
        max_cycle_gmean(b)


def test_tight_tolerance_certifies_the_exact_critical_cycle():
    # under tol=0 the tight edges give the critical cycle of the exact
    # entries, and no edge off it
    from maxalg import MaxMatrix, Semiring

    rows = [
        [0, 8.7, 8.4, 0, 4.317, 2.2],
        [4.625, 0, 8.813, 0, 0, 6.3],
        [7.9, 1.915, 5.9, 7.526, 0, 0],
        [4.376, 8.808, 7.44, 4.2, 0, 0.884],
        [0, 2.8, 4.554, 0, 0, 7.4],
        [5.565, 6.7, 7.7, 3.137, 0, 0],
    ]
    a = MaxMatrix(rows, Semiring("max-times", exact=False, tol=0.0))
    exact = fmat([[Fraction(str(v)) for v in row] for row in rows])
    assert best_gmean_pair_brute(exact) == (Fraction("605.71749"), 3)
    mean = max_cycle_gmean(a)
    assert mean.length == 3 and math.isclose(mean.weight, 605.71749)
    assert critical_graph(a).edges == ((0, 1), (1, 2), (2, 0))
    assert set(critical_graph(a).edges) == critical_edges_brute(exact)


def test_float_normalization_divides_by_the_reported_mean():
    # the best policy cycle and the witness cycle can round to different
    # floats; the normalized matrix must use the mean max_cycle_gmean
    # reports
    from maxalg import normalize_to_unit

    rng = random.Random(5)
    for _ in range(80):
        a = random_irreducible(rng, rng.randint(2, 8), density=0.5)
        f = semiring_convert(a, FLOAT_TIMES)
        tilde, mean = normalize_to_unit(f)
        assert tilde == f.scale(1.0 / mean.exact_value())


def test_spectral_analysis_runs_two_scc_passes(monkeypatch):
    # one on the matrix's digraph and one on the critical edges, whose
    # components also give the cyclicity
    calls = count_calls(monkeypatch, "scc")
    a = fmat([
        [0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 1, 0, 1, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 1, 0, 0],
    ])
    critical = spectral.spectral_analysis(a).critical
    assert len(calls) == 2
    assert critical.components == ((0, 1), (2, 3, 4))
    assert critical.cyclicity == 6


def test_is_eigenvector_rejects_wrong_pairs():
    a = fmat([[0, 2], [Fraction(1, 2), 0]])
    assert not is_eigenvector(a, principal_eigenvector(a), Fraction(2))
    from maxalg import MaxVector

    assert not is_eigenvector(a, MaxVector([1, 1], EXACT_TIMES), Fraction(1))


def test_float_mode_agrees_with_exact_on_rational_instances():
    rng = random.Random(127)
    for _ in range(100):
        n = rng.randint(1, 5)
        a = random_irreducible(rng, n, density=0.4)
        f = semiring_convert(a, FLOAT_TIMES)
        exact_pair = max_cycle_gmean(a).pair()
        got = max_cycle_gmean(f).float_value()
        want = math.exp(math.log(float(exact_pair[0])) / exact_pair[1])
        assert math.isclose(got, want, rel_tol=1e-9)
        xf = principal_eigenvector(f)
        assert is_eigenvector(f, xf, max_cycle_gmean(f).float_value())


def _all_cycles_critical(k):
    """K_{k,k}: weight 2 from each node of one half to each of the other,
    and 1 back. Every cycle alternates halves, so every cycle is critical
    at the irrational mean sqrt 2."""
    n = 2 * k
    rows = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(k, n):
            rows[i][j], rows[j][i] = 2, 1
    return fmat(rows)


def test_symbolic_closure_when_every_cycle_is_critical():
    # Every potential compare is an exact tie. A potential multiplies the
    # entries of a policy path to the policy's cycle, so it is a walk of
    # at most n - 1 edges, and the exact fallbacks stay that small
    small = _all_cycles_critical(4)
    pair, potentials, _tight = spectral._certificate(
        EXACT_TIMES, digraph_of(small), tuple(range(small.n))
    )
    assert pair == (2, 2)
    # m, the number of entries multiplied, is a value's second-to-last field
    assert max(x[-2] for x in potentials) <= small.n - 1
    a = _all_cycles_critical(12)
    assert max_cycle_gmean(a).pair() == (2, 2)
    assert len(critical_graph(a).edges) == 288


def test_ratio_closure_keeps_the_smaller_denominator_on_ties():
    # many cycles of mean one, moved by a diagonal similarity: closure
    # compares tie everywhere, and a walk that absorbed the unit cycles
    # would multiply its unreduced denominator by theirs in every pass
    rng = random.Random(13)
    for n in (6, 10, 15):
        a = unit_lambda_irreducible(rng, n, extra_cycles=6)
        scale = [Fraction(rng.randint(1, 30), rng.choice([1, 3, 7, 64, 99]))
                 for _ in range(n)]
        rows = Ratios.lift_rows(
            [[v * scale[j] / scale[i] for j, v in enumerate(row)]
             for i, row in enumerate(a.rows)]
        )
        widest = max(x[1].bit_length() for row in rows for x in row if x)
        closure = closure_rows(rows, Ratios)
        assert max(x[1].bit_length() for row in closure for x in row if x) <= (
            n * widest
        )


def test_exact_improvement_finishes_a_float_tie():
    # the loops weigh 1 and the 2-cycle has mean 1 + 10^-20: in floats
    # ln 2 and ln 1/2 cancel, Howard's policy ends on the loop at 1, and
    # only the exact check of the potentials finds the heavier cycle
    near = 1 + Fraction(1, 10**20)
    a = fmat([[1, 2 * near], [near / 2, 1]])
    succ, pred = spectral._component(digraph_of(a), (0, 1))
    policy = spectral._float_proposal(EXACT_TIMES, succ, pred)
    assert [succ[u][policy[u]][0] for u in range(2)] == [1, 1]
    assert max_cycle_gmean(a).pair() == best_gmean_pair_brute(a)
    assert max_cycle_gmean(a).pair() == (near**2, 2)
    assert set(critical_graph(a).edges) == critical_edges_brute(a)


def test_exact_improvement_on_a_reducible_matrix():
    # class {0, 1}: loops of weight 1 - 10^-20 and a 2-cycle of mean 1,
    # which float Howard misses as above. Class {2, 3}: one 2-cycle of
    # the irrational mean sqrt(1 - 10^-20), between the two. Trusting
    # the float policy would report the lower class's mean
    low = 1 - Fraction(1, 10**20)
    a = fmat([
        [low, 2, 0, 0],
        [Fraction(1, 2), low, 1, 0],
        [0, 0, 0, 3],
        [0, 0, low / 3, 0],
    ])
    analysis = spectral_analysis(a)
    assert analysis.mean.pair() == best_gmean_pair_brute(a) == (1, 2)
    assert analysis.lam == 1
    assert set(analysis.critical.edges) == critical_edges_brute(a)
    # the lower class is certified at its own mean
    pair, _x, tight = spectral._certificate(EXACT_TIMES, digraph_of(a), (2, 3))
    assert pair == (low, 2) and gmean_cmp(EXACT_TIMES, pair, (1, 2)) < 0
    assert sorted(tight) == [(2, 3), (3, 2)]


def test_exact_analyses_close_only_when_the_star_is_read(monkeypatch):
    closures = count_calls(monkeypatch, "closure_rows")
    planted = unit_lambda_irreducible(random.Random(61), 8)
    max_cycle_gmean(planted)
    critical_graph(planted)
    assert closures == []
    irrational = spectral_analysis(fmat([[0, 2], [3, 0]]))
    assert irrational.star is None
    assert closures == []
    principal_eigenvector(planted)
    assert len(closures) == 1
    analysis = spectral_analysis(planted)
    assert analysis.star is analysis.checked_star() is analysis.star
    assert len(closures) == 2


def test_float_analyses_close_only_when_the_star_is_read(monkeypatch):
    closures = count_calls(monkeypatch, "closure_rows")
    planted = unit_lambda_irreducible(random.Random(61), 8)
    f = semiring_convert(planted, FLOAT_TIMES)
    max_cycle_gmean(f)
    assert closures == []
    critical_graph(f)
    assert closures == []
    principal_eigenvector(f)
    assert len(closures) == 1
    analysis = spectral_analysis(f)
    assert analysis.star is analysis.checked_star() is analysis.star
    assert len(closures) == 2
