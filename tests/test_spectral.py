"""Spectral layer: cycle means, critical graphs, eigenvectors."""

import math
import random
from fractions import Fraction

import pytest

import maxalg.matrix as matrix
import maxalg.spectral as spectral
from maxalg import (
    EXACT_PLUS,
    EXACT_TIMES,
    FLOAT_PLUS,
    FLOAT_TIMES,
    NEG_INF,
    DivergenceError,
    ExactnessError,
    MaxMatrix,
    NotIrreducibleError,
    Semiring,
    critical_graph,
    digraph_of,
    eigenspace_basis,
    gmean_cmp,
    is_eigenvector,
    is_irreducible,
    kleene_star,
    max_balance,
    max_cycle_gmean,
    otimes,
    principal_eigenvector,
    scc,
    semiring_convert,
    spectral_analysis,
)

from helpers import (
    best_gmean_pair_brute,
    count_calls,
    criteria_corpus,
    critical_edges_brute,
    fmat,
    random_irreducible,
    random_matrix,
    unit_lambda_irreducible,
)
from maxalg.digraph import nonzero_pattern
from maxalg.matrix import Ratios, closure_rows
from maxalg.semiring import PLUS, TIMES


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


@pytest.mark.parametrize(
    "domain,rows,pair,edges,kept",
    [
        (
            "max-times",
            [[0.5, 1e-300], [3 / 7, 1e200]],
            (1e200, 1),
            ((1, 1),),
            [[0.5, 1e-100], [3 / 7, 1e200]],
        ),
        (
            "max-plus",
            [[1e308, -1e308], [0, 0]],
            (1e308, 1),
            ((0, 0),),
            [[1e308, -1e300], [0, 0]],
        ),
    ],
    ids=["times", "plus"],
)
def test_float_normalization_refuses_to_drop_an_edge(
    domain, rows, pair, edges, kept
):
    # 1e-300 / 1e200 rounds to 0.0, and -1e308 - 1e308 to -inf: the
    # normalized matrix would lose edge (0, 1), so normalized() refuses,
    # while the mean and the critical graph still answer
    from maxalg import MaxMatrix, ModeError, Semiring

    sr = Semiring(domain, exact=False)
    a = MaxMatrix(rows, sr)
    an = spectral.spectral_analysis(a)
    assert an.mean.pair() == pair
    assert critical_graph(a).edges == edges
    with pytest.raises(ModeError, match="underflows the float range"):
        an.normalized()
    # an entry that only shrinks stays an edge
    b = MaxMatrix(kept, sr)
    assert not sr.is_zero(spectral.spectral_analysis(b).normalized()[0, 1])


@pytest.mark.parametrize(
    "domain,rows,pair,edges",
    [
        (
            "max-times",
            [[0, 1e-150, 1e200], [1e-150, 0, 0], [0, 0, 0]],
            (1e-300, 2),
            ((0, 1), (1, 0)),
        ),
        (
            "max-plus",
            [[-1e308, 1e308], [-math.inf, -1e308]],
            (-1e308, 1),
            ((0, 0), (1, 1)),
        ),
    ],
    ids=["times", "plus"],
)
def test_float_normalization_refuses_an_entry_that_overflows(
    domain, rows, pair, edges
):
    # lam is 1e-150, so entry (0, 2) divided by it is 1e350; lam is
    # -1e308, so entry (0, 1) less it is 2e308: normalized() refuses the
    # inf, while the mean and the critical graph still answer
    from maxalg import MaxMatrix, ModeError, Semiring

    a = MaxMatrix(rows, Semiring(domain, exact=False))
    an = spectral.spectral_analysis(a)
    assert an.mean.pair() == pair
    assert an.critical.edges == edges
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


def certify(sr, a, comp):
    """spectral._certify on the component ``comp`` of a's nonzero
    pattern, given as _component's successor lists."""
    pattern = nonzero_pattern(a)
    return spectral._certify(
        sr, *spectral._component(sr, pattern, comp), comp
    )


def test_float_range_is_checked_on_the_policy_cycle_and_the_witness():
    # a loop ties a 2-cycle of weight 1e400 under the tolerance. Here the
    # best policy cycle is the 2-cycle, and its pair is refused before
    # any comparison reads an inf weight
    from maxalg import MaxMatrix, ModeError

    overflow = r"cycle \(0, 1, 0\) overflows the float range"
    a = MaxMatrix([[1e200, 1.000000000001e200], [1e200, 0]], FLOAT_TIMES)
    with pytest.raises(ModeError, match=overflow):
        certify(FLOAT_TIMES, a, (0, 1))
    # here the policy settles on the loop, but the witness, a cycle of
    # the critical component from its smallest node, is the 2-cycle
    b = MaxMatrix([[0, 1e200], [1e200, 1.000000000001e200]], FLOAT_TIMES)
    assert certify(FLOAT_TIMES, b, (0, 1)).pair == (1.000000000001e200, 1)
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
    # one on the matrix's digraph and one on the tight edges, whose
    # components also give the cyclicity; both are Tarjan passes of
    # strong_components, the second on int adjacency lists
    calls = count_calls(monkeypatch, "strong_components")
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


def test_each_analysis_certifies_each_component_once(monkeypatch):
    # the analysis counterpart of balancing's
    # test_each_level_certifies_its_mean_once: on reducible and
    # irreducible inputs, exact and float, an analysis certifies each
    # nontrivial component once, makes one Tarjan pass, over its tight
    # graph (the pattern's own pass, made by scc before each analysis, is
    # not counted), and closes nothing; its eigenvectors certify nothing
    # again
    rng = random.Random(2041)
    corpus = [random_irreducible(rng, rng.randint(2, 9)) for _ in range(30)]
    corpus += [random_matrix(rng, rng.randint(3, 9), density=0.25)
               for _ in range(40)]
    certified = count_calls(monkeypatch, "_certify")
    passes = count_calls(monkeypatch, "strong_components")
    closures = count_calls(monkeypatch, "closure_rows")
    seen = {"reducible": 0, "irreducible": 0}
    for a in corpus:
        for m in (a, semiring_convert(a, FLOAT_TIMES),
                  semiring_convert(a, FLOAT_PLUS)):
            dec = scc(digraph_of(m))
            del certified[:], passes[:]
            an = spectral_analysis(m)
            components = dec.nontrivial_components
            assert len(certified) == len(components)
            assert [comp for *_lists, comp in certified] == list(components)
            assert len(passes) == (len(components) > 0)
            if len(components) > 0:
                seen["irreducible" if dec.is_single else "reducible"] += 1
            if dec.is_single and an.lam is not None:
                an.eigenspace_basis()
                assert len(certified) == 1
    assert closures == []
    assert seen["reducible"] >= 40 and seen["irreducible"] >= 90


# a 5-node matrix without loops as exponents: the entry 2^k in
# max-times, k in max-plus. Its critical graph is the 2-cycle 0 <-> 1,
# and max_balance freezes three levels, of rational means in every mode
PATTERN_FACTS_EXPONENTS = [
    [None, 4, 2, None, 1],
    [4, None, 0, 1, 1],
    [0, 4, None, 0, 1],
    [0, 2, None, None, 2],
    [0, None, 2, None, None],
]


@pytest.mark.parametrize(
    "sr", [EXACT_TIMES, EXACT_PLUS, FLOAT_TIMES, FLOAT_PLUS],
    ids=["exact", "exact_plus", "float", "float_plus"],
)
def test_a_matrix_decomposes_and_weighs_its_pattern_once(monkeypatch, sr):
    # the nonzero pattern keeps its SCC decomposition, reverse edges and
    # entry table, so six public calls on one matrix make one
    # Tarjan pass over its pattern and weigh each entry once; the passes
    # over tight graphs and over balancing's contracted levels, which
    # have fewer nodes, are other graphs. An entry is weighed by
    # _float_weight, and in exact max-times by log_terms, whose logs the
    # table also keeps for the exact kits
    rows = [
        [(2 ** k if sr.domain == TIMES else k) if k is not None
         else sr.zero for k in row]
        for row in PATTERN_FACTS_EXPONENTS
    ]
    a = MaxMatrix(rows, sr)
    adjacency = [[j for j, v in enumerate(row) if not sr.is_zero(v)]
                 for row in a.rows]
    entries = [v for row in a.rows for v in row if not sr.is_zero(v)]
    passes = count_calls(monkeypatch, "strong_components")
    weights = count_calls(
        monkeypatch,
        "log_terms" if sr == EXACT_TIMES else "_float_weight",
    )

    assert scc(digraph_of(a)).is_single and is_irreducible(a)
    assert max_cycle_gmean(a).pair() == (
        (2 ** 8, 2) if sr.domain == TIMES else (8, 2)
    )
    assert critical_graph(a).edges == ((0, 1), (1, 0))
    assert principal_eigenvector(a).is_positive()
    balanced = max_balance(a)
    assert len(balanced.levels[0]) == 3 and not balanced.exact_degraded

    assert [succ for _n, succ in passes].count(adjacency) == 1
    weighed = [args[-1] for args in weights
               if any(args[-1] is e for e in entries)]
    assert len(weighed) == len(entries)
    assert {id(v) for v in weighed} == {id(e) for e in entries}


def per_entry_symbolic(lam_pair, succ):
    """(steps, unit) of the _Symbolic values of lam_pair on succ, each
    entry's logs taken from its own Fraction."""
    w0, l0 = lam_pair
    p0, r0 = math.log(w0.numerator), math.log(w0.denominator)
    ln_lam = (p0 - r0) / l0
    steps, widest = [], 0.0
    for out in succ:
        row = []
        for v, a in out:
            p, r = math.log(a.numerator), math.log(a.denominator)
            widest = max(widest, p + r)
            row.append((v, (a.numerator, a.denominator, 1, (p - r) - ln_lam)))
        steps.append(row)
    return steps, widest + 2.0 + (p0 + r0 + 2.0) / l0


def test_exact_kits_read_the_entry_table():
    # the Ratios and _Symbolic kits read each entry's ints and log weight
    # off the component's entry table, made in the one pass that weighs
    # the entries, and hold what a build from the Fractions gives: a
    # component of every node reads the pattern's table, a smaller one
    # its own
    rng = random.Random(2039)
    whole = random_irreducible(rng, 7, density=0.5)
    block = random_irreducible(rng, 4, density=0.5)
    rows = [list(row) + [Fraction(0)] * 4 for row in whole.rows]
    rows += [[Fraction(rng.randint(0, 3), 5) for _ in range(7)] + list(row)
             for row in block.rows]
    reducible = fmat(rows)
    cases = [(whole, tuple(range(7)))]
    cases += [(reducible, comp) for comp in
              scc(digraph_of(reducible)).nontrivial_components]
    assert [len(comp) for _a, comp in cases] == [7, 7, 4]
    for a, comp in cases:
        pattern = nonzero_pattern(a)
        succ, _pred, table = spectral._component(EXACT_TIMES, pattern, comp)
        shared = pattern.float_logs(EXACT_TIMES, spectral._float_logs)
        assert (table is shared) == (len(comp) == a.n)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        kit = spectral._Kit(EXACT_TIMES, succ, (lam, 1), table)
        p, q = lam.numerator, lam.denominator
        assert kit.steps == [
            [(v, (w.numerator * q, w.denominator * p)) for v, w in out]
            for out in succ
        ]
        pair = (Fraction(rng.choice([2, 3, 5, 7])), 2)
        sym = spectral._Symbolic(pair, table)
        assert (sym.steps, sym.unit) == per_entry_symbolic(pair, succ)
        assert spectral._Kit(EXACT_TIMES, succ, pair, table).steps == sym.steps


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
    cert = certify(EXACT_TIMES, small, tuple(range(small.n)))
    assert cert.pair == (2, 2)
    # m, the number of entries multiplied, is a value's second-to-last field
    assert max(x[-2] for x in cert.x) <= small.n - 1
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
        moved = fmat([[v * scale[j] / scale[i] for j, v in enumerate(row)]
                      for i, row in enumerate(a.rows)])
        # each entry's own (numerator, denominator), and the (x, d) pairs
        # of the row lifts that kleene_star closes
        entry_pairs = [[(v.numerator, v.denominator) if v else None
                        for v in row] for row in moved.rows]
        lift_pairs = [[(x, d) if x else None for x in xs]
                      for xs, d in matrix._row_lifts(moved)]
        for rows in (entry_pairs, lift_pairs):
            widest = max(x[1].bit_length() for row in rows for x in row if x)
            # lam = 1, so no diagonal entry exceeds one
            closure = closure_rows(rows, Ratios, Ratios.exceeds_one)
            assert max(
                x[1].bit_length() for row in closure for x in row if x
            ) <= n * widest


def test_exact_improvement_finishes_a_float_tie():
    # the loops weigh 1 and the 2-cycle has mean 1 + 10^-20: in floats
    # ln 2 and ln 1/2 cancel, Howard's policy ends on the loop at 1, and
    # only the exact check of the potentials finds the heavier cycle
    near = 1 + Fraction(1, 10**20)
    a = fmat([[1, 2 * near], [near / 2, 1]])
    succ, pred, table = spectral._component(
        EXACT_TIMES, nonzero_pattern(a), (0, 1)
    )
    policy = spectral._float_proposal(pred, table)
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
    # the lower class is certified at its own mean; its tight edges, in
    # local indices, carry their entries
    comp = (2, 3)
    cert = certify(EXACT_TIMES, a, comp)
    pair = cert.pair
    assert pair == (low, 2) and gmean_cmp(EXACT_TIMES, pair, (1, 2)) < 0
    assert sorted((comp[u], comp[v]) for u, v, _w in cert.tight) == [
        (2, 3), (3, 2)
    ]
    assert all(w == a.rows[comp[u]][comp[v]] for u, v, w in cert.tight)


def test_exact_analyses_close_only_when_the_star_is_read(monkeypatch):
    closures = count_calls(monkeypatch, "closure_rows")
    planted = unit_lambda_irreducible(random.Random(61), 8)
    max_cycle_gmean(planted)
    critical_graph(planted)
    assert closures == []
    irrational = spectral_analysis(fmat([[0, 2], [3, 0]]))
    assert irrational.star is None
    assert closures == []
    # the eigenvector's star columns come from best-walk runs
    principal_eigenvector(planted)
    assert closures == []
    analysis = spectral_analysis(planted)
    assert analysis.star is analysis.checked_star() is analysis.star
    assert len(closures) == 1


def test_float_analyses_close_only_when_the_star_is_read(monkeypatch):
    closures = count_calls(monkeypatch, "closure_rows")
    planted = unit_lambda_irreducible(random.Random(61), 8)
    f = semiring_convert(planted, FLOAT_TIMES)
    max_cycle_gmean(f)
    assert closures == []
    critical_graph(f)
    assert closures == []
    principal_eigenvector(f)
    assert closures == []
    analysis = spectral_analysis(f)
    assert analysis.star is analysis.checked_star() is analysis.star
    assert len(closures) == 1
    # the float star is kleene_star's, to the last bit
    want = kleene_star(analysis.tilde)
    assert analysis.star == want and repr(analysis.star) == repr(want)
    # at tolerance 0 the normalized 3-cycle 0 -> 1 -> 2 -> 0 of these
    # decimal entries weighs one plus a rounding; the star, read either
    # way, is kleene_star's refusal with its witness
    for domain, z in ((TIMES, 0.0), (PLUS, NEG_INF)):
        a = MaxMatrix([[z, 0.1, z], [z, z, 3.3], [0.6, z, z]],
                      Semiring(domain, exact=False, tol=0.0))
        analysis = spectral_analysis(a)
        with pytest.raises(DivergenceError) as want:
            kleene_star(analysis.tilde)
        assert want.value.witness.nodes == (0, 1, 2, 0)
        for read in (lambda: analysis.star, analysis.checked_star):
            with pytest.raises(DivergenceError) as got:
                read()
            assert str(got.value) == str(want.value)
            assert got.value.witness == want.value.witness


def _two_digraph_critical_graph(a, tight):
    """The critical graph as it was built before strong_components: a
    Digraph of the tight edges, its scc, then a Digraph of the critical
    edges."""
    from maxalg import Digraph, scc
    from maxalg.digraph import component_gcd

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
    return spectral.CriticalGraph(
        nodes=tuple(sorted(v for comp in components for v in comp)),
        edges=tuple(sorted(crit)),
        components=components,
        cyclicity=math.lcm(*(component_gcd(sub, c) for c in components)),
        graph=sub,
    )


def test_critical_graph_matches_the_two_digraph_form(monkeypatch):
    # the analysis' critical graph, built on the critical edges that
    # _critical finds with the entries its tight edges carry, equals the
    # old form on the same tight edges, with the weights of the dense rows
    from maxalg import FLOAT_PLUS

    seen = []
    original = spectral._critical

    def recording(sr, n, tight, best):
        seen.append(list(tight))
        return original(sr, n, tight, best)

    monkeypatch.setattr(spectral, "_critical", recording)
    compared = brute = 0
    for a in criteria_corpus():
        for m in (a, semiring_convert(a, FLOAT_TIMES),
                  semiring_convert(a, FLOAT_PLUS)):
            del seen[:]
            critical = spectral_analysis(m).critical
            if critical is None:
                assert seen == []
                continue
            (tight,) = seen
            assert all(w == m.rows[i][j] for i, j, w in tight)
            # field for field, the Digraph of the critical edges included
            assert critical == _two_digraph_critical_graph(
                m, [(i, j) for i, j, _w in tight]
            )
            compared += 1
            if m is a and a.n <= 6:
                assert set(critical.edges) == critical_edges_brute(a)
                brute += 1
    assert compared >= 800 and brute >= 150
