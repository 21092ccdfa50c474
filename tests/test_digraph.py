"""Digraph layer: components, cycle enumeration, cyclicity, thresholds."""

import math
import random
from fractions import Fraction

import pytest

from maxalg import (
    EXACT_PLUS,
    EXACT_TIMES,
    FLOAT_PLUS,
    FLOAT_TIMES,
    NEG_INF,
    PLUS,
    TIMES,
    AcyclicNodeError,
    Digraph,
    MaxMatrix,
    ModeError,
    Path,
    Semiring,
    SizeLimitError,
    digraph_of,
    enumerate_cycles,
    graph_cyclicity,
    is_max_balanced_cyclecover,
    is_strongly_connected,
    otimes,
    scc,
    semiring_convert,
    threshold_digraph,
    threshold_spectrum,
)
from maxalg.digraph import nonzero_pattern, pattern_scc

from helpers import (
    count_calls,
    cycles_brute,
    fmat,
    random_matrix,
    threshold_spectrum_reference,
)


def reach_closure(n, edge_set):
    """Reflexive-transitive reachability by plain iteration to fixpoint."""
    reach = [{i} for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i, j in edge_set:
            new = reach[j] - reach[i]
            if new:
                reach[i] |= new
                changed = True
    return reach


def scc_brute(n, edge_set):
    """Partition by mutual reachability, plus the trivial flags."""
    reach = reach_closure(n, edge_set)
    seen = set()
    comps = []
    for i in range(n):
        if i in seen:
            continue
        comp = tuple(
            sorted(j for j in range(n) if j in reach[i] and i in reach[j])
        )
        comps.append(comp)
        seen.update(comp)
    trivial = tuple(
        len(c) == 1 and (c[0], c[0]) not in edge_set for c in comps
    )
    return set(comps), trivial


def test_path_weight_and_cycle_flag():
    g = Digraph(3, [(0, 1, Fraction(2)), (1, 2, Fraction(3)),
                    (2, 0, Fraction(1, 6))], EXACT_TIMES)
    p = g.path((0, 1, 2))
    assert p.weight == Fraction(6)
    assert p.length == 2
    assert not p.is_cycle
    c = g.path((0, 1, 2, 0))
    assert c.is_cycle
    assert c.weight == Fraction(1)
    assert c.gmean_pair() == (Fraction(1), 3)
    # a walk over a missing edge collapses to the semiring zero
    assert g.path((0, 2)).weight == Fraction(0)


def test_digraph_of_drops_zeros():
    a = fmat([[0, 2], [Fraction(1, 2), 0]])
    g = digraph_of(a)
    assert g.edge_set() == {(0, 1), (1, 0)}
    assert g.weight(0, 1) == Fraction(2)
    assert not g.has_edge(0, 0)


def test_scc_matches_brute_force_on_random_graphs():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 8)
        a = random_matrix(rng, n, density=rng.uniform(0.05, 0.5))
        g = digraph_of(a)
        dec = scc(g)
        got = {tuple(sorted(c)) for c in dec.components}
        want, _ = scc_brute(n, g.edge_set())
        assert got == want
        for comp, triv in zip(dec.components, dec.trivial):
            want_triv = len(comp) == 1 and (comp[0], comp[0]) not in g.edge_set()
            assert triv == want_triv
        assert dec.nontrivial_components == tuple(
            c for c, triv in zip(dec.components, dec.trivial) if not triv
        )
        for node in range(n):
            assert node in dec.components[dec.component_of(node)]
        covered = sorted(x for c in dec.components for x in c)
        assert covered == list(range(n))


def test_components_sorted_by_smallest_node():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 7)
        a = random_matrix(rng, n, density=0.35)
        dec = scc(digraph_of(a))
        heads = [c[0] for c in dec.components]
        assert heads == sorted(heads)
        assert all(c == tuple(sorted(c)) for c in dec.components)


def test_nontrivial_nodes_and_is_single():
    a = fmat([[0, 1, 0], [1, 0, 0], [0, 1, 0]])
    dec = scc(digraph_of(a))
    assert set(dec.nontrivial_nodes()) == {0, 1}
    assert dec.nontrivial_components == ((0, 1),)
    assert not dec.is_single
    assert is_strongly_connected(digraph_of(fmat([[0, 1], [1, 0]])))


def test_enumerate_cycles_matches_brute_force():
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, density=rng.uniform(0.1, 0.6))
        got = {
            (p.nodes, p.weight) for p in enumerate_cycles(digraph_of(a))
        }
        want = {(nodes, w) for nodes, w in cycles_brute(a)}
        assert got == want


def test_enumerate_cycles_respects_max_len_and_guard():
    a = fmat([[1, 1, 0], [0, 0, 1], [1, 0, 0]])
    g = digraph_of(a)
    lengths = {p.length for p in enumerate_cycles(g)}
    assert lengths == {1, 3}
    assert {p.length for p in enumerate_cycles(g, max_len=1)} == {1}
    big = Digraph(9, [], EXACT_TIMES)
    with pytest.raises(SizeLimitError):
        enumerate_cycles(big)
    assert enumerate_cycles(Digraph(9, [], EXACT_TIMES, ), node_limit=9) == ()


def test_graph_cyclicity_known_cases():
    two = digraph_of(fmat([[0, 1], [1, 0]]))
    assert graph_cyclicity(two) == 2
    with_loop = digraph_of(fmat([[1, 1], [1, 0]]))
    assert graph_cyclicity(with_loop) == 1
    # disjoint 2-cycle and 3-cycle: lcm = 6
    six = fmat([
        [0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 1, 0, 0],
    ])
    assert graph_cyclicity(digraph_of(six)) == 6
    # one component containing both a 2-cycle and a 3-cycle: gcd = 1
    mixed = fmat([
        [0, 1, 0],
        [1, 0, 1],
        [1, 0, 0],
    ])
    assert graph_cyclicity(digraph_of(mixed)) == 1
    acyclic = digraph_of(fmat([[0, 1], [0, 0]]))
    with pytest.raises(AcyclicNodeError):
        graph_cyclicity(acyclic)


def test_graph_cyclicity_equals_gcd_of_cycle_lengths_by_component():
    import math

    rng = random.Random(59)
    checked = 0
    for _ in range(250):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, density=rng.uniform(0.2, 0.7))
        g = digraph_of(a)
        dec = scc(g)
        if any(dec.trivial):
            continue
        cycles = cycles_brute(a)
        want = 1
        for comp in dec.components:
            comp_set = set(comp)
            lens = [
                len(nodes) - 1
                for nodes, _w in cycles
                if set(nodes) <= comp_set
            ]
            want = math.lcm(want, math.gcd(*lens))
        assert graph_cyclicity(g) == want
        checked += 1
    assert checked > 30


def test_threshold_digraph_and_spectrum():
    a = fmat([[0, 4], [Fraction(1, 2), 2]])
    high = threshold_digraph(a, 4)
    assert high.edge_set() == {(0, 1)}
    low = threshold_digraph(a, Fraction(1, 2))
    assert low.edge_set() == {(0, 1), (1, 0), (1, 1)}
    with pytest.raises(ValueError):
        threshold_digraph(a, 0)
    spectrum = threshold_spectrum(a)
    thetas = [theta for theta, _dec in spectrum]
    assert thetas == sorted(thetas, reverse=True)
    assert thetas[0] == Fraction(4)
    # at the lowest level everything merges into one component
    assert spectrum[-1][1].is_single
    # levels with identical decompositions are merged away
    decs = [dec for _theta, dec in spectrum]
    assert all(x != y for x, y in zip(decs, decs[1:]))


def test_threshold_spectrum_refines_with_theta():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(2, 6)
        a = random_matrix(rng, n, density=0.5)
        if not a.positive_entries():
            continue
        spectrum = threshold_spectrum(a)
        # lowering the threshold only ever merges components
        for (t1, d1), (t2, d2) in zip(spectrum, spectrum[1:]):
            assert t1 > t2
            for comp in d1.components:
                target = {d2.component_of(v) for v in comp}
                assert len(target) == 1


def _threshold_grids(rng):
    """(semiring, rows) per case, exact and float, in both domains, float
    at tol 1e-9 and 0, n up to 40. Entries come from a small pool, so
    values repeat; in float mode each value also comes 1e-12 above
    itself, a near-tie inside the default tolerance."""
    for domain in (TIMES, PLUS):
        for exact in (True, False):
            for n in [1, 2, 3, 4, 6, 8, 12] * 12 + [20, 30, 40] * 2:
                if exact:
                    pool = [Fraction(rng.randint(1, 9), rng.randint(1, 4))
                            for _ in range(rng.randint(1, 6))]
                else:
                    pool = [rng.choice([1.0, 2.0, rng.uniform(0.1, 4.0)])
                            for _ in range(rng.randint(1, 4))]
                    pool += [v * (1 + 1e-12) for v in pool]
                if domain == PLUS:
                    pool = [v - 2 for v in pool]
                density = rng.uniform(0.05, 0.2) if n > 12 else rng.random()
                tols = (1e-9,) if exact else (1e-9, 0.0)
                for tol in tols:
                    sr = Semiring(domain, exact, tol)
                    yield sr, [
                        [rng.choice(pool) if rng.random() < density
                         else sr.zero for _ in range(n)]
                        for _ in range(n)
                    ]


def test_threshold_spectrum_matches_the_search_reference():
    rng = random.Random(3301)
    levels = 0
    for sr, rows in _threshold_grids(rng):
        a = MaxMatrix._raw(rows, sr)
        got = threshold_spectrum(a)
        assert repr(got) == repr(threshold_spectrum_reference(a)), (sr, rows)
        levels += len(got)
    assert levels > 800


def test_threshold_spectrum_keeps_a_near_tie_at_the_level_above():
    # 1 - 1e-12 joins the level of 1.0 under the default tolerance only
    rows = [[0.0, 1.0], [1.0 - 1e-12, 0.0]]
    for tol, merged in ((1e-9, True), (0.0, False)):
        spectrum = threshold_spectrum(
            MaxMatrix._raw(rows, Semiring(TIMES, False, tol))
        )
        assert spectrum[0][0] == 1.0
        assert spectrum[0][1].is_single is merged
        assert len(spectrum) == (1 if merged else 2)


def test_threshold_spectrum_refuses_inf_and_nan():
    a = MaxMatrix([[1e200, 1e200], [1e200, 0.0]], FLOAT_TIMES)
    cube = otimes(otimes(a, a), a)
    assert math.inf in cube.rows[0]
    with pytest.raises(ModeError, match="overflows the float range"):
        threshold_spectrum(cube)
    nan = float("nan")
    for sr in (FLOAT_TIMES, FLOAT_PLUS):
        with pytest.raises(ModeError, match="overflows the float range"):
            threshold_spectrum(MaxMatrix._raw([[1.0, nan], [1.0, 1.0]], sr))


def test_threshold_readers_share_one_reach_pass(monkeypatch):
    reach = count_calls(monkeypatch, "threshold_reach")
    digraphs = count_calls(monkeypatch, "threshold_digraph")
    tarjan = count_calls(monkeypatch, "strong_components")
    a = random_matrix(random.Random(5), 12, density=0.4)
    spectrum = threshold_spectrum(a)
    assert len(spectrum) > 2
    assert (len(reach), digraphs, tarjan) == (1, [], [])
    is_max_balanced_cyclecover(a)
    assert len(reach) == 2


def _in_mode(a, sr):
    """The exact max-times a in the mode of sr: in max-plus, entries less
    one with 0 as -inf."""
    if sr.domain == PLUS:
        a = MaxMatrix(
            [[v - 1 if v else NEG_INF for v in row] for row in a.rows],
            EXACT_PLUS,
        )
    return semiring_convert(a, sr)


@pytest.mark.parametrize(
    "sr", [EXACT_TIMES, EXACT_PLUS, FLOAT_TIMES, FLOAT_PLUS],
    ids=["exact", "exact_plus", "float", "float_plus"],
)
def test_pattern_views_equal_the_dense_built_digraph(sr):
    rng = random.Random(29)
    for _ in range(120):
        n = rng.randint(1, 9)
        a = _in_mode(random_matrix(rng, n, density=rng.uniform(0.05, 0.7)), sr)
        edges = [
            (i, j, w)
            for i, row in enumerate(a.rows)
            for j, w in enumerate(row)
            if not sr.is_zero(w)
        ]
        dense = Digraph(n, edges, sr)
        pattern = nonzero_pattern(a)
        assert pattern == tuple(
            tuple((j, w) for i, j, w in edges if i == k) for k in range(n)
        )
        g = digraph_of(a)
        assert g == dense and g.edges == dense.edges
        assert all(g.successors(i) == tuple(dense.successors(i))
                   for i in range(n))
        dec = scc(dense)
        assert scc(g) == dec and pattern_scc(pattern) == dec
        want, _ = scc_brute(n, dense.edge_set())
        assert set(dec.components) == want
        assert dec.trivial == tuple(
            len(c) == 1 and not dense.has_edge(c[0], c[0])
            for c in dec.components
        )
