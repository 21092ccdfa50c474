"""Balancing layer: the two balancedness predicates and the full scaling."""

import math
import random
from fractions import Fraction

import pytest

import maxalg.spectral as spectral
from maxalg import (
    EXACT_PLUS,
    EXACT_TIMES,
    FLOAT_PLUS,
    FLOAT_TIMES,
    NEG_INF,
    PLUS,
    TIMES,
    ExactnessError,
    MaxAlgebraError,
    MaxMatrix,
    ModeError,
    NegativeAnswer,
    NoScalingError,
    Semiring,
    SizeLimitError,
    apply_scaling,
    gmean_cmp,
    is_max_balanced_cut,
    is_max_balanced_cyclecover,
    max_balance,
    semiring_convert,
    spectral_analysis,
)
from maxalg.digraph import nonzero_pattern

from helpers import (
    count_calls,
    criteria_corpus,
    cyclecover_reference,
    dense_level,
    fmat,
    is_balanced_cut_brute,
    max_balance_reference,
    random_irreducible,
    random_matrix,
)


def test_predicates_on_hand_matrices():
    balanced = fmat([[0, 2], [2, 0]])
    assert is_max_balanced_cyclecover(balanced)
    assert is_max_balanced_cut(balanced)
    lopsided = fmat([[0, 3], [1, 0]])
    assert not is_max_balanced_cyclecover(lopsided)
    assert not is_max_balanced_cut(lopsided)
    # an edge on no cycle can never be covered
    dangling = fmat([[0, 1], [0, 0]])
    assert not is_max_balanced_cyclecover(dangling)
    assert not is_max_balanced_cut(dangling)
    # diagonal entries are ignored by both predicates
    loops = fmat([[5, 2], [2, 7]])
    assert is_max_balanced_cyclecover(loops)
    assert is_max_balanced_cut(loops)
    eye = MaxMatrix.identity(3, EXACT_TIMES)
    assert is_max_balanced_cyclecover(eye)
    assert is_max_balanced_cut(eye)


def test_cut_predicate_matches_brute_force():
    rng = random.Random(301)
    for _ in range(300):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, density=rng.uniform(0.2, 0.8))
        assert is_max_balanced_cut(a) == is_balanced_cut_brute(a)


def test_predicates_agree_on_random_matrices():
    rng = random.Random(307)
    for _ in range(400):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, density=rng.uniform(0.2, 0.8))
        assert is_max_balanced_cut(a) == is_max_balanced_cyclecover(a)


def test_cut_size_guard():
    big = MaxMatrix.identity(15, EXACT_TIMES)
    with pytest.raises(SizeLimitError):
        is_max_balanced_cut(big)
    assert is_max_balanced_cut(big, size_limit=15)


def test_max_balance_worked_example():
    a = fmat([[0, 4], [1, 0]])
    cert = max_balance(a)
    assert cert.balanced == fmat([[0, 2], [2, 0]])
    assert not cert.exact_degraded
    assert apply_scaling(a, cert.scaling) == cert.balanced
    assert cert.scaling.x.is_positive()
    assert is_max_balanced_cyclecover(cert.balanced)
    assert is_max_balanced_cut(cert.balanced)
    assert "cycle_cover" in cert.checked_properties
    # one component, one level: the 2-cycle of weight 4
    assert len(cert.levels) == 1
    assert list(cert.levels[0]) == [(Fraction(4), 2)]


def test_max_balance_identity_and_diagonal():
    eye = MaxMatrix.identity(3, EXACT_TIMES)
    cert = max_balance(eye)
    assert cert.balanced == eye
    assert cert.scaling.x.entries == (Fraction(1),) * 3
    d = fmat([[5, 0], [0, Fraction(1, 3)]])
    cert = max_balance(d)
    assert cert.balanced == d


def test_max_balance_cross_component_edge_is_refused():
    a = fmat([[1, 1], [0, 1]])
    with pytest.raises(NoScalingError) as info:
        max_balance(a)
    assert "cycle" in str(info.value)


def test_max_balance_two_levels():
    # outer 2-cycle of mean 2, inner 2-cycle of mean 1/4 glued at node 1
    a = fmat([
        [0, 4, 0],
        [1, 0, Fraction(1, 4)],
        [0, Fraction(1, 4), 0],
    ])
    cert = max_balance(a)
    assert not cert.exact_degraded
    levels = list(cert.levels[0])
    assert len(levels) >= 2
    for earlier, later in zip(levels, levels[1:]):
        assert gmean_cmp(EXACT_TIMES, later, earlier) < 0
    assert is_max_balanced_cyclecover(cert.balanced)
    assert is_max_balanced_cut(cert.balanced)


def test_max_balance_exact_degrades_on_irrational_level():
    a = fmat([[0, 2], [3, 0]])
    cert = max_balance(a)
    assert cert.exact_degraded
    assert cert.balanced.semiring == FLOAT_TIMES
    got = cert.balanced.rows[0][1]
    assert math.isclose(got, math.sqrt(6.0))
    assert is_max_balanced_cut(cert.balanced)


def test_max_balance_random_irreducible():
    rng = random.Random(311)
    degraded = 0
    for _ in range(120):
        n = rng.randint(1, 6)
        a = random_irreducible(rng, n, density=0.35)
        cert = max_balance(a)
        degraded += cert.exact_degraded
        assert is_max_balanced_cyclecover(cert.balanced)
        assert is_max_balanced_cut(cert.balanced)
        assert cert.scaling.x.is_positive()
        if cert.exact_degraded:
            from maxalg import semiring_convert

            scaled = apply_scaling(
                semiring_convert(a, FLOAT_TIMES), cert.scaling
            )
            assert scaled.allclose(cert.balanced)
        else:
            assert apply_scaling(a, cert.scaling) == cert.balanced
        for seq in cert.levels:
            for earlier, later in zip(seq, seq[1:]):
                assert gmean_cmp(cert.balanced.semiring, later, earlier) < 0
    # plenty of irrational instances should show up and degrade cleanly
    assert degraded > 10


def test_max_balance_block_diagonal():
    a = fmat([
        [0, 4, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, Fraction(1, 2)],
        [0, 0, Fraction(1, 2), 0],
    ])
    cert = max_balance(a)
    assert cert.balanced == fmat([
        [0, 2, 0, 0],
        [2, 0, 0, 0],
        [0, 0, 0, Fraction(1, 2)],
        [0, 0, Fraction(1, 2), 0],
    ])
    assert len(cert.levels) == 2


def _cover_grids(rng, domain, exact, n):
    """The semiring and rows of a max-balanced matrix and of a perturbation.

    Balanced: max_balance of a random irreducible matrix (in float mode
    when an exact max-times level is irrational), or a symmetric matrix,
    whose entries each close a 2-cycle with their mirror. Perturbed: a
    few entries moved up or down, zeroed or filled in, by steps that
    float mode sees (1e-1) or does not (1e-12, inside the tolerance).
    """
    sr = Semiring(domain, exact)
    if exact:
        value = lambda: Fraction(rng.randint(1, 16), rng.randint(1, 8))
    else:
        value = lambda: rng.uniform(0.05, 4.0)
    if domain == PLUS:
        draw = value
        value = lambda: draw() - 4
        shift = lambda v, s: v + s
    else:
        shift = lambda v, s: v * (1 + s)
    rows = [[sr.zero] * n for _ in range(n)]
    if rng.random() < 0.5:
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.5:
                    rows[i][j] = rows[j][i] = value()
    else:
        order = list(range(n))
        rng.shuffle(order)
        for u, v in zip(order, order[1:] + order[:1]):
            rows[u][v] = value()
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.3:
                    rows[i][j] = value()
        balanced = max_balance(MaxMatrix._raw(rows, sr)).balanced
        sr, rows = balanced.semiring, [list(r) for r in balanced.rows]
    if sr.exact:
        steps = [Fraction(1, 8), -Fraction(1, 8)]
    else:
        value = lambda draw=value: float(draw())
        steps = [1e-1, -1e-1, 1e-12, -1e-12]
    perturbed = [list(row) for row in rows]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(n), rng.randrange(n)
        v = perturbed[i][j]
        if rng.random() < 0.2:
            perturbed[i][j] = sr.zero
        elif sr.is_zero(v):
            perturbed[i][j] = value()
        else:
            perturbed[i][j] = shift(v, rng.choice(steps))
    return sr, [rows, perturbed]


def test_cyclecover_matches_dfs_reference():
    rng = random.Random(1107)
    outcomes = {True: 0, False: 0}
    sizes = [2, 3, 4, 5, 6, 8, 10, 12] * 3 + [20, 30]
    for domain in (TIMES, PLUS):
        for exact in (True, False):
            for n in sizes:
                sr, grids = _cover_grids(rng, domain, exact, n)
                tols = (sr.tol,) if sr.exact else (1e-9, 0.0)
                for rows in grids:
                    for tol in tols:
                        b = MaxMatrix._raw(rows, Semiring(domain, sr.exact, tol))
                        got = is_max_balanced_cyclecover(b)
                        assert got == cyclecover_reference(b), (b.semiring, rows)
                        outcomes[got] += 1
    assert min(outcomes.values()) > 60


def test_cyclecover_zero_entries_are_edges_below_tolerance():
    # in float max-times sr.ge(0.0, w) holds for w <= tol, so the zero
    # entry (1, 0) closes the cycle of the weight-1e-10 entry (0, 1)
    rows = [[0.0, 1e-10], [0.0, 0.0]]
    for tol, want in ((1e-9, True), (0.0, False)):
        b = MaxMatrix._raw(rows, Semiring(TIMES, False, tol))
        assert is_max_balanced_cyclecover(b) is want
        assert cyclecover_reference(b) is want


def test_cyclecover_tolerance_covers_a_slightly_lighter_cycle():
    rows = [[0.0, 1.0], [1.0 - 1e-12, 0.0]]
    for tol, want in ((1e-9, True), (0.0, False)):
        b = MaxMatrix._raw(rows, Semiring(TIMES, False, tol))
        assert is_max_balanced_cyclecover(b) is want
        assert cyclecover_reference(b) is want
    # exact mode and max-plus -inf zeros
    assert not is_max_balanced_cyclecover(
        fmat([[0, 1], [Fraction(10**12 - 1, 10**12), 0]])
    )
    assert is_max_balanced_cyclecover(
        MaxMatrix([[NEG_INF, 3, 1], [3, NEG_INF, NEG_INF], [1, 1, 0]], EXACT_PLUS)
    )


def test_cyclecover_nan_entry_is_no_edge():
    # float products can hold nan (an overflowed inf times a zero); the
    # comparisons fail on it both as an edge and as a weight
    nan = float("nan")
    for rows, want in (
        ([[2.0, 1.0], [nan, 2.0]], False),
        ([[nan, 1.0], [1.0, 0.0]], True),
        ([[0.0, 1.0, 1.0], [1.0, 0.0, nan], [1.0, 1.0, 0.0]], False),
    ):
        b = MaxMatrix._raw(rows, FLOAT_TIMES)
        assert is_max_balanced_cyclecover(b) is want
        assert cyclecover_reference(b) is want


# -- levels on nonzero patterns against the dense levels ----------------------


def _balance(a):
    cert = max_balance(a)
    return (cert.scaling.x.entries, cert.balanced.rows, cert.levels,
            cert.exact_degraded)


def _outcome(f, a):
    try:
        return f(a)
    except (MaxAlgebraError, NegativeAnswer) as err:
        return type(err)


def _recording_levels(monkeypatch):
    """(succ, matrix) of every balancing level run from now on: the
    successor lists the level step reads, as tuples, and the dense matrix
    of their entries."""
    seen = []
    original = spectral.balance_level

    def recording(sr, succ, pred, table):
        seen.append((tuple(map(tuple, succ)), dense_level(sr, succ)))
        return original(sr, succ, pred, table)

    monkeypatch.setattr(spectral, "balance_level", recording)
    return seen


def _assert_levels_hold_their_patterns(levels):
    # a level's successor lists are the pattern its entries give: j
    # ascending, no zero on them, no nonzero entry off them
    for succ, m in levels:
        assert nonzero_pattern(m) == succ


def _float_balance_input(rng, n):
    """float_balance's max-times inputs: a planted spanning cycle plus
    entries at density 0.3, log-uniform over e^-3..e^3."""
    rows = [
        [math.exp(rng.uniform(-3.0, 3.0)) if rng.random() < 0.3 else 0.0
         for _ in range(n)]
        for _ in range(n)
    ]
    order = list(range(n))
    rng.shuffle(order)
    for u, v in zip(order, order[1:] + order[:1]):
        rows[u][v] = math.exp(rng.uniform(-3.0, 3.0))
    return MaxMatrix(rows, FLOAT_TIMES)


def test_max_balance_equals_the_dense_levels_on_the_criteria_corpora(
        monkeypatch):
    levels = _recording_levels(monkeypatch)
    answered = refused = 0
    for a in criteria_corpus():
        # the Fraction entries read as exact max-plus weights as well
        plus = MaxMatrix([[v if v else NEG_INF for v in row]
                          for row in a.rows], EXACT_PLUS)
        for m in (a, semiring_convert(a, FLOAT_TIMES),
                  semiring_convert(a, FLOAT_PLUS), plus):
            got = _outcome(_balance, m)
            assert got == _outcome(max_balance_reference, m)
            if isinstance(got, type):
                refused += 1
            else:
                answered += 1
    _assert_levels_hold_their_patterns(levels)
    assert answered >= 900 and refused >= 100 and len(levels) >= 2000


def test_max_balance_equals_the_dense_levels_on_float_balance_inputs(
        monkeypatch):
    levels = _recording_levels(monkeypatch)
    rng = random.Random(2211)
    for n in (2, 3, 6, 12, 18, 24, 32, 40):
        for _ in range(3):
            a = _float_balance_input(rng, n)
            for m in (a, semiring_convert(a, FLOAT_PLUS)):
                assert _balance(m) == max_balance_reference(m)
    _assert_levels_hold_their_patterns(levels)
    assert max(m.n for _succ, m in levels) == 40


def test_a_rescaled_entry_that_underflows_leaves_the_next_pattern(
        monkeypatch):
    # level one freezes the unit 2-cycle {0, 1} and scales node 2 by
    # 1e-200, so a_02 = 1e-150 becomes 1e-350, which rounds to 0.0: the
    # group pair ({0, 1}, 2) of level two has no other entry and stays
    # off its pattern, as the dense reduce leaves it at the zero
    levels = _recording_levels(monkeypatch)
    a = MaxMatrix([
        [0.0, 1.0, 1e-150, 0.0],
        [1.0, 0.0, 0.0, 0.5],
        [1e-200, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.5, 0.0],
    ], FLOAT_TIMES)
    got = _balance(a)
    assert got == max_balance_reference(a)
    assert len(got[2][0]) == 3
    second = levels[1][1]
    assert second.n == 3 and second[0, 1] == 0.0
    assert [j for j, _w in nonzero_pattern(second)[0]] == [2]
    _assert_levels_hold_their_patterns(levels)


def test_a_level_left_reducible_by_an_underflow_is_refused():
    # level one freezes the unit 2-cycle {0, 1} and scales nodes 2 and 3
    # by 1e-200 and 5e-201, so a_03 = 1e-150 rounds to 0.0: level two
    # keeps the cycle {2, 3}, but its point {0, 1} has no edge out, and
    # no contraction can merge it with that cycle again
    a = MaxMatrix([
        [0.0, 1.0, 0.0, 1e-150],
        [1.0, 0.0, 0.0, 0.0],
        [1e-200, 0.0, 0.0, 0.5],
        [0.0, 0.0, 0.5, 0.0],
    ], FLOAT_TIMES)
    with pytest.raises(ModeError, match="a rescaled entry of a balancing "
                       "level underflows the float range"):
        max_balance(a)
    # the dense levels run into the zero scale of the point {0, 1}
    assert _outcome(max_balance_reference, a) is ModeError


def test_float_levels_build_no_matrix_or_analysis(monkeypatch):
    # a float max-times run on the normal path weighs each entry of a
    # level once, for that level's table, before the level runs; it
    # builds no analysis, no closure and no sub-matrix, and each level
    # makes one Tarjan pass, over its tight edges, after the one over the
    # input's pattern
    a = _float_balance_input(random.Random(5), 24)
    weights = count_calls(monkeypatch, "_float_weight")
    analyses = count_calls(monkeypatch, "spectral_analysis")
    stars = count_calls(monkeypatch, "kleene_star")
    passes = count_calls(monkeypatch, "strong_components")
    restricted = []
    restrict = MaxMatrix.restrict
    monkeypatch.setattr(MaxMatrix, "restrict", lambda m, *args: (
        restricted.append(args) or restrict(m, *args)))
    at_level = []
    sizes = []
    level = spectral.balance_level

    def counting(sr, succ, pred, table):
        sizes.append(sum(len(out) for out in succ))
        at_level.append((len(weights), len(passes)))
        return level(sr, succ, pred, table)

    monkeypatch.setattr(spectral, "balance_level", counting)
    cert = max_balance(a)
    levels = len(cert.levels[0])
    assert levels >= 5 and len(at_level) == levels
    assert sizes[0] == sum(1 for row in a.rows for v in row if v)
    assert at_level == [(sum(sizes[:k + 1]), 1 + k) for k in range(levels)]
    assert len(weights) == sum(sizes) and len(passes) == 1 + levels
    assert analyses == [] and stars == [] and restricted == []


# -- what a level refuses -------------------------------------------------------


@pytest.mark.parametrize("rows, message", [
    # the one cycle, 0 -> 1 -> 0, has mean sqrt(1e300 * 1e-320) = 1e-10,
    # and a_01 / 1e-10 = 1e310 overflows
    ([[0, 1e300], [1e-320, 0]],
     "an entry divided by the maximum cycle mean overflows the float "
     "range; use exact mode"),
    ([[1e-310, 1e-311], [1e-311, 0]],
     "the maximum cycle mean 1e-310 is so small that its inverse "
     "overflows the float range; use exact mode"),
])
def test_a_float_level_refuses_the_division_as_normalized_does(
        rows, message):
    a = MaxMatrix(rows, FLOAT_TIMES)
    with pytest.raises(ModeError) as err:
        max_balance(a)
    assert str(err.value) == message
    with pytest.raises(ModeError) as err:
        spectral_analysis(a).normalized()
    assert str(err.value) == message


def test_an_irrational_exact_level_is_refused():
    a = fmat([[0, 2], [1, 0]])
    with pytest.raises(ExactnessError) as err:
        spectral.balance_levels(a.semiring, nonzero_pattern(a), (0, 1))
    assert str(err.value) == (
        "the maximum cycle mean 2^(1/2) is irrational; use float mode"
    )
    # max_balance restarts such a level in float mode
    assert max_balance(a).exact_degraded


def test_each_level_certifies_its_mean_once(monkeypatch):
    # criterion 12's first 80 inputs: a level that refuses its irrational
    # mean, before the float restart, certifies it no second time
    certify = count_calls(monkeypatch, "_certify")
    levels = count_calls(monkeypatch, "balance_level")
    analyses = count_calls(monkeypatch, "spectral_analysis")
    rng = random.Random(112)
    degraded = 0
    for _ in range(80):
        degraded += max_balance(
            random_irreducible(rng, rng.randint(2, 8))
        ).exact_degraded
    assert degraded >= 40
    assert len(certify) == len(levels) >= 300 and analyses == []


# -- components that are not contiguous -----------------------------------------


def _interleaved_blocks(rng, sizes):
    """A block-diagonal matrix up to a shuffle of its nodes: one random
    irreducible block per size, on nodes that interleave, and no entry
    between blocks. Returns the matrix and its blocks' node sets."""
    n = sum(sizes)
    nodes = list(range(n))
    rng.shuffle(nodes)
    rows = [[0] * n for _ in range(n)]
    comps = []
    for k in sizes:
        comp, nodes = sorted(nodes[:k]), nodes[k:]
        block = random_irreducible(rng, k)
        for u, row in zip(comp, block.rows):
            for v, w in zip(comp, row):
                rows[u][v] = w
        comps.append(comp)
    return fmat(rows), comps


def test_interleaved_components_equal_the_dense_levels():
    rng = random.Random(3011)
    corpus = [_interleaved_blocks(rng, (3, 2))]
    # the hand case: components {0, 2, 4} and {1, 3}
    a = fmat([[1, 0, 2, 0, 0], [0, 0, 0, 3, 0], [0, 0, 0, 0, 5],
              [0, 1, 0, 1, 0], [4, 0, 1, 0, 0]])
    corpus.append((a, [[0, 2, 4], [1, 3]]))
    for _ in range(40):
        sizes = [rng.randint(2, 5) for _ in range(rng.randint(2, 3))]
        corpus.append(_interleaved_blocks(rng, sizes + [1]))
    interleaved = 0
    for a, comps in corpus:
        interleaved += any(c != list(range(c[0], c[-1] + 1)) for c in comps)
        for m in (a, semiring_convert(a, FLOAT_TIMES),
                  semiring_convert(a, FLOAT_PLUS)):
            assert _balance(m) == max_balance_reference(m)
    assert interleaved >= 35
