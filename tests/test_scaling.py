"""Scaling layer: FP scalings, solution families, the moduli test."""

import random
from fractions import Fraction

import pytest

from maxalg import (
    EXACT_PLUS,
    EXACT_TIMES,
    FLOAT_TIMES,
    DiagonalScaling,
    HadamardFailsError,
    MaxMatrix,
    MaxVector,
    ModeError,
    NoScalingError,
    NotAnFpScalingError,
    PatternViolationError,
    ZeroDiagonalError,
    apply_scaling,
    as_scaling,
    fp_scaling,
    hadamard_scaling_test,
    has_rowcol_maxima_diagonal,
    is_fp_scaling,
    row_col_maxima_scalings,
    sandwich_scalings,
    satisfies_sandwich,
    saturation_graph,
    strong_fp_scaling,
)

from helpers import (
    assert_heavy_cycle,
    count_calls,
    fmat,
    fvec,
    hadamard_condition_one_brute,
    has_cycle_above_one_brute,
    best_gmean_pair_brute,
    random_matrix,
    random_signed,
    rowcol_constraints_brute,
    sandwich_constraints_brute,
)


def test_diagonal_scaling_apply():
    x = as_scaling([2, 1], EXACT_TIMES)
    a = fmat([[0, 2], [Fraction(1, 4), 0]])
    b = x.apply(a)
    assert b == fmat([[0, 1], [Fraction(1, 2), 0]])
    assert apply_scaling(a, x) == b
    assert apply_scaling(a, fvec([2, 1])) == b
    with pytest.raises(ValueError):
        as_scaling([1, 0], EXACT_TIMES)


def test_is_fp_scaling_hand_values():
    a = fmat([[0, 2], [Fraction(1, 4), 0]])
    assert not is_fp_scaling(a, fvec([1, 1]))
    assert is_fp_scaling(a, fvec([2, 1]))
    half = fmat([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    assert is_fp_scaling(half, fvec([1, 1]), strict=True)
    assert not is_fp_scaling(a, fvec([2, 1]), strict=True)
    # non-positive candidate vectors never qualify
    assert not is_fp_scaling(a, fvec([1, 0]))


def test_fp_scaling_worked_example():
    a = fmat([[0, 2], [Fraction(1, 4), 0]])
    scaling = fp_scaling(a)
    assert scaling.x.entries == (Fraction(2), Fraction(1))
    assert is_fp_scaling(a, scaling.x)
    scaled = scaling.apply(a)
    assert all(w <= 1 for row in scaled.rows for w in row)


def _refusals(rng, count):
    """count refused instances of each star-decided solver.

    Yields (solve, q): solve() raises NoScalingError, and q is the grid,
    built from the definitions, whose heavy cycle its witness must be.
    """
    seen = {"fp": 0, "rowcol": 0, "sandwich": 0}
    while min(seen.values()) < count:
        n = rng.randint(2, 6)
        a = random_matrix(rng, n, density=0.5)
        if seen["fp"] < count and has_cycle_above_one_brute(a):
            seen["fp"] += 1
            yield (lambda a=a: fp_scaling(a)), a.rows
        rows = [list(r) for r in a.rows]
        for i in range(n):
            rows[i][i] = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        d = fmat(rows)
        q = rowcol_constraints_brute(d.rows)
        if seen["rowcol"] < count and has_cycle_above_one_brute(fmat(q)):
            seen["rowcol"] += 1
            yield (lambda d=d: row_col_maxima_scalings(d)), q
        lo = a.scale(Fraction(rng.randint(1, 6)))
        triple = [(lo, a, a.scale(Fraction(rng.randint(1, 6))))]
        q = sandwich_constraints_brute(triple)
        if seen["sandwich"] < count and has_cycle_above_one_brute(fmat(q)):
            seen["sandwich"] += 1
            yield (lambda t=triple: sandwich_scalings(t)), q


def test_fp_scaling_negative_case_carries_witness():
    # the refusal's witness is the heavy cycle of the star that diverged:
    # of a itself for fp_scaling, of the constraint matrix for the row and
    # column maxima and the sandwich families
    a = fmat([[0, 4], [1, 0]])
    b = fmat([[1, 4], [1, 1]])
    triple = [(fmat([[0, 4], [4, 0]]), fmat([[0, 1], [1, 0]]),
               fmat([[0, 1], [1, 0]]))]
    cases = [
        (lambda: fp_scaling(a), a.rows),
        (lambda: row_col_maxima_scalings(b), rowcol_constraints_brute(b.rows)),
        (lambda: sandwich_scalings(triple),
         sandwich_constraints_brute(triple)),
    ]
    for solve, q in cases + list(_refusals(random.Random(41), 25)):
        with pytest.raises(NoScalingError) as info:
            solve()
        assert_heavy_cycle(info.value.witness, q)


# a 2-cycle of weight 1 + 1.5e-9: its mean is within the 1e-9 tolerance of
# one, its weight is not, and the star diverges
_BAND = [[0, 1.0], [1 + 1.5e-9, 0]]
_BAND_DIAG = [[1.0, 1.0], [1 + 1.5e-9, 1.0]]
_BAND_CASES = {
    "fp": (lambda: fp_scaling(MaxMatrix(_BAND, FLOAT_TIMES)),
           NoScalingError, _BAND),
    "rowcol": (lambda: row_col_maxima_scalings(
        MaxMatrix(_BAND_DIAG, FLOAT_TIMES)),
        NoScalingError, rowcol_constraints_brute(_BAND_DIAG)),
    "hadamard": (lambda: hadamard_scaling_test(_BAND_DIAG, FLOAT_TIMES),
                 HadamardFailsError, _BAND),
}


@pytest.mark.parametrize("solver", _BAND_CASES)
def test_float_tolerance_band_refusal_is_typed(solver):
    # each solver answers with its own negative answer and the star's
    # witness, not with the star's DivergenceError
    solve, error, q = _BAND_CASES[solver]
    with pytest.raises(error) as info:
        solve()
    assert_heavy_cycle(info.value.witness, q)


_TRIPLE = [(fmat([[0, 1], [1, 0]]), fmat([[0, 2], [2, 0]]),
            fmat([[0, 4], [4, 0]]))]
_FEASIBLE = {
    "fp": lambda: fp_scaling(fmat([[0, 2], [Fraction(1, 4), 0]])),
    "rowcol": lambda: row_col_maxima_scalings(fmat([[2, 1], [4, 2]])),
    "sandwich": lambda: sandwich_scalings(_TRIPLE),
    "hadamard": lambda: hadamard_scaling_test([[2, 1], [1, 2]]),
}


@pytest.mark.parametrize("solver", _FEASIBLE)
def test_feasible_scaling_builds_no_spectral_analysis(monkeypatch, solver):
    # the star's own divergence check decides feasibility
    calls = count_calls(monkeypatch, "spectral_analysis")
    _FEASIBLE[solver]()
    assert calls == []


def test_fp_scaling_seeded_vector_changes_solution():
    a = fmat([[0, 2], [Fraction(1, 4), 0]])
    alt = fp_scaling(a, u=fvec([1, 3]))
    assert is_fp_scaling(a, alt.x)
    assert alt.x.entries != fp_scaling(a).x.entries


def test_strong_fp_scaling_hand_values():
    a = fmat([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    scaling = strong_fp_scaling(a)
    assert scaling.x.entries == (Fraction(3, 2), Fraction(3, 2))
    assert is_fp_scaling(a, scaling.x, strict=True)
    # mean exactly one: no strong scaling, witness reported
    b = fmat([[0, 2], [Fraction(1, 2), 0]])
    with pytest.raises(NoScalingError) as info:
        strong_fp_scaling(b)
    assert info.value.witness is not None


def test_strong_fp_scaling_additive_exact_mode_is_refused():
    from maxalg import ExactnessError, semiring_convert

    m = fmat([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    p = semiring_convert(m, EXACT_PLUS, base=2)
    with pytest.raises(ExactnessError):
        strong_fp_scaling(p)


def test_saturation_graph_edges():
    a = fmat([[0, 2], [Fraction(1, 4), 0]])
    sat = saturation_graph(a, fvec([2, 1]))
    assert {(i, j) for i, j, _w in sat.graph.edges} == {(0, 1)}
    eye = fmat([[1, 0], [0, 1]])
    sat = saturation_graph(eye, fvec([1, 1]))
    assert {(i, j) for i, j, _w in sat.graph.edges} == {(0, 0), (1, 1)}
    with pytest.raises(NotAnFpScalingError):
        saturation_graph(a, fvec([1, 1]))


def test_fp_scaling_random_against_cycle_oracle():
    rng = random.Random(211)
    positive = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, density=rng.uniform(0.15, 0.6))
        if has_cycle_above_one_brute(a):
            with pytest.raises(NoScalingError):
                fp_scaling(a)
        else:
            scaling = fp_scaling(a)
            assert is_fp_scaling(a, scaling.x)
            positive += 1
    assert positive > 60


def test_strong_fp_scaling_random_against_cycle_oracle():
    rng = random.Random(223)
    positive = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, density=rng.uniform(0.15, 0.6))
        best = best_gmean_pair_brute(a)
        # mean pair (w, l) is below 1 iff w < 1 as Fractions
        strictly_below = best is None or best[0] < 1
        if strictly_below:
            scaling = strong_fp_scaling(a)
            assert is_fp_scaling(a, scaling.x, strict=True)
            scaled = scaling.apply(a)
            assert all(
                w < 1 for row in scaled.rows for w in row if w != 0
            )
            positive += 1
        else:
            with pytest.raises(NoScalingError):
                strong_fp_scaling(a)
    assert positive > 60


def test_scaling_family_membership_and_sampling():
    a = fmat([[0, 2], [Fraction(1, 4), 0]])
    fam = row_col_maxima_scalings(fmat([[2, 1], [4, 2]]))
    x = fam.sample()
    assert fam.contains(x)
    rng = random.Random(3)
    for _ in range(20):
        y = fam.sample_random(rng)
        assert fam.contains(y)
        b = apply_scaling(fmat([[2, 1], [4, 2]]), y)
        assert has_rowcol_maxima_diagonal(b)
    assert not fam.contains(fvec([1, 100]))
    with pytest.raises(ValueError):
        fam.sample(fvec([1, 0]))


def test_row_col_maxima_worked_example():
    a = fmat([[2, 1], [4, 2]])
    fam = row_col_maxima_scalings(a)
    assert fam.q == fmat([[1, Fraction(1, 2)], [2, 1]])
    x = fam.sample()
    assert x.x.entries == (Fraction(1), Fraction(2))
    b = apply_scaling(a, x)
    assert b == fmat([[2, 2], [2, 2]])
    assert has_rowcol_maxima_diagonal(b)


def test_row_col_maxima_negative_and_zero_diagonal():
    with pytest.raises(NoScalingError):
        row_col_maxima_scalings(fmat([[1, 4], [1, 1]]))
    with pytest.raises(ZeroDiagonalError):
        row_col_maxima_scalings(fmat([[0, 1], [1, 1]]))
    diag = fmat([[3, 0], [0, Fraction(1, 5)]])
    fam = row_col_maxima_scalings(diag)
    assert fam.sample().x.entries == (Fraction(1), Fraction(1))


def test_has_rowcol_maxima_diagonal_direct():
    assert has_rowcol_maxima_diagonal(fmat([[2, 2], [2, 2]]))
    assert not has_rowcol_maxima_diagonal(fmat([[2, 3], [2, 2]]))
    # row maxima fine, column maxima violated
    assert not has_rowcol_maxima_diagonal(fmat([[2, 1], [4, 4]]))


def test_sandwich_worked_examples():
    lo = fmat([[0, 1], [1, 0]])
    mid = fmat([[0, 2], [2, 0]])
    hi = fmat([[0, 4], [4, 0]])
    fam = sandwich_scalings([(lo, mid, hi)])
    x = fam.sample()
    assert x.x.entries == (Fraction(1), Fraction(1))
    assert satisfies_sandwich([(lo, mid, hi)], x)
    same = [(mid, mid, mid)]
    fam = sandwich_scalings(same)
    assert fam.sample().x.entries == (Fraction(1), Fraction(1))
    assert satisfies_sandwich(same, fam.sample())


def test_sandwich_pattern_violation_and_negative():
    lo = fmat([[0, 1], [1, 0]])
    mid = fmat([[0, 2], [2, 0]])
    hi_missing = fmat([[0, 4], [0, 0]])
    with pytest.raises(PatternViolationError):
        sandwich_scalings([(lo, mid, hi_missing)])
    lo_extra = fmat([[1, 1], [1, 0]])
    with pytest.raises(PatternViolationError):
        sandwich_scalings([(lo_extra, mid, fmat([[0, 4], [4, 0]]))])
    # forcing x1 <= x2/4 and x2 <= x1/4 at once is impossible
    lo2 = fmat([[0, 4], [4, 0]])
    mid2 = fmat([[0, 1], [1, 0]])
    hi2 = fmat([[0, 1], [1, 0]])
    with pytest.raises(NoScalingError):
        sandwich_scalings([(lo2, mid2, hi2)])


def test_sandwich_random_samples_satisfy_bounds():
    rng = random.Random(229)
    built = 0
    while built < 60:
        n = rng.randint(1, 4)
        mid = random_matrix(rng, n, density=0.6)
        if not mid.positive_entries():
            continue
        sr = mid.semiring
        lo_rows = [
            [
                w / Fraction(rng.randint(1, 4)) if w else 0
                for w in row
            ]
            for row in mid.rows
        ]
        hi_rows = [
            [
                w * Fraction(rng.randint(1, 4)) if w else 0
                for w in row
            ]
            for row in mid.rows
        ]
        triple = (fmat(lo_rows), mid, fmat(hi_rows))
        try:
            fam = sandwich_scalings([triple])
        except NoScalingError:
            continue
        built += 1
        for _ in range(5):
            x = fam.sample_random(rng)
            assert satisfies_sandwich([triple], x)


def test_hadamard_worked_examples():
    ok = [[2, 1], [1, 2]]
    scaling = hadamard_scaling_test(ok)
    assert isinstance(scaling, DiagonalScaling)
    bad = [[1, 3], [3, 1]]
    with pytest.raises(HadamardFailsError) as info:
        hadamard_scaling_test(bad)
    assert info.value.witness is not None
    signed = [[2, -1], [Fraction(1, 2), -2]]
    assert isinstance(hadamard_scaling_test(signed), DiagonalScaling)
    with pytest.raises(ZeroDiagonalError):
        hadamard_scaling_test([[0, 1], [1, 1]])
    with pytest.raises(ModeError):
        hadamard_scaling_test([[1, 0], [0, 1]], EXACT_PLUS)


def test_hadamard_random_against_condition_one_oracle():
    rng = random.Random(233)
    passes = 0
    for _ in range(150):
        n = rng.randint(2, 5)
        rows = random_signed(rng, n)
        want = hadamard_condition_one_brute(rows)
        if want:
            scaling = hadamard_scaling_test(rows)
            passes += 1
            d = scaling.x.entries
            # condition 2, directly: every row of the scaled moduli is
            # dominated by its diagonal, |b_ij| d_j <= |b_ii| d_i
            for i in range(n):
                for j in range(n):
                    assert abs(rows[i][j]) * d[j] <= abs(rows[i][i]) * d[i]
        else:
            with pytest.raises(HadamardFailsError):
                hadamard_scaling_test(rows)
    assert passes > 20
