"""Power-sequence layer: periodicity, CSR factors, expansions, bounds."""

import math
import random
from fractions import Fraction

import pytest

from maxalg import (
    EXACT_PLUS,
    EXACT_TIMES,
    FLOAT_TIMES,
    NEG_INF,
    InapplicableError,
    IterationBudgetError,
    MaxMatrix,
    ModeError,
    critical_graph,
    critical_matrix,
    csr_decompose,
    csr_power,
    expansion_power,
    mat_power,
    nachtigall_expansion,
    normalize_to_unit,
    strong_path_table,
    strong_path_weight,
    transient_and_period,
    transient_bound,
)

from helpers import (
    count_calls,
    fmat,
    power_two_dominant,
    two_level_planted,
    unit_lambda_irreducible,
)


def test_transient_and_period_hand_values():
    # loop plus 2-cycle: powers settle at t=2 with period 1
    a = fmat([[1, 1], [1, 0]])
    prof = transient_and_period(a)
    assert (prof.transient, prof.period) == (2, 1)
    assert prof.predicted_period == 1
    # permutation: periodic from the start with period 2
    p = fmat([[0, 1], [1, 0]])
    prof = transient_and_period(p)
    assert (prof.transient, prof.period) == (1, 2)
    assert prof.predicted_period == 2
    eye = MaxMatrix.identity(3, EXACT_TIMES)
    prof = transient_and_period(eye)
    assert (prof.transient, prof.period) == (1, 1)


def test_transient_and_period_minimality():
    rng = random.Random(401)
    for _ in range(80):
        n = rng.randint(1, 5)
        a = unit_lambda_irreducible(rng, n)
        prof = transient_and_period(a)
        t, p = prof.transient, prof.period
        base = mat_power(a, t)
        # repeats forever with period p across a window
        for k in range(t, t + 2 * p + 2):
            assert mat_power(a, k + p) == mat_power(a, k)
        # the period is minimal
        for q in range(1, p):
            assert mat_power(a, t + q) != base
        # the transient is minimal for this period
        if t > 1:
            assert mat_power(a, t - 1 + p) != mat_power(a, t - 1)


def test_power_ladder_lifts_its_right_factor_once(monkeypatch):
    # each product lifts only its left factor's n rows; the right factor's
    # n columns are lifted once for the whole scan, not at every product
    a = fmat([[1, 1], [Fraction(1, 2), Fraction(199, 200)]])
    lifts = count_calls(monkeypatch, "_lift")
    prof = transient_and_period(a, budget=1000)
    assert (prof.transient, prof.period) == (139, 1)
    n, products = a.n, prof.transient + prof.period - 1
    assert len(lifts) == (products + 1) * n


def _recording_analyses(monkeypatch):
    """Record every analysis that maxalg.asymptotics builds."""
    import maxalg.asymptotics as asymptotics

    made = []
    original = asymptotics.spectral_analysis

    def recording(a):
        made.append(original(a))
        return made[-1]

    monkeypatch.setattr(asymptotics, "spectral_analysis", recording)
    return made


def test_strong_path_table_lifts_the_rows_of_tilde_once(monkeypatch):
    # tilde is the fixed left factor of every step: its rows are lifted
    # once per call, whatever t; each step lifts one power's rows and the
    # columns of the walk table, and tilde's columns are lifted once
    a = unit_lambda_irreducible(random.Random(5), 6)
    made = _recording_analyses(monkeypatch)
    lifts = count_calls(monkeypatch, "_lift")
    n = a.n
    for t in (2, 10, 60):
        made.clear()
        lifts.clear()
        strong_path_table(a, t)
        (an,) = made
        rows = an.tilde.rows
        assert sum(1 for (v,) in lifts if any(v is r for r in rows)) == n
        assert len(lifts) == n * (2 * t - 1)


def test_csr_decompose_lifts_the_rows_of_c_once(monkeypatch):
    # every product C (x) S^t of the window and the onset walk reads the
    # row lifts that C made at its first product
    rng = random.Random(41)
    lifts = count_calls(monkeypatch, "_lift")
    checks = 0
    for _ in range(20):
        a = unit_lambda_irreducible(rng, rng.randint(3, 7))
        lifts.clear()
        trip = csr_decompose(a)
        rows = trip.c.rows
        c_lifts = sum(1 for (v,) in lifts if any(v is r for r in rows))
        assert c_lifts == len(rows)
        checks += trip.certified_from + trip.gamma - trip.transient > 1
    # most of these run more than one product with C
    assert checks >= 10


def test_transient_budget_error_on_never_periodic():
    shrink = fmat([[1, 0], [0, Fraction(1, 2)]])
    with pytest.raises(IterationBudgetError):
        transient_and_period(shrink)
    with pytest.raises(IterationBudgetError):
        transient_and_period(shrink, budget=50)


def test_normalize_to_unit():
    a = fmat([[0, 4], [1, 0]])
    tilde, mean = normalize_to_unit(a)
    assert mean.exact_value() == Fraction(2)
    assert tilde == fmat([[0, 2], [Fraction(1, 2), 0]])
    # the normalized matrix really has unit mean
    prof = transient_and_period(tilde)
    assert (prof.transient, prof.period) == (1, 2)


def test_critical_matrix():
    a = fmat([[1, 1], [1, Fraction(1, 2)]])
    cm = critical_matrix(a)
    assert cm == fmat([[1, 1], [1, 0]])
    # keeps weights, zeroes the rest
    b = fmat([[0, 2], [Fraction(1, 2), 0]])
    assert critical_matrix(b) == b


def test_csr_worked_example():
    a = fmat([[1, 1], [1, 0]])
    triple = csr_decompose(a)
    assert triple.lam == Fraction(1)
    assert triple.gamma == 1
    for t in range(triple.transient, triple.transient + 5):
        assert csr_power(triple, t) == mat_power(a, t)
    assert mat_power(a, 2) == fmat([[1, 1], [1, 1]])


def test_csr_permutation_stays_exact():
    p = fmat([[0, 1], [1, 0]])
    triple = csr_decompose(p)
    assert triple.gamma == 2
    assert triple.transient == 1
    for t in range(1, 7):
        assert csr_power(triple, t) == mat_power(p, t)


def test_csr_random_unit_mean():
    rng = random.Random(409)
    for _ in range(60):
        n = rng.randint(2, 6)
        a = unit_lambda_irreducible(rng, n)
        triple = csr_decompose(a)
        assert triple.gamma == critical_graph(a).cyclicity
        assert set(triple.critical_nodes) == set(critical_graph(a).nodes)
        for t in range(triple.transient, triple.transient + 2 * triple.gamma):
            assert csr_power(triple, t) == mat_power(a, t)
        if triple.transient > 1:
            t = triple.transient - 1
            assert csr_power(triple, t) != mat_power(a, t)


def test_csr_scales_with_lambda():
    rng = random.Random(419)
    for _ in range(25):
        n = rng.randint(2, 5)
        base = unit_lambda_irreducible(rng, n)
        lam = Fraction(2) ** rng.randint(-2, 2)
        a = base.scale(lam)
        triple = csr_decompose(a)
        assert triple.lam == lam
        for t in range(triple.transient, triple.transient + triple.gamma + 1):
            assert csr_power(triple, t) == mat_power(a, t)


def test_strong_path_weight_definition_small():
    # brute check against walks through critical nodes
    rng = random.Random(421)
    for _ in range(30):
        n = rng.randint(2, 4)
        a = unit_lambda_irreducible(rng, n)
        crit = set(critical_graph(a).nodes)
        grid = [
            [None if w == 0 else Fraction(w) for w in row] for row in a.rows
        ]
        for t in range(1, 7):
            # enumerate all walks of length t (n^(t+1) tuples at most)
            best = [[None] * n for _ in range(n)]

            def extend(node, weight, steps, touched):
                if steps == t:
                    i = walk_start
                    if touched:
                        if best[i][node] is None or weight > best[i][node]:
                            best[i][node] = weight
                    return
                for nxt in range(n):
                    w = grid[node][nxt]
                    if w is not None:
                        extend(nxt, weight * w, steps + 1,
                               touched or nxt in crit)

            for walk_start in range(n):
                extend(walk_start, Fraction(1), 0, walk_start in crit)
            got = strong_path_table(a, t)
            for i in range(n):
                for j in range(n):
                    want = best[i][j]
                    if want is None:
                        assert got.rows[i][j] == 0
                    else:
                        assert got.rows[i][j] == want
            i, j = rng.randrange(n), rng.randrange(n)
            assert strong_path_weight(a, i, j, t) == got.rows[i][j]


def test_strong_path_weight_hand_values():
    p = fmat([[0, 1], [1, 0]])
    # even-length walks on the 2-cycle return to their start
    assert strong_path_weight(p, 0, 1, 2) == 0
    assert strong_path_weight(p, 0, 0, 2) == 1
    b = fmat([[1, 1], [1, 0]])
    assert strong_path_weight(b, 1, 1, 2) == 1
    assert strong_path_table(b, 2) == fmat([[1, 1], [1, 1]])


def test_strong_path_table_eventually_equals_csr():
    rng = random.Random(431)
    for _ in range(25):
        n = rng.randint(2, 4)
        a = unit_lambda_irreducible(rng, n)
        triple = csr_decompose(a)
        start = 3 * n * n
        for t in range(start, start + 2 * triple.gamma + 1):
            assert strong_path_table(a, t) == csr_power(triple, t)


def test_nachtigall_expansion_diag_example():
    a = fmat([[1, 0], [0, Fraction(1, 2)]])
    exp = nachtigall_expansion(a)
    assert len(exp.terms) == 2
    assert [t.coefficient for t in exp.terms] == [
        Fraction(1), Fraction(1, 2)
    ]
    assert exp.validity_start == 1
    for t in range(1, 8):
        assert expansion_power(exp, t) == mat_power(a, t)


def test_nachtigall_coupled_example():
    a = fmat([[1, Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 4)]])
    exp = nachtigall_expansion(a)
    assert [t.coefficient for t in exp.terms] == [
        Fraction(1), Fraction(1, 4)
    ]
    assert exp.terms[0].critical_nodes == (0,)
    assert exp.terms[1].critical_nodes == (1,)
    for t in range(exp.validity_start, exp.validity_start + 6):
        assert expansion_power(exp, t) == mat_power(a, t)


def test_nachtigall_explicit_horizon_too_small():
    # a caller-given horizon is a hard cap: no onset with a margin of
    # twice the combined period fits below it, so validity stays unknown
    a = fmat([[1, Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 4)]])
    exp = nachtigall_expansion(a, horizon=2)
    assert exp.validity_start is None
    assert exp.horizon == 2
    assert [t.coefficient for t in exp.terms] == [
        Fraction(1), Fraction(1, 4)
    ]


def test_nachtigall_terms_structure():
    rng = random.Random(433)
    for _ in range(40):
        n = rng.randint(2, 5)
        a = power_two_dominant(rng, n)
        exp = nachtigall_expansion(a)
        coeffs = [term.coefficient for term in exp.terms]
        assert all(x > y for x, y in zip(coeffs, coeffs[1:]))
        supports = [set(term.critical_nodes) for term in exp.terms]
        for s1, s2 in zip(supports, supports[1:]):
            assert not (s1 & s2)
        # union of supports covers every node on some cycle here
        for t in range(exp.validity_start,
                       min(exp.horizon, exp.validity_start + 4) + 1):
            assert expansion_power(exp, t) == mat_power(a, t)


def test_nachtigall_two_level_planted():
    rng = random.Random(439)
    for _ in range(40):
        n = rng.randint(3, 6)
        a, lam1, lam2 = two_level_planted(rng, n)
        exp = nachtigall_expansion(a)
        assert exp.terms[0].coefficient == lam1
        if len(exp.terms) > 1:
            assert exp.terms[1].coefficient == lam2
        for t in range(exp.validity_start, exp.validity_start + 4):
            assert expansion_power(exp, t) == mat_power(a, t)


def test_transient_bound_worked_example():
    a = fmat([[1, 0], [0, Fraction(1, 2)]])
    tb = transient_bound(a)
    assert tb.measured == 1
    assert tb.lam1 == 1.0
    assert tb.lam2 == 0.5
    # 2 n^2 (log 1 - log 1/2) / (log 1 - log 1/2) = 2 n^2 = 8
    assert math.isclose(tb.bound, 8.0)
    assert tb.measured <= tb.bound


def test_transient_bound_inapplicable_single_term():
    a = fmat([[0, 1], [1, 0]])
    with pytest.raises(InapplicableError):
        transient_bound(a)


@pytest.mark.parametrize("horizon", [0, -1])
def test_nachtigall_refuses_a_horizon_below_one(horizon):
    a = fmat([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    with pytest.raises(IterationBudgetError, match="horizon"):
        nachtigall_expansion(a, horizon=horizon)
    assert nachtigall_expansion(a, horizon=1).horizon == 1


def test_float_expansion_whose_coefficient_power_overflows_is_refused():
    # the top coefficient is about 2.2e153, so its cube overflows
    a = MaxMatrix([[0.5, 1e308], [0.5, 2.0]], FLOAT_TIMES)
    with pytest.raises(ModeError, match="overflows the float range"):
        nachtigall_expansion(a)
    with pytest.raises(ModeError, match="overflows the float range"):
        transient_bound(a)


def test_transient_bound_refuses_a_gap_that_rounds_to_zero():
    # exact coefficients 1e-400 and 0 are both 0.0 as floats
    a = MaxMatrix([[Fraction(1, 10**400), NEG_INF], [2, 0]], EXACT_PLUS)
    with pytest.raises(ModeError, match="gap"):
        transient_bound(a)


def test_transient_bound_random_two_level():
    rng = random.Random(443)
    applicable = 0
    for _ in range(40):
        n = rng.randint(3, 5)
        a, _l1, _l2 = two_level_planted(rng, n)
        try:
            tb = transient_bound(a)
        except InapplicableError:
            continue
        applicable += 1
        assert tb.lam1 > tb.lam2
        assert tb.measured <= tb.bound
    assert applicable > 20
