"""Power-sequence layer: periodicity, CSR factors, expansions, bounds."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from maxalg import (
    EXACT_PLUS,
    EXACT_TIMES,
    FLOAT_PLUS,
    FLOAT_TIMES,
    NEG_INF,
    CsrTerm,
    Expansion,
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
    otimes,
    semiring_convert,
    spectral_analysis,
    strong_path_table,
    strong_path_weight,
    transient_and_period,
    transient_bound,
)

from maxalg.asymptotics import _csr_parts, normalized_periodicity

from helpers import (
    additive,
    count_calls,
    fmat,
    power_two_dominant,
    random_matrix,
    repeat_start_reference,
    two_level_planted,
    unit_lambda_irreducible,
    unit_mean_corpus,
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
    # a's n rows are lifted once, at the first product: as the right
    # factor its columns are those row lifts over their largest
    # denominator, 200, which every other one divides, and every later
    # power is born holding its row lifts, so the count does not grow
    # with the transient
    a = fmat([[1, 1], [Fraction(1, 2), Fraction(199, 200)]])
    lifts = count_calls(monkeypatch, "_lift")
    prof = transient_and_period(a, budget=1000)
    assert (prof.transient, prof.period) == (139, 1)
    assert len(lifts) == a.n


@pytest.mark.parametrize("budget", [1, 0, -3])
def test_a_budget_below_two_is_refused(budget):
    # a repeat needs two powers: the scan is refused before it starts,
    # with the value named, rather than run out after no power at all
    a = fmat([[1, 1], [1, 0]])
    want = f"the budget must be at least 2, got {budget}"
    for f in (transient_and_period, normalized_periodicity, csr_decompose):
        with pytest.raises(IterationBudgetError, match=want):
            f(a, budget=budget)
    # two powers are enough when the second repeats the first
    eye = fmat([[1, 0], [0, 1]])
    assert transient_and_period(eye, budget=2).transient == 1


def test_hand_built_expansion_evaluates_like_mat_power():
    # a term built by hand carries no start, so its S^t is mat_power's,
    # on matrices whose powers need not repeat when their patterns do
    rng = random.Random(47)
    cases = [random_matrix(rng, rng.randint(1, 5), rng.uniform(0.2, 0.8))
             for _ in range(40)]
    for s in cases:
        n = s.n
        eye = MaxMatrix.identity(n, EXACT_TIMES)
        term = CsrTerm(coefficient=Fraction(1), pair=(Fraction(1), 1),
                       c=eye, s=s, r=eye, gamma=1,
                       critical_nodes=tuple(range(n)))
        e = Expansion(terms=(term,), validity_start=1, horizon=1, n=n,
                      semiring=EXACT_TIMES)
        for t in (0, 1, 2, 3, 4, 7, 8, 30, 100):
            assert expansion_power(e, t) == mat_power(s, t)
        with pytest.raises(ValueError):
            expansion_power(e, -1)


def test_expansion_terms_keep_the_start_of_their_repeat():
    # each exact term keeps the least s with S^(s + gamma) == S^s, as
    # plain Fraction powers find it; the start is not part of the term's
    # value, so terms compare, hash and print without it
    rng = random.Random(48)
    cases = [two_level_planted(rng, rng.randint(3, 6))[0] for _ in range(8)]
    cases += [power_two_dominant(rng, rng.randint(2, 4)) for _ in range(4)]
    cases += unit_mean_corpus()[:8]
    cases += [additive(a) for a in cases[:6]]
    for a in cases:
        for term in nachtigall_expansion(a).terms:
            assert term._start == repeat_start_reference(term.s, term.gamma)
            bare = replace(term, _start=None)
            assert bare == term and hash(bare) == hash(term)
            assert repr(bare) == repr(term)
    for sr in (FLOAT_TIMES, FLOAT_PLUS):
        a = semiring_convert(cases[0], sr)
        assert all(t._start is None for t in nachtigall_expansion(a).terms)


def test_strong_path_table_lifts_the_rows_of_tilde_once(monkeypatch):
    # the table is one power of a 2n x 2n matrix: its 2n rows are lifted
    # at the first squaring, whatever t, its columns are those row lifts
    # over the largest denominator, and every later power is born
    # lifted; the first call also lifts a's n rows, for tilde =
    # a.scale(1 / lam), and a keeps them
    a = unit_lambda_irreducible(random.Random(5), 6)
    lifts = count_calls(monkeypatch, "_lift")
    for t in (2, 10, 60, 200):
        lifts.clear()
        strong_path_table(a, t)
        assert len(lifts) == (3 if t == 2 else 2) * a.n


def test_strong_path_table_takes_logarithmically_many_products(monkeypatch):
    a = unit_lambda_irreducible(random.Random(5), 6)
    products = count_calls(monkeypatch, "_multiply")
    t = 1000
    strong_path_table(a, t)
    assert len(products) <= 2 * math.ceil(math.log2(t)) + 1


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


def test_returned_matrices_have_their_rows_built():
    # exact products and scales are born lifted, with no Fraction rows
    # until read; every matrix that the asymptotics hand back already
    # has them
    def built(m):
        try:
            object.__getattribute__(m, "rows")  # skips MaxMatrix.__getattr__
        except AttributeError:
            return False
        return True

    rng = random.Random(43)
    a = unit_lambda_irreducible(rng, 4)
    assert not built(otimes(a, a)) and built(a)
    for _ in range(6):
        a = unit_lambda_irreducible(rng, rng.randint(3, 6))
        prof = transient_and_period(a)
        trip = csr_decompose(a)
        expansion = nachtigall_expansion(two_level_planted(rng, 4)[0])
        mats = [*prof.powers, trip.c, trip.s, trip.r]
        mats += [m for term in expansion.terms
                 for m in (term.c, term.s, term.r)]
        mats += [csr_power(trip, t) for t in (1, 40)]
        mats += [expansion_power(expansion, t) for t in (1, 40)]
        assert all(built(m) for m in mats)


def test_csr_parts_builds_no_rows_of_tilde(monkeypatch):
    # S's exact entries are the critical edges' weights over lam, so the
    # tilde that scale gives born lifted keeps its row lifts alone: the
    # C, S, R split builds no Fraction row of any matrix
    built = []
    original = MaxMatrix.__getattr__

    def counting(m, name):
        if name == "rows":
            built.append(m)
        return original(m, name)

    rng = random.Random(47)
    corpus = [unit_lambda_irreducible(rng, rng.randint(3, 6)).scale(
        Fraction(rng.randint(1, 9), rng.randint(1, 9))) for _ in range(6)]
    corpus += [two_level_planted(rng, rng.randint(4, 6))[0]
               for _ in range(4)]
    corpus += [additive(m) for m in corpus[:3]]
    for a in corpus:
        an = spectral_analysis(a)
        monkeypatch.setattr(MaxMatrix, "__getattr__", counting)
        _c, s, _r = _csr_parts(an)
        monkeypatch.undo()
        assert built == []
        # S is tilde on the critical edges, the zero elsewhere
        tilde, crit = an.tilde, an.critical.nodes
        edges = set(an.critical.edges)
        sr = a.semiring
        assert s.rows == tuple(
            tuple(tilde[i, j] if (i, j) in edges else sr.zero
                  for j in crit)
            for i in crit
        )


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
    # a caller-given horizon is a hard cap on the proven onset, with no
    # margin: the onset is reported when it fits below the cap, and stays
    # unknown when the cap is too small
    a = fmat([[1, Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 4)]])
    exp = nachtigall_expansion(a, horizon=2)
    assert exp.validity_start == 1
    assert exp.horizon == 2
    assert [t.coefficient for t in exp.terms] == [
        Fraction(1), Fraction(1, 4)
    ]
    a = fmat([[Fraction(1, 4), Fraction(1, 2)], [1, 1]])
    assert nachtigall_expansion(a).validity_start == 2
    assert mat_power(a, 1) != expansion_power(nachtigall_expansion(a), 1)
    for horizon, onset in ((1, None), (2, 2), (3, 2)):
        exp = nachtigall_expansion(a, horizon=horizon)
        assert (exp.validity_start, exp.horizon) == (onset, horizon)


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
