"""Matrix layer: algebra, Kleene star vs the walk oracle, residuation."""

import math
import random
from fractions import Fraction

import pytest

import maxalg.matrix as matrix

from maxalg import (
    EXACT_PLUS,
    EXACT_TIMES,
    FLOAT_PLUS,
    FLOAT_TIMES,
    NEG_INF,
    DimensionError,
    DivergenceError,
    MaxMatrix,
    ModeError,
    MaxVector,
    entrywise_div,
    kleene_star,
    left_residual,
    mat_power,
    oplus,
    otimes,
    semiring_convert,
)
from maxalg.matrix import Ratios, closure_rows

from helpers import (
    assert_heavy_cycle,
    closure_reference,
    cycles_brute,
    fmat,
    fvec,
    grids_equal,
    has_cycle_above_one_brute,
    random_matrix,
    star_brute,
    unit_lambda_irreducible,
    walk_table_brute,
)


def test_constructors_and_accessors():
    a = fmat([[0, 2], [Fraction(1, 4), 0]])
    assert a.n == 2
    assert a.shape == (2, 2)
    assert a[0, 1] == Fraction(2)
    assert a.row(0).entries == (Fraction(0), Fraction(2))
    assert a.col(1).entries == (Fraction(2), Fraction(0))
    assert a.diag().entries == (Fraction(0), Fraction(0))
    assert a.transpose() == fmat([[0, Fraction(1, 4)], [2, 0]])
    eye = MaxMatrix.identity(2, EXACT_TIMES)
    assert eye == fmat([[1, 0], [0, 1]])
    assert MaxMatrix.zeros(2, 3, semiring=EXACT_TIMES).shape == (2, 3)
    d = MaxMatrix.diagonal(fvec([2, 3]))
    assert d == fmat([[2, 0], [0, 3]])
    # rectangles are legal (factor matrices use them); ragged rows are not
    assert fmat([[0, 1]]).shape == (1, 2)
    with pytest.raises((ValueError, DimensionError)):
        fmat([[0, 1], [1]])


def test_vector_basics():
    v = fvec([1, Fraction(1, 2)])
    assert len(v) == 2
    assert v[1] == Fraction(1, 2)
    assert v.is_positive()
    assert not fvec([1, 0]).is_positive()
    assert MaxVector.ones(3, EXACT_TIMES).entries == (
        Fraction(1), Fraction(1), Fraction(1)
    )
    assert v.scale(Fraction(2)).entries == (Fraction(2), Fraction(1))
    assert (v + fvec([0, 1])).entries == (Fraction(1), Fraction(1))


def test_oplus_otimes_hand_values():
    a = fmat([[0, 2], [Fraction(1, 4), 0]])
    b = fmat([[1, 0], [0, 1]])
    assert oplus(a, b) == fmat([[1, 2], [Fraction(1, 4), 1]])
    assert otimes(a, a) == fmat([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    x = fvec([2, 1])
    assert otimes(a, x).entries == (Fraction(2), Fraction(1, 2))
    with pytest.raises(DimensionError):
        otimes(a, fmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_matmul_and_pow_operators():
    a = fmat([[0, 2], [Fraction(1, 4), 0]])
    assert a @ a == otimes(a, a)
    assert a ** 3 == otimes(a, otimes(a, a))
    assert a ** 1 == a
    assert mat_power(a, 1) == a


def test_mat_power_matches_walk_oracle():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, density=rng.uniform(0.2, 0.7))
        t = rng.randint(1, 6)
        assert grids_equal(walk_table_brute(a, t), mat_power(a, t))


# -- differential test of the integer-lifted exact max-times product --------


def _reference_otimes(a_rows, b_rows):
    """Plain triple-loop max-times product on Fractions."""
    out = []
    for row in a_rows:
        out_row = []
        for j in range(len(b_rows[0])):
            acc = Fraction(0)
            for k, x in enumerate(row):
                acc = max(acc, x * b_rows[k][j])
            out_row.append(acc)
        out.append(out_row)
    return out


def _mixed_entry(rng):
    """Zero, or p/q with q from small, power-of-two, prime and wide ranges."""
    if rng.random() < 0.3:
        return Fraction(0)
    den = rng.choice(
        [1, rng.randint(1, 9), 2 ** rng.randint(0, 40), 65521, 999983,
         rng.randint(1, 10**12)]
    )
    return Fraction(rng.randint(0, 10**6), den)


def _mixed(rng, nrows, ncols):
    return [[_mixed_entry(rng) for _ in range(ncols)] for _ in range(nrows)]


def _assert_matches(got, want_rows):
    assert [list(r) for r in got.rows] == want_rows
    assert all(type(v) is Fraction for r in got.rows for v in r)


def test_lifted_otimes_matches_fraction_reference():
    rng = random.Random(20261018)
    for n in (1, 2, 3, 5, 8, 13, 21, 40):
        a, b = _mixed(rng, n, n), _mixed(rng, n, n)
        _assert_matches(otimes(fmat(a), fmat(b)), _reference_otimes(a, b))
        # zero rows and zero columns
        a[rng.randrange(n)] = [Fraction(0)] * n
        zero_col = rng.randrange(n)
        for row in b:
            row[zero_col] = Fraction(0)
        _assert_matches(otimes(fmat(a), fmat(b)), _reference_otimes(a, b))
    a = _mixed(rng, 6, 6)
    zeros = [[Fraction(0)] * 6 for _ in range(6)]
    _assert_matches(otimes(fmat(a), fmat(zeros)), zeros)
    _assert_matches(otimes(fmat(zeros), fmat(a)), zeros)


def test_lifted_otimes_rectangular_and_vector():
    rng = random.Random(7)
    for n, k in ((7, 1), (9, 3), (12, 5), (3, 12)):
        a, basis = _mixed(rng, n, n), _mixed(rng, n, k)
        _assert_matches(
            otimes(fmat(a), fmat(basis)), _reference_otimes(a, basis)
        )
        _assert_matches(
            otimes(fmat(basis).transpose(), fmat(a)),
            _reference_otimes([list(c) for c in zip(*basis)], a),
        )
        x = [_mixed_entry(rng) for _ in range(n)]
        got = otimes(fmat(a), fvec(x))
        assert list(got.entries) == [
            r[0] for r in _reference_otimes(a, [[v] for v in x])
        ]
        assert all(type(v) is Fraction for v in got.entries)
    assert otimes(fmat(a), fvec([0] * n)).entries == (Fraction(0),) * n


def test_lifted_mat_power_matches_fraction_reference():
    rng = random.Random(11)
    for n, t in ((4, 9), (10, 6), (25, 3)):
        a = _mixed(rng, n, n)
        want = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(t):
            want = _reference_otimes(want, a)
        _assert_matches(mat_power(fmat(a), t), want)


@pytest.mark.parametrize("target", [EXACT_TIMES, FLOAT_TIMES, FLOAT_PLUS],
                         ids=["exact", "float", "float_plus"])
def test_product_caches_leave_value_semantics_alone(target):
    # a matrix keeps its row lifts and prepared columns after its first
    # products; ==, hash, repr, pickle and copies see only its entries
    import copy
    import pickle

    a = semiring_convert(
        unit_lambda_irreducible(random.Random(7), 5), target, base=2)
    fresh = MaxMatrix._raw(a.rows, a.semiring)
    square = otimes(a, a)
    filled = ("_row_lifts", "_cols") if target.exact else ("_cols",)
    assert all(hasattr(a, slot) for slot in filled)
    assert not any(hasattr(fresh, slot) for slot in filled)
    assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)
    assert pickle.dumps(a) == pickle.dumps(fresh)
    for c in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(c) is MaxMatrix and c is not a
        assert c == a and hash(c) == hash(a) and repr(c) == repr(a)
        assert not any(hasattr(c, slot) for slot in filled)
        assert otimes(c, c) == square
        assert otimes(c, a) == square and otimes(a, c) == square
        assert matrix.is_max_combination(square, [(target.one, otimes(c, c))])


def test_lifted_otimes_pairwise_coprime_denominators():
    # every entry has its own prime denominator near 2^17, so one lcm
    # over the whole matrix would be a product of 900 primes
    primes = [
        p
        for p in range(131101, 150000)
        if all(p % d for d in range(2, int(p**0.5) + 1))
    ]
    rng = random.Random(3)
    dens = iter(primes[:900])
    a = [
        [Fraction(rng.randint(1, 2**17), next(dens)) for _ in range(30)]
        for _ in range(30)
    ]
    square = _reference_otimes(a, a)
    _assert_matches(otimes(fmat(a), fmat(a)), square)
    _assert_matches(mat_power(fmat(a), 4), _reference_otimes(square, square))


def test_power_in_additive_domain():
    a = MaxMatrix([[0, "-inf"], [Fraction(3, 2), 0]], EXACT_PLUS)
    sq = otimes(a, a)
    assert sq.rows[0][0] == Fraction(0)
    assert sq.rows[1][0] == Fraction(3, 2)
    assert sq.rows[0][1] == NEG_INF


def test_kleene_star_known_value_and_oracle():
    a = fmat([[0, 2], [Fraction(1, 4), 0]])
    star = kleene_star(a)
    assert star == fmat([[1, 2], [Fraction(1, 4), 1]])
    rng = random.Random(29)
    checked = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, density=rng.uniform(0.1, 0.6))
        if has_cycle_above_one_brute(a):
            with pytest.raises(DivergenceError):
                kleene_star(a)
        else:
            star = kleene_star(a)
            assert grids_equal(star_brute(a), star)
            assert otimes(star, star) == star
            checked += 1
    assert checked > 80


def test_kleene_star_overflow_is_no_divergence():
    # the path 0 -> 1 -> 2 overflows to inf; inf times the zero entries of
    # row 2 would be nan, which once read as a cycle above one
    a = MaxMatrix([[0, 1e200, 0], [0, 0, 1e200], [0, 0, 0]], FLOAT_TIMES)
    star = kleene_star(a)
    assert star.rows[0][:2] == (1.0, 1e200)
    assert star.rows[1] == (0.0, 1.0, 1e200)
    assert star.rows[2] == (0.0, 0.0, 1.0)


def test_float_star_divergence_is_found_before_overflow():
    # pivoting past the heavy loops would square the walks up to inf,
    # which the tolerant float comparison reads as equal to one, and an
    # all-inf star would come back
    a = MaxMatrix([[2.0] * 9 for _ in range(9)], FLOAT_TIMES)
    with pytest.raises(DivergenceError) as info:
        kleene_star(a)
    assert info.value.witness.weight == 2.0


def test_divergence_witness_is_a_heavy_cycle():
    a = fmat([[0, 4], [1, 0]])
    with pytest.raises(DivergenceError) as info:
        kleene_star(a)
    cycle = info.value.witness
    assert cycle.nodes[0] == cycle.nodes[-1]
    assert cycle.weight == Fraction(4)
    rng = random.Random(31)
    seen = 0
    while seen < 40:
        n = rng.randint(2, 6)
        a = random_matrix(rng, n, density=0.5)
        if not has_cycle_above_one_brute(a):
            continue
        seen += 1
        with pytest.raises(DivergenceError) as info:
            kleene_star(a)
        assert_heavy_cycle(info.value.witness, a.rows)


def test_divergent_closure_stops_at_a_heavy_cycle():
    # Pivoting past a heavy cycle squares the walks around it at every
    # later pivot (exact entries of about 170,000 bits at n = 11). The
    # closure stops before the pivot at the smallest largest node of a
    # heavy cycle, where the diagonal entry is still that cycle's weight.
    rng = random.Random(37)
    one = EXACT_TIMES.one
    for _ in range(30):
        n = rng.randint(4, 8)
        a = unit_lambda_irreducible(rng, n).scale(
            Fraction(rng.randint(5, 9), 4))
        heavy = [(max(nodes), w) for nodes, w in cycles_brute(a) if w > 1]
        seen = []

        def diverges(v):
            seen.append(v)
            return EXACT_TIMES.lt(one, v)

        assert closure_rows(a.rows, EXACT_TIMES, diverges) is None
        stop = min(top for top, _w in heavy)
        assert len(seen) == stop + 1
        assert seen[-1] == max(w for top, w in heavy if top == stop)
        with pytest.raises(DivergenceError) as info:
            kleene_star(a)
        assert info.value.witness.weight > 1


# -- differential test of the exact star on Ratios pairs ---------------------


def _star_reference(a):
    """The Fraction closure of a over EXACT_TIMES, plus the identity."""
    closure = closure_reference(a.rows, EXACT_TIMES)
    for i in range(a.n):
        closure[i][i] = EXACT_TIMES.add(closure[i][i], EXACT_TIMES.one)
    return closure


def test_pair_star_matches_the_fraction_closure():
    rng = random.Random(20261101)
    for n in (10, 25, 40):
        unit = unit_lambda_irreducible(rng, n)
        for a in (unit, unit.scale(Fraction(rng.randint(1, 7), 8))):
            star = kleene_star(a)
            want = _star_reference(a)
            assert [list(r) for r in star.rows] == want
            assert [[repr(v) for v in r] for r in star.rows] == [
                [repr(v) for v in r] for r in want
            ]


def test_pair_star_diverges_at_the_fraction_pivot(monkeypatch):
    # the pair closure stops at the same pivot as the Fraction closure,
    # on the same diagonal value, and the witness is the one the power
    # walk finds with a plain otimes per product
    rng = random.Random(20261102)
    one = EXACT_TIMES.one
    for n in (10, 25, 40):
        a = unit_lambda_irreducible(rng, n).scale(
            Fraction(rng.randint(5, 9), 4))
        want = []

        def fraction_diverges(v):
            want.append(v)
            return EXACT_TIMES.lt(one, v)

        assert closure_reference(a.rows, EXACT_TIMES, fraction_diverges) is None
        seen = []

        def recording(rows, ops, diverges):
            def counted(v):
                seen.append(v)
                return diverges(v)

            return closure_rows(rows, ops, counted)

        monkeypatch.setattr(matrix, "closure_rows", recording)
        with pytest.raises(DivergenceError) as info:
            kleene_star(a)
        monkeypatch.undo()
        assert [Ratios.value(v) for v in seen] == want
        assert info.value.witness == matrix._divergence_witness(a)
        assert_heavy_cycle(info.value.witness, a.rows)


def test_pair_star_builds_one_fraction_per_entry(monkeypatch):
    rng = random.Random(20261103)
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    for n in (10, 25):
        a = unit_lambda_irreducible(rng, n)
        want = kleene_star(a)
        built.clear()
        monkeypatch.setattr(matrix, "Fraction", counting)
        star = kleene_star(a)
        monkeypatch.undo()
        assert len(built) == n * n
        assert star == want


def test_entrywise_div():
    b = fmat([[2, 4], [0, 1]])
    c = fmat([[1, 2], [5, 2]])
    q = entrywise_div(b, c)
    assert q == fmat([[2, 2], [0, Fraction(1, 2)]])
    # zero denominator under a nonzero numerator is undefined
    from maxalg import UndefinedDivisionError

    with pytest.raises(UndefinedDivisionError):
        entrywise_div(fmat([[1]]), fmat([[0]]))
    assert entrywise_div(fmat([[0]]), fmat([[0]])) == fmat([[0]])


def test_left_residual_is_the_galois_adjoint():
    rng = random.Random(37)
    sr = EXACT_TIMES
    for _ in range(80):
        n, m, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        v = [[Fraction(rng.randint(0, 6), rng.randint(1, 3))
              for _ in range(m)] for _ in range(n)]
        w = [[Fraction(rng.randint(0, 6), rng.randint(1, 3))
              for _ in range(k)] for _ in range(n)]
        v = MaxMatrix(v, sr)
        w = MaxMatrix(w, sr)
        try:
            x = left_residual(v, w)
        except Exception:
            continue
        prod = otimes(v, x)
        # residual is the greatest solution of V (x) X <= W
        for i in range(n):
            for j in range(k):
                assert prod.rows[i][j] <= w.rows[i][j]
        y = [[Fraction(rng.randint(0, 4), rng.randint(1, 3))
              for _ in range(k)] for _ in range(m)]
        y = MaxMatrix(y, sr)
        vy = otimes(v, y)
        dominated = all(
            vy.rows[i][j] <= w.rows[i][j]
            for i in range(n) for j in range(k)
        )
        if dominated:
            for i in range(m):
                for j in range(k):
                    assert y.rows[i][j] <= x.rows[i][j]


def test_restrict_and_scale():
    a = fmat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    sub = a.restrict((0, 2))
    assert sub == fmat([[1, 3], [7, 9]])
    rect = a.restrict((1,), (0, 1, 2))
    assert rect.shape == (1, 3)
    assert a.scale(Fraction(2)).rows[2][2] == Fraction(18)


def test_semiring_convert_roundtrips():
    a = fmat([[0, 2], [Fraction(1, 4), 0]])
    f = semiring_convert(a, FLOAT_TIMES)
    assert f.semiring == FLOAT_TIMES
    assert f.rows[0][1] == 2.0
    back = semiring_convert(f, EXACT_TIMES)
    assert back == a
    # domain switch: log base 2 sends powers of two to exact integers
    p = semiring_convert(a, EXACT_PLUS, base=2)
    assert p.rows[0][1] == Fraction(1)
    assert p.rows[1][0] == Fraction(-2)
    assert p.rows[0][0] == NEG_INF
    t = semiring_convert(p, EXACT_TIMES, base=2)
    assert t == a


def test_semiring_convert_rejects_inexact_logs():
    from maxalg import ExactnessError

    a = fmat([[0, 3], [0, 0]])
    with pytest.raises(ExactnessError):
        semiring_convert(a, EXACT_PLUS, base=2)
    fp = semiring_convert(a, FLOAT_PLUS, base=2)
    assert fp.rows[0][1] == pytest.approx(1.584962500721156)


@pytest.mark.parametrize("base", [1, 0.5, math.inf, math.nan],
                         ids=["one", "half", "inf", "nan"])
def test_semiring_convert_checks_the_base_for_float_targets(base):
    # exact targets always refused a base <= 1; a float target used to give
    # an untyped ZeroDivisionError (1), a reversed order (0.5), all-zero
    # logs (inf) or nan entries (nan)
    times = fmat([[2, 1], [1, 1]])
    plus = MaxMatrix([[1, 0], [0, NEG_INF]], EXACT_PLUS)
    for a, target in ((times, FLOAT_PLUS), (plus, FLOAT_TIMES),
                      (times, EXACT_PLUS), (plus, EXACT_TIMES)):
        with pytest.raises(ValueError, match="base must exceed 1"):
            semiring_convert(a, target, base=base)


def test_semiring_convert_into_float_refuses_values_it_would_lose():
    # a tiny max-times entry would become 0.0, the zero, and lose its edge
    tiny = fmat([[1, Fraction(1, 10**400)], [1, 1]])
    with pytest.raises(ModeError, match="underflows the float range"):
        semiring_convert(tiny, FLOAT_TIMES)
    huge = fmat([[1, Fraction(10**400)], [1, 1]])
    with pytest.raises(ModeError, match="overflows the float range"):
        semiring_convert(huge, FLOAT_TIMES)
    # in max-plus the same tiny value is a real weight of about 0
    plus = MaxMatrix([[Fraction(1, 10**400), NEG_INF], [2, 0]], EXACT_PLUS)
    assert semiring_convert(plus, FLOAT_PLUS).rows == ((0.0, NEG_INF), (2.0, 0.0))
    with pytest.raises(ModeError, match="overflows the float range"):
        semiring_convert(
            MaxMatrix([[Fraction(10**400)]], EXACT_PLUS), FLOAT_PLUS
        )


def test_semiring_convert_logs_a_huge_exact_value_from_its_ints():
    f = semiring_convert(fmat([[10**400, 1], [1, 1]]), FLOAT_PLUS)
    assert f.rows[0][0] == pytest.approx(400 * math.log(10), rel=1e-15)
    # in-range values keep math.log(float(v))
    g = semiring_convert(fmat([[3, Fraction(1, 7)], [1, 1]]), FLOAT_PLUS)
    assert g.rows[0] == (math.log(3.0), math.log(float(Fraction(1, 7))))


def test_semiring_convert_logs_a_tiny_exact_value_from_its_ints():
    f = semiring_convert(fmat([[Fraction(1, 10**400), 1], [1, 1]]), FLOAT_PLUS)
    assert f.rows[0][0] == pytest.approx(-400 * math.log(10), rel=1e-15)
    assert f.rows[0][1] == 0.0


def test_semiring_convert_refuses_an_exp_beyond_the_float_range():
    with pytest.raises(ModeError, match="overflows the float range"):
        semiring_convert(MaxMatrix([[1000, 0], [0, 0]], EXACT_PLUS), FLOAT_TIMES)
    # a finite exponent whose exp rounds to 0.0 would lose its edge
    with pytest.raises(ModeError, match="underflows the float range"):
        semiring_convert(MaxMatrix([[-1000, 0], [0, 0]], EXACT_PLUS), FLOAT_TIMES)
    with pytest.raises(ModeError, match="underflows the float range"):
        semiring_convert(
            MaxMatrix([[-(10**400), 0], [0, 0]], EXACT_PLUS), FLOAT_TIMES)


def test_float_products_skip_zero_factors():
    # an overflowed inf times a zero entry is nan, which would win the max
    a = MaxMatrix([[1e200, 0], [0, 1e200]], FLOAT_TIMES)
    inf = float("inf")
    assert mat_power(a, 4).rows == ((inf, 0.0), (0.0, inf))
    assert otimes(a, a).rows == ((inf, 0.0), (0.0, inf))
    x = otimes(mat_power(a, 2), MaxVector([1.0, 0.0], FLOAT_TIMES))
    assert x.entries == (inf, 0.0)


def test_allclose_in_float_mode():
    a = MaxMatrix([[1.0, 0.5], [0.25, 1.0]], FLOAT_TIMES)
    b = MaxMatrix([[1.0 + 1e-12, 0.5], [0.25, 1.0]], FLOAT_TIMES)
    assert a.allclose(b)
    c = MaxMatrix([[1.001, 0.5], [0.25, 1.0]], FLOAT_TIMES)
    assert not a.allclose(c)
