"""Matrix layer: algebra, Kleene star vs the walk oracle, residuation."""

import math
import random
from fractions import Fraction

import copy
import pickle

import pytest
from hypothesis import given, seed, settings, strategies as st

import maxalg.matrix as matrix
import maxalg.spectral as spectral

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
    NoConstraintError,
    entrywise_div,
    kleene_star,
    left_residual,
    mat_power,
    oplus,
    otimes,
    semiring_convert,
    spectral_analysis,
)
from maxalg.digraph import nonzero_pattern, pattern_scc
from maxalg.matrix import Ratios, closure_rows

from helpers import (
    assert_heavy_cycle,
    closure_reference,
    count_calls,
    cycles_brute,
    fmat,
    fvec,
    grids_equal,
    has_cycle_above_one_brute,
    left_residual_reference,
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


@pytest.mark.parametrize("build", [
    lambda: MaxMatrix([]),
    lambda: MaxMatrix([[]]),
    lambda: MaxMatrix.zeros(0),
    lambda: MaxMatrix.zeros(2, 0),
    lambda: MaxMatrix.zeros(0, 2),
    lambda: MaxMatrix.identity(0),
    lambda: MaxMatrix.diagonal(MaxVector([])),
], ids=["rows", "empty_row", "zeros", "zeros_2x0", "zeros_0x2",
        "identity", "diagonal"])
def test_a_matrix_without_entries_is_refused(build):
    # the factories refuse an empty shape as the constructor does, rather
    # than end in an IndexError or return a matrix it would refuse
    with pytest.raises(DimensionError, match="at least one entry"):
        build()


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



def test_exact_mat_power_multiplies_no_identity_in(monkeypatch):
    # a^4 is two squarings; the identity is only the answer at t = 0
    products = count_calls(monkeypatch, "_multiply")
    for a in (fmat([[0, 2], [Fraction(1, 4), 1]]),
              MaxMatrix([[0, 2], [-1, "-inf"]], EXACT_PLUS)):
        products.clear()
        power = mat_power(a, 4)
        assert len(products) == 2
        assert power == otimes(otimes(a, a), otimes(a, a))
        assert mat_power(a, 0) == MaxMatrix.identity(2, a.semiring)


def test_float_mat_power_keeps_the_identity_product():
    # the product with the identity turns -0.0 into 0.0, in every power
    a = MaxMatrix([[-0.0, "-inf"], [1.0, -0.0]], FLOAT_PLUS)
    b = MaxMatrix([[-0.0, 2.0], [0.5, -0.0]], FLOAT_TIMES)
    want_a = "MaxMatrix([[0.0, -inf], [1.0, 0.0]])"
    want_b = {
        1: "MaxMatrix([[0.0, 2.0], [0.5, 0.0]])",
        2: "MaxMatrix([[1.0, 0.0], [0.0, 1.0]])",
        3: "MaxMatrix([[0.0, 2.0], [0.5, 0.0]])",
    }
    for t in (1, 2, 3):
        assert repr(mat_power(a, t)) == want_a
        assert repr(mat_power(b, t)) == want_b[t]

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


@pytest.mark.parametrize(
    "target", [EXACT_TIMES, EXACT_PLUS, FLOAT_TIMES, FLOAT_PLUS],
    ids=["exact", "exact_plus", "float", "float_plus"],
)
def test_nonzero_pattern_leaves_value_semantics_alone(target):
    # a matrix keeps its nonzero pattern after its first analysis, and the
    # pattern its SCC decomposition, reverse edges and float weight
    # table; ==, hash, repr, pickle and copies see only its entries, and
    # a copy makes equal facts of its own
    rows = random_matrix(random.Random(17), 6, density=0.5).rows
    if target.domain == EXACT_PLUS.domain:
        rows = [[v - 1 if v else NEG_INF for v in row] for row in rows]
    a = MaxMatrix(rows, target)
    fresh = MaxMatrix._raw(a.rows, a.semiring)
    pattern = nonzero_pattern(a)
    assert nonzero_pattern(a) is pattern
    assert hasattr(a, "_pattern") and not hasattr(fresh, "_pattern")
    critical = spectral_analysis(a).critical

    def facts(p):
        return (pattern_scc(p), p.pred,
                p.float_logs(target, spectral._float_logs))

    kept = facts(pattern)
    assert facts(pattern) == kept
    assert all(x is y for x, y in zip(facts(pattern), kept))
    assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)
    assert pickle.dumps(a) == pickle.dumps(fresh)
    plain = tuple(pattern)
    assert pattern == plain and hash(pattern) == hash(plain)
    for p in (pickle.loads(pickle.dumps(pattern)), copy.copy(pattern),
              copy.deepcopy(pattern)):
        assert p == pattern and vars(p) == {}
    for c in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(c) is MaxMatrix and c is not a
        assert c == a and hash(c) == hash(a) and repr(c) == repr(a)
        assert not hasattr(c, "_pattern")
        assert nonzero_pattern(c) == pattern
        assert spectral_analysis(c).critical == critical
        again = facts(nonzero_pattern(c))
        assert again == kept
        assert not any(x is y for x, y in zip(again, kept))


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
    # no row denominator divides another, so the square takes the
    # per-entry branch and is born holding its Fraction rows
    assert matrix._columns(fmat(a))[0] is None
    got = otimes(fmat(a), fmat(a))
    assert _holds(got, "rows") and not _holds(got, "_row_lifts")
    _assert_matches(got, square)
    _assert_matches(mat_power(fmat(a), 4), _reference_otimes(square, square))


@pytest.mark.parametrize("transpose", [False, True],
                         ids=["rows_divide", "columns_divide"])
def test_lifted_otimes_takes_the_row_denominators(transpose):
    # the row denominators of [[1/2, 1/3], [1, 1]], 6 and 1, divide the
    # largest, its column denominators 2 and 3 do not; its transpose is
    # the other way round. Either product equals the Fraction product,
    # and reads as the matrix built from its Fractions
    b = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1), Fraction(1)]]
    if transpose:
        b = [list(col) for col in zip(*b)]
    a = [[Fraction(2, 5), Fraction(3)], [Fraction(0), Fraction(5, 7)]]
    assert (matrix._columns(fmat(b))[0] is None) is transpose
    for x, y in ((a, b), (b, b), (b, a)):
        got = otimes(fmat(x), fmat(y))
        want = fmat(_reference_otimes(x, y))
        assert _born_lifted(got) is (matrix._columns(fmat(y))[0] is not None)
        assert matrix.entry_key(got) == matrix.entry_key(want)
        assert got == want and hash(got) == hash(want)
        assert repr(got) == repr(want)
        assert pickle.dumps(got) == pickle.dumps(want)
        _assert_matches(got, [list(r) for r in want.rows])


# distinct primes: with coprime denominators every entry of a case gets
# its own
PRIMES = [
    p for p in range(1009, 2000)
    if all(p % d for d in range(2, int(p**0.5) + 1))
]
SMALL_DENS = [1, 2, 3, 4, 6, 9, 2**20, 65521, 999983]
# the divisors of 720: with one entry 1/720 planted in the right factor,
# every column denominator divides the largest one, 720
DIVIDING_DENS = [d for d in range(1, 721) if 720 % d == 0]


@st.composite
def exact_products(draw):
    """Factors (a, b), a target row list near a (x) b, and a vector x.

    Shapes are rectangular up to 6, a may get a zero row and b a zero
    column. The denominators are of one of three kinds, drawn equally
    often: every entry gets its own prime ("coprime"), every column
    denominator of b divides the largest one ("dividing"), or they come
    from a small mixed list ("small"). The target equals the product or
    differs in one entry.
    """
    m, k, n = (draw(st.integers(min_value=1, max_value=6)) for _ in "mkn")
    kind = draw(st.sampled_from(["coprime", "dividing", "small"]))
    primes = iter(PRIMES)
    dens = DIVIDING_DENS if kind == "dividing" else SMALL_DENS

    def entry():
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            return Fraction(0)
        den = next(primes) if kind == "coprime" else draw(st.sampled_from(dens))
        return Fraction(draw(st.integers(min_value=1, max_value=10**6)), den)

    a = [[entry() for _ in range(k)] for _ in range(m)]
    b = [[entry() for _ in range(n)] for _ in range(k)]
    if draw(st.booleans()):
        a[draw(st.integers(min_value=0, max_value=m - 1))] = [Fraction(0)] * k
    if draw(st.booleans()):
        j = draw(st.integers(min_value=0, max_value=n - 1))
        for row in b:
            row[j] = Fraction(0)
    if kind == "dividing":
        b[draw(st.integers(min_value=0, max_value=k - 1))][
            draw(st.integers(min_value=0, max_value=n - 1))
        ] = Fraction(1, 720)
    target = _reference_otimes(a, b)
    if draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=m - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        target[i][j] = draw(st.sampled_from(
            [Fraction(0), target[i][j] * 2, target[i][j] + Fraction(1, 7)]
        ))
    x = [entry() for _ in range(k)]
    return a, b, target, x


def _assert_canonical_columns(m, want):
    """_columns(m) holds the canonical row lifts of ``want`` brought over
    the largest row denominator and transposed, exactly when every row
    denominator divides it, and the canonical column lifts otherwise."""
    common, cols = matrix._columns(m)
    lifts = [matrix._lift(row) for row in want.rows]
    top = max(d for _r, d in lifts)
    if all(top % d == 0 for _r, d in lifts):
        assert common == top
        assert cols == list(zip(*[[x * (top // d) for x in r]
                                  for r, d in lifts]))
    else:
        assert common is None
        assert cols == [matrix._lift(col) for col in zip(*want.rows)]


def _holds(m, slot):
    """True when m's ``slot`` is set; never fills it."""
    try:
        getattr(MaxMatrix, slot).__get__(m, MaxMatrix)
    except AttributeError:
        return False
    return True


def _born_lifted(m):
    """True when m holds row lifts but no Fraction rows."""
    return _holds(m, "_row_lifts") and not _holds(m, "rows")


@seed(1509)
@settings(max_examples=300, deadline=None)
@given(exact_products())
def test_lifted_products_keep_value_semantics(case):
    # an exact product is born lifted (every row lift denominator of the
    # right factor divides the largest) or holding its Fraction rows
    # (otherwise); its row lifts are the canonical lifts of its Fraction
    # rows, and every reader of the matrix sees what it sees of the
    # matrix built from those Fractions
    a, b, target, x = case
    want = fmat(_reference_otimes(a, b))

    def product():
        return otimes(fmat(a), fmat(b))

    common, _cols = matrix._columns(fmat(b))
    assert _born_lifted(product()) is (common is not None)
    lifts = matrix._row_lifts(product())
    assert lifts == tuple(matrix._lift(row) for row in want.rows)
    _assert_canonical_columns(product(), want)
    _assert_matches(product(), [list(r) for r in want.rows])
    # the same value in each born form: Fraction rows, a product, born
    # lifted by scale and by a product with the identity, whose row
    # denominators are all 1
    forms = [want, product(), want.scale(1),
             otimes(want, MaxMatrix.identity(len(b[0])))]
    assert _born_lifted(forms[2]) and _born_lifted(forms[3])
    for f in forms:
        for g in forms + [product()]:
            assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
            assert f.allclose(g) and matrix.entry_key(f) == matrix.entry_key(g)
        assert pickle.dumps(f) == pickle.dumps(want)
        for c in (copy.copy(f), copy.deepcopy(f)):
            assert c == want and repr(c) == repr(want)
    # lift-based equality agrees with entrywise Fraction equality
    same = [list(r) for r in want.rows] == target
    assert product().allclose(fmat(target)) is same
    assert fmat(target).allclose(product()) is same
    assert (product() == fmat(target)) is same
    lifted_target = otimes(fmat(target), MaxMatrix.identity(len(b[0])))
    assert product().allclose(lifted_target) is same
    assert (product() == lifted_target) is same
    assert (matrix.entry_key(product()) == matrix.entry_key(fmat(target))) is same
    got = otimes(fmat(a), fvec(x))
    assert list(got.entries) == [
        r[0] for r in _reference_otimes(a, [[v] for v in x])
    ]
    assert all(type(v) is Fraction for v in got.entries)
    # mixed chains: a product in either born form, and one born lifted
    # by scale, as the left factor, as the right factor and as both
    bt = [list(col) for col in zip(*b)]
    ab = [list(r) for r in want.rows]
    for p in (product(), otimes(fmat(a), fmat(b)).scale(1)):
        _assert_matches(otimes(p, fmat(bt)), _reference_otimes(ab, bt))
        at = [list(col) for col in zip(*a)]
        _assert_matches(otimes(fmat(at), p), _reference_otimes(at, ab))
        if len(a) == len(b[0]):
            _assert_matches(otimes(p, p), _reference_otimes(ab, ab))


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
    # exact max-times takes each minimum by int cross products on the row
    # lifts; the answer is the plain Fraction residual, and a zero column
    # of V, which some cases have, is refused
    rng = random.Random(37)
    sr = EXACT_TIMES
    refused = 0
    for _ in range(120):
        n, m, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        v = [[Fraction(rng.randint(0, 6), rng.randint(1, 3))
              for _ in range(m)] for _ in range(n)]
        w = [[Fraction(rng.randint(0, 6), rng.randint(1, 3))
              for _ in range(k)] for _ in range(n)]
        if rng.random() < 0.2:
            dead = rng.randrange(m)
            for row in v:
                row[dead] = Fraction(0)
        want = left_residual_reference(v, w)
        v = MaxMatrix(v, sr)
        w = MaxMatrix(w, sr)
        try:
            x = left_residual(v, w)
        except NoConstraintError:
            assert want is None
            refused += 1
            continue
        assert want is not None
        assert x.rows == tuple(map(tuple, want))
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
    assert 10 <= refused <= 60


@pytest.mark.parametrize("sr", [FLOAT_TIMES, FLOAT_PLUS],
                         ids=["float", "float_plus"])
def test_float_left_residual_matches_the_reference(sr):
    # float modes keep the quotient loop; zero entries of V are skipped
    # and a zero of W stays the zero in max-plus
    plus = sr == FLOAT_PLUS
    z = NEG_INF if plus else 0.0
    v = [[0.5, z, 2.0], [z, z, 1.25], [3.0, z, z]]
    w = [[1.0, z], [0.75, 4.0], [z, 2.5]]
    want = left_residual_reference(v, w, plus)
    assert want is None
    with pytest.raises(NoConstraintError):
        left_residual(MaxMatrix(v, sr), MaxMatrix(w, sr))
    v[1][1] = 1.5
    x = left_residual(MaxMatrix(v, sr), MaxMatrix(w, sr))
    assert x.rows == tuple(map(tuple, left_residual_reference(v, w, plus)))


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


def test_exact_scale_is_born_lifted_and_its_star_builds_no_rows():
    a = fmat([[1, 2, 0], [Fraction(1, 4), Fraction(1, 3), 5],
              [Fraction(1, 9), 0, Fraction(3, 7)]])
    c = Fraction(2, 15)
    m = a.scale(c)
    star = kleene_star(m)
    # the Fraction rows of m are built only on their first read
    with pytest.raises(AttributeError):
        MaxMatrix.rows.__get__(m, MaxMatrix)
    want = tuple(tuple(c * v for v in row) for row in a.rows)
    assert m.rows == want
    assert all(type(v) is Fraction for row in m.rows for v in row)
    assert star == kleene_star(fmat(want))
    assert m.scale(Fraction(0)).rows == ((0, 0, 0),) * 3
