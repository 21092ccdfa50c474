"""Star columns from best-walk runs against the closure route.

eigenspace_basis, principal_eigenvector and max_balance read the star
columns they need off runs of spectral._best_walks, ordered by the
potentials of the spectral certificate, and build no closure. Here each
answer is compared with the closure route: the columns of
kleene_star(tilde) at the critical nodes, summed with the semiring's max.
Exact answers must be equal and float ones equal within the tolerance.
At tolerance 0, where rounding decides, both routes must raise the same
exception type, or none.
"""

import math
import random
from fractions import Fraction
from functools import reduce

import pytest

from maxalg import (
    EXACT_PLUS,
    FLOAT_PLUS,
    FLOAT_TIMES,
    NEG_INF,
    PLUS,
    TIMES,
    CertificationError,
    MaxMatrix,
    NotIrreducibleError,
    Semiring,
    eigenspace_basis,
    gmean_value,
    is_eigenvector,
    kleene_star,
    max_balance,
    oplus,
    principal_eigenvector,
    semiring_convert,
    spectral_analysis,
)
from maxalg import spectral

from helpers import (
    count_calls,
    dense_level,
    fmat,
    random_irreducible,
    sub_unit,
    unit_lambda_irreducible,
)

TIGHT_TIMES = Semiring(TIMES, exact=False, tol=0.0)
TIGHT_PLUS = Semiring(PLUS, exact=False, tol=0.0)


# -- the closure route ---------------------------------------------------------


def closure_basis(a):
    """eigenspace_basis read off kleene_star(tilde), every column compared."""
    an = spectral_analysis(a)
    if not an.is_irreducible:
        raise NotIrreducibleError("eigenvectors need an irreducible matrix")
    star = kleene_star(an.normalized())
    sr = star.semiring
    for comp in an.critical.components:
        r = comp[0]
        for v in comp[1:]:
            for i in range(star.n):
                if not sr.eq(star[i, v], sr.mul(star[i, r], star[r, v])):
                    raise CertificationError("columns are not proportional")
    return tuple(star.col(comp[0]) for comp in an.critical.components)


def closure_columns(an, nodes):
    """SpectralAnalysis.star_columns read off kleene_star(tilde)."""
    star = kleene_star(an.normalized())
    sr = star.semiring
    return [reduce(sr.add, [row[v] for v in nodes]) for row in star.rows]


def closure_level(sr, succ, pred, table):
    """spectral.balance_level answered by the level's dense matrix: the
    mean pair and critical components of its spectral_analysis, and the
    closure_columns at its critical nodes."""
    an = spectral_analysis(dense_level(sr, succ))
    x = closure_columns(an, an.critical.nodes)
    return an.mean.pair(), an.critical.components, x


def closure_balance(monkeypatch, a):
    """max_balance with every level answered by closure_level.

    The level step answers from a best-walk run (_Kit.run) and reads its
    own closure only when no run answers, so the whole step is replaced
    by one built in this file from the level's matrix.
    """
    reads = []

    def recording(sr, succ, pred, table):
        reads.append(succ)
        return closure_level(sr, succ, pred, table)

    with monkeypatch.context() as m:
        m.setattr(spectral, "balance_level", recording)
        cert = max_balance(a)
    assert len(reads) >= sum(len(seq) for seq in cert.levels)
    return cert


def outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # the type is compared, whatever it is
        return None, type(exc)


def assert_close(got, want, sr):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    if sr.exact:
        assert got == want
        return
    for u, v in zip(got, want):
        assert u == v or math.isclose(u, v, rel_tol=1e-9, abs_tol=1e-9), (
            got, want,
        )


def assert_same_balance(got, want):
    sr = got.balanced.semiring
    assert got.exact_degraded == want.exact_degraded
    assert_close(got.scaling.x, want.scaling.x, sr)
    for row, ref in zip(got.balanced.rows, want.balanced.rows):
        assert_close(row, ref, sr)
    assert len(got.levels) == len(want.levels)
    for seq, ref in zip(got.levels, want.levels):
        assert [length for _w, length in seq] == [l for _w, l in ref]
        assert_close([w for w, _l in seq], [w for w, _l in ref], sr)


# -- inputs --------------------------------------------------------------------


def several_components(rng, n, k, plus=False):
    """Mean one with k disjoint critical cycles of unit edges, hidden by a
    diagonal similarity and a scale, so that the star is not all ones.

    In exact max-plus (``plus``) the unit is 0, the filler entries are
    negative and the similarity adds d_j - d_i.
    """
    zero, unit = (NEG_INF, Fraction(0)) if plus else (0, Fraction(1))
    rows = [[zero] * n for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for u, v in zip(order, order[1:] + order[:1]):
        rows[u][v] = sub_unit(rng) - 1 if plus else sub_unit(rng)
    nodes = rng.sample(range(n), min(n, 3 * k))
    for c in range(k):
        cycle = nodes[c::k]
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            rows[u][v] = unit
    for i in range(n):
        for j in range(n):
            if rows[i][j] == zero and rng.random() < 0.2:
                rows[i][j] = sub_unit(rng) - 1 if plus else sub_unit(rng)
    d = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
    lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    if plus:
        return MaxMatrix([
            [v + lam + d[j] - d[i] if v != zero else v
             for j, v in enumerate(row)]
            for i, row in enumerate(rows)
        ], EXACT_PLUS)
    return fmat([
        [v * lam * d[j] / d[i] for j, v in enumerate(row)]
        for i, row in enumerate(rows)
    ])


SIZES = ((6, 2), (9, 3), (14, 4), (25, 3), (40, 5))


def exact_corpus():
    rng = random.Random(2003)
    for n in (2, 3, 5, 8, 12):
        for _ in range(4):
            yield unit_lambda_irreducible(rng, n)
            yield random_irreducible(rng, n, density=0.5)
    for n, k in SIZES:
        yield several_components(rng, n, k)
    # every node critical, all at one: the star is all ones
    yield fmat([[1] * 7 for _ in range(7)])


def exact_plus_corpus():
    """Exact max-plus inputs: the entries of exact_corpus less one, and
    planted critical components."""
    rng = random.Random(2005)
    for a in exact_corpus():
        yield MaxMatrix(
            [[v - 1 if v else NEG_INF for v in row] for row in a.rows],
            EXACT_PLUS,
        )
    for n, k in SIZES:
        yield several_components(rng, n, k, plus=True)


def in_float(a, target):
    return semiring_convert(a, target)


def huge_plus(a):
    """a in float max-plus with every log times 5e299: entries beyond
    2^960, where Howard's logs are scaled by 2^-64."""
    f = semiring_convert(a, FLOAT_PLUS)
    return MaxMatrix(
        [[v * 5e299 if v != NEG_INF else v for v in row] for row in f.rows],
        FLOAT_PLUS,
    )


def float_corpus():
    for a in exact_corpus():
        yield in_float(a, FLOAT_TIMES)
        yield in_float(a, FLOAT_PLUS)
        yield huge_plus(a)


# -- answers -------------------------------------------------------------------


def check_eigenvectors(a):
    """True when a has eigenvectors; an irrational exact mean must be
    refused by both routes alike."""
    basis, err = outcome(eigenspace_basis, a)
    ref, ref_err = outcome(closure_basis, a)
    assert err is ref_err
    if err is not None:
        return False
    sr = a.semiring
    assert len(basis) == len(ref)
    for col, want in zip(basis, ref):
        assert_close(col, want, sr)
    x = principal_eigenvector(a)
    assert_close(x, reduce(oplus, ref), sr)
    return True


def test_exact_eigenvectors_equal_the_closure_columns():
    answered = components = 0
    for a in exact_corpus():
        if check_eigenvectors(a):
            answered += 1
            components += len(spectral_analysis(a).critical.components) > 1
    assert answered >= 20 and components >= 5


def test_exact_max_plus_eigenvectors_equal_the_closure_columns():
    # max-plus means are rational, so every matrix has eigenvectors
    for a in exact_plus_corpus():
        assert check_eigenvectors(a)


def test_float_eigenvectors_agree_with_the_closure_columns():
    # Past 2^960, where Howard's logs are scaled by 2^-64, the rounding
    # of a max-plus walk (relative to its widest entry) exceeds the
    # tolerance, so the closure answers; some of these inputs are
    # refused, as a normalized cycle cancels entries near 1e300
    answered = scaled = 0
    for a in float_corpus():
        if check_eigenvectors(a):
            answered += 1
            scaled += a.semiring.domain == PLUS and max(
                abs(v) for row in a.rows for v in row if v != NEG_INF
            ) > 2.0 ** 960
    assert answered >= 110 and scaled >= 20


@pytest.mark.parametrize("target", [None, FLOAT_TIMES, FLOAT_PLUS],
                         ids=["exact", "float", "float_plus"])
def test_the_critical_walk_basis_equals_the_star_basis(monkeypatch, target):
    # eigenspace_basis makes one run per critical component, into its
    # smallest node, and checks the component along its critical edges
    # with no closure; its basis is the one the whole star gives
    rng = random.Random(2031)
    several = 0
    for _ in range(24):
        a = several_components(rng, rng.randint(4, 14), rng.randint(1, 4))
        if target is not None:
            a = in_float(a, target)
        an = spectral_analysis(a)
        closures = count_calls(monkeypatch, "closure_rows")
        runs = count_calls(monkeypatch, "_best_walks")
        basis = an.eigenspace_basis()
        assert closures == []
        assert len(runs) == len(an.critical.components)
        monkeypatch.undo()
        want = an._star_basis()
        assert len(basis) == len(want)
        for col, ref in zip(basis, want):
            assert_close(col, ref, a.semiring)
        several += len(an.critical.components) > 1
    assert several >= 12


def check_balance(monkeypatch, a):
    """True when a balances; otherwise both routes refuse it alike."""
    got, err = outcome(max_balance, a)
    want, ref_err = outcome(closure_balance, monkeypatch, a)
    assert err is ref_err
    if err is not None:
        return False
    assert_same_balance(got, want)
    return True


def test_exact_balancing_equals_the_closure_route(monkeypatch):
    rng = random.Random(2011)
    corpus = list(exact_corpus()) + list(exact_plus_corpus()) + [
        random_irreducible(rng, rng.randint(2, 10)) for _ in range(40)
    ]
    degraded = 0
    for a in corpus:
        assert check_balance(monkeypatch, a)
        degraded += max_balance(a).exact_degraded
    # irrational levels restart in float mode, the rest stay exact
    assert 0 < degraded < len(corpus)


def test_float_balancing_agrees_with_the_closure_route(monkeypatch):
    answered = sum(check_balance(monkeypatch, a) for a in float_corpus())
    assert answered >= 100


def test_no_closure_on_the_best_walk_route(monkeypatch):
    closures = count_calls(monkeypatch, "closure_rows")
    for a in exact_corpus():
        for target in (FLOAT_TIMES, FLOAT_PLUS):
            f = in_float(a, target)
            principal_eigenvector(f)
            max_balance(f)
    assert closures == []


# -- tolerance 0 ---------------------------------------------------------------

# decimal entries whose binary roundings break ties of the exact entries
DECIMALS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9, 1.0, 1.1, 1.2, 1.3, 3.3]


def decimal_ties(rng, sr):
    n = rng.randint(2, 9)
    zero = 0 if sr.domain == TIMES else "-inf"
    rows = [
        [rng.choice(DECIMALS) if rng.random() < 0.5 else zero
         for _ in range(n)]
        for _ in range(n)
    ]
    order = list(range(n))
    rng.shuffle(order)
    for u, v in zip(order, order[1:] + order[:1]):
        rows[u][v] = rng.choice(DECIMALS)
    return MaxMatrix(rows, sr)


@pytest.mark.parametrize("sr", [TIGHT_TIMES, TIGHT_PLUS],
                         ids=["times", "plus"])
def test_tolerance_zero_raises_as_the_closure_route(monkeypatch, sr):
    rng = random.Random(2017)
    corpus = [decimal_ties(rng, sr) for _ in range(150)]
    corpus += [semiring_convert(a, sr) for a in exact_corpus()]
    refused = 0
    for a in corpus:
        got, err = outcome(eigenspace_basis, a)
        want, ref_err = outcome(closure_basis, a)
        assert err is ref_err
        if err is None:
            for col, ref in zip(got, want):
                assert_close(col, ref, sr)
        _got, err = outcome(max_balance, a)
        _want, ref_err = outcome(closure_balance, monkeypatch, a)
        assert err is ref_err
        refused += err is not None
    assert refused > 0


def test_no_node_gives_the_zero_vector_on_every_route(monkeypatch):
    # star_columns(()) sums no column: the zero vector from the run of an
    # irreducible matrix, from the closure of a reducible one, and from
    # the closure that tolerance 0 hands over to
    closures = count_calls(monkeypatch, "closure_rows")
    cases = [
        (MaxMatrix([[1, 1], [1, 1]]), 0),
        (MaxMatrix([[1, 1], [0, 1]]), 1),
        (MaxMatrix([[1.0, 1.0], [1.0, 1.0]], TIGHT_TIMES), 1),
        (MaxMatrix([[1.0, 1.0], [1.0, 1.0]], TIGHT_PLUS), 1),
    ]
    for a, closed in cases:
        before = len(closures)
        zero = a.semiring.zero
        assert spectral_analysis(a).star_columns(()) == [zero, zero]
        assert len(closures) - before == closed


def test_a_failed_run_hands_over_to_the_closure(monkeypatch):
    # a run whose labels fail their certificate answers through the
    # closure, with the closure's answer
    a = in_float(several_components(random.Random(2019), 9, 2), FLOAT_TIMES)
    want = closure_basis(a)
    monkeypatch.setattr(spectral._Kit, "run", lambda *args: None)
    closures = count_calls(monkeypatch, "closure_rows")
    for col, ref in zip(eigenspace_basis(a), want):
        assert_close(col, ref, a.semiring)
    assert len(closures) == 1
    an = spectral_analysis(a)
    nodes = an.critical.nodes
    assert_close(an.star_columns(nodes), closure_columns(an, nodes),
                 a.semiring)


def test_a_level_whose_run_fails_reads_its_own_closure(monkeypatch):
    # with every run failing its certificate, each balancing level reads
    # kleene_star of its kit's steps, one closure per level, and answers
    # or refuses as the closure route does
    monkeypatch.setattr(spectral._Kit, "run", lambda *args: None)
    stars = count_calls(monkeypatch, "kleene_star")
    corpus = list(exact_corpus()) + list(float_corpus())
    answered = 0
    for a in corpus:
        before = len(stars)
        got, err = outcome(max_balance, a)
        closures = len(stars) - before
        want, ref_err = outcome(closure_balance, monkeypatch, a)
        assert err is ref_err
        if err is None:
            assert_same_balance(got, want)
            if not got.exact_degraded:
                assert closures == sum(len(seq) for seq in got.levels)
                answered += 1
    assert answered >= 100


# -- the cost of an exact run --------------------------------------------------


def test_an_exact_run_makes_at_most_two_relaxations_per_edge(monkeypatch):
    runs = []
    original = spectral._best_walks

    def counting(steps, sources, zero, one, mul, *rest):
        count = [0]

        def counted(e, y):
            count[0] += 1
            return mul(e, y)

        labels = original(steps, sources, zero, one, counted, *rest)
        runs.append((count[0], sum(len(out) for out in steps)))
        return labels

    monkeypatch.setattr(spectral, "_best_walks", counting)
    for a in exact_corpus():
        if spectral_analysis(a).lam is not None:
            principal_eigenvector(a)
        max_balance(a)
    for a in exact_plus_corpus():
        principal_eigenvector(a)
        max_balance(a)
    assert len(runs) > 100
    assert all(relaxations <= 2 * m for relaxations, m in runs), max(
        runs, key=lambda r: r[0] / r[1]
    )


def test_an_exact_analysis_builds_one_kit(monkeypatch):
    # the float proposal is already optimal on these matrices, so the
    # exact rounds build one kit, at the final mean, and the eigenvector's
    # best-walk runs reuse it rather than dividing the pattern again
    built = []
    init = spectral._Kit.__init__

    def counting(self, sr, succ, pair, table=None):
        built.append(gmean_value(sr, pair))
        init(self, sr, succ, pair, table)

    rng = random.Random(2027)
    times = [unit_lambda_irreducible(rng, 8), several_components(rng, 12, 2),
             unit_lambda_irreducible(rng, 12)]
    plus = [several_components(rng, 12, 2, plus=True),
            MaxMatrix([[v - 1 if v else NEG_INF for v in row]
                       for row in times[2].rows], EXACT_PLUS)]
    monkeypatch.setattr(spectral._Kit, "__init__", counting)
    for a in times + plus:
        lam = spectral_analysis(a).lam
        assert built == [lam]
        built.clear()
        x = principal_eigenvector(a)
        assert built == [lam]
        built.clear()
        assert is_eigenvector(a, x, lam)


def test_an_irrational_kit_runs_the_best_walks():
    # normalized() still refuses an irrational mean, but its kit carries
    # everything a run needs: on [[0, 2], [1, 0]], lam = 2^(1/2), the
    # star's column at node 0 is (1, lam^-1) and its row (1, 2 lam^-1),
    # as _Symbolic values (p, r, m, f) meaning (p/r) lam^(-m)
    an = spectral_analysis(fmat([[0, 2], [1, 0]]))
    assert an.lam is None
    kit, h = an._walks()
    col = kit.run((0,), -1, h)
    row = kit.run((0,), 1, h)
    assert [y[:3] for y in col] == [(1, 1, 0), (1, 1, 1)]
    assert [y[:3] for y in row] == [(1, 1, 0), (2, 1, 1)]
    assert kit.is_one(kit.mul(row[1], col[1]))
    assert not kit.is_one(row[1])
