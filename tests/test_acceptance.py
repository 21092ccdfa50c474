"""End-to-end acceptance gate, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Everything runs in exact rational arithmetic against the
brute-force oracles in helpers.py. Measurements that are reported rather
than asserted (onset conjectures) are printed and written to
``tests/acceptance_metrics.txt``, one line per criterion.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

from maxalg import (
    EXACT_TIMES,
    DivergenceError,
    ExactnessError,
    HadamardFailsError,
    MaxMatrix,
    MaxVector,
    NoScalingError,
    apply_scaling,
    as_scaling,
    boolean_saturation_pair,
    common_eigenvector,
    commutes,
    commuting_cycle_witness,
    critical_graph,
    critical_matrix,
    csr_decompose,
    csr_power,
    expansion_power,
    fp_scaling,
    hadamard_scaling_test,
    has_rowcol_maxima_diagonal,
    is_eigenvector,
    is_fp_scaling,
    is_max_balanced_cut,
    is_max_balanced_cyclecover,
    kleene_star,
    mat_power,
    max_balance,
    max_cycle_gmean,
    nachtigall_expansion,
    oplus,
    otimes,
    principal_eigenvector,
    row_col_maxima_scalings,
    sandwich_scalings,
    satisfies_sandwich,
    saturation_graph,
    scc,
    strong_fp_scaling,
    strong_path_table,
    strong_path_weight,
    transient_and_period,
    transient_bound,
)

from helpers import (
    best_gmean_pair_brute,
    critical_edges_brute,
    cycles_brute,
    fmat,
    fvec,
    grids_equal,
    hadamard_condition_one_brute,
    has_cycle_above_one_brute,
    is_balanced_cut_brute,
    polynomial_pair,
    rand_positive,
    random_irreducible,
    random_matrix,
    random_signed,
    star_brute,
    two_level_planted,
    unit_lambda_irreducible,
    unit_mean_corpus,
)

METRICS_PATH = Path(__file__).with_name("acceptance_metrics.txt")


def _criterion(line):
    return int(line.split(":", 1)[0].removeprefix("criterion "))


def _record(line):
    """Put the line in place of its criterion's line in the metrics file.

    Lines of criteria that did not run (a ``-k`` selection) are kept.
    """
    print(line)
    key = _criterion(line)
    old = METRICS_PATH.read_text() if METRICS_PATH.exists() else ""
    kept = [x for x in old.splitlines() if _criterion(x) != key]
    METRICS_PATH.write_text(
        "".join(f"{x}\n" for x in sorted(kept + [line], key=_criterion))
    )


def test_criterion_01_fp_scaling_matches_cycle_oracle():
    rng = random.Random(101)
    found = refused = 0
    for _ in range(1000):
        n = rng.randint(1, 8)
        a = random_matrix(rng, n, density=rng.uniform(0.2, 0.7))
        heavy = has_cycle_above_one_brute(a)
        try:
            scaling = fp_scaling(a)
        except NoScalingError as exc:
            assert heavy
            cycle = exc.witness
            assert cycle.weight > 1
            refused += 1
            continue
        assert not heavy
        assert is_fp_scaling(a, scaling.x)
        found += 1
    assert found and refused
    _record(f"criterion 1: {found} scaled, {refused} refused, oracle agreed")


def test_criterion_02_strong_scaling_strict_boundary():
    rng = random.Random(102)
    found = refused = 0
    for _ in range(600):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, density=rng.uniform(0.2, 0.7))
        if rng.random() < 0.5:
            a = a.scale(Fraction(1, 4))
        best = best_gmean_pair_brute(a)
        feasible = best is None or best[0] < 1
        try:
            scaling = strong_fp_scaling(a)
        except NoScalingError:
            assert not feasible
            refused += 1
            continue
        assert feasible
        b = scaling.apply(a)
        sr = b.semiring
        assert all(
            sr.is_zero(w) or w < 1 for row in b.rows for w in row
        )
        found += 1
    assert found and refused
    _record(f"criterion 2: {found} strict scalings, {refused} refusals")


def test_criterion_03_kleene_star_closure_and_divergence():
    rng = random.Random(103)
    converged = diverged = 0
    for _ in range(500):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, density=rng.uniform(0.2, 0.7))
        heavy = has_cycle_above_one_brute(a)
        try:
            star = kleene_star(a)
        except DivergenceError as exc:
            assert heavy
            assert exc.witness.weight > 1
            diverged += 1
            continue
        assert not heavy
        assert otimes(star, star) == star
        powers = MaxMatrix.identity(n, EXACT_TIMES)
        for k in range(1, n):
            powers = oplus(powers, mat_power(a, k))
        assert star == powers
        assert grids_equal(star_brute(a), star)
        converged += 1
    assert converged and diverged
    _record(f"criterion 3: {converged} stars, {diverged} divergences")


def test_criterion_04_spectral_certificates():
    rng = random.Random(104)
    # exact mean against the cycle oracle, cyclic and acyclic inputs both
    for _ in range(200):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, density=rng.uniform(0.2, 0.7))
        best = best_gmean_pair_brute(a)
        mean = max_cycle_gmean(a)
        if best is None:
            assert mean.is_zero
        else:
            w, length = best
            assert mean.weight ** length == w ** mean.length
    checked_scalings = 0
    for _ in range(15):
        n = rng.randint(2, 6)
        a = unit_lambda_irreducible(rng, n)
        lam = Fraction(2) ** rng.randint(-2, 2)
        scaled = a.scale(lam)
        x = principal_eigenvector(scaled)
        assert otimes(scaled, x) == x.scale(lam)
        # the eigenvector saturates at least one entry per row
        sat = saturation_graph(a, principal_eigenvector(a))
        assert all(sat.graph.successors(v) for v in range(n))
        crit = critical_edges_brute(a)
        for _ in range(100):
            u = fvec([rand_positive(rng) for _ in range(n)])
            xs = fp_scaling(a, u=u).x
            edges = {
                (i, j) for i, j, _w in saturation_graph(a, xs).graph.edges
            }
            assert crit <= edges
            checked_scalings += 1
    _record(
        f"criterion 4: oracle means on 200 matrices, critical edges "
        f"saturated under {checked_scalings} sampled scalings"
    )


GRID = [Fraction(2) ** k for k in range(-7, 8)]


def _grid_vectors(n):
    """All positive vectors with first entry 1 and grid-ratio entries."""
    if n == 1:
        yield (Fraction(1),)
        return
    if n == 2:
        for g in GRID:
            yield (Fraction(1), g)
        return
    for g1 in GRID:
        for g2 in GRID:
            yield (Fraction(1), g1, g2)


def test_criterion_05_rowcol_and_sandwich_families():
    rng = random.Random(105)
    solved = grid_confirmed = 0
    for _ in range(250):
        n = rng.randint(1, 3)
        a = random_matrix(rng, n, density=0.6)
        rows = [list(r) for r in a.rows]
        for i in range(n):
            rows[i][i] = rand_positive(rng)
            if rng.random() < 0.5:
                rows[i][i] *= 4
        a = fmat(rows)
        try:
            fam = row_col_maxima_scalings(a)
        except NoScalingError:
            for vec in _grid_vectors(n):
                b = apply_scaling(a, as_scaling(list(vec), EXACT_TIMES))
                assert not has_rowcol_maxima_diagonal(b)
            grid_confirmed += 1
            continue
        for _ in range(5):
            b = apply_scaling(a, fam.sample_random(rng))
            assert has_rowcol_maxima_diagonal(b)
        solved += 1
    assert solved and grid_confirmed
    sw_solved = sw_confirmed = 0
    while sw_solved < 60 or sw_confirmed < 40:
        n = rng.randint(1, 3)
        mid = random_matrix(rng, n, density=0.7)
        if all(
            mid.semiring.is_zero(w) for row in mid.rows for w in row
        ):
            continue
        lo = fmat(
            [
                [w / Fraction(rng.randint(1, 6)) if w else 0 for w in row]
                for row in mid.rows
            ]
        )
        hi = fmat(
            [
                [w * Fraction(rng.randint(1, 6)) if w else 0 for w in row]
                for row in mid.rows
            ]
        )
        if rng.random() < 0.5:
            lo, hi = hi, lo
        triple = (lo, mid, hi)
        try:
            fam = sandwich_scalings([triple])
        except NoScalingError:
            if sw_confirmed >= 40:
                continue
            for vec in _grid_vectors(n):
                x = as_scaling(list(vec), EXACT_TIMES)
                assert not satisfies_sandwich([triple], x)
            sw_confirmed += 1
            continue
        if sw_solved >= 60:
            continue
        for _ in range(5):
            x = fam.sample_random(rng)
            assert satisfies_sandwich([triple], x)
        sw_solved += 1
    _record(
        f"criterion 5: rowcol {solved} solved / {grid_confirmed} "
        f"grid-confirmed refusals; sandwich {sw_solved} solved / "
        f"{sw_confirmed} grid-confirmed refusals"
    )


def test_criterion_06_hadamard_moduli_decision():
    rng = random.Random(106)
    passes = failures = 0
    for _ in range(300):
        n = rng.randint(2, 5)
        rows = random_signed(rng, n)
        want = hadamard_condition_one_brute(rows)
        try:
            scaling = hadamard_scaling_test(rows)
        except HadamardFailsError as exc:
            assert not want
            assert exc.witness is not None
            failures += 1
            continue
        assert want
        d = scaling.x.entries
        for i in range(n):
            for j in range(n):
                assert abs(rows[i][j]) * d[j] <= abs(rows[i][i]) * d[i]
        passes += 1
    assert passes and failures
    _record(f"criterion 6: {passes} accepted, {failures} rejected, "
            "both certified")


def test_criterion_07_cyclicity_theorem():
    minimal_checked = 0
    for a in unit_mean_corpus():
        prof = transient_and_period(a, budget=600)
        gamma = critical_graph(a).cyclicity
        assert prof.period == gamma
        assert prof.predicted_period == gamma
        t0, g = prof.transient, prof.period
        powers = [None, a]
        for t in range(2, t0 + 4 * g + 1):
            powers.append(otimes(powers[-1], a))
        for t in range(t0, t0 + 3 * g + 1):
            assert powers[t + g] == powers[t]
        if t0 > 1:
            assert powers[t0 - 1 + g] != powers[t0 - 1]
            minimal_checked += 1
    _record(
        f"criterion 7: 300 matrices periodic with gamma = critical "
        f"cyclicity; transient minimality bit on {minimal_checked}"
    )


def test_criterion_08_csr_theorem():
    for a in unit_mean_corpus():
        trip = csr_decompose(a)
        t0, g = trip.transient, trip.gamma
        for t in range(t0, t0 + 3 * g + 1):
            assert csr_power(trip, t) == mat_power(a, t)
        cm = critical_matrix(a)
        for k in range(1, 7):
            assert critical_matrix(mat_power(a, k)) == mat_power(cm, k)
    _record("criterion 8: csr factorization and critical-power identity "
            "hold on all 300 matrices")


def test_criterion_09_strong_path_theorem():
    rng = random.Random(109)
    early = 0
    for _ in range(100):
        n = rng.randint(2, 4)
        a = unit_lambda_irreducible(rng, n)
        trip = csr_decompose(a)
        g = trip.gamma
        start = 3 * n * n
        for t in range(start, start + 2 * g + 1):
            assert strong_path_table(a, t) == csr_power(trip, t)
        i, j = rng.randrange(n), rng.randrange(n)
        t = rng.randint(start, start + 2 * g)
        assert strong_path_weight(a, i, j, t) == csr_power(trip, t).rows[i][j]
        half = 2 * n * n
        if all(
            strong_path_table(a, t) == csr_power(trip, t)
            for t in range(half, half + 2 * g + 1)
        ):
            early += 1
    _record(
        f"criterion 9: equality from 3n^2 on 100 matrices; already exact "
        f"from 2n^2 on {early}/100 (recorded, not asserted)"
    )


def test_criterion_10_nachtigall_expansion():
    rng = random.Random(110)
    for _ in range(80):
        n = rng.randint(3, 6)
        a, _l1, _l2 = two_level_planted(rng, n)
        exp = nachtigall_expansion(a)
        assert exp.validity_start is not None
        coeffs = [t.coefficient for t in exp.terms]
        assert all(x > y for x, y in zip(coeffs, coeffs[1:]))
        supports = [set(t.critical_nodes) for t in exp.terms]
        for s1, s2 in zip(supports, supports[1:]):
            assert not (s1 & s2)
        g1 = exp.terms[0].gamma
        for t in range(exp.validity_start, exp.validity_start + 2 * g1 + 1):
            assert expansion_power(exp, t) == mat_power(a, t)
    computable = skipped = unknown = within = 0
    for a in unit_mean_corpus():
        n = a.n
        try:
            exp = nachtigall_expansion(a)
        except ExactnessError:
            skipped += 1
            continue
        if exp.validity_start is None:
            unknown += 1
            continue
        computable += 1
        if exp.validity_start <= 3 * n * n:
            within += 1
    _record(
        f"criterion 10: expansions exact on 80 planted instances; onset "
        f"<= 3n^2 on {within}/{computable} of the shared corpus "
        f"({skipped} skipped on irrational stage means, {unknown} "
        f"uncertified) -- recorded, not asserted"
    )


def test_criterion_11_transient_bound():
    rng = random.Random(111)
    applicable = 0
    while applicable < 80:
        n = rng.randint(3, 5)
        a, _l1, _l2 = two_level_planted(rng, n)
        exp = nachtigall_expansion(a)
        if len(exp.terms) < 2:
            continue
        tb = transient_bound(a)
        lam1 = float(exp.terms[0].coefficient)
        lam2 = float(exp.terms[1].coefficient)
        logs = [
            math.log(float(w))
            for row in a.rows
            for w in row
            if not a.semiring.is_zero(w)
        ]
        formula = (
            2.0 * n * n * (max(logs) - min(logs))
            / (math.log(lam1) - math.log(lam2))
        )
        assert math.isclose(tb.bound, formula, rel_tol=1e-9)
        assert tb.lam1 > tb.lam2
        assert tb.measured <= formula * (1 + 1e-9)
        applicable += 1
    _record(f"criterion 11: measured onset within the spectral-gap bound "
            f"on {applicable} applicable instances")


def test_criterion_12_max_balancing():
    rng = random.Random(112)
    degraded = 0
    for _ in range(500):
        n = rng.randint(2, 8)
        a = random_irreducible(rng, n)
        assert is_max_balanced_cyclecover(a) == is_max_balanced_cut(a)
        cert = max_balance(a)
        assert is_max_balanced_cyclecover(cert.balanced)
        assert is_max_balanced_cut(cert.balanced)
        if cert.exact_degraded:
            degraded += 1
        else:
            assert is_balanced_cut_brute(cert.balanced)
    _record(
        f"criterion 12: 500 balancings pass both predicates "
        f"({degraded} degraded to float on irrational level means)"
    )


def test_criterion_13_commuting_pairs():
    rng = random.Random(113)
    for _ in range(200):
        n = rng.randint(2, 5)
        p, q, _base = polynomial_pair(rng, n)
        assert commutes(p, q)
        x, lam_p, lam_q = common_eigenvector(p, q)
        assert is_eigenvector(p, x, lam_p)
        assert is_eigenvector(q, x, lam_q)
        pair = boolean_saturation_pair(p, q, x)
        assert pair.verified_commuting
        c1, c2 = commuting_cycle_witness(pair)
        allowed1 = set(scc(pair.g2).nontrivial_nodes())
        allowed2 = set(scc(pair.g1).nontrivial_nodes())
        for cycle, g, allowed in (
            (c1, pair.g1, allowed1),
            (c2, pair.g2, allowed2),
        ):
            assert cycle.nodes[0] == cycle.nodes[-1]
            assert set(cycle.nodes) <= allowed
            for u, v in zip(cycle.nodes, cycle.nodes[1:]):
                assert not g.semiring.is_zero(g.weight(u, v))
        for m, lam in ((p, lam_p), (q, lam_q)):
            tilde = m.scale(Fraction(1) / lam)
            dec = scc(saturation_graph(tilde, x).graph)
            sats = {
                frozenset(comp)
                for comp, triv in zip(dec.components, dec.trivial)
                if not triv
            }
            crit = {frozenset(c) for c in critical_graph(m).components}
            assert crit == sats
    _record("criterion 13: 200 polynomial pairs pass the full commuting "
            "pipeline with matching critical/saturation components")


def test_criterion_14_cli_contract(tmp_path):
    import json

    from test_cli import GOLDEN_CASES, HERE, _run
    from maxalg.cli import parse_matrix_text, serialize_matrix

    for name, argv, want_code in GOLDEN_CASES:
        report, code = _run(argv)
        assert code == want_code
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert text == (HERE / "golden" / f"{name}.json").read_text()
    for path in sorted((HERE / "data").glob("*.mx")):
        if path.name.startswith("h_signed"):
            continue
        a, _w = parse_matrix_text(path.read_text(), str(path))
        again, _w2 = parse_matrix_text(serialize_matrix(a), str(path))
        assert again == a
    _report, code = _run(["scale", "fp", "data/two_cycle.mx"])
    assert code == 0
    _report, code = _run(["scale", "fp", "data/balance4.mx"])
    assert code == 1
    bad = tmp_path / "bad.mx"
    bad.write_text("maxtimes 2 exact\n. nope\n1 .\n")
    report, code = _run(["info", str(bad)])
    assert code == 2
    assert "not a number" in report["results"]["error"]
    _record(f"criterion 14: {len(GOLDEN_CASES)} golden reports, "
            "round-trips, exit codes 0/1/2 exercised")
