"""Asymptotics of matrix powers: periodicity, CSR form, expansions.

Powers of a matrix divided by its top cycle geometric mean eventually
repeat: A^(t+p) equals A^t entrywise once t passes a transient. The
eventual period is governed by the cyclicity of the critical graph, and
the repeating tail factors through the critical nodes as a product
C (x) S^t (x) R. Removing the critical nodes and repeating the
factorization yields a finite expansion of A^t as a max-combination of
such products with strictly decreasing coefficients, valid for all large
t; the gap between the top two coefficients bounds how large t must be.

Everything here certifies against directly computed powers before
returning, so the reported transients and validity onsets are observed
facts about the matrix, not just theory.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, islice, repeat

from .errors import (
    CertificationError,
    InapplicableError,
    IterationBudgetError,
    ModeError,
    NotNormalizedError,
)
from .matrix import (
    MaxMatrix,
    is_max_combination,
    kleene_star,
    mat_power,
    oplus,
    otimes,
    semiring_convert,
)
from .semiring import PLUS, Semiring
from .spectral import critical_graph, spectral_analysis


@dataclass(frozen=True)
class PeriodicityProfile:
    """Observed eventual periodicity of normalized powers.

    transient is the least T >= 1 and period the least p with
    tilde^(T+p) == tilde^T; one such equality propagates to all later
    exponents. powers holds the witness window tilde^T .. tilde^(T+p).
    predicted_period is the critical graph's cyclicity.
    """

    transient: int
    period: int
    predicted_period: int
    lam: object
    powers: tuple
    budget: int


def _powers(m):
    """Yield m, m^2, m^3, ..., each power one product after the last."""
    power = m
    while True:
        yield power
        power = otimes(power, m)


def _scan_periodicity(ladder, budget):
    """First repeat among a ladder's powers: (transient, period, powers).

    ``ladder`` yields m, m^2, ... (_powers); powers[t] is m^t. Scans
    exponents upward, comparing each power against all earlier ones; the
    first repeat pins down the minimal eventual period and the minimal
    transient for it, since one equality propagates forever by
    multiplicativity. Raises IterationBudgetError when no repeat shows up
    within the budget.
    """
    powers = [None, next(ladder)]
    for t in range(2, budget + 1):
        powers.append(next(ladder))
        for p in range(1, t):
            if powers[t].allclose(powers[t - p]):
                return t - p, p, powers
    raise IterationBudgetError(
        f"no repetition among the first {budget} powers; raise the budget "
        "or check that the matrix really has ultimately periodic powers"
    )


def _transient_with_growth(m, budget, gamma):
    """Transient of the powers of m, growing the default budget on demand.

    Returns (transient, powers, ladder): powers[t] is m^t, and the ladder
    goes on with the powers after the last one kept. gamma is the
    cyclicity of m's critical graph. An explicit budget is a hard cap.
    The default is 2^7 times the usual 3n^2 + 2 gamma, because that
    figure is only the conjectured magnitude of the transient, not a
    proven bound; the scan stops at the first repeat, so a larger cap
    costs nothing when the repeat comes early.
    """
    if budget is None:
        budget = (3 * m.n * m.n + 2 * gamma) << 7
    ladder = _powers(m)
    transient, _period, powers = _scan_periodicity(ladder, budget)
    return transient, powers, ladder


def _periodicity_profile(m, mean, gamma, budget):
    """Scan the powers of the unit-mean m; mean is reported as lam."""
    if budget is None:
        budget = 3 * m.n * m.n + 2 * gamma
    transient, period, powers = _scan_periodicity(_powers(m), budget)
    return PeriodicityProfile(
        transient=transient,
        period=period,
        predicted_period=gamma,
        lam=mean,
        powers=tuple(powers[transient : transient + period + 1]),
        budget=budget,
    )


def transient_and_period(a, budget=None):
    """Transient and eventual period of the powers of a unit-mean matrix.

    The maximum cycle geometric mean must equal one, or no power can ever
    repeat; callers normalize first (normalize_to_unit). Irreducibility
    is not required, but only irreducible matrices are guaranteed to
    repeat at all: reducible ones with sub-unit classes shrink forever
    and exhaust the budget (default 3n^2 + 2 cyclicity).
    """
    an = spectral_analysis(a)
    if an.mean.cmp_one() != 0:
        raise NotNormalizedError(
            "the power sequence repeats only at maximum cycle mean 1; "
            "divide by the mean first (normalize_to_unit)"
        )
    return _periodicity_profile(a, an.mean, an.critical.cyclicity, budget)


def normalized_periodicity(a, budget=None):
    """transient_and_period of a divided by its mean, from one analysis.

    The scan runs on normalize_to_unit(a)'s matrix, whose critical graph
    is a's; lam is a's own mean, the one divided out.
    """
    an = spectral_analysis(a)
    return _periodicity_profile(
        an.normalized(), an.mean, an.critical.cyclicity, budget
    )


def critical_matrix(a):
    """The matrix keeping only entries on maximum-mean cycles of a."""
    sr = a.semiring
    cg = critical_graph(a)
    rows = [[sr.zero] * a.n for _ in range(a.n)]
    for i, j, w in cg.graph.edges:
        rows[i][j] = w
    return MaxMatrix._raw(rows, sr)


def normalize_to_unit(a):
    """Divide a by its top cycle geometric mean; returns (tilde, mean).

    Exact max-times matrices whose top mean is an irrational root raise
    ExactnessError; rerun in float mode for those. Acyclic matrices have
    mean zero and raise AcyclicMatrixError.
    """
    an = spectral_analysis(a)
    return an.normalized(), an.mean


def _csr_parts(an):
    """The C, S, R factors of an analysed matrix around its critical nodes."""
    tilde = an.normalized()
    sr = tilde.semiring
    cg = an.critical
    crit = cg.nodes
    star = kleene_star(mat_power(tilde, cg.cyclicity))
    c = star.restrict(range(tilde.n), crit)
    r = star.restrict(crit, range(tilde.n))
    pos = {node: k for k, node in enumerate(crit)}
    k = len(crit)
    s_rows = [[sr.zero] * k for _ in range(k)]
    for i, j, _w in cg.graph.edges:
        s_rows[pos[i]][pos[j]] = tilde.rows[i][j]
    return c, MaxMatrix._raw(s_rows, sr), r


def strong_path_table(a, t):
    """Best weights of length-t normalized walks through a critical node.

    Entry (i, j) is the maximum weight among walks from i to j of exactly
    t edges in the normalized matrix that visit at least one critical
    node (endpoints count); zero when no such walk exists. For large t
    this equals C (x) S^t (x) R entry by entry.
    """
    if t < 1:
        raise ValueError("walk length must be at least 1")
    sr = a.semiring
    n = a.n
    an = spectral_analysis(a)
    tilde = an.normalized()
    crit = set(an.critical.nodes)
    f = [
        [
            tilde.rows[i][j] if (i in crit or j in crit) else sr.zero
            for j in range(n)
        ]
        for i in range(n)
    ]
    for power in islice(_powers(tilde), 1, t):
        f = otimes(tilde, MaxMatrix._raw(f, sr)).rows
        f = [
            list(power.rows[i]) if i in crit else list(f[i])
            for i in range(n)
        ]
    return MaxMatrix._raw([list(row) for row in f], sr)


def strong_path_weight(a, i, j, t):
    """Best weight of one length-t critical-node walk from i to j."""
    return strong_path_table(a, t).rows[i][j]


@dataclass(frozen=True)
class CsrTriple:
    """The certified factorization A^t == lam^t C (x) S^t (x) R.

    Holds for every t >= transient; certified_from marks where the
    periodicity of both sides makes the window check conclusive, and
    transient the observed onset found by scanning below it.
    """

    lam: object
    lam_pair: tuple
    c: MaxMatrix
    s: MaxMatrix
    r: MaxMatrix
    gamma: int
    transient: int
    certified_from: int
    critical_nodes: tuple


def csr_decompose(a, budget=None):
    """Factor the eventual powers of a through its critical nodes.

    C takes the critical columns of the star of tilde^gamma, R the
    critical rows, and S the critical submatrix of tilde restricted to
    critical edges. The window where both sides are provably periodic is
    checked exhaustively; failure raises CertificationError. Both the
    window and the downward onset walk read the powers the two
    periodicity scans already computed.
    """
    an = spectral_analysis(a)
    c, s, r = _csr_parts(an)
    tilde = an.tilde
    gamma = an.critical.cyclicity
    # every edge of s is critical, so s shares tilde's critical cyclicity
    t_tilde, lhs_pows, lhs_ladder = _transient_with_growth(
        tilde, budget, gamma)
    t_s, s_pows, s_ladder = _transient_with_growth(s, budget, gamma)
    start = max(t_tilde, t_s)
    for pows, ladder in ((lhs_pows, lhs_ladder), (s_pows, s_ladder)):
        while len(pows) < start + gamma:
            pows.append(next(ladder))

    def agrees(t):
        return lhs_pows[t].allclose(otimes(otimes(c, s_pows[t]), r))

    for t in range(start, start + gamma):
        if not agrees(t):
            raise CertificationError(
                f"power {t} of the normalized matrix disagrees with its "
                "C S^t R factorization inside the certified window"
            )
    onset = start
    while onset > 1 and agrees(onset - 1):
        onset -= 1
    return CsrTriple(
        lam=an.lam,
        lam_pair=an.mean.pair(),
        c=c,
        s=s,
        r=r,
        gamma=gamma,
        transient=onset,
        certified_from=start,
        critical_nodes=an.critical.nodes,
    )


def csr_power(triple, t):
    """Evaluate lam^t C (x) S^t (x) R; matches A^t for t >= transient."""
    sr = triple.c.semiring
    prod = otimes(otimes(triple.c, mat_power(triple.s, t)), triple.r)
    return prod.scale(sr.power(triple.lam, t))


@dataclass(frozen=True)
class CsrTerm:
    """One summand coefficient^t C (x) S^t (x) R of a power expansion."""

    coefficient: object
    pair: tuple
    c: MaxMatrix
    s: MaxMatrix
    r: MaxMatrix
    gamma: int
    critical_nodes: tuple


@dataclass(frozen=True)
class Expansion:
    """A^t as a max-combination of CSR terms, valid from validity_start.

    Coefficients decrease strictly; equality with directly computed
    powers was observed on [validity_start, horizon]. validity_start is
    None when no onset with a safe margin fit inside the horizon.
    """

    terms: tuple
    validity_start: int
    horizon: int
    n: int
    semiring: Semiring


def nachtigall_expansion(a, horizon=None):
    """Expand powers of a into CSR terms of successively lighter cycles.

    Each round factors the current submatrix around its critical nodes,
    embeds the factors back into full size, then deletes those nodes and
    repeats until no cycles remain. The validity onset is measured by
    comparing against directly computed powers up to the horizon, with a
    safety margin of twice the combined period. With no explicit horizon
    the default one is doubled a few times as needed; if the onset still
    cannot be certified the expansion is returned with validity_start
    None instead of raising. An explicit horizon below 1 is refused.
    """
    if horizon is not None and horizon < 1:
        raise IterationBudgetError(
            f"the horizon must be at least 1, got {horizon}"
        )
    sr = a.semiring
    n = a.n
    alive = list(range(n))
    terms = []
    while alive:
        sub = a.restrict(alive)
        an = spectral_analysis(sub)
        if an.mean.is_zero:
            break
        c, s, r = _csr_parts(an)
        crit_local = an.critical.nodes
        crit_orig = tuple(alive[i] for i in crit_local)
        k = len(crit_local)
        c_rows = [[sr.zero] * k for _ in range(n)]
        r_rows = [[sr.zero] * n for _ in range(k)]
        for local, orig in enumerate(alive):
            for col in range(k):
                c_rows[orig][col] = c.rows[local][col]
            for row in range(k):
                r_rows[row][orig] = r.rows[row][local]
        terms.append(
            CsrTerm(
                coefficient=an.lam,
                pair=an.mean.pair(),
                c=MaxMatrix._raw(c_rows, sr),
                s=s,
                r=MaxMatrix._raw(r_rows, sr),
                gamma=an.critical.cyclicity,
                critical_nodes=crit_orig,
            )
        )
        dropped = set(crit_orig)
        alive = [v for v in alive if v not in dropped]
    combined = math.lcm(*(t.gamma for t in terms)) if terms else 1
    # agree[t] says whether A^t equals the expansion at t; it grows across
    # horizon doublings instead of restarting at t = 1
    agree = [False]
    ladder = _agreements(a, terms)

    def measure(h):
        """Longest all-agreeing tail of the first h powers, as its onset."""
        while len(agree) <= h:
            agree.append(next(ladder))
        v = h + 1
        while v > 1 and agree[v - 1]:
            v -= 1
        return v

    explicit = horizon is not None
    h = horizon if explicit else 3 * n * n + 2 * combined
    attempts = 1 if explicit else 8
    for _ in range(attempts):
        v = measure(h)
        # insist on a safety margin so a lucky coincidence right at the
        # horizon is never mistaken for the true onset
        if v <= h - 2 * combined:
            return Expansion(
                terms=tuple(terms),
                validity_start=v,
                horizon=h,
                n=n,
                semiring=sr,
            )
        if not explicit:
            h *= 2
    return Expansion(
        terms=tuple(terms),
        validity_start=None,
        horizon=h,
        n=n,
        semiring=sr,
    )


def _csr_products(term):
    """Yield C (x) S^t (x) R of one term for t = 1, 2, ...

    The last gamma powers of S and their products are kept. Once S^t
    equals S^(t - gamma) entry for entry, every later power repeats with
    period gamma, and so does the product: from then on the kept products
    are cycled and neither S nor the product is multiplied again. Float
    powers that never repeat bit for bit are multiplied at every step.
    """
    window = deque(maxlen=term.gamma)
    for s_pow in _powers(term.s):
        if len(window) == term.gamma and window[0][0] == s_pow:
            break
        prod = otimes(otimes(term.c, s_pow), term.r)
        window.append((s_pow, prod))
        yield prod
    cycle = [prod for _s_pow, prod in window]
    while True:
        yield from cycle


def _agreements(a, terms):
    """Yield, for t = 1, 2, ..., whether A^t equals the expansion at t.

    One ladder: A^t, each coefficient^t and each term's products advance
    by one step per t.
    """
    sr = a.semiring
    columns = [
        zip(accumulate(repeat(term.coefficient), sr.mul), _csr_products(term))
        for term in terms
    ]
    for power in _powers(a):
        yield is_max_combination(power, [next(col) for col in columns])


def expansion_power(expansion, t):
    """Evaluate the expansion at exponent t >= 1."""
    sr = expansion.semiring
    out = MaxMatrix.zeros(expansion.n, expansion.n, semiring=sr)
    for term in expansion.terms:
        prod = otimes(otimes(term.c, mat_power(term.s, t)), term.r)
        out = oplus(out, prod.scale(sr.power(term.coefficient, t)))
    return out


@dataclass(frozen=True)
class TransientBound:
    """A spectral-gap bound on the expansion onset, with the observed value.

    bound and the two leading coefficients are reported as floats in the
    matrix's own domain (multiplicative for max-times, additive for
    max-plus).
    """

    bound: float
    measured: int
    lam1: float
    lam2: float


def transient_bound(a):
    """Bound the expansion onset by the gap between the top two coefficients.

    The bound is 2 n^2 times the log-spread of the positive entries over
    the log-gap of the two leading expansion coefficients, evaluated in
    float arithmetic; the onset itself is measured in the matrix's own
    mode. Raises InapplicableError when the expansion has fewer than two
    terms, since then there is no gap to measure, and ModeError when the
    gap rounds to zero in float arithmetic.
    """
    sr = a.semiring
    expansion = nachtigall_expansion(a)
    if len(expansion.terms) < 2:
        raise InapplicableError(
            "the expansion has fewer than two terms, so there is no "
            "spectral gap to bound the onset with"
        )
    if expansion.validity_start is None:
        raise IterationBudgetError(
            "the expansion onset could not be certified within the "
            "horizon, so there is no measured value to report"
        )
    f = semiring_convert(a, Semiring(sr.domain, exact=False))
    fsr = f.semiring
    lam1 = fsr.to_float(expansion.terms[0].coefficient)
    lam2 = fsr.to_float(expansion.terms[1].coefficient)
    if fsr.domain == PLUS:
        logs = [v for row in f.rows for v in row if not fsr.is_zero(v)]
        gap = lam1 - lam2
    else:
        logs = [
            math.log(v) for row in f.rows for v in row if not fsr.is_zero(v)
        ]
        gap = math.log(lam1) - math.log(lam2)
    if not gap > 0:
        raise ModeError(
            "the gap between the two leading coefficients vanishes in "
            "float arithmetic"
        )
    spread = max(logs) - min(logs)
    n = f.n
    return TransientBound(
        bound=2.0 * n * n * spread / gap,
        measured=expansion.validity_start,
        lam1=lam1,
        lam2=lam2,
    )
