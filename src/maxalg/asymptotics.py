"""Asymptotics of matrix powers: periodicity, CSR form, expansions.

Powers of a matrix divided by its top cycle geometric mean eventually
repeat: A^(t+p) equals A^t entrywise once t passes a transient. The
eventual period is governed by the cyclicity of the critical graph, and
the repeating tail factors through the critical nodes as a product
C (x) S^t (x) R. Removing the critical nodes and repeating the
factorization yields a finite expansion of A^t as a max-combination of
such products with strictly decreasing coefficients, valid for all large
t; the gap between the top two coefficients bounds how large t must be.

The periodicity and CSR results certify against directly computed
powers before returning, so their transients are observed facts about
the matrix, not just theory. An exact expansion's validity onset is
proven for every power, by induction (nachtigall_expansion); a float
one is observed on the powers up to a horizon.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import accumulate, repeat

from .errors import (
    CertificationError,
    InapplicableError,
    IterationBudgetError,
    ModeError,
    NotNormalizedError,
)
from .matrix import (
    MaxMatrix,
    entry_key,
    is_max_combination,
    kleene_star,
    mat_power,
    oplus,
    otimes,
    semiring_convert,
    unequal_entries,
)
from .semiring import PLUS, TIMES, Semiring, filtered_sign, log_terms
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


def _default_budget(n, gamma):
    """3n^2 + 2 gamma: the usual magnitude of a transient on n nodes."""
    return 3 * n * n + 2 * gamma


def _check_budget(budget):
    """Refuse an explicit budget below 2: a repeat needs two powers."""
    if budget is not None and budget < 2:
        raise IterationBudgetError(
            f"the budget must be at least 2, got {budget}: a repeat needs "
            "two powers"
        )


def _scan_periodicity(m, budget):
    """First repeat among m's powers: (transient, period, powers, ladder).

    powers[t] is m^t for t up to the repeat, and the ladder (_powers)
    goes on with the powers after the last one kept. The first t at
    which m^t equals an earlier power m^s pins down the minimal eventual
    period t - s and the minimal transient s for it, since one equality
    propagates forever by multiplicativity. Exact mode finds it with one
    dict lookup per power, keyed by entry_key (the row lifts in
    max-times, the rows in max-plus): every earlier power is distinct,
    so at most one matches. Float mode compares each new power with all
    earlier ones under the tolerance, which is not transitive. Raises
    IterationBudgetError when no repeat shows up within the budget.
    """
    ladder = _powers(m)
    powers = [None, next(ladder)]
    if m.semiring.exact:
        seen = {entry_key(powers[1]): 1}
        for t in range(2, budget + 1):
            power = next(ladder)
            powers.append(power)
            first = seen.setdefault(entry_key(power), t)
            if first != t:
                return first, t - first, powers, ladder
    else:
        for t in range(2, budget + 1):
            powers.append(next(ladder))
            for p in range(1, t):
                if powers[t].allclose(powers[t - p]):
                    return t - p, p, powers, ladder
    raise IterationBudgetError(
        f"no repetition among the first {budget} powers; raise the budget "
        "or check that the matrix really has ultimately periodic powers"
    )


def _periodicity_profile(m, mean, gamma, budget):
    """Scan the powers of the unit-mean m; mean is reported as lam."""
    if budget is None:
        budget = _default_budget(m.n, gamma)
    transient, period, powers, _ladder = _scan_periodicity(m, budget)
    window = tuple(powers[transient : transient + period + 1])
    for power in window:
        # exact ladder powers are born without Fraction rows; build the
        # returned window's here, so their cost falls inside this call
        # (and perfbench's timed section) rather than in whichever
        # caller or check reads them first
        power.rows
    return PeriodicityProfile(
        transient=transient,
        period=period,
        predicted_period=gamma,
        lam=mean,
        powers=window,
        budget=budget,
    )


def transient_and_period(a, budget=None):
    """Transient and eventual period of the powers of a unit-mean matrix.

    The maximum cycle geometric mean must equal one, or no power can ever
    repeat; callers normalize first (normalize_to_unit). Irreducibility
    is not required, but only irreducible matrices are guaranteed to
    repeat at all: reducible ones with sub-unit classes shrink forever
    and exhaust the budget (default 3n^2 + 2 cyclicity). An explicit
    budget below 2 is refused with IterationBudgetError.
    """
    _check_budget(budget)
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
    _check_budget(budget)
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
    """The C, S, R factors of an analysed matrix around its critical nodes.

    S's entries are the critical edges' weights over lam. In exact mode
    each is that one quotient, so the rows of a tilde born lifted are not
    built for them; a float entry is read off tilde, whose rounding it
    must share.
    """
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
    for i, j, w in cg.graph.edges:
        s_rows[pos[i]][pos[j]] = (
            sr.div(w, an.lam) if sr.exact else tilde.rows[i][j]
        )
    return c, MaxMatrix._raw(s_rows, sr), r


def strong_path_table(a, t):
    """Best weights of length-t normalized walks through a critical node.

    Entry (i, j) is the maximum weight among walks from i to j of exactly
    t edges in the normalized matrix that visit at least one critical
    node (endpoints count); zero when no such walk exists. For large t
    this equals C (x) S^t (x) R entry by entry.

    Such walks are walks on two copies of the nodes: node v while the
    walk has met no critical node, node n + v once it has. A step leaves
    the first copy for the second when either of its ends is critical,
    so the table is the upper right block of one power of that 2n x 2n
    matrix.
    """
    if t < 1:
        raise ValueError("walk length must be at least 1")
    sr = a.semiring
    n = a.n
    an = spectral_analysis(a)
    tilde = an.normalized().rows
    crit = set(an.critical.nodes)
    zeros = [sr.zero] * n
    two_copies = [
        [sr.zero if i in crit or j in crit else v for j, v in enumerate(row)]
        + [v if i in crit or j in crit else sr.zero for j, v in enumerate(row)]
        for i, row in enumerate(tilde)
    ] + [zeros + list(row) for row in tilde]
    walks = mat_power(MaxMatrix._raw(two_copies, sr), t)
    return walks.restrict(range(n), range(n, 2 * n))


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
    periodicity scans already computed. In exact mode the period of S's
    powers must divide gamma, as it does for every S whose edges are all
    critical, so that S^t repeats with period gamma from certified_from
    on (csr_power relies on it); otherwise CertificationError. An
    explicit budget below 2 is refused with IterationBudgetError.
    """
    _check_budget(budget)
    an = spectral_analysis(a)
    c, s, r = _csr_parts(an)
    tilde = an.tilde
    gamma = an.critical.cyclicity

    def scan(m):
        # an explicit budget is a hard cap. The default is 2^7 times the
        # usual budget, because that figure is only the conjectured
        # magnitude of the transient, not a proven bound; the scan stops
        # at the first repeat, so a larger cap costs nothing when the
        # repeat comes early
        if budget is None:
            return _scan_periodicity(m, _default_budget(m.n, gamma) << 7)
        return _scan_periodicity(m, budget)

    # every edge of s is critical, so s shares tilde's critical cyclicity
    t_tilde, _p, lhs_pows, lhs_ladder = scan(tilde)
    t_s, p_s, s_pows, s_ladder = scan(s)
    if s.semiring.exact and gamma % p_s:
        raise CertificationError(
            f"the powers of S repeat with period {p_s}, which does not "
            f"divide the critical cyclicity {gamma}"
        )
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


def _product_count(t):
    """The number of products exact mat_power makes for its t-th power."""
    t = int(t)
    return max(t.bit_length() + bin(t).count("1") - 2, 0)


def _s_power(s, t, start, gamma):
    """S^t, where S^(u + gamma) == S^u for every u >= start.

    For t >= start, S^t is also S^(start + (t - start) mod gamma);
    mat_power takes whichever of the two exponents costs it fewer
    products, so a large t costs no more than a small one. A start of
    None, for powers that need not repeat bit for bit, takes
    mat_power(S, t).
    """
    if start is not None and t >= start and t == int(t):
        t = min(t, start + (int(t) - start) % gamma, key=_product_count)
    return mat_power(s, t)


def csr_power(triple, t):
    """Evaluate lam^t C (x) S^t (x) R; matches A^t for t >= transient.

    In exact mode S^t repeats with period gamma from certified_from on
    (csr_decompose checks it), and _s_power folds t into that period, so
    a large t costs no more than a small one. Float mode takes
    mat_power(S, t).
    """
    sr = triple.c.semiring
    start = triple.certified_from if sr.exact else None
    s_pow = _s_power(triple.s, t, start, triple.gamma)
    prod = otimes(otimes(triple.c, s_pow), triple.r)
    power = prod.scale(sr.power(triple.lam, t))
    # an exact scale is born without Fraction rows; build them here, as
    # _periodicity_profile does for its window
    power.rows
    return power


@dataclass(frozen=True)
class CsrTerm:
    """One summand coefficient^t C (x) S^t (x) R of a power expansion.

    ``_start``, set on the exact terms of nachtigall_expansion, is the
    least s with S^(s + gamma) == S^s, as its proof measured it
    (_periodic_products); expansion_power folds t into that period. It
    takes no part in comparison, hashing or repr.
    """

    coefficient: object
    pair: tuple
    c: MaxMatrix
    s: MaxMatrix
    r: MaxMatrix
    gamma: int
    critical_nodes: tuple
    _start: int = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Expansion:
    """A^t as a max-combination of CSR terms, valid from validity_start.

    Coefficients decrease strictly. In exact mode validity_start is the
    least v with A^t equal to the expansion for every t >= v, proven, and
    horizon is the cap on the powers of A the proof was allowed to
    compute; validity_start is None when the onset lies beyond it. In
    float mode equality with directly computed powers was observed on
    [validity_start, horizon], and validity_start is None when no onset
    with a safe margin fit inside the horizon.
    """

    terms: tuple
    validity_start: int
    horizon: int
    n: int
    semiring: Semiring


def nachtigall_expansion(a, horizon=None):
    """Expand powers of a into CSR terms of successively lighter cycles.

    Each round factors the current matrix around its critical nodes, then
    sets the rows and columns of those nodes to zero and repeats until no
    cycles remain. The matrix keeps a's size, so every round's C, R and
    critical nodes are in a's own indices.

    The default horizon is 3n^2 + 2L, L the lcm of the terms'
    cyclicities, doubled up to seven times as needed; an explicit one is
    a hard cap, and one below 1 is refused. An onset that cannot be
    settled within the horizon leaves validity_start None instead of
    raising.

    Exact mode proves the onset (_proven_onset): from each term's
    periodic products (_periodic_products, one ladder per term, whose
    start the returned term keeps for expansion_power) it finds the
    index v0 from which A (x) E(s) == E(s + 1) for every s, so that A^v
    == E(v) at any v >= v0 carries on to every later power by
    induction, then climbs A's powers from v0 to the first such v. The
    horizon caps that climb; the default one is doubled only while the
    onset lies above it. An expansion whose two sides of the induction
    step can never agree raises CertificationError. Float mode, whose
    powers need not repeat bit for bit, measures the onset instead: it
    compares directly computed powers with the expansion up to the
    horizon and insists on a safety margin of twice L below it.
    """
    if horizon is not None and horizon < 1:
        raise IterationBudgetError(
            f"the horizon must be at least 1, got {horizon}"
        )
    sr = a.semiring
    n = a.n
    dropped = set()
    terms = []
    while True:
        rows = [
            [sr.zero if i in dropped or j in dropped else v
             for j, v in enumerate(row)]
            for i, row in enumerate(a.rows)
        ]
        an = spectral_analysis(MaxMatrix._raw(rows, sr))
        if an.mean.is_zero:
            break
        c, s, r = _csr_parts(an)
        terms.append(
            CsrTerm(
                coefficient=an.lam,
                pair=an.mean.pair(),
                c=c,
                s=s,
                r=r,
                gamma=an.critical.cyclicity,
                critical_nodes=an.critical.nodes,
            )
        )
        dropped.update(an.critical.nodes)
    combined = math.lcm(*(t.gamma for t in terms)) if terms else 1
    explicit = horizon is not None
    h = horizon if explicit else _default_budget(n, combined)
    attempts = 1 if explicit else 8
    if sr.exact:
        ladders = [_periodic_products(term) for term in terms]
        terms = [replace(term, _start=start)
                 for term, (_prods, start) in zip(terms, ladders)]
        # the climb stops at the last horizon tried; the scalar
        # comparisons of the proof may reach the largest default one
        onset = _proven_onset(
            a, terms, ladders, combined, h << (attempts - 1),
            max(h, _default_budget(n, combined) << 7),
        )

        def found(h):
            return onset if onset is not None and onset <= h else None
    else:
        # agree[t] says whether A^t equals the expansion at t; it grows
        # across horizon doublings instead of restarting at t = 1
        agree = [False]
        ladder = _agreements(a, terms)

        def found(h):
            """Longest all-agreeing tail of the first h powers, as its
            onset, when it leaves a safety margin of twice the combined
            period: a lucky coincidence right at the horizon is never
            mistaken for the true onset."""
            while len(agree) <= h:
                agree.append(next(ladder))
            v = h + 1
            while v > 1 and agree[v - 1]:
                v -= 1
            return v if v <= h - 2 * combined else None

    for _ in range(attempts):
        v = found(h)
        if v is not None:
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
        key = entry_key(s_pow)
        if len(window) == term.gamma and window[0][0] == key:
            break
        prod = otimes(otimes(term.c, s_pow), term.r)
        window.append((key, prod))
        yield prod
    cycle = [prod for _key, prod in window]
    while True:
        yield from cycle


def _periodic_products(term):
    """(products, start) of one exact term: products[t] is C S^t R.

    The list runs from t = 1 to start + gamma - 1, and from start on the
    products repeat with period gamma. Exact S powers always repeat: the
    critical walks of a normalized matrix weigh x_i / x_j for any
    subeigenvector x, so S^t takes finitely many values. _csr_products
    then cycles its kept products, which shows here as the same object
    coming back gamma steps later.
    """
    products = [None]
    for prod in _csr_products(term):
        t = len(products)
        if t > term.gamma and prod is products[t - term.gamma]:
            return products, t - term.gamma
        products.append(prod)


def _proven_onset(a, terms, ladders, period, cap, limit):
    """The least v with A^s == E(s) for every s >= v; None when v > cap.

    E(s) is the expansion max_k c_k^s P_k(s), P_k(s) = C_k S_k^s R_k.
    The proof is by induction on s. Let v0 be the least index from which
    A (x) E(s) == E(s + 1) holds for every s >= v0. If A^v == E(v) for
    some v >= v0, then A^(v+1) = A (x) E(v) = E(v + 1), and so on for
    every later power. Conversely, from the true onset T on, A (x) E(s) =
    A^(s+1) = E(s + 1), so v0 <= T and A^T == E(T). Hence T is the least
    v >= v0 with A^v == E(v): A's powers are climbed from v0 only.

    v0 is found without powers of A. Each term's products are periodic
    from its start: ladders[k] is _periodic_products(terms[k]). Past the
    largest start, with L = period and s running through one residue
    class mod L, each entry (i, l) of the two sides is an upper envelope
    of lines of the same slopes c_k, strictly decreasing:

        (A (x) E(s))_il = max_k alpha_k c_k^s,  alpha_k = (A (x) P_k(s))_il
        E(s + 1)_il     = max_k beta_k c_k^s,   beta_k = c_k P_k(s + 1)_il

    (_last_failure compares the two exactly). The pre-periodic s below
    the largest start are checked directly, one product each. Scalar
    comparisons never raise a power beyond ``limit``; where one would
    have to, the onset counts as beyond the cap. Raises
    CertificationError when the envelopes never agree, so that the
    expansion cannot hold for large powers.
    """
    sr = a.semiring
    start = max((first for _prods, first in ladders), default=1)

    def product(k, t):
        prods, first = ladders[k]
        if t >= len(prods):
            t = first + (t - first) % terms[k].gamma
        return prods[t]

    def expansion(t):
        return [(sr.power(term.coefficient, t), product(k, t))
                for k, term in enumerate(terms)]

    last = _step_failures(a, terms, product, start, period, limit)
    if last >= start:
        v0 = last + 1
    else:
        v0 = start
        while v0 > 1:
            at = MaxMatrix.zeros(a.n, a.n, semiring=sr)
            for coef, prod in expansion(v0 - 1):
                at = oplus(at, prod.scale(coef))
            if not is_max_combination(otimes(a, at), expansion(v0)):
                break
            v0 -= 1
    if v0 > cap:
        return None
    power = mat_power(a, v0)
    for v in range(v0, cap + 1):
        if v > v0:
            power = otimes(power, a)
        if is_max_combination(power, expansion(v)):
            return v
    return None


def _step_failures(a, terms, product, start, period, limit):
    """Largest s >= start with A (x) E(s) != E(s + 1), or start - 1;
    ``limit`` when a failure may lie past it.

    One residue class of s mod period at a time, entry by entry through
    _last_failure, which only looks past the failures already found.
    A (x) P_k(s) is made once per distinct product: sum_k gamma_k
    products in all.
    """
    sr = a.semiring
    times = sr.domain == TIMES
    slopes = [term.coefficient for term in terms]
    left_of = {}
    last = start - 1
    for s in range(start, start + period):
        triples = []
        for k, coef in enumerate(slopes):
            prod = product(k, s)
            if id(prod) not in left_of:
                left_of[id(prod)] = otimes(a, prod)
            triples.append((left_of[id(prod)], coef, product(k, s + 1)))
        for _i, _l, alphas, betas in unequal_entries(triples):
            floor = max(s, last + 1)
            floor += (s - floor) % period
            if floor > limit:
                return limit
            u = _last_failure(sr, times, slopes, alphas, betas, floor,
                              period, limit)
            if u is not None:
                last = u
                if last >= limit:
                    return last
    return last


def _last_failure(sr, times, slopes, alphas, betas, floor, step, limit):
    """Largest u = floor + j step with max_k alpha_k c_k^u != max_k
    beta_k c_k^u, or None; the c_k are the slopes, strictly decreasing.

    A line is (m, c), standing for m c^u (m + u c in max-plus). Let d be
    the first k with a nonzero alpha_k or beta_k. Unless alpha_d ==
    beta_d, the two sides differ for every large u: CertificationError.
    The k with alpha_k == beta_k give shared lines, with upper envelope
    W(u); each other k gives one one-sided line, max(alpha_k, beta_k),
    on the side of the larger. Let A(u) and B(u) be the upper envelopes
    of the one-sided lines of each side. The smaller of alpha_k and
    beta_k lies below its one-sided line, and so below the other side's
    envelope; so the two sides differ at u exactly when max(A(u), B(u))
    > W(u) and A(u) != B(u).

    A one-sided line lies above W at u >= floor only if it lies above
    line d at floor (line d grows fastest), and then exactly for u in
    [lo, hi): hi is the least u at which a faster shared line reaches
    it, lo the least u at which it passes every slower one. Two lines
    of different slopes meet at most once, so each bound is located by
    galloping from the float estimate of the crossing, each comparison
    decided by filtered_sign or exact integer powers (_line_cmp). The
    largest u of the step inside some [lo, hi) is a failure unless A(u)
    == B(u) there, which happens at most once per pair of lines of the
    two sides. A line that reaches past ``limit`` is answered with
    ``limit``.
    """
    zero = sr.is_zero
    d = next(k for k, (x, y) in enumerate(zip(alphas, betas))
             if not (zero(x) and zero(y)))
    if alphas[d] != betas[d]:
        raise CertificationError(
            "the expansion's leading term differs on the two sides of "
            "A (x) E(s) = E(s + 1), so the expansion fails for all large "
            "powers"
        )
    top = (alphas[d], slopes[d])
    shared = []
    raised = []
    for k in range(d + 1, len(slopes)):
        x, y = alphas[k], betas[k]
        if x == y:
            if not zero(x):
                shared.append((k, (x, slopes[k])))
        elif _line_cmp(times, (max(x, y), slopes[k]), top, floor) > 0:
            raised.append((k, (max(x, y), slopes[k]), x > y))
    if not raised:
        return None
    spans = []
    for k, line, _side in raised:
        hi = _crossing(times, top, line, False, floor, limit)
        lo = floor
        for j, other in shared:
            if j < k:
                hi = min(hi, _crossing(times, other, line, False, floor,
                                       limit))
            else:
                lo = max(lo, _crossing(times, line, other, True, floor,
                                       limit))
        if hi > limit:
            return limit
        if lo < hi:
            spans.append((lo, hi))
    bound = limit
    while True:
        u = None
        for lo, hi in spans:
            top_u = min(hi - 1, bound)
            cand = top_u - (top_u - floor) % step
            if cand >= lo and (u is None or cand > u):
                u = cand
        if u is None:
            return None
        best = {}
        for _k, line, side in raised:
            if side not in best or _line_cmp(times, line, best[side], u) > 0:
                best[side] = line
        if len(best) < 2 or _line_cmp(times, best[True], best[False], u):
            return u
        bound = u - 1


def _line_cmp(times, x, y, u):
    """Three-way compare of lines x = (m, c) and y at u: m c^u vs m' c'^u
    in max-times, m + u c vs m' + u c' in max-plus, all exact.

    Max-times goes through filtered_sign first; the estimate of ln m -
    ln m' + u (ln c - ln c') is made with depth 4 (the log difference of
    each rational, the two differences, the product by u and the sum).
    """
    (m1, c1), (m2, c2) = x, y
    if not times:
        diff = m1 - m2 + u * (c1 - c2)
        return (diff > 0) - (diff < 0)
    (p1, q1), (r1, s1) = log_terms(m1), log_terms(c1)
    (p2, q2), (r2, s2) = log_terms(m2), log_terms(c2)
    sign = filtered_sign(
        (p1 - q1) - (p2 - q2) + u * ((r1 - s1) - (r2 - s2)),
        p1 + q1 + p2 + q2 + 4.0 + u * (r1 + s1 + r2 + s2 + 4.0),
        4,
    )
    if sign:
        return sign
    lhs = (m1.numerator * m2.denominator
           * (c1.numerator * c2.denominator) ** u)
    rhs = (m2.numerator * m1.denominator
           * (c2.numerator * c1.denominator) ** u)
    return (lhs > rhs) - (lhs < rhs)


def _crossing(times, fast, slow, strict, floor, limit):
    """Least u in [floor, limit] at which line ``fast`` reaches line
    ``slow`` (passes it when strict), or limit + 1; fast has the larger
    slope, so once there it stays there.

    Gallops out from the float estimate of the crossing, then bisects.
    """
    (m1, c1), (m2, c2) = fast, slow
    if times:
        (p1, q1), (r1, s1) = log_terms(m1), log_terms(c1)
        (p2, q2), (r2, s2) = log_terms(m2), log_terms(c2)
        rise = (r1 - s1) - (r2 - s2)
        guess = ((p2 - q2) - (p1 - q1)) / rise if rise > 0 else floor
    else:
        guess = (m2 - m1) / (c1 - c2)
    guess = min(max(guess, floor), limit)
    least = 1 if strict else 0

    def holds(u):
        return _line_cmp(times, fast, slow, u) >= least

    u = math.ceil(guess)
    if holds(u):
        hi, gap = u, 1
        while hi - gap >= floor and holds(hi - gap):
            hi -= gap
            gap *= 2
        lo = max(hi - gap, floor - 1)
    else:
        lo, gap = u, 1
        while True:
            hi = min(lo + gap, limit)
            if holds(hi):
                break
            if hi == limit:
                return limit + 1
            lo, gap = hi, 2 * gap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


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
    """Evaluate the expansion at exponent t >= 1.

    An exact term from nachtigall_expansion keeps the start from which
    its proof saw S^t repeat with period gamma, and _s_power folds t into
    that period, so a large t costs no more than a small one. A float
    term, or one built by hand, takes mat_power(S, t).
    """
    sr = expansion.semiring
    out = MaxMatrix.zeros(expansion.n, expansion.n, semiring=sr)
    for term in expansion.terms:
        s_pow = _s_power(term.s, t, term._start, term.gamma)
        prod = otimes(otimes(term.c, s_pow), term.r)
        out = oplus(out, prod.scale(sr.power(term.coefficient, t)))
    return out


@dataclass(frozen=True)
class TransientBound:
    """A spectral-gap bound on the expansion onset, with the onset itself.

    measured is nachtigall_expansion's validity_start. bound and the two
    leading coefficients are reported as floats in the
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
    float arithmetic; the onset itself is nachtigall_expansion's, in the
    matrix's own mode: proven in exact mode, measured in float mode.
    Raises InapplicableError when the expansion has fewer than two terms,
    since then there is no gap to measure, and ModeError when the gap
    rounds to zero in float arithmetic.
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
