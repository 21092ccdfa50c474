"""Dense vectors and matrices over a max semiring, and their core operations.

Everything here is immutable and pure: operations return new objects. The
Kleene star is computed by Floyd-Warshall closure and reports divergence
with a witness cycle, so this layer never needs the spectral machinery.

Every matrix product runs in _multiply. A MaxMatrix has two private
slots, _row_lifts and _cols, that the product core fills lazily the
first time the matrix is a left or right factor (or an
is_max_combination operand), so a matrix that takes part in many
products is prepared once. They are caches of the entries, not state:
==, hash, repr, pickling and copies ignore them.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import partial

from .digraph import Path
from .errors import (
    DimensionError,
    DivergenceError,
    ExactnessError,
    ModeError,
    NoConstraintError,
    UndefinedDivisionError,
)
from .semiring import (
    EXACT_TIMES,
    NEG_INF,
    PLUS,
    TIMES,
    Semiring,
    float_range_error,
    log_terms,
)


def _check_same_semiring(a, b):
    if a.semiring != b.semiring:
        raise ModeError(
            f"operands live in different modes: {a.semiring} vs {b.semiring}"
        )


class MaxVector:
    """A vector of semiring scalars."""

    __slots__ = ("semiring", "entries")

    def __init__(self, entries, semiring=EXACT_TIMES):
        self.semiring = semiring
        self.entries = tuple(semiring.coerce(v) for v in entries)

    @classmethod
    def _raw(cls, entries, semiring):
        v = object.__new__(cls)
        v.semiring = semiring
        v.entries = tuple(entries)
        return v

    @classmethod
    def ones(cls, n, semiring=EXACT_TIMES):
        return cls._raw([semiring.one] * n, semiring)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return (
            isinstance(other, MaxVector)
            and self.semiring == other.semiring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.semiring, self.entries))

    def __repr__(self):
        return f"MaxVector({list(self.entries)!r})"

    def __add__(self, other):
        return oplus(self, other)

    def is_positive(self):
        """True when no entry is the semiring zero."""
        sr = self.semiring
        return all(not sr.is_zero(v) for v in self.entries)

    def allclose(self, other):
        _check_same_semiring(self, other)
        if len(self) != len(other):
            return False
        sr = self.semiring
        return all(sr.eq(a, b) for a, b in zip(self.entries, other.entries))

    def scale(self, c):
        sr = self.semiring
        c = sr.coerce(c)
        return MaxVector._raw([sr.mul(c, v) for v in self.entries], sr)


class MaxMatrix:
    """A dense matrix of semiring scalars.

    Usually square; rectangular shapes appear as basis matrices and in
    residuals. Operations that need squareness access ``.n`` and fail on
    rectangular inputs.
    """

    __slots__ = ("semiring", "rows", "nrows", "ncols", "_row_lifts", "_cols")

    def __init__(self, rows, semiring=EXACT_TIMES):
        self.semiring = semiring
        grid = tuple(tuple(semiring.coerce(v) for v in row) for row in rows)
        if not grid or not grid[0]:
            raise DimensionError("matrices must have at least one entry")
        widths = {len(r) for r in grid}
        if len(widths) != 1:
            raise DimensionError("rows have unequal lengths")
        self.rows = grid
        self.nrows = len(grid)
        self.ncols = len(grid[0])

    @classmethod
    def _raw(cls, rows, semiring):
        m = object.__new__(cls)
        m.semiring = semiring
        m.rows = tuple(tuple(r) for r in rows)
        m.nrows = len(m.rows)
        m.ncols = len(m.rows[0])
        return m

    @classmethod
    def identity(cls, n, semiring=EXACT_TIMES):
        one, zero = semiring.one, semiring.zero
        return cls._raw(
            [[one if i == j else zero for j in range(n)] for i in range(n)],
            semiring,
        )

    @classmethod
    def zeros(cls, nrows, ncols=None, semiring=EXACT_TIMES):
        zero = semiring.zero
        ncols = nrows if ncols is None else ncols
        return cls._raw([[zero] * ncols for _ in range(nrows)], semiring)

    @classmethod
    def diagonal(cls, vector):
        sr = vector.semiring
        zero = sr.zero
        n = len(vector)
        return cls._raw(
            [[vector[i] if i == j else zero for j in range(n)] for i in range(n)],
            sr,
        )

    @property
    def n(self):
        if self.nrows != self.ncols:
            raise DimensionError(
                f"operation needs a square matrix, got {self.nrows}x{self.ncols}"
            )
        return self.nrows

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def row(self, i):
        return MaxVector._raw(self.rows[i], self.semiring)

    def col(self, j):
        return MaxVector._raw([r[j] for r in self.rows], self.semiring)

    def diag(self):
        return MaxVector._raw(
            [self.rows[i][i] for i in range(self.n)], self.semiring
        )

    def transpose(self):
        return MaxMatrix._raw(zip(*self.rows), self.semiring)

    def restrict(self, row_idx, col_idx=None):
        """Submatrix on the given row and column index sequences."""
        col_idx = row_idx if col_idx is None else col_idx
        return MaxMatrix._raw(
            [[self.rows[i][j] for j in col_idx] for i in row_idx],
            self.semiring,
        )

    def scale(self, c):
        """Entrywise semiring product with the scalar c."""
        sr = self.semiring
        c = sr.coerce(c)
        return MaxMatrix._raw(
            [[sr.mul(c, v) for v in row] for row in self.rows], sr
        )

    def __eq__(self, other):
        return (
            isinstance(other, MaxMatrix)
            and self.semiring == other.semiring
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.semiring, self.rows))

    def __reduce__(self):
        return MaxMatrix._raw, (self.rows, self.semiring)

    def __repr__(self):
        body = [list(r) for r in self.rows]
        return f"MaxMatrix({body!r})"

    def __add__(self, other):
        return oplus(self, other)

    def __matmul__(self, other):
        return otimes(self, other)

    def __pow__(self, t):
        return mat_power(self, t)

    def allclose(self, other):
        """Entrywise equality under the mode's tolerance."""
        _check_same_semiring(self, other)
        if self.shape != other.shape:
            return False
        sr = self.semiring
        return all(
            sr.eq(a, b)
            for ra, rb in zip(self.rows, other.rows)
            for a, b in zip(ra, rb)
        )

    def positive_entries(self):
        """Index pairs of the entries above the semiring zero."""
        sr = self.semiring
        return [
            (i, j)
            for i, row in enumerate(self.rows)
            for j, v in enumerate(row)
            if not sr.is_zero(v)
        ]


def oplus(a, b):
    """Entrywise semiring sum (max) of two matrices or two vectors."""
    _check_same_semiring(a, b)
    sr = a.semiring
    if isinstance(a, MaxVector) and isinstance(b, MaxVector):
        if len(a) != len(b):
            raise DimensionError("vector lengths differ")
        return MaxVector._raw(
            [sr.add(x, y) for x, y in zip(a.entries, b.entries)], sr
        )
    if a.shape != b.shape:
        raise DimensionError(f"shapes differ: {a.shape} vs {b.shape}")
    return MaxMatrix._raw(
        [
            [sr.add(x, y) for x, y in zip(ra, rb)]
            for ra, rb in zip(a.rows, b.rows)
        ],
        sr,
    )


def otimes(a, b):
    """Semiring matrix product; the right factor may be a vector.

    Exact max-times products run on integers (see _multiply); every
    other mode folds the semiring's own add and mul, skipping zero factors
    as closure_rows does: in float max-times an overflowed inf times zero
    is nan, which would win the max.
    """
    return _multiply(a, b, _columns(b))


def _fraction_free(sr):
    """True in exact max-times, where products run on lifted ints."""
    return sr.exact and sr.domain == TIMES


def _columns(b):
    """b's columns as _multiply takes them, prepared once per matrix.

    Exact max-times columns are lifted (_lift); every other mode keeps
    each column's nonzero (k, value) pairs. A matrix keeps them in its
    _cols slot from its first use as a right factor on; a vector's are
    prepared at each product.
    """
    cols = getattr(b, "_cols", None)
    if cols is None:
        sr = b.semiring
        cols = [b.entries] if isinstance(b, MaxVector) else zip(*b.rows)
        if _fraction_free(sr):
            cols = [_lift(col) for col in cols]
        else:
            cols = [[(k, y) for k, y in enumerate(col) if not sr.is_zero(y)]
                    for col in cols]
        if isinstance(b, MaxMatrix):
            b._cols = cols
    return cols


def _row_lifts(m):
    """The _lift of each row of an exact max-times matrix, made once.

    m keeps them in its _row_lifts slot from the first product or
    is_max_combination that reads them on.
    """
    lifts = getattr(m, "_row_lifts", None)
    if lifts is None:
        lifts = m._row_lifts = [_lift(row) for row in m.rows]
    return lifts


def _multiply(a, b, cols):
    """a (x) b, where ``cols`` is _columns(b); every product runs here.

    Exact max-times runs fraction-free: row i of a is lifted over the lcm
    d_i of its own denominators and column j of b over its own e_j, so
    entry (i, j) is max_k(r_ik * c_kj) / (d_i * e_j). The inner loop
    multiplies Python ints and each entry builds one canonical Fraction,
    equal in value and representation to the Fraction fold. One lcm for
    the whole matrix would be simpler but can grow far larger: pairwise
    coprime denominators make it the product of them all.
    """
    _check_same_semiring(a, b)
    sr = a.semiring
    vector = isinstance(b, MaxVector)
    if vector:
        if a.ncols != len(b):
            raise DimensionError(
                f"cannot multiply {a.shape} by length-{len(b)} vector"
            )
    elif a.ncols != b.nrows:
        raise DimensionError(f"cannot multiply {a.shape} by {b.shape}")
    if _fraction_free(sr):
        out = [
            [Fraction(max(map(operator.mul, r, c)), d * e) for c, e in cols]
            for r, d in _row_lifts(a)
        ]
    else:
        add, mul, zero, is_zero = sr.add, sr.mul, sr.zero, sr.is_zero
        out = []
        for row in a.rows:
            out_row = []
            for support in cols:
                acc = zero
                for k, y in support:
                    x = row[k]
                    if not is_zero(x):
                        acc = add(acc, mul(x, y))
                out_row.append(acc)
            out.append(out_row)
    if vector:
        return MaxVector._raw([r[0] for r in out], sr)
    return MaxMatrix._raw(out, sr)


def _lift(values):
    """Nonnegative rationals as (ints, d) with values[k] == ints[k] / d.

    d is the lcm of the denominators, so a zero entry lifts to 0.
    """
    d = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (d // x.denominator) for x in values], d


def is_max_combination(m, terms):
    """True when m equals the max-combination of coef (x) prod over terms.

    ``terms`` is a sequence of (coef, prod) pairs, prod of m's shape. In
    exact max-times every entry is decided fraction-free (see
    _lifted_combination); every other mode builds the combination with
    scale and oplus and compares it under the mode's tolerance. A float
    coefficient that has overflowed to inf is a ModeError.
    """
    sr = m.semiring
    if _fraction_free(sr):
        for _coef, prod in terms:
            _check_same_semiring(m, prod)
            if prod.shape != m.shape:
                raise DimensionError(
                    f"shapes differ: {m.shape} vs {prod.shape}"
                )
        return _lifted_combination(
            m, [(sr.coerce(coef), prod) for coef, prod in terms]
        )
    rhs = MaxMatrix.zeros(m.nrows, m.ncols, semiring=sr)
    for coef, prod in terms:
        if coef == math.inf:
            raise float_range_error("a coefficient")
        rhs = oplus(rhs, prod.scale(coef))
    return m.allclose(rhs)


def _lifted_combination(m, terms):
    """Exact max-times m == max_k c_k * P_k on the row lifts (_row_lifts).

    With row i of m lifted as P/Q, row i of a product as X/Y and its
    coefficient a/b, an entry holds when no term's a X_j / (b Y) exceeds
    P_j / Q, that is (a Q) X_j <= (b Y) P_j, and one term meets it with
    equality. a Q and b Y are made once per row and term, so each entry
    costs two int products per term. A zero product entry is skipped, so
    a zero target holds only when every term is zero there. No Fraction
    is built.
    """
    lifted = [(c.numerator, c.denominator, _row_lifts(prod))
              for c, prod in terms]
    for i, (target, q) in enumerate(_row_lifts(m)):
        row_terms = [(a * q, b * lifts[i][1], lifts[i][0])
                     for a, b, lifts in lifted]
        for j, p in enumerate(target):
            met = False
            for aq, by, xs in row_terms:
                x = xs[j]
                if not x:
                    continue
                lhs, rhs = aq * x, by * p
                if lhs > rhs:
                    return False
                met = met or lhs == rhs
            if p and not met:
                return False
    return True


def mat_power(a, t):
    """t-th semiring power by repeated squaring, with a^0 the identity."""
    n = a.n
    if t < 0 or t != int(t):
        raise ValueError("matrix powers need an integer exponent >= 0")
    t = int(t)
    result = MaxMatrix.identity(n, a.semiring)
    base = a
    while t:
        if t & 1:
            result = otimes(result, base)
        t >>= 1
        if t:
            base = otimes(base, base)
    return result


class Ratios:
    """Positive rationals as unreduced (numerator, denominator) int pairs.

    The scalars of exact max-times inside the closures and Karp's table:
    kleene_star and the spectral layer both read them. None is the zero.
    ``mul`` multiplies the ints and never takes a gcd, ``add`` and ``eq``
    cross-multiply; ``value`` and ``div`` give a canonical Fraction, which
    is all that leaves a closure or Karp's table. On an exact tie ``add``
    keeps the operand with the smaller denominator, so a walk that absorbs
    a cycle of weight one does not grow its ints.
    """

    zero = None
    one = (1, 1)
    is_zero = staticmethod(operator.not_)

    @staticmethod
    def lift_rows(rows):
        return [
            [(v.numerator, v.denominator) if v else None for v in row]
            for row in rows
        ]

    @staticmethod
    def value(x):
        """The canonical Fraction of x."""
        return Fraction(x[0], x[1]) if x else Fraction(0)

    @staticmethod
    def exceeds_one(x):
        """True when x is above the unit, without building a Fraction."""
        return x is not None and x[0] > x[1]

    @staticmethod
    def add(x, y):
        if x is None:
            return y
        if y is None:
            return x
        lhs, rhs = x[0] * y[1], y[0] * x[1]
        if lhs != rhs:
            return x if lhs > rhs else y
        return x if x[1] <= y[1] else y

    @staticmethod
    def mul(x, y):
        if x is None or y is None:
            return None
        return (x[0] * y[0], x[1] * y[1])

    @staticmethod
    def eq(x, y):
        return x[0] * y[1] == y[0] * x[1]

    @staticmethod
    def div(x, y):
        return Fraction(x[0] * y[1], x[1] * y[0])


def closure_rows(rows, ops, diverges=None):
    """Floyd-Warshall closure of a square grid: best path weights, no identity.

    ``ops`` supplies ``add``, ``mul`` and ``is_zero``: a Semiring, or any
    scalar representation with the same three operations (the spectral
    layer passes exact rationals as unreduced int pairs, and symbolic
    multiples of an irrational mean). Zero factors are skipped on both
    sides: in float max-times an overflowed inf times zero is nan, which
    would overwrite the real path weights.

    ``diverges``, if given, is tested on each pivot's diagonal entry just
    before that pivot is used; the first entry it holds for ends the
    closure and None is returned. A heavy cycle shows there at its
    largest node, before any entry holds a walk around it; pivoting on
    would square such walks at every later pivot (exact entries of about
    170,000 bits at n = 11).

    A float semiring runs _float_closure, the same loop on plain floats.
    """
    d = [list(row) for row in rows]
    if isinstance(ops, Semiring) and not ops.exact:
        return _float_closure(d, ops.domain == TIMES, diverges)
    add, mul, is_zero = ops.add, ops.mul, ops.is_zero
    n = len(d)
    for k in range(n):
        dk = d[k]
        if diverges is not None and diverges(dk[k]):
            return None
        support = [j for j, v in enumerate(dk) if not is_zero(v)]
        for i in range(n):
            dik = d[i][k]
            if is_zero(dik):
                continue
            di = d[i]
            for j in support:
                di[j] = add(di[j], mul(dik, dk[j]))
    return d


def _float_closure(d, times, diverges):
    """closure_rows on float rows d, in place, with inline * or + and max.

    ``if not p < x: x = p`` is Semiring.add's tie rule, the new operand
    winning, which decides whether -0.0 or 0.0 stays in max-plus. The
    pivot row is read live: when i == k it updates itself, and a float
    diagonal entry can round above one.
    """
    for k, dk in enumerate(d):
        if diverges is not None and diverges(dk[k]):
            return None
        if times:
            support = [j for j, v in enumerate(dk) if v]
            for di in d:
                dik = di[k]
                if dik:
                    for j in support:
                        p = dik * dk[j]
                        if not p < di[j]:
                            di[j] = p
        else:
            support = [j for j, v in enumerate(dk) if v != NEG_INF]
            for di in d:
                dik = di[k]
                if dik != NEG_INF:
                    for j in support:
                        p = dik + dk[j]
                        if not p < di[j]:
                            di[j] = p
    return d


def _divergence_witness(a):
    """A cycle of weight above one, found through the power sequence."""
    sr = a.semiring
    n = a.n
    powers = [MaxMatrix.identity(n, sr), a]
    hit = None
    for length in range(1, n + 1):
        if len(powers) <= length:
            powers.append(otimes(powers[-1], a))
        p = powers[length]
        for i in range(n):
            if sr.lt(sr.one, p[i, i]):
                hit = (length, i)
                break
        if hit:
            break
    if hit is None:
        return None
    length, start = hit
    # Reconstruct a closed walk achieving p[start, start], then take its
    # heaviest elementary cycle; at the minimal length the walk is one.
    nodes = [start]
    u = start
    for remaining in range(length, 0, -1):
        target = powers[remaining][u, start]
        nxt = None
        for v in range(n):
            cand = sr.mul(a[u, v], powers[remaining - 1][v, start])
            if cand == target or (not sr.exact and sr.eq(cand, target)):
                nxt = v
                break
        if nxt is None:  # float wobble: fall back to the best candidate
            nxt = max(
                range(n),
                key=lambda v: sr.to_float(
                    sr.mul(a[u, v], powers[remaining - 1][v, start])
                ),
            )
        nodes.append(nxt)
        u = nxt
    best = None
    stack = []
    pos = {}
    for v in nodes:
        if v in pos:
            p = pos[v]
            cyc = stack[p:] + [v]
            w = sr.one
            for x, y in zip(cyc, cyc[1:]):
                w = sr.mul(w, a[x, y])
            if best is None or sr.lt(best.weight, w):
                best = Path(tuple(cyc), w)
            for dropped in stack[p:]:
                del pos[dropped]
            del stack[p:]
        pos[v] = len(stack)
        stack.append(v)
    return best


def kleene_star(a):
    """I (+) A (+) ... (+) A^(n-1), or a divergence report.

    Converges exactly when every cycle weight is at most one; otherwise a
    DivergenceError carrying a witness cycle of weight above one is raised.
    Exact max-times closes on Ratios int pairs and builds one Fraction per
    star entry at the end.
    """
    sr = a.semiring
    n = a.n
    pairs = _fraction_free(sr)
    if pairs:
        ops, rows, heavy = Ratios, Ratios.lift_rows(a.rows), Ratios.exceeds_one
    else:
        ops, rows, heavy = sr, a.rows, partial(sr.lt, sr.one)
    closure = closure_rows(rows, ops, heavy)
    if closure is None or any(heavy(closure[i][i]) for i in range(n)):
        raise DivergenceError(
            "the star diverges: a cycle has weight above one",
            witness=_divergence_witness(a),
        )
    for i in range(n):
        closure[i][i] = ops.add(closure[i][i], ops.one)
    if pairs:
        closure = [[Ratios.value(x) for x in row] for row in closure]
    return MaxMatrix._raw(closure, sr)


def entrywise_div(b, c):
    """Entrywise semiring quotient with the 0/0 = 0 convention.

    The zero pattern of b must be contained in that of c; a positive entry
    over a zero one raises UndefinedDivisionError.
    """
    _check_same_semiring(b, c)
    if b.shape != c.shape:
        raise DimensionError(f"shapes differ: {b.shape} vs {c.shape}")
    sr = b.semiring
    out = []
    for i, (rb, rc) in enumerate(zip(b.rows, c.rows)):
        out_row = []
        for j, (x, y) in enumerate(zip(rb, rc)):
            if sr.is_zero(y):
                if not sr.is_zero(x):
                    raise UndefinedDivisionError(
                        f"positive entry over zero at ({i}, {j})"
                    )
                out_row.append(sr.zero)
            else:
                out_row.append(sr.div(x, y))
        out.append(out_row)
    return MaxMatrix._raw(out, sr)


def left_residual(v, w):
    """Greatest X with V (x) X <= W, via column minima of quotients.

    X[i][j] = min over k with V[k][i] nonzero of W[k][j] / V[k][i]. A zero
    column of V leaves the corresponding row of X unconstrained and raises
    NoConstraintError.
    """
    _check_same_semiring(v, w)
    if v.nrows != w.nrows:
        raise DimensionError(
            f"row counts differ: {v.shape} vs {w.shape}"
        )
    sr = v.semiring
    out = []
    for i in range(v.ncols):
        support = [k for k in range(v.nrows) if not sr.is_zero(v.rows[k][i])]
        if not support:
            raise NoConstraintError(
                f"column {i} of the left factor is zero; the residual row "
                "is unbounded"
            )
        out.append(
            [
                min(sr.div(w.rows[k][j], v.rows[k][i]) for k in support)
                for j in range(w.ncols)
            ]
        )
    return MaxMatrix._raw(out, sr)


def _exact_power_exponent(value, base):
    """Integer e with base^e == value, or None. value > 0, base > 1."""
    if value == 1:
        return 0
    est = math.log(value) / math.log(base)
    for e in range(math.floor(est) - 1, math.floor(est) + 3):
        if base ** e == value:
            return e
    return None


def semiring_convert(a, target, base=None):
    """Move a matrix between domains or modes.

    Cross-domain conversion is entrywise log/exp with zero <-> -inf. In
    exact mode, entries must be integer powers of ``base`` (default 2) and
    the conversion is a bijection on those; in float mode the natural
    logarithm is used unless a base is given. A given base must satisfy
    1 < base < inf in both modes (ValueError otherwise, nan included).
    Converting float values into an exact target across domains is
    refused as lossy; within a domain,
    target.coerce refuses an exact value that float mode would lose.
    Across domains into float mode, a log is taken from the ints of a
    value beyond the float range, and an exp that leaves the float range
    is a ModeError.
    """
    src = a.semiring
    if not isinstance(target, Semiring):
        raise ModeError("target must be a Semiring")
    if src.domain == target.domain:
        if src.exact == target.exact:
            return a
        if target.exact:
            rows = [
                [v if v == NEG_INF else Fraction(v) for v in row]
                for row in a.rows
            ]
        else:
            rows = [[target.coerce(v) for v in row] for row in a.rows]
        return MaxMatrix._raw(rows, target)

    to_plus = target.domain == PLUS
    if base is not None and not 1 < base < math.inf:
        raise ValueError("base must exceed 1")
    if target.exact:
        if not src.exact:
            raise ExactnessError(
                "cross-domain conversion from float into exact mode is lossy"
            )
        base = Fraction(2) if base is None else Fraction(base)
        rows = []
        for row in a.rows:
            out = []
            for v in row:
                if src.is_zero(v):
                    out.append(target.zero)
                    continue
                if to_plus:
                    e = _exact_power_exponent(v, base)
                    if e is None:
                        raise ExactnessError(
                            f"entry {v} is not an integer power of base "
                            f"{base}; use float mode"
                        )
                    out.append(Fraction(e))
                else:
                    if v != int(v):
                        raise ExactnessError(
                            f"exponent {v} is not an integer; the image "
                            "would be irrational"
                        )
                    out.append(base ** int(v))
            rows.append(out)
        return MaxMatrix._raw(rows, target)

    log_base = 1.0 if base is None else math.log(base)
    rows = []
    for row in a.rows:
        out = []
        for v in row:
            if src.is_zero(v):
                out.append(target.zero)
            elif to_plus:
                out.append(_float_log(v) / log_base)
            else:
                out.append(_float_exp(v, log_base))
        rows.append(out)
    return MaxMatrix._raw(rows, target)


def _float_log(v):
    """ln v of a positive max-times scalar, beyond the float range too.

    An exact value that float() would overflow or round to 0.0 takes its
    log from numerator and denominator (log_terms); every other value is
    math.log(float(v)).
    """
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if isinstance(v, Fraction) and (x == math.inf or not x):
        num, den = log_terms(v)
        return num - den
    return math.log(x)


def _float_exp(v, log_base):
    """exp(v * log_base) for a finite max-plus scalar v, as a float.

    An image beyond the float range, or one that rounds to 0.0, the
    max-times zero, is a ModeError.
    """
    try:
        x = math.exp(v * log_base)
    except OverflowError:
        x = math.inf if (v > 0) == (log_base > 0) else 0.0
    if x == math.inf or not x:
        raise float_range_error("the exp of an entry", overflow=bool(x))
    return x
