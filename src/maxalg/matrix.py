"""Dense vectors and matrices over a max semiring, and their core operations.

Everything here is immutable and pure: operations return new objects. The
Kleene star is computed by Floyd-Warshall closure and reports divergence
with a witness cycle, so this layer never needs the spectral machinery.

Every matrix product runs in _multiply. A MaxMatrix has two private
cache slots, _row_lifts and _cols, that the product core fills lazily
the first time the matrix is a left or right factor (or an
is_max_combination operand), so a matrix that takes part in many
products is prepared once. A third, _pattern, holds the nonzero entries
of each row as (j, a_ij) pairs; digraph.nonzero_pattern fills it on the
first analysis, scaling or digraph of the matrix, and every later one
walks it instead of the n^2 entries. They are caches of the entries,
not state: ==, hash, repr, pickling and copies see only the entries.

In exact max-times the row lifts are canonical: row i is (ints, d) with
d the lcm of the row's reduced denominators, exactly _lift of its
Fractions, so allclose decides equality by comparing row lifts and
entry_key hashes them. An exact max-times matrix holds its entries in
one of two forms: Fraction rows, or its row lifts alone (born lifted,
MaxMatrix._born_lifted). Which form a product is born in depends on the
row lift denominators d_i of the right factor (see _multiply):

- when every d_i divides the largest one, each product row is reduced
  by one gcd and the product is born lifted;
- otherwise, and for a product with a vector, each entry is reduced by
  its own gcd and the product is born holding its Fractions.

MaxMatrix.scale is born lifted too. A matrix born lifted builds its
Fraction rows, one gcd per entry, on the first read of ``rows``
(MaxMatrix.__getattr__); a product, scale, comparison or kleene_star
reads its row lifts instead. A ladder of products born lifted, compared
by row lifts, therefore builds no Fraction. Fractions are built on the
first read of such a matrix's ``rows``, for the entries of a product of
the second way, and by Ratios.value.
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


def _check_shape(nrows, ncols):
    """Refuse a matrix with no entry, as the constructor does."""
    if nrows < 1 or ncols < 1:
        raise DimensionError("matrices must have at least one entry")


class MaxMatrix:
    """A dense matrix of semiring scalars.

    Usually square; rectangular shapes appear as basis matrices and in
    residuals. Operations that need squareness access ``.n`` and fail on
    rectangular inputs.
    """

    __slots__ = (
        "semiring", "rows", "nrows", "ncols", "_row_lifts", "_cols",
        "_pattern",
    )

    def __init__(self, rows, semiring=EXACT_TIMES):
        self.semiring = semiring
        grid = tuple(tuple(semiring.coerce(v) for v in row) for row in rows)
        _check_shape(len(grid), len(grid[0]) if grid else 0)
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
    def _born_lifted(cls, lifts, ncols, semiring):
        """An exact max-times matrix given by its canonical row lifts, a
        tuple of (ints, d) per row (see _row_lifts)."""
        m = object.__new__(cls)
        m.semiring = semiring
        m._row_lifts = lifts
        m.nrows = len(lifts)
        m.ncols = ncols
        return m

    def __getattr__(self, name):
        """Build ``rows`` of a matrix born lifted on their first read.

        Python calls this only for an unset slot. Entry x / d of a row
        lift is built as Fraction(x, d), one gcd. Any other unset slot is
        an AttributeError.
        """
        if name == "rows":
            rows = self.rows = tuple(
                tuple([Fraction(x, d) for x in ints])
                for ints, d in self._row_lifts
            )
            return rows
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @classmethod
    def identity(cls, n, semiring=EXACT_TIMES):
        _check_shape(n, n)
        one, zero = semiring.one, semiring.zero
        return cls._raw(
            [[one if i == j else zero for j in range(n)] for i in range(n)],
            semiring,
        )

    @classmethod
    def zeros(cls, nrows, ncols=None, semiring=EXACT_TIMES):
        zero = semiring.zero
        ncols = nrows if ncols is None else ncols
        _check_shape(nrows, ncols)
        return cls._raw([[zero] * ncols for _ in range(nrows)], semiring)

    @classmethod
    def diagonal(cls, vector):
        sr = vector.semiring
        zero = sr.zero
        n = len(vector)
        _check_shape(n, n)
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
        """Entrywise semiring product with the scalar c.

        An exact max-times result is born lifted: row (xs, d) of
        _row_lifts(self) becomes c xs over d, reduced by one gcd
        (_canonical), and no Fraction is built until ``rows`` is read, so
        scaling a product builds none of its Fractions.
        """
        sr = self.semiring
        c = sr.coerce(c)
        if not _fraction_free(sr):
            return MaxMatrix._raw(
                [[sr.mul(c, v) for v in row] for row in self.rows], sr
            )
        p, q = c.numerator, c.denominator
        lifts = tuple([_canonical([x * p for x in xs], d * q)
                       for xs, d in _row_lifts(self)])
        return MaxMatrix._born_lifted(lifts, self.ncols, sr)

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
        """Entrywise equality under the mode's tolerance.

        Exact max-times compares the canonical row lifts (_row_lifts).
        """
        _check_same_semiring(self, other)
        if self.shape != other.shape:
            return False
        sr = self.semiring
        if _fraction_free(sr):
            return _row_lifts(self) == _row_lifts(other)
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

    In exact max-times the result is a pair (D, cols), chosen by the
    denominators d_i of b's row lifts (_row_lifts), which cost no gcd to
    read. When every d_i divides the largest, D, the row lifts are
    brought over D and transposed, and cols holds the ints of each
    column over D. Otherwise, and for a vector, D is None and cols
    holds the canonical lift (ints, e_j) of each column of b's Fractions
    (_lift). Every other mode keeps each column's nonzero (k, value)
    pairs. A matrix keeps them in its _cols slot from its first use as a
    right factor on; a vector's are prepared at each product.
    """
    cols = getattr(b, "_cols", None)
    if cols is None:
        sr = b.semiring
        vector = isinstance(b, MaxVector)
        if not _fraction_free(sr):
            cols = [
                [(k, y) for k, y in enumerate(col) if not sr.is_zero(y)]
                for col in ([b.entries] if vector else zip(*b.rows))
            ]
        elif vector:
            cols = None, [_lift(b.entries)]
        else:
            lifts = _row_lifts(b)
            common = max(d for _r, d in lifts)
            if all(common % d == 0 for _r, d in lifts):
                cols = common, list(zip(*[
                    r if d == common else [x * (common // d) for x in r]
                    for r, d in lifts
                ]))
            else:
                cols = None, [_lift(col) for col in zip(*b.rows)]
        if not vector:
            b._cols = cols
    return cols


def _row_lifts(m):
    """The canonical lift of each row of an exact max-times matrix.

    A tuple of (ints, d), one per row. A matrix born lifted holds it from
    birth; one that holds Fraction rows makes it once, from the first
    reader on (a product, scale, allclose, kleene_star or
    is_max_combination), and keeps it in its _row_lifts slot.
    """
    lifts = getattr(m, "_row_lifts", None)
    if lifts is None:
        lifts = m._row_lifts = tuple([_lift(row) for row in m.rows])
    return lifts


def entry_key(m):
    """A hashable key of m's entries.

    Two matrices of one semiring and shape have equal keys exactly when
    they are equal (==). Exact max-times gives the canonical row lifts
    (_row_lifts), so a product born lifted builds nothing for its key;
    every other mode gives the rows, whose float entries compare by ==,
    not under the tolerance.
    """
    if _fraction_free(m.semiring):
        return _row_lifts(m)
    return m.rows


def _multiply(a, b, cols):
    """a (x) b, where ``cols`` is _columns(b); every product runs here.

    Exact max-times runs fraction-free, on Python ints: row i of a is
    lifted over the lcm d_i of its own reduced denominators (_row_lifts),
    and the columns of b as _columns prepares them.

    - When every row lift denominator of b divides the largest, D, the
      columns are b's row lifts over D, and row i of the product is x_j
      / (d_i D) with x_j = max_k(r_ik * c_kj). One gcd g of d_i D and
      all the x_j reduces the whole row: d_i D / g is the lcm of the
      row's reduced denominators, so (x / g, d_i D / g) is the row's
      canonical lift. The product is born lifted, with no Fraction
      (MaxMatrix._born_lifted).
    - Otherwise, and for a product with a vector, entry (i, j) is x / y
      = max_k(r_ik * c_kj) / (d_i * e_j) over the lcm e_j of column j's
      reduced denominators, and the product is born holding its
      Fraction entries, Fraction(x, y) taking one gcd per entry.

    The choice is a property of b, not a setting: per-entry reduction
    keeps the ints small where a common denominator would not. With
    pairwise coprime row denominators, D would be the product of them
    all.
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
        mul = operator.mul
        common, cols = cols
        if common is not None:
            lifts = tuple([
                _canonical([max(map(mul, r, c)) for c in cols], d * common)
                for r, d in _row_lifts(a)
            ])
            return MaxMatrix._born_lifted(lifts, b.ncols, sr)
        out = [[Fraction(max(map(mul, r, c)), d * e) for c, e in cols]
               for r, d in _row_lifts(a)]
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


def _canonical(xs, y):
    """The canonical lift of the row xs / y: both over their one gcd."""
    g = math.gcd(y, *xs)
    if g == 1:
        return tuple(xs), y
    return tuple([x // g for x in xs]), y // g


def _lift(values):
    """Nonnegative rationals as (ints, d) with values[k] == ints[k] / d.

    d is the lcm of the denominators, so a zero entry lifts to 0.
    """
    d = math.lcm(*[x.denominator for x in values])
    return tuple([x.numerator * (d // x.denominator) for x in values]), d


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


def unequal_entries(triples):
    """Yield the entries where some m differs from coef (x) p.

    ``triples`` is a sequence of exact (m, coef, p), all of one shape.
    For each entry (i, j) at which m_ij != coef (x) p_ij for some triple,
    in row-major order, yields (i, j, lefts, rights) with lefts[k] the
    k-th m_ij and rights[k] the k-th coef (x) p_ij. Exact max-times
    compares on the row lifts, as _lifted_combination does, and builds
    Fractions only for the entries it yields.
    """
    if not triples:
        return
    sr = triples[0][0].semiring
    nrows, ncols = triples[0][0].shape
    if not _fraction_free(sr):
        mul = sr.mul
        grids = [(m.rows, coef, p.rows) for m, coef, p in triples]
        for i in range(nrows):
            for j in range(ncols):
                lefts = [m[i][j] for m, _coef, _p in grids]
                rights = [mul(coef, p[i][j]) for _m, coef, p in grids]
                if lefts != rights:
                    yield i, j, lefts, rights
        return
    lifted = [(c.numerator, c.denominator, _row_lifts(m), _row_lifts(p))
              for m, c, p in triples]
    for i in range(nrows):
        # entry j of m is xs[j] / y and of coef (x) p is a zs[j] / (b w):
        # equal when xs[j] (b w) == zs[j] (a y)
        row = []
        for a, b, m_lifts, p_lifts in lifted:
            (xs, y), (zs, w) = m_lifts[i], p_lifts[i]
            row.append((xs, y, zs, a, b * w, a * y))
        for j in range(ncols):
            if any(xs[j] * bw != zs[j] * ay
                   for xs, _y, zs, _a, bw, ay in row):
                yield (
                    i, j,
                    [Fraction(xs[j], y) for xs, y, _zs, _a, _bw, _ay in row],
                    [Fraction(a * zs[j], bw)
                     for _xs, _y, zs, a, bw, _ay in row],
                )


def mat_power(a, t):
    """t-th semiring power by repeated squaring, with a^0 the identity.

    Exact mode starts from the first factor taken. Float mode multiplies
    the identity in, since that product turns a -0.0 entry into 0.0.
    """
    n = a.n
    if t < 0 or t != int(t):
        raise ValueError("matrix powers need an integer exponent >= 0")
    t = int(t)
    sr = a.semiring
    result = None if sr.exact else MaxMatrix.identity(n, sr)
    base = a
    while t:
        if t & 1:
            result = base if result is None else otimes(result, base)
        t >>= 1
        if t:
            base = otimes(base, base)
    return MaxMatrix.identity(n, sr) if result is None else result


class Ratios:
    """Positive rationals as unreduced (numerator, denominator) int pairs.

    The scalars of exact max-times inside kleene_star's closure and in
    the spectral certificate of a rational mean. None is the zero.
    ``mul`` multiplies the ints and never takes a gcd, ``add`` and ``cmp``
    cross-multiply; ``value`` gives a canonical Fraction, which is all
    that leaves a closure. On an exact tie ``add`` keeps the operand with
    the smaller denominator, so a walk that absorbs a cycle of weight one
    does not grow its ints.
    """

    zero = None
    one = (1, 1)
    is_zero = staticmethod(operator.not_)

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
    def cmp(x, y):
        """Three-way compare of two nonzero pairs."""
        lhs, rhs = x[0] * y[1], y[0] * x[1]
        return (lhs > rhs) - (lhs < rhs)


class PlusInts:
    """Exact max-plus weights as ints over one common denominator.

    The scalars of exact max-plus inside kleene_star's closure: an int x
    stands for x / D, with D the lcm of the grid's denominators, and
    NEG_INF is the zero. closure_rows runs them through the inline loop
    of float mode: sums and maxima of ints are exact and take no gcd.
    ``value`` builds the Fraction of an entry once the closure is done.
    """

    one = 0
    add = staticmethod(max)

    @staticmethod
    def lift_rows(rows):
        """(int rows, D) for a grid of Fractions and NEG_INF."""
        den = math.lcm(*[v.denominator for row in rows for v in row
                         if isinstance(v, Fraction)])
        return [
            [v.numerator * (den // v.denominator)
             if isinstance(v, Fraction) else v for v in row]
            for row in rows
        ], den

    @staticmethod
    def value(x, den):
        """The Fraction x / den, or NEG_INF for the zero."""
        return Fraction(x, den) if x != NEG_INF else x


def closure_rows(rows, ops, diverges):
    """Floyd-Warshall closure of a square grid: best path weights, no identity.

    ``ops`` supplies ``add``, ``mul`` and ``is_zero``: a Semiring, or any
    scalar representation with the same three operations (kleene_star
    passes exact max-times rationals as unreduced int pairs, Ratios, and
    exact max-plus weights as ints over a common denominator, PlusInts). Zero
    factors are skipped on both sides: in float max-times an overflowed
    inf times zero is nan, which would overwrite the real path weights.

    ``diverges`` is tested on each pivot's diagonal entry just before
    that pivot is used; the first entry it holds for ends the closure
    and None is returned. A heavy cycle shows there at its
    largest node, before any entry holds a walk around it; pivoting on
    would square such walks at every later pivot (exact entries of about
    170,000 bits at n = 11).

    A float semiring and PlusInts run _inline_closure, the same loop on
    plain numbers.
    """
    d = [list(row) for row in rows]
    if ops is PlusInts:
        return _inline_closure(d, False, diverges)
    if isinstance(ops, Semiring) and not ops.exact:
        return _inline_closure(d, ops.domain == TIMES, diverges)
    add, mul, is_zero = ops.add, ops.mul, ops.is_zero
    n = len(d)
    for k in range(n):
        dk = d[k]
        if diverges(dk[k]):
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


def _inline_closure(d, times, diverges):
    """closure_rows on rows d of plain numbers, in place, with inline * or
    + and max: floats, or the ints of PlusInts with NEG_INF as the zero.

    ``if not p < x: x = p`` is Semiring.add's tie rule, the new operand
    winning, which decides whether -0.0 or 0.0 stays in float max-plus.
    The pivot row is read live: when i == k it updates itself, and a
    float diagonal entry can round above one.
    """
    for k, dk in enumerate(d):
        if diverges(dk[k]):
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


def _heavy(sr, w):
    """Whether the cycle weight w lies above one.

    A float weight that overflowed to inf does, although the tolerant eq
    finds inf equal to one.
    """
    return w == math.inf or sr.lt(sr.one, w)


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
            if _heavy(sr, p[i, i]):
                hit = (length, i)
                break
        if hit:
            break
    if hit is None:
        return None
    length, start = hit
    # Reconstruct a closed walk achieving p[start, start], taking the
    # first heaviest step each time (in exact mode, the first that
    # attains the entry), then take its heaviest elementary cycle; at
    # the minimal length the walk is one. A zero step stays zero: in
    # float max-times, zero times an overflowed inf would be nan.
    nodes = [start]
    u = start
    for remaining in range(length, 0, -1):
        tail = powers[remaining - 1]

        def step(v):
            x = a[u, v]
            return x if sr.is_zero(x) else sr.mul(x, tail[v, start])

        u = max(range(n), key=step)
        nodes.append(u)
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
    Exact max-times closes on Ratios int pairs (x, d) read off the row
    lifts (_row_lifts), and exact max-plus on PlusInts, ints over the lcm
    of the denominators; both build one Fraction per star entry at the
    end.
    """
    sr = a.semiring
    n = a.n
    if _fraction_free(sr):
        rows = [[(x, d) if x else None for x in xs]
                for xs, d in _row_lifts(a)]
        ops, heavy = Ratios, Ratios.exceeds_one
    elif sr.exact:
        rows, den = PlusInts.lift_rows(a.rows)
        ops, heavy = PlusInts, partial(operator.lt, 0)
    else:
        ops, rows, heavy = sr, a.rows, partial(_heavy, sr)
    closure = closure_rows(rows, ops, heavy)
    if closure is None or any(heavy(closure[i][i]) for i in range(n)):
        raise DivergenceError(
            "the star diverges: a cycle has weight above one",
            witness=_divergence_witness(a),
        )
    for i in range(n):
        closure[i][i] = ops.add(closure[i][i], ops.one)
    if ops is Ratios:
        closure = [[Ratios.value(x) for x in row] for row in closure]
    elif ops is PlusInts:
        closure = [[PlusInts.value(x, den) for x in row] for row in closure]
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
    NoConstraintError. Exact max-times takes each minimum on the row lifts
    (see _lifted_residual).
    """
    _check_same_semiring(v, w)
    if v.nrows != w.nrows:
        raise DimensionError(
            f"row counts differ: {v.shape} vs {w.shape}"
        )
    sr = v.semiring
    if _fraction_free(sr):
        return MaxMatrix._raw(_lifted_residual(v, w), sr)
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


def _lifted_residual(v, w):
    """left_residual's rows in exact max-times, from the row lifts.

    With row k of V lifted as xs / dv and of W as ys / dw, the quotient
    W[k][j] / V[k][i] is (ys[j] dv) / (dw xs[i]). Quotients are compared
    by int cross products, and only the minimum of each entry becomes a
    Fraction.
    """
    v_lifts, w_lifts = _row_lifts(v), _row_lifts(w)
    out = []
    for i in range(v.ncols):
        # (ys, dv, dw xs[i]) for each row k with V[k][i] nonzero
        terms = [(ys, dv, dw * xs[i])
                 for (xs, dv), (ys, dw) in zip(v_lifts, w_lifts) if xs[i]]
        if not terms:
            raise NoConstraintError(
                f"column {i} of the left factor is zero; the residual row "
                "is unbounded"
            )
        row = []
        for j in range(w.ncols):
            num = den = None
            for ys, dv, y in terms:
                x = ys[j] * dv
                if num is None or x * den < num * y:
                    num, den = x, y
            row.append(Fraction(num, den))
        out.append(row)
    return out


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
