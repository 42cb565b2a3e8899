"""Exact scalars and sparse multilinear algebra over Q and prime fields.

Scalars are plain values.  Over the rationals a scalar is an ``int`` when it
is integral and a reduced ``fractions.Fraction`` (positive denominator)
otherwise; ``fractions`` is imported only when a value needs it.  Over a prime
field a scalar is an ``int`` residue in ``[0, p)``.  So every field's zero and
one are the constants ``0`` and ``1``.  All arithmetic goes through the
operations that :class:`Field` names, so results stay canonical, and equality
of canonical values is structural equality.

Tensor conventions used everywhere in the package:

* a :class:`TensorShape` is an ordered list of factor dimensions;
* multi-indices flatten row-major, leftmost factor most significant;
* a :class:`TensorMap` stores the nonzero entries of each column of its
  ``codomain-total x domain-total`` matrix, rows increasing, so equal maps
  have equal columns; ``compose`` and ``tensor`` (the Kronecker product)
  only ever multiply nonzeros, and an identity factor costs its dimension.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import prod

from .errors import FieldMismatch, PreconditionFail, ShapeMismatch
from .record import record

MAX_PRIME = 2**31


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Field:
    """Exact arithmetic on canonical scalar values: ``add``, ``sub``, ``mul``,
    ``neg``, ``inv``, ``from_int``, ``parse`` (document text to a value),
    ``fmt`` (a value to document text), ``is_zero``, and ``zero`` and ``one``."""

    kind: str
    zero, one = 0, 1  # constants, canonical in every field

    @staticmethod
    def _exact(value):
        """Refuse floats and booleans, which would be truncated or read as 0/1."""
        if isinstance(value, (bool, float)):
            raise ValueError("expected a string or an integer")
        return value


def _integral(x):
    """A ``Fraction`` as a canonical scalar: its ``int`` when it is integral."""
    return x.numerator if x.denominator == 1 else x


@record
class Rationals(Field):
    """The field of arbitrary-precision rationals."""

    kind = "rationals"

    def add(self, a, b):
        s = a + b
        return s if type(s) is int else _integral(s)

    def sub(self, a, b):
        d = a - b
        return d if type(d) is int else _integral(d)

    def mul(self, a, b):
        p = a * b
        return p if type(p) is int else _integral(p)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if a == 1 or a == -1:  # its own inverse: a unit coordinate needs no Fraction
            return a
        from fractions import Fraction
        return _integral(Fraction(1) / a)

    def from_int(self, n):
        return n

    def parse(self, text):
        if isinstance(self._exact(text), int):
            return text
        text = str(text).strip()
        try:
            return int(text)
        except ValueError:  # not an integer literal: Fraction reads it or refuses it
            pass
        from fractions import Fraction
        if "/" in text:
            # accept a signed denominator, e.g. "3/-6"
            num, _, den = text.partition("/")
            return _integral(Fraction(int(num.strip()), int(den.strip())))
        if _exponent_form_is_zero(text):
            return 0
        return _integral(Fraction(text))

    def fmt(self, a):
        # refused from its size, since str() raises ValueError past the limit
        for n in (a,) if type(a) is int else (a.numerator, a.denominator):
            if n.bit_length() > _DIGIT_BITS and abs(n) >= 10 ** _DIGIT_LIMIT:
                raise PreconditionFail(f"a report scalar needs more than {_DIGIT_LIMIT} "
                                       "digits, the most Python writes")
        return str(a)  # "-1/2" for a Fraction

    def is_zero(self, a):
        return not a


@record
class PrimeField(Field):
    """Integers mod p for a prime p < 2**31."""

    kind = "prime"
    p: int

    def __post_init__(self):
        # bound the modulus first: trial division up to sqrt(p) is slow for a large p
        p = self.p
        if isinstance(p, int) and p >= MAX_PRIME:
            raise ValueError(f"modulus {p} exceeds 2^31")
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")

    def add(self, a, b):
        s = a + b
        return s - self.p if s >= self.p else s

    def sub(self, a, b):
        d = a - b
        return d + self.p if d < 0 else d

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (self.p - a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def parse(self, text):
        return int(self._exact(text)) % self.p

    def fmt(self, a):
        return str(a)

    def is_zero(self, a):
        return a == 0


RATIONALS = Rationals()

# Fraction's exponent form: sign, digits with an optional point, exponent
_EXPONENT_FORM = (r"[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?"
                  r"[eE]([-+]?\d+(?:_\d+)*)")
_DIGIT_LIMIT = 4300  # Python's default limit on the digits of an int read or written
_DIGIT_BITS = _DIGIT_LIMIT * 3321 // 1000  # 2**_DIGIT_BITS < 10**_DIGIT_LIMIT


def _exponent_form_is_zero(text) -> bool:
    """Whether ``text``, stripped, is an exponent form with a zero mantissa.
    Refuses, with ValueError, one whose power of ten 10^|s| would need more
    than 4,300 digits, s being the exponent less the digits after the point;
    decided before any power is built.  Its integers are read in Fraction's
    order, so a literal past the limit is refused as Fraction refuses it."""
    import re
    form = re.fullmatch(_EXPONENT_FORM, text)
    if form is None:
        return False
    num, decimal, exp = form.groups(default="")
    decimal = decimal.replace("_", "")
    zero = int(num or "0") == 0 and int(decimal or "0") == 0
    scale = int(exp) - len(decimal)
    if not zero and abs(scale) >= _DIGIT_LIMIT:
        raise ValueError(f"exponent form scales by 10^{abs(scale)}, "
                         f"more than {_DIGIT_LIMIT} digits")
    return zero


@record
class TensorShape:
    """Ordered factor dimensions of a tensor product of spaces."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        if any(type(d) is not int for d in self.dims):
            raise ShapeMismatch(f"factor dimensions must be integers, got {self.dims}")
        if not self.dims:
            raise ShapeMismatch("empty tensor shape")
        if any(d < 1 for d in self.dims):
            raise ShapeMismatch(f"non-positive factor dimension in {self.dims}")

    @cached_property
    def total(self) -> int:
        return prod(self.dims)

    def index(self, multi) -> int:
        return flat_index(self, multi)

    def multi(self, flat: int) -> tuple[int, ...]:
        return unflatten(self, flat)


def shape(*dims: int) -> TensorShape:
    return TensorShape(tuple(dims))


def flat_index(shp: TensorShape, multi) -> int:
    """Row-major flat index of a multi-index, leftmost factor most significant."""
    multi = tuple(multi)
    if len(multi) != len(shp.dims):
        raise ShapeMismatch(f"multi-index {multi} does not match shape {shp.dims}")
    flat = 0
    for i, d in zip(multi, shp.dims):
        if not 0 <= i < d:
            raise ShapeMismatch(f"index {multi} out of range for shape {shp.dims}")
        flat = flat * d + i
    return flat


def unflatten(shp: TensorShape, flat: int) -> tuple[int, ...]:
    if not 0 <= flat < shp.total:
        raise ShapeMismatch(f"flat index {flat} out of range for shape {shp.dims}")
    multi = []
    for d in reversed(shp.dims):
        multi.append(flat % d)
        flat //= d
    return tuple(reversed(multi))


# -- vectors ---------------------------------------------------------------

def vzero(field: Field, n: int) -> tuple:
    return (field.zero,) * n


def basis_vector(field: Field, n: int, i: int) -> tuple:
    v = [field.zero] * n
    v[i] = field.one
    return tuple(v)


def vscale(field: Field, c, u) -> tuple:
    return tuple(field.mul(c, a) for a in u)


def tensor_vec(field: Field, *vectors) -> tuple:
    """Kronecker product of coordinate vectors, row-major convention."""
    out = (field.one,)
    for v in vectors:
        out = tuple(field.mul(a, b) for a in out for b in v)
    return out


def is_zero_vec(field: Field, v) -> bool:
    return all(field.is_zero(a) for a in v)


# -- dense matrices (tuples of row tuples) ---------------------------------

def row_reduce(field: Field, rows, ncols: int) -> tuple[list, list[int]]:
    """Gauss-Jordan elimination on the first ``ncols`` columns.

    Returns the reduced rows (each pivot 1, its column otherwise 0, further
    columns carried along) and the pivot columns; their count is the rank.
    """
    m = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if not field.is_zero(m[i][col])), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pinv = field.inv(m[r][col])
        m[r] = [field.mul(pinv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and not field.is_zero(m[i][col]):
                factor = m[i][col]
                m[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def invert(field: Field, rows) -> tuple:
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n = len(rows)
    work, pivots = row_reduce(
        field, [list(r) + list(basis_vector(field, n, i)) for i, r in enumerate(rows)], n)
    if len(pivots) < n:
        raise ShapeMismatch("matrix is singular")
    return tuple(tuple(row[n:]) for row in work)


# -- tensor maps ------------------------------------------------------------

@record
class TensorMap:
    """Linear map between tensor products, stored as sparse exact columns.

    ``cols`` has one entry per domain coordinate (flattened row-major): the
    nonzero ``(row, value)`` pairs of that column, rows increasing.  The form
    is canonical, so two maps of one shape are equal exactly when their
    ``cols`` are equal.  ``rows`` is the dense matrix, built on first use and
    kept, like ``multi_columns``.
    """

    field: Field
    domain: TensorShape
    codomain: TensorShape
    cols: tuple[tuple[tuple[int, object], ...], ...]

    def __post_init__(self):
        if len(self.cols) != self.domain.total:
            raise ShapeMismatch(
                f"map has {len(self.cols)} columns, domain total is {self.domain.total}")

    @cached_property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(zip(*map(self.column, range(self.domain.total))))

    @cached_property
    def formatted_rows(self) -> tuple[tuple[str, ...], ...]:
        """``rows`` with each entry as the field writes it, built once: the
        search sorts its solutions by these and the report lists them."""
        return self.format_rows({})

    def format_rows(self, memo: dict) -> tuple[tuple[str, ...], ...]:
        """:attr:`formatted_rows`, built on the first call or read, whose rows
        and scalar texts are taken from ``memo`` where an equal one is there and
        added to it where not, so the maps formatted through one memo share
        them.  The dense ``rows`` are not built: a row of values is made from
        the stored nonzeros only to look its text up."""
        rows = self.__dict__.get("formatted_rows")
        if rows is not None:
            return rows
        fmt, n = self.field.fmt, self.domain.total
        values = [[self.field.zero] * n for _ in range(self.codomain.total)]
        for j, col in enumerate(self.cols):
            for i, x in col:
                values[i][j] = x
        out = []
        for row in map(tuple, values):  # a row of values never equals a scalar
            text = memo.get(row)
            if text is None:
                for x in row:
                    if x not in memo:
                        memo[x] = fmt(x)
                text = memo[row] = tuple([memo[x] for x in row])
            out.append(text)
        rows = self.__dict__["formatted_rows"] = tuple(out)
        return rows

    def apply(self, vec) -> tuple:
        if len(vec) != self.domain.total:
            raise ShapeMismatch(
                f"vector length {len(vec)}, domain total is {self.domain.total}")
        f = self.field
        out = list(vzero(f, self.codomain.total))
        for x, col in zip(vec, self.cols):
            if not f.is_zero(x):
                for i, y in col:
                    out[i] = f.add(out[i], f.mul(x, y))
        return tuple(out)

    def column(self, j: int) -> tuple:
        out = list(vzero(self.field, self.codomain.total))
        for i, x in self.cols[j]:
            out[i] = x
        return tuple(out)

    @cached_property
    def multi_columns(self) -> dict:
        """Column nonzeros keyed by domain multi-index, with codomain
        multi-indices for rows: the form the elementwise chains apply."""
        rows = tuple(itertools.product(*(range(d) for d in self.codomain.dims)))
        keys = itertools.product(*(range(d) for d in self.domain.dims))
        return {key: tuple((rows[i], x) for i, x in col) for key, col in zip(keys, self.cols)}

    def reshaped(self, domain: TensorShape | None = None,
                 codomain: TensorShape | None = None) -> "TensorMap":
        """Reinterpret factor grouping without touching the matrix."""
        domain = domain if domain is not None else self.domain
        codomain = codomain if codomain is not None else self.codomain
        if domain.total != self.domain.total or codomain.total != self.codomain.total:
            raise ShapeMismatch("reshape must preserve total dimensions")
        return TensorMap(self.field, domain, codomain, self.cols)


def from_columns(field: Field, domain: TensorShape, codomain: TensorShape,
                 columns) -> TensorMap:
    """The map whose column j is the dense coordinate vector columns[j]."""
    columns = tuple(columns)
    for col in columns:
        if len(col) != codomain.total:
            raise ShapeMismatch(
                f"column length {len(col)}, codomain total is {codomain.total}")
    return TensorMap(field, domain, codomain, tuple(
        tuple((i, x) for i, x in enumerate(col) if not field.is_zero(x)) for col in columns))


def from_rows(field: Field, domain: TensorShape, codomain: TensorShape, rows) -> TensorMap:
    """The map with the given dense matrix, one row per codomain coordinate."""
    if len(rows) != codomain.total:
        raise ShapeMismatch(
            f"matrix has {len(rows)} rows, codomain total is {codomain.total}")
    for r in rows:
        if len(r) != domain.total:
            raise ShapeMismatch(
                f"matrix row length {len(r)}, domain total is {domain.total}")
    return from_columns(field, domain, codomain, tuple(zip(*rows)))


def identity(field: Field, shp: TensorShape) -> TensorMap:
    one = field.one
    return TensorMap(field, shp, shp, tuple(((i, one),) for i in range(shp.total)))


def zero_map(field: Field, domain: TensorShape, codomain: TensorShape) -> TensorMap:
    return TensorMap(field, domain, codomain, ((),) * domain.total)


def _compose2(g: TensorMap, f: TensorMap) -> TensorMap:
    """g o f: column j is the combination of g's columns that f's column j names."""
    fld = g.field
    add, mul, is_zero, one = fld.add, fld.mul, fld.is_zero, fld.one
    gcols = g.cols
    cols = []
    for fcol in f.cols:
        if len(fcol) == 1 and fcol[0][1] == one:
            cols.append(gcols[fcol[0][0]])
            continue
        acc: dict = {}
        for k, x in fcol:
            for i, y in gcols[k]:
                t = y if x == one else mul(x, y)
                acc[i] = add(acc[i], t) if i in acc else t
        cols.append(tuple((i, acc[i]) for i in sorted(acc) if not is_zero(acc[i])))
    return TensorMap(fld, f.domain, g.codomain, tuple(cols))


def compose(*maps: TensorMap) -> TensorMap:
    """Composite g o f o ...; the rightmost map is applied first."""
    if not maps:
        raise ShapeMismatch("compose needs at least one map")
    for g, f in zip(maps, maps[1:]):
        if g.field != f.field:
            raise FieldMismatch("composing maps over different fields")
        if g.domain.total != f.codomain.total:
            raise ShapeMismatch(
                f"compose: domain total {g.domain.total} != codomain total {f.codomain.total}")
    out = maps[-1]
    for g in reversed(maps[:-1]):
        out = _compose2(g, out)
    return out


def tensor(*maps: TensorMap) -> TensorMap:
    """Kronecker product of maps; shapes concatenate in order."""
    if not maps:
        raise ShapeMismatch("tensor needs at least one map")
    out = maps[0]
    for g in maps[1:]:
        if out.field != g.field:
            raise FieldMismatch("tensoring maps over different fields")
        field = out.field
        mul, one = field.mul, field.one
        p = g.codomain.total
        cols = []
        for fcol in out.cols:
            for gcol in g.cols:
                cols.append(tuple(
                    (r * p + s, b if a == one else a if b == one else mul(a, b))
                    for r, a in fcol for s, b in gcol))
        out = TensorMap(field, TensorShape(out.domain.dims + g.domain.dims),
                        TensorShape(out.codomain.dims + g.codomain.dims), tuple(cols))
    return out


def flip(field: Field, d1: int, d2: int) -> TensorMap:
    """The map sending a basis vector e_(i,j) to e_(j,i)."""
    return graded_flip(field, d1, d2, (0,) * d1, (0,) * d2)


def graded_flip(field: Field, d1: int, d2: int, deg1, deg2) -> TensorMap:
    """Sign-twisted flip: e_(i,j) goes to (-1)^(deg1[i]*deg2[j]) e_(j,i)."""
    minus_one = field.neg(field.one)
    cols = tuple(((j * d1 + i, minus_one if deg1[i] and deg2[j] else field.one),)
                 for i in range(d1) for j in range(d2))
    return TensorMap(field, shape(d1, d2), shape(d2, d1), cols)


def permute_factors(field: Field, dims, perm) -> TensorMap:
    """Rearrange tensor factors: output factor t is input factor perm[t]."""
    dims = tuple(dims)
    perm = tuple(perm)
    if sorted(perm) != list(range(len(dims))):
        raise ShapeMismatch(f"{perm} is not a permutation of the factors")
    dom = TensorShape(dims)
    cod = TensorShape(tuple(dims[p] for p in perm))
    cols = tuple(((cod.index(tuple(multi[p] for p in perm)), field.one),)
                 for multi in itertools.product(*(range(d) for d in dims)))
    return TensorMap(field, dom, cod, cols)


def vector_map(field: Field, vec) -> TensorMap:
    """Embed the ground field: the map [1] -> [n] sending 1 to the vector."""
    return from_columns(field, shape(1), shape(len(vec)), (tuple(vec),))
