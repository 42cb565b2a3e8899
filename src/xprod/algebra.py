"""Structure-constant algebras, pointed spaces, coalgebras, algebra maps.

A finite-dimensional unital associative algebra is stored as its
multiplication map ``[n, n] -> [n]`` (columns are the structure constants
``e_i e_j = sum_k c[i][j][k] e_k``) plus the coordinates of the unit, which
may be any nonzero vector, not necessarily a basis vector.  Validation is
eager and exhaustive on basis tuples, so everything downstream may assume
well-formed inputs.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (
    CounitFail,
    FieldMismatch,
    NotAssociative,
    NotCoassociative,
    NotUnital,
    ShapeMismatch,
    UnitNotGrouplike,
)
from .exactla import (
    Field,
    TensorMap,
    basis_vector,
    compose,
    flip,
    from_rows,
    identity,
    invert,
    is_zero_vec,
    shape,
    tensor,
    tensor_vec,
    vzero,
)
from .record import record
from .report import ConditionResult, Report, Witness


@record
class PointedSpace:
    """A finite-dimensional space with a distinguished nonzero element."""

    field: Field
    dim: int
    unit: tuple

    def __post_init__(self):
        object.__setattr__(self, "unit", tuple(self.unit))
        if len(self.unit) != self.dim:
            raise ShapeMismatch("unit vector length does not match dimension")
        if is_zero_vec(self.field, self.unit):
            raise ShapeMismatch("distinguished element must be nonzero")


@record
class FinAlgebra:
    """Unital associative algebra given by exact structure constants."""

    field: Field
    dim: int
    mul: TensorMap
    unit: tuple

    @cached_property
    def _sparse_columns(self):
        # _sparse_columns[i][j] = nonzero (k, c_ij^k) pairs of e_i * e_j
        n = self.dim
        return tuple(self.mul.cols[i * n:(i + 1) * n] for i in range(n))

    def basis_product(self, i: int, j: int) -> tuple:
        return self.mul.column(self.mul.domain.index((i, j)))

    def mul_vec(self, x, y) -> tuple:
        """Bilinear product of coordinate vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeMismatch("vector length does not match algebra dimension")
        f = self.field
        out = list(vzero(f, self.dim))
        for i, xi in enumerate(x):
            if f.is_zero(xi):
                continue
            for j, yj in enumerate(y):
                if f.is_zero(yj):
                    continue
                c = f.mul(xi, yj)
                for k, ck in self._sparse_columns[i][j]:
                    out[k] = f.add(out[k], f.mul(c, ck))
        return tuple(out)

    def as_pointed(self) -> PointedSpace:
        return PointedSpace(self.field, self.dim, self.unit)


def new_algebra(field: Field, dim: int, mul: TensorMap, unit,
                validate: bool = True) -> FinAlgebra:
    """Build a validated algebra; rejects bad input with a smallest witness.

    Associativity is checked on all basis triples in lexicographic order and
    the unit laws on all basis vectors, so the reported witness is always the
    lexicographically smallest failing tuple.
    """
    unit = tuple(unit)
    if mul.field != field:
        raise FieldMismatch("multiplication map is over a different field")
    if mul.domain.dims != (dim, dim) or mul.codomain.dims != (dim,):
        raise ShapeMismatch(
            f"multiplication must map [{dim},{dim}] to [{dim}], got "
            f"{mul.domain.dims} to {mul.codomain.dims}")
    if len(unit) != dim:
        raise ShapeMismatch("unit vector length does not match dimension")
    alg = FinAlgebra(field, dim, mul, unit)
    if validate:
        w = associativity_witness(alg)
        if w is not None:
            raise NotAssociative(*w)
        w = unit_witness(alg)
        if w is not None:
            raise NotUnital(*w)
    return alg


def associativity_witness(alg: FinAlgebra):
    """Smallest basis triple (i, j, k) where (e_i e_j) e_k != e_i (e_j e_k).

    Both sides are accumulated as sparse dicts; dense vectors are built only
    for the witness.
    """
    f = alg.field
    add, mul, is_zero = f.add, f.mul, f.is_zero
    n = alg.dim
    cols = alg._sparse_columns

    def dense(acc):
        out = list(vzero(f, n))
        for m, x in acc.items():
            out[m] = x
        return tuple(out)

    for i in range(n):
        for j in range(n):
            for k in range(n):
                left: dict = {}
                for l, c in cols[i][j]:
                    for m, d in cols[l][k]:
                        t = mul(c, d)
                        left[m] = add(left[m], t) if m in left else t
                right: dict = {}
                for l, c in cols[j][k]:
                    for m, d in cols[i][l]:
                        t = mul(c, d)
                        right[m] = add(right[m], t) if m in right else t
                if left != right:
                    left = {m: x for m, x in left.items() if not is_zero(x)}
                    right = {m: x for m, x in right.items() if not is_zero(x)}
                    if left != right:
                        return (i, j, k), dense(left), dense(right)
    return None


def unit_witness(alg: FinAlgebra):
    f = alg.field
    for i in range(alg.dim):
        e = basis_vector(f, alg.dim, i)
        got = alg.mul_vec(alg.unit, e)
        if got != e:
            return i, "left", got, e
        got = alg.mul_vec(e, alg.unit)
        if got != e:
            return i, "right", got, e
    return None


def scalar_algebra(field: Field) -> FinAlgebra:
    """The ground field as a one-dimensional algebra."""
    mul = TensorMap(field, shape(1, 1), shape(1), (((0, field.one),),))
    return new_algebra(field, 1, mul, (field.one,))


def ordinary_tensor(a: FinAlgebra, b: FinAlgebra) -> FinAlgebra:
    """Componentwise product algebra on A (x) B with unit 1_A (x) 1_B."""
    if a.field != b.field:
        raise FieldMismatch("tensor product of algebras over different fields")
    f = a.field
    swap = tensor(identity(f, shape(a.dim)), flip(f, b.dim, a.dim), identity(f, shape(b.dim)))
    mul = compose(tensor(a.mul, b.mul), swap)
    mul = mul.reshaped(domain=shape(a.dim * b.dim, a.dim * b.dim),
                       codomain=shape(a.dim * b.dim))
    unit = tensor_vec(f, a.unit, b.unit)
    return new_algebra(f, a.dim * b.dim, mul, unit)


def _require_maps(what: str, parts, maps):
    """Refuse a data tuple unless its parts and maps share one field and each
    map, listed as (name, map, domain dims, codomain dims), has its shape."""
    if len({x.field for x in parts} | {m.field for _, m, _, _ in maps}) != 1:
        raise FieldMismatch(f"{what} across different fields")
    for name, m, dom, cod in maps:
        if m.domain.dims != tuple(dom) or m.codomain.dims != tuple(cod):
            raise ShapeMismatch(
                f"{name} must map {list(dom)} to {list(cod)}, got "
                f"{list(m.domain.dims)} to {list(m.codomain.dims)}")


def _column_witness(lhs: TensorMap, rhs: TensorMap, identity_text: str = "") -> Witness | None:
    """The smallest basis tuple whose columns differ, as a witness, or None."""
    for j in range(lhs.domain.total):
        if lhs.cols[j] != rhs.cols[j]:
            return Witness(lhs.domain.multi(j), lhs.column(j), rhs.column(j), identity_text)
    return None


def is_algebra_map(f: TensorMap, a: FinAlgebra, x: FinAlgebra) -> Report:
    """Check that f preserves the unit and all basis products.

    Entries: ``unit`` (f(1_A) = 1_X) and ``mult`` (f∘μ_A = μ_X∘(f⊗f), the
    smallest failing basis pair as witness).
    """
    if f.domain.total != a.dim or f.codomain.total != x.dim:
        raise ShapeMismatch("map shape does not match the algebras")
    if f.field != a.field or a.field != x.field:
        raise FieldMismatch("algebra map check across different fields")
    got = f.apply(a.unit)
    unit = None if got == x.unit else Witness((), got, x.unit, "f(1)=1")
    mult = _column_witness(compose(f, a.mul), compose(x.mul, tensor(f, f)), "f(ab)=f(a)f(b)")
    return Report((ConditionResult("unit", unit is None, unit),
                   ConditionResult("mult", mult is None, mult)))


def conjugate_algebra(alg: FinAlgebra, g: TensorMap, validate: bool = True) -> FinAlgebra:
    """Transport the algebra structure along an invertible map g.

    The result multiplies by x * y = g(g^-1(x) g^-1(y)) and has unit g(1).
    """
    if g.domain.total != alg.dim or g.codomain.total != alg.dim:
        raise ShapeMismatch("transport map must be an endomorphism of the algebra space")
    f = alg.field
    ginv = from_rows(f, g.codomain, g.domain, invert(f, g.rows))
    n = alg.dim
    mul = compose(
        g.reshaped(domain=shape(n), codomain=shape(n)),
        alg.mul,
        tensor(ginv.reshaped(shape(n), shape(n)), ginv.reshaped(shape(n), shape(n))),
    )
    unit = g.apply(alg.unit)
    return new_algebra(f, n, mul, unit, validate=validate)


def same_algebra(a: FinAlgebra, b: FinAlgebra) -> bool:
    """Exact equality of structure constants, units and fields."""
    return (a.field == b.field and a.dim == b.dim
            and a.mul.cols == b.mul.cols and a.unit == b.unit)


@record
class Coalgebra:
    """Coassociative counital coalgebra with a distinguished grouplike unit."""

    field: Field
    dim: int
    comul: TensorMap
    counit: TensorMap
    unit: tuple


def new_coalgebra(field: Field, dim: int, comul: TensorMap, counit: TensorMap,
                  unit) -> Coalgebra:
    """Validate coassociativity, the counit laws and grouplikeness of 1_H."""
    unit = tuple(unit)
    if comul.domain.dims != (dim,) or comul.codomain.dims != (dim, dim):
        raise ShapeMismatch("comultiplication must map [h] to [h,h]")
    if counit.domain.dims != (dim,) or counit.codomain.total != 1:
        raise ShapeMismatch("counit must map [h] to [1]")
    if len(unit) != dim:
        raise ShapeMismatch("unit vector length does not match dimension")
    ident = identity(field, shape(dim))
    left = compose(tensor(comul, ident), comul)
    right = compose(tensor(ident, comul), comul)
    if left.cols != right.cols:
        col = next(j for j in range(dim) if left.cols[j] != right.cols[j])
        raise NotCoassociative(col)
    lcounit = compose(tensor(counit, ident), comul)
    rcounit = compose(tensor(ident, counit), comul)
    for j in range(dim):
        e = basis_vector(field, dim, j)
        if lcounit.column(j) != e:
            raise CounitFail(j, "left")
        if rcounit.column(j) != e:
            raise CounitFail(j, "right")
    if comul.apply(unit) != tensor_vec(field, unit, unit):
        raise UnitNotGrouplike("comul(1_H) != 1_H (x) 1_H")
    if counit.apply(unit) != (field.one,):
        raise UnitNotGrouplike("counit(1_H) != 1")
    return Coalgebra(field, dim, comul, counit, unit)


def grouplike_coalgebra(field: Field, dim: int, unit_index: int = 0) -> Coalgebra:
    """Coalgebra with a basis of grouplikes: comul(g) = g (x) g, counit(g) = 1."""
    h = shape(dim)
    comul = TensorMap(field, h, shape(dim, dim),
                      tuple(((i * dim + i, field.one),) for i in range(dim)))
    counit = TensorMap(field, h, shape(1), (((0, field.one),),) * dim)
    return new_coalgebra(field, dim, comul, counit, basis_vector(field, dim, unit_index))
