"""Structure-constant algebras, pointed spaces, coalgebras, algebra maps.

An algebra is stored as its multiplication map ``[n, n] -> [n]`` (columns are
the structure constants ``e_i e_j = sum_k c[i][j][k] e_k``) and the
coordinates of its unit, any nonzero vector.  :func:`new_algebra` validates
exhaustively on basis tuples, and a :class:`FinAlgebra` handed to a
construction is an algebra: a product built from passing conditions that
fails a law is an internal error (:func:`product_algebra`).
"""

from __future__ import annotations

from functools import cached_property

from .errors import (
    CounitFail,
    FieldMismatch,
    InternalCheckError,
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
    vector_map,
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


def new_algebra(field: Field, dim: int, mul: TensorMap, unit) -> FinAlgebra:
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
    w = associativity_witness(alg)
    if w is not None:
        raise NotAssociative(w.indices, w.left, w.right)
    w = unit_witness(alg)
    if w is not None:
        raise NotUnital(w)
    return alg


def associativity_witness(alg: FinAlgebra) -> Witness | None:
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
                        return Witness((i, j, k), dense(left), dense(right), "(xy)z=x(yz)")
    return None


def unit_witness(alg: FinAlgebra) -> Witness | None:
    """Smallest basis index i where 1·e_i != e_i (the left unit law) or e_i·1 !=
    e_i (the right one), the left law first; or None."""
    f, units = alg.field, (alg.unit, alg.unit)
    ident = identity(f, shape(alg.dim))
    return _column_witness(*((compose(alg.mul, _unit_legs(f, units, (leg,))), ident,
                              f"{side} unit law") for leg, side in ((1, "left"), (0, "right"))))


def _product_verdict(mul: TensorMap, *units) -> tuple[FinAlgebra, str | None, Witness | None]:
    """The algebra on the tensor product of legs with these units, from a multiplication
    that keeps the legs split, [legs, legs] -> [legs], and the name and witness of the
    first law it fails: validated with (None, None), else not validated."""
    unit = tensor_vec(mul.field, *units)
    n = len(unit)
    alg = FinAlgebra(mul.field, n, mul.reshaped(shape(n, n), shape(n)), unit)
    try:
        return new_algebra(alg.field, n, alg.mul, unit), None, None
    except NotAssociative as exc:
        return alg, "not-associative", Witness(exc.witness, exc.left, exc.right, "(xy)z=x(yz)")
    except NotUnital as exc:
        return alg, "not-unital", exc.witness


def product_algebra(conditions: str, mul: TensorMap, *units) -> FinAlgebra:
    """:func:`_product_verdict`'s algebra for data that pass ``conditions``, which make it
    associative and unital: a law that fails is an internal error between the two."""
    alg, failure, witness = _product_verdict(mul, *units)
    if failure is not None:
        raise InternalCheckError(witness.identity, (conditions, "built product"), witness)
    return alg


def _ttp_product(a: FinAlgebra, b: FinAlgebra, r: TensorMap) -> FinAlgebra:
    """The validated twisted tensor product A (x)_R B, (a⊗b)(a'⊗b') = a a'_R ⊗ b_R b',
    for a twist R: B (x) A -> A (x) B whose conditions the caller has decided."""
    ida, idb = identity(a.field, shape(a.dim)), identity(a.field, shape(b.dim))
    return product_algebra("twisting map conditions", compose(
        tensor(a.mul, b.mul), tensor(ida, r, idb)), a.unit, b.unit)


def scalar_algebra(field: Field) -> FinAlgebra:
    """The ground field as a one-dimensional algebra."""
    mul = TensorMap(field, shape(1, 1), shape(1), (((0, field.one),),))
    return new_algebra(field, 1, mul, (field.one,))


def ordinary_tensor(a: FinAlgebra, b: FinAlgebra) -> FinAlgebra:
    """Componentwise product algebra on A (x) B with unit 1_A (x) 1_B."""
    if a.field != b.field:
        raise FieldMismatch("tensor product of algebras over different fields")
    return _ttp_product(a, b, flip(a.field, b.dim, a.dim))


def _require_maps(what: str, parts, maps):
    """Refuse a data tuple unless its parts and maps share one field and each
    map, listed as (name, map, domain dims, codomain dims), has its shape."""
    fields = [x.field for x in parts] + [m.field for _, m, _, _ in maps]
    if any(f != fields[0] for f in fields):
        raise FieldMismatch(f"{what} across different fields")
    for name, m, dom, cod in maps:
        if m.domain.dims != tuple(dom) or m.codomain.dims != tuple(cod):
            raise ShapeMismatch(
                f"{name} must map {list(dom)} to {list(cod)}, got "
                f"{list(m.domain.dims)} to {list(m.codomain.dims)}")


def _column_witness(*sides) -> Witness | None:
    """The first failing side at the smallest basis tuple, as a witness, or
    None; each side is (lhs, rhs, identity text), maps on one domain."""
    for j in range(sides[0][0].domain.total):
        for lhs, rhs, text in sides:
            if lhs.cols[j] != rhs.cols[j]:
                return Witness(lhs.domain.multi(j), lhs.column(j), rhs.column(j), text)
    return None


def _routes_agree(what: str, routes, first: TensorMap, second: TensorMap):
    """Raise :class:`InternalCheckError` unless two routes' maps to ``what`` are
    equal, with the smallest differing basis tuple, sought only then."""
    if first.cols != second.cols:
        raise InternalCheckError(what, routes, _column_witness((first, second, what)))


def _unit_legs(field, units, keep) -> TensorMap:
    """The embedding of the legs ``keep`` (increasing) into the tensor product
    of legs with the given units: identity on the kept legs, the unit inserted
    in every other, as in x ↦ 1⊗x⊗1."""
    m = tensor(*(identity(field, shape(len(u))) if t in keep else vector_map(field, u)
                 for t, u in enumerate(units)))
    return m.reshaped(domain=shape(*(len(units[t]) for t in keep)))


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
    mult = _column_witness((compose(f, a.mul), compose(x.mul, tensor(f, f)), "f(ab)=f(a)f(b)"))
    return Report((ConditionResult("unit", unit is None, unit),
                   ConditionResult("mult", mult is None, mult)))


def conjugate_algebra(alg: FinAlgebra, g: TensorMap) -> FinAlgebra:
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
    return new_algebra(f, n, mul, unit)


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
    w = _column_witness((compose(tensor(comul, ident), comul),
                         compose(tensor(ident, comul), comul), "coassociativity"))
    if w is not None:
        raise NotCoassociative(w)
    w = _column_witness((compose(tensor(counit, ident), comul), ident, "left counit law"),
                        (compose(tensor(ident, counit), comul), ident, "right counit law"))
    if w is not None:
        raise CounitFail(w)
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
