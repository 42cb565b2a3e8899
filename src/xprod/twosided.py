"""Two-sided crossed products on A (x) V (x) C.

Input data is the tuple (A, V, C, R1, R2, R3, E) with

* ``R1: V (x) A -> A (x) V``, written R1(v⊗a) = a_R1 ⊗ v_R1,
* ``R2: C (x) V -> V (x) C``, written R2(c⊗v) = v_R2 ⊗ c_R2,
* ``R3: C (x) A -> A (x) C``, written R3(c⊗a) = a_R3 ⊗ c_R3,
* ``E:  V (x) V -> A (x) V (x) C``, written E(v⊗v') = E_A ⊗ E_V ⊗ E_C.

:func:`check_twosided` verifies the twelve named conditions (``twR31``,
``twR32``, ``twR33``, ``unit-R1``, ``unit-R2``, ``unit-E``, ``equiv1`` ..
``equiv6``), each exhaustively on basis tuples with the lexicographically
smallest witness.  Conditions are evaluated in their elementwise form by
chaining sparse tensor states; each is then re-evaluated once as a
whole-matrix composite identity, and the two routes must agree.  The
elementwise forms live in one table, :data:`CONDITIONS`, which records for
each label the maps it mentions; the finite-field search reads the same
table.

When all conditions hold, :func:`build_twosided` constructs the algebra on
A (x) V (x) C whose multiplication is

    (a⊗v⊗c)(a'⊗v'⊗c') =
        a (a'_R3)_R1 E_A(v_R1, v'_R2) ⊗ E_V(v_R1, v'_R2)
                                      ⊗ E_C(v_R1, v'_R2) (c_R3)_R2 c'

with unit 1_A ⊗ 1_V ⊗ 1_C, and :func:`presentations_agree` confirms that the
same structure constants arise as a crossed product A (x)_{R,σ} (V (x) C) and
as a mirror crossed product (A (x) V) (x)~_{P,ν} C.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .algebra import FinAlgebra, PointedSpace, is_algebra_map, new_algebra, same_algebra
from .crossed import BrzData, MirrorData, _first_mismatch, build_brzezinski, build_mirror
from .errors import (
    AxiomFailure,
    FieldMismatch,
    InternalCheckError,
    NotAlgebraMap,
    NotAlgebraMapResult,
    NotAssociative,
    NotUnital,
    PremiseFail,
    RoundTripMismatch,
    ShapeMismatch,
    SplitFail,
    UnitMismatch,
)
from .exactla import (
    Field,
    TensorMap,
    TensorShape,
    _dot,
    basis_vector,
    compose,
    from_columns,
    greedy_basis_completion,
    identity,
    invert,
    shape,
    tensor,
    tensor_vec,
    vector_map,
    vzero,
)
from .report import ConditionResult, Report, Witness

@dataclass(frozen=True)
class TwoSidedData:
    """The tuple (A, V, C, R1, R2, R3, E); shapes are validated eagerly."""

    A: FinAlgebra
    V: PointedSpace
    C: FinAlgebra
    R1: TensorMap
    R2: TensorMap
    R3: TensorMap
    E: TensorMap

    def __post_init__(self):
        na, nv, nc = self.A.dim, self.V.dim, self.C.dim
        fields = {self.A.field, self.V.field, self.C.field,
                  self.R1.field, self.R2.field, self.R3.field, self.E.field}
        if len(fields) != 1:
            raise FieldMismatch("two-sided data across different fields")
        expect = (
            ("R1", self.R1, (nv, na), (na, nv)),
            ("R2", self.R2, (nc, nv), (nv, nc)),
            ("R3", self.R3, (nc, na), (na, nc)),
            ("E", self.E, (nv, nv), (na, nv, nc)),
        )
        for name, m, dom, cod in expect:
            if m.domain.dims != dom or m.codomain.dims != cod:
                raise ShapeMismatch(
                    f"{name} must map {list(dom)} to {list(cod)}, got "
                    f"{list(m.domain.dims)} to {list(m.codomain.dims)}")

    @property
    def field(self) -> Field:
        return self.A.field


@dataclass(frozen=True)
class DerivedMaps:
    """R, P, σ, ν induced by (R1, R2, R3, E).

    Shapes (with factors kept split): R: [V,C,A] -> [A,V,C],
    P: [C,A,V] -> [A,V,C], sigma: [V,C,V,C] -> [A,V,C],
    nu: [A,V,A,V] -> [A,V,C].
    """

    R: TensorMap
    P: TensorMap
    sigma: TensorMap
    nu: TensorMap


# -- sparse tensor states for elementwise Sweedler chains --------------------

class _Ten:
    """Sparse exact tensor with an explicit list of factor dimensions."""

    __slots__ = ("field", "dims", "data")

    def __init__(self, field, dims, data):
        self.field = field
        self.dims = tuple(dims)
        self.data = data  # dict: multi-index tuple -> nonzero scalar

    @classmethod
    def basis(cls, field, dims, idx):
        return cls(field, dims, {tuple(idx): field.one})

    def map_at(self, m: TensorMap, pos: int) -> "_Ten":
        """Apply a map to consecutive factors starting at pos."""
        k = len(m.domain.dims)
        if self.dims[pos:pos + k] != m.domain.dims:
            raise ShapeMismatch(
                f"factors {self.dims[pos:pos + k]} do not match map domain {m.domain.dims}")
        f = self.field
        add, mul, is_zero = f.add, f.mul, f.is_zero
        cols = m.multi_columns
        out_dims = self.dims[:pos] + m.codomain.dims + self.dims[pos + k:]
        out: dict = {}
        for key, coef in self.data.items():
            head, tail = key[:pos], key[pos + k:]
            for sub, val in cols[key[pos:pos + k]]:
                new_key = head + sub + tail
                t = mul(coef, val)
                if new_key in out:
                    acc = add(out[new_key], t)
                    if is_zero(acc):
                        del out[new_key]
                    else:
                        out[new_key] = acc
                else:
                    out[new_key] = t
        return _Ten(f, out_dims, out)

    def mul_at(self, alg: FinAlgebra, pos: int) -> "_Ten":
        """Multiply the factors at pos and pos+1 inside the given algebra."""
        return self.map_at(alg.mul, pos)

    def permute(self, perm) -> "_Ten":
        """Reorder factors: output factor t is current factor perm[t]."""
        perm = tuple(perm)
        dims = tuple(self.dims[p] for p in perm)
        data = {tuple(key[p] for p in perm): v for key, v in self.data.items()}
        return _Ten(self.field, dims, data)

    def vector(self) -> tuple:
        shp = TensorShape(self.dims)
        out = list(vzero(self.field, shp.total))
        for key, val in self.data.items():
            out[shp.index(key)] = val
        return tuple(out)


def _scan(dims_list, lhs_chain, rhs_chain, field, identity_text=""):
    """Compare two chain evaluations over all basis tuples, lex order; return
    the first failing tuple's witness, or None."""
    for idx in itertools.product(*(range(d) for d in dims_list)):
        start = _Ten.basis(field, dims_list, idx)
        left = lhs_chain(start)
        right = rhs_chain(start)
        if left.data != right.data:  # both sparse with zeros dropped
            return Witness(idx, left.vector(), right.vector(), identity_text)
    return None


def _twist_units(m, x, y, x_text, y_text, x_first=True):
    """Unit laws of a twist m: X (x) Y -> Y (x) X, namely m(x⊗1_Y) = 1_Y⊗x
    for basis x and m(1_X⊗y) = y⊗1_X for basis y; the first failure or None."""
    f = m.field

    def on_x():
        for k in range(x.dim):
            e = basis_vector(f, x.dim, k)
            yield (k,), m.apply(tensor_vec(f, e, y.unit)), tensor_vec(f, y.unit, e), x_text

    def on_y():
        for i in range(y.dim):
            e = basis_vector(f, y.dim, i)
            yield (i,), m.apply(tensor_vec(f, x.unit, e)), tensor_vec(f, e, x.unit), y_text

    sides = (on_x(), on_y()) if x_first else (on_y(), on_x())
    return _first_mismatch(itertools.chain(*sides))


def _unit_e(a, v, c, e):
    f = e.field

    def checks():
        for j in range(v.dim):
            ev = basis_vector(f, v.dim, j)
            want = tensor_vec(f, a.unit, ev, c.unit)
            yield (j,), e.apply(tensor_vec(f, v.unit, ev)), want, "E(1_V⊗v)=1_A⊗v⊗1_C"
            yield (j,), e.apply(tensor_vec(f, ev, v.unit)), want, "E(v⊗1_V)=1_A⊗v⊗1_C"

    return _first_mismatch(checks())


@dataclass(frozen=True)
class Condition:
    """One two-sided condition: its label, the maps among R1, R2, R3, E it
    mentions, and its elementwise evaluator.

    ``witness(A, V, C, *maps)`` takes the mentioned maps in the order of
    ``maps`` and returns the smallest failing basis tuple's witness, or None
    when the condition holds.  The verdict depends on nothing else, which is
    what lets :func:`~xprod.constructions.search_fp` reuse verdicts across
    candidates that share those maps.
    """

    label: str
    maps: tuple[str, ...]
    witness: Callable[..., Witness | None]

    def evaluate(self, a, v, c, maps) -> ConditionResult:
        """The condition's report entry, with ``maps`` keyed by name."""
        witness = self.witness(a, v, c, *(maps[name] for name in self.maps))
        return ConditionResult(self.label, witness is None, witness)


# The twelve conditions, each identity written once, in report order.
CONDITIONS = (
    Condition("twR31", ("R3",), lambda a, v, c, r3: _twist_units(
        r3, c, a, "R3(c⊗1_A)=1_A⊗c", "R3(1_C⊗a)=a⊗1_C")),
    Condition("twR32", ("R3",), lambda a, v, c, r3: _scan(
        (c.dim, a.dim, a.dim),
        lambda t: t.mul_at(a, 1).map_at(r3, 0),
        lambda t: t.map_at(r3, 0).map_at(r3, 1).mul_at(a, 0),
        a.field, "(aa')_R3⊗c_R3 = a_R3 a'_r3⊗(c_R3)_r3")),
    Condition("twR33", ("R3",), lambda a, v, c, r3: _scan(
        (c.dim, c.dim, a.dim),
        lambda t: t.mul_at(c, 0).map_at(r3, 0),
        lambda t: t.map_at(r3, 1).map_at(r3, 0).mul_at(c, 1),
        a.field, "a_R3⊗(cc')_R3 = (a_R3)_r3⊗c_r3 c'_R3")),
    Condition("unit-R1", ("R1",), lambda a, v, c, r1: _twist_units(
        r1, v, a, "R1(v⊗1_A)=1_A⊗v", "R1(1_V⊗a)=a⊗1_V", x_first=False)),
    Condition("unit-R2", ("R2",), lambda a, v, c, r2: _twist_units(
        r2, c, v, "R2(c⊗1_V)=1_V⊗c", "R2(1_C⊗v)=v⊗1_C")),
    Condition("unit-E", ("E",), _unit_e),
    Condition("equiv1", ("R1",), lambda a, v, c, r1: _scan(
        (v.dim, a.dim, a.dim),
        lambda t: t.mul_at(a, 1).map_at(r1, 0),
        lambda t: t.map_at(r1, 0).map_at(r1, 1).mul_at(a, 0),
        a.field, "(aa')_R1⊗v_R1 = a_R1 a'_r1⊗(v_R1)_r1")),
    Condition("equiv2", ("R2",), lambda a, v, c, r2: _scan(
        (c.dim, c.dim, v.dim),
        lambda t: t.mul_at(c, 0).map_at(r2, 0),
        lambda t: t.map_at(r2, 1).map_at(r2, 0).mul_at(c, 1),
        a.field, "v_R2⊗(cc')_R2 = (v_R2)_r2⊗c_r2 c'_R2")),
    Condition("equiv3", ("R1", "R2", "R3"), lambda a, v, c, r1, r2, r3: _scan(
        (c.dim, v.dim, a.dim),
        lambda t: t.map_at(r1, 1).map_at(r3, 0).map_at(r2, 1),
        lambda t: t.map_at(r2, 0).map_at(r3, 1).map_at(r1, 0),
        a.field, "(a_R1)_R3⊗(v_R1)_R2⊗(c_R3)_R2 = (a_R3)_R1⊗(v_R2)_R1⊗(c_R2)_R3")),
    Condition("equiv4", ("R1", "R3", "E"), lambda a, v, c, r1, r3, e: _scan(
        (v.dim, v.dim, a.dim),
        lambda t: t.map_at(r1, 1).map_at(r1, 0).map_at(e, 1).mul_at(a, 0),
        lambda t: t.map_at(e, 0).map_at(r3, 2).map_at(r1, 1).mul_at(a, 0),
        a.field,
        "(a_R1)_r1 E(v_r1,v'_R1) ... = E_A(v,v')(a_R3)_R1⊗E_V(v,v')_R1⊗E_C(v,v')_R3")),
    Condition("equiv5", ("R2", "R3", "E"), lambda a, v, c, r2, r3, e: _scan(
        (c.dim, v.dim, v.dim),
        lambda t: t.map_at(r2, 0).map_at(r2, 1).map_at(e, 0).mul_at(c, 2),
        lambda t: t.map_at(e, 1).map_at(r3, 0).map_at(r2, 1).mul_at(c, 2),
        a.field,
        "E(v_R2,v'_r2)...(c_R2)_r2 = E_A(v,v')_R3⊗E_V(v,v')_R2⊗(c_R3)_R2 E_C(v,v')")),
    Condition("equiv6", ("R1", "R2", "E"), lambda a, v, c, r1, r2, e: _scan(
        (v.dim, v.dim, v.dim),
        lambda t: t.map_at(e, 1).map_at(r1, 0).map_at(e, 1).mul_at(a, 0).mul_at(c, 2),
        lambda t: t.map_at(e, 0).map_at(r2, 2).map_at(e, 1).mul_at(a, 0).mul_at(c, 2),
        a.field, "E-chain of (v v') v'' = E-chain of v (v' v'')")),
)

CONDITION_LABELS = tuple(cond.label for cond in CONDITIONS)


def _composite_conditions(d: TwoSidedData) -> dict[str, bool]:
    """The same twelve conditions as whole-matrix composite identities."""
    f = d.field
    a, v, c = d.A, d.V, d.C
    r1, r2, r3, e = d.R1, d.R2, d.R3, d.E
    ida = identity(f, shape(a.dim))
    idv = identity(f, shape(v.dim))
    idc = identity(f, shape(c.dim))
    ua = vector_map(f, a.unit)
    uv = vector_map(f, v.unit)
    uc = vector_map(f, c.unit)
    out = {}
    out["twR31"] = (
        compose(r3, tensor(idc, ua)).cols == tensor(ua, idc).cols
        and compose(r3, tensor(uc, ida)).cols == tensor(ida, uc).cols)
    out["twR32"] = compose(r3, tensor(idc, a.mul)).cols == compose(
        tensor(a.mul, idc), tensor(ida, r3), tensor(r3, ida)).cols
    out["twR33"] = compose(r3, tensor(c.mul, ida)).cols == compose(
        tensor(ida, c.mul), tensor(r3, idc), tensor(idc, r3)).cols
    out["unit-R1"] = (
        compose(r1, tensor(uv, ida)).cols == tensor(ida, uv).cols
        and compose(r1, tensor(idv, ua)).cols == tensor(ua, idv).cols)
    out["unit-R2"] = (
        compose(r2, tensor(idc, uv)).cols == tensor(uv, idc).cols
        and compose(r2, tensor(uc, idv)).cols == tensor(idv, uc).cols)
    unit_e_rhs = tensor(ua, idv, uc).cols
    out["unit-E"] = (
        compose(e, tensor(uv, idv)).cols == unit_e_rhs
        and compose(e, tensor(idv, uv)).cols == unit_e_rhs)
    out["equiv1"] = compose(r1, tensor(idv, a.mul)).cols == compose(
        tensor(a.mul, idv), tensor(ida, r1), tensor(r1, ida)).cols
    out["equiv2"] = compose(r2, tensor(c.mul, idv)).cols == compose(
        tensor(idv, c.mul), tensor(r2, idc), tensor(idc, r2)).cols
    out["equiv3"] = compose(
        tensor(ida, r2), tensor(r3, idv), tensor(idc, r1)).cols == compose(
        tensor(r1, idc), tensor(idv, r3), tensor(r2, ida)).cols
    out["equiv4"] = compose(
        tensor(a.mul, idv, idc), tensor(ida, e), tensor(r1, idv), tensor(idv, r1)
    ).cols == compose(
        tensor(a.mul, idv, idc), tensor(ida, r1, idc), tensor(ida, idv, r3),
        tensor(e, ida)).cols
    out["equiv5"] = compose(
        tensor(ida, idv, c.mul), tensor(e, idc), tensor(idv, r2), tensor(r2, idv)
    ).cols == compose(
        tensor(ida, idv, c.mul), tensor(ida, r2, idc), tensor(r3, idv, idc),
        tensor(idc, e)).cols
    out["equiv6"] = compose(
        tensor(a.mul, idv, c.mul), tensor(ida, e, idc), tensor(r1, idv, idc),
        tensor(idv, e)).cols == compose(
        tensor(a.mul, idv, c.mul), tensor(ida, e, idc), tensor(ida, idv, r2),
        tensor(e, idv)).cols
    return out


def check_twosided(d: TwoSidedData, cross_validate: bool = True) -> Report:
    """Check all twelve conditions; witnesses are smallest failing tuples.

    With ``cross_validate`` the whole-matrix composite form of every condition
    is evaluated as well and must agree with the elementwise verdict.  Both
    routes run on sparse columns and cost about the number of nonzeros they
    touch: the elementwise scan of equiv6 visits dim(V)^3 basis triples, and
    a composite pays for identity factors only by their dimension.
    """
    maps = {"R1": d.R1, "R2": d.R2, "R3": d.R3, "E": d.E}
    entries = [cond.evaluate(d.A, d.V, d.C, maps) for cond in CONDITIONS]
    if cross_validate:
        composite = _composite_conditions(d)
        for entry in entries:
            if composite[entry.name] != entry.passed:
                raise InternalCheckError(
                    f"elementwise and composite evaluation disagree on {entry.name}")
    return Report(tuple(entries))


def derive_maps(d: TwoSidedData) -> DerivedMaps:
    """Compute R, P, σ, ν from (R1, R2, R3, E) by their defining composites.

    R((v⊗c)⊗a) = (a_R3)_R1 ⊗ (v_R1 ⊗ c_R3)
    P(c⊗(a⊗v)) = (a_R3 ⊗ v_R2) ⊗ (c_R3)_R2
    σ((v⊗c)⊗(v'⊗c')) = E_A(v,v'_R2) ⊗ (E_V(v,v'_R2) ⊗ E_C(v,v'_R2) c_R2 c')
    ν((a⊗v)⊗(a'⊗v')) = (a a'_R1 E_A(v_R1,v') ⊗ E_V(v_R1,v')) ⊗ E_C(v_R1,v')
    """
    f = d.field
    a, v, c = d.A, d.V, d.C
    ida = identity(f, shape(a.dim))
    idv = identity(f, shape(v.dim))
    idc = identity(f, shape(c.dim))
    r = compose(tensor(d.R1, idc), tensor(idv, d.R3))
    p = compose(tensor(ida, d.R2), tensor(d.R3, idv))
    sigma = compose(tensor(ida, idv, c.mul), tensor(d.E, c.mul), tensor(idv, d.R2, idc))
    nu = compose(tensor(a.mul, idv, idc), tensor(a.mul, d.E), tensor(ida, d.R1, idv))
    return DerivedMaps(r, p, sigma, nu)


def _product_columns(d: TwoSidedData):
    """Structure-constant columns of the two-sided product, elementwise route."""
    f = d.field
    a, v, c = d.A, d.V, d.C
    dims = (a.dim, v.dim, c.dim, a.dim, v.dim, c.dim)
    for idx in itertools.product(*(range(n) for n in dims)):
        t = _Ten.basis(f, dims, idx)
        t = t.map_at(d.R3, 2)   # (c, a') -> a'_R3, c_R3
        t = t.map_at(d.R1, 1)   # (v, a'_R3) -> (a'_R3)_R1, v_R1
        t = t.map_at(d.R2, 3)   # (c_R3, v') -> v'_R2, (c_R3)_R2
        t = t.map_at(d.E, 2)    # E(v_R1, v'_R2)
        t = t.mul_at(a, 0).mul_at(a, 0)
        t = t.mul_at(c, 2).mul_at(c, 2)
        yield t.vector()


def _raw_product(d: TwoSidedData) -> tuple[TensorMap, tuple]:
    f = d.field
    n = d.A.dim * d.V.dim * d.C.dim
    mul = from_columns(f, shape(n, n), shape(n), tuple(_product_columns(d)))
    # composite route for the same multiplication, kept as an internal check
    ida = identity(f, shape(d.A.dim))
    idv = identity(f, shape(d.V.dim))
    idc = identity(f, shape(d.C.dim))
    mul2a = compose(d.A.mul, tensor(ida, d.A.mul))
    mul2c = compose(d.C.mul, tensor(idc, d.C.mul))
    composite = compose(
        tensor(mul2a, idv, mul2c),
        tensor(ida, ida, d.E, idc, idc),
        tensor(ida, d.R1, d.R2, idc),
        tensor(ida, idv, d.R3, idv, idc),
    )
    if composite.cols != mul.cols:
        raise InternalCheckError("two-sided product: chain and composite routes disagree")
    unit = tensor_vec(f, d.A.unit, d.V.unit, d.C.unit)
    return mul, unit


def build_twosided(d: TwoSidedData) -> FinAlgebra:
    """Build the two-sided crossed product; requires an all-pass check."""
    rep = check_twosided(d)
    if not rep.all_pass:
        raise AxiomFailure(rep, "two-sided crossed product conditions fail")
    mul, unit = _raw_product(d)
    n = d.A.dim * d.V.dim * d.C.dim
    return new_algebra(d.field, n, mul, unit)


@dataclass(frozen=True)
class BuildOutcome:
    """Result of a forced build: the raw product plus any validation failure."""

    mul: TensorMap
    unit: tuple
    algebra: FinAlgebra | None
    failure: str | None
    witness: Witness | None


def force_build_twosided(d: TwoSidedData) -> BuildOutcome:
    """Build without requiring the checks, then validate and report as data."""
    mul, unit = _raw_product(d)
    n = d.A.dim * d.V.dim * d.C.dim
    try:
        alg = new_algebra(d.field, n, mul, unit)
    except NotAssociative as exc:
        return BuildOutcome(mul, unit, None, "not-associative",
                            Witness(exc.witness, exc.left, exc.right, "(xy)z=x(yz)"))
    except NotUnital as exc:
        return BuildOutcome(mul, unit, None, "not-unital",
                            Witness((exc.witness,), exc.left, exc.right,
                                    f"{exc.side} unit law"))
    return BuildOutcome(mul, unit, alg, None, None)


def presentations_agree(d: TwoSidedData) -> Report:
    """Confirm both crossed-product presentations reproduce the same algebra.

    Builds A (x)_{R,σ} (V (x) C) with V (x) C pointed by 1_V ⊗ 1_C and
    (A (x) V) (x)~_{P,ν} C with A (x) V pointed by 1_A ⊗ 1_V, then compares
    both against the two-sided product, exact structure constants and units.
    """
    f = d.field
    a, v, c = d.A, d.V, d.C
    derived = derive_maps(d)
    main = build_twosided(d)  # raises AxiomFailure unless every condition holds

    vc = PointedSpace(f, v.dim * c.dim, tensor_vec(f, v.unit, c.unit))
    brz = BrzData(
        a, vc,
        derived.R.reshaped(domain=shape(vc.dim, a.dim), codomain=shape(a.dim, vc.dim)),
        derived.sigma.reshaped(domain=shape(vc.dim, vc.dim), codomain=shape(a.dim, vc.dim)),
    )
    try:
        left = build_brzezinski(brz)
    except AxiomFailure as exc:
        raise InternalCheckError(
            f"derived crossed-product data fails its own conditions: {exc}") from exc

    av = PointedSpace(f, a.dim * v.dim, tensor_vec(f, a.unit, v.unit))
    mir = MirrorData(
        av, c,
        derived.P.reshaped(domain=shape(c.dim, av.dim), codomain=shape(av.dim, c.dim)),
        derived.nu.reshaped(domain=shape(av.dim, av.dim), codomain=shape(av.dim, c.dim)),
    )
    try:
        right = build_mirror(mir)
    except AxiomFailure as exc:
        raise InternalCheckError(
            f"derived mirror data fails its own conditions: {exc}") from exc

    entries = []
    for name, other in (("brzezinski-presentation", left), ("mirror-presentation", right)):
        if same_algebra(main, other):
            entries.append(ConditionResult(name, True))
        else:
            witness = None
            if main.unit != other.unit:
                witness = Witness((), main.unit, other.unit, "units differ")
            else:
                ncols = main.mul.domain.total
                for j in range(ncols):
                    if main.mul.cols[j] != other.mul.cols[j]:
                        witness = Witness(main.mul.domain.multi(j),
                                          main.mul.column(j), other.mul.column(j),
                                          "structure constants differ")
                        break
            entries.append(ConditionResult(name, False, witness))
    return Report(tuple(entries))


# -- converse: extraction from a suitably split algebra ----------------------

def _leg_projector(field, unit_vec, n):
    """Change of basis whose first coordinate reads off the unit component.

    Completes {unit} to a basis greedily over standard basis vectors; the
    returned matrix maps a vector to its coordinates in that basis.
    """
    basis, _ = greedy_basis_completion(field, [unit_vec], n)
    cols = tuple(tuple(b[i] for b in basis) for i in range(n))  # basis as columns
    return invert(field, cols)


def extract(m: FinAlgebra, a: FinAlgebra, v: PointedSpace, c: FinAlgebra) -> TwoSidedData:
    """Recover (R1, R2, R3, E) from an algebra structure on A (x) V (x) C.

    Requirements checked, in order: the unit of M is 1_A ⊗ 1_V ⊗ 1_C; the
    maps a -> a⊗1_V⊗1_C and c -> 1_A⊗1_V⊗c are unital algebra maps; the
    splitting conditions hold:

    * ajut1: (1⊗v⊗1)(a'⊗1⊗1) lies in A ⊗ V ⊗ span(1_C),
    * ajut2: (1⊗1⊗c)(1⊗v'⊗1) lies in span(1_A) ⊗ V ⊗ C,
    * ajut3: (1⊗1⊗c)(a'⊗1⊗1) lies in A ⊗ span(1_V) ⊗ C,
    * ajut4: (a⊗1⊗1)(1⊗v⊗1)(1⊗1⊗c) = a⊗v⊗c.

    R1, R2, R3 are read off those products through the deterministic
    basis completion of each span, E(v⊗v') = (1⊗v⊗1)(1⊗v'⊗1), and the
    extracted data must pass :func:`check_twosided` and rebuild M exactly.
    """
    f = m.field
    na, nv, nc = a.dim, v.dim, c.dim
    if {f, a.field, v.field, c.field} != {f}:
        raise FieldMismatch("extraction across different fields")
    if m.dim != na * nv * nc:
        raise ShapeMismatch("algebra dimension does not factor as dim A * dim V * dim C")
    avc = shape(na, nv, nc)
    unit_expected = tensor_vec(f, a.unit, v.unit, c.unit)
    if m.unit != unit_expected:
        raise UnitMismatch("unit of M is not 1_A ⊗ 1_V ⊗ 1_C")

    def emb_a(x):
        return tensor_vec(f, x, v.unit, c.unit)

    def emb_v(x):
        return tensor_vec(f, a.unit, x, c.unit)

    def emb_c(x):
        return tensor_vec(f, a.unit, v.unit, x)

    emb_a_map = from_columns(f, shape(na), avc,
                             tuple(emb_a(basis_vector(f, na, i)) for i in range(na)))
    emb_c_map = from_columns(f, shape(nc), avc,
                             tuple(emb_c(basis_vector(f, nc, k)) for k in range(nc)))
    rep = is_algebra_map(emb_a_map, a, m)
    if not rep.all_pass:
        raise NotAlgebraMap("a ↦ a⊗1_V⊗1_C", rep)
    rep = is_algebra_map(emb_c_map, c, m)
    if not rep.all_pass:
        raise NotAlgebraMap("c ↦ 1_A⊗1_V⊗c", rep)

    legs = ((na, a.unit), (nv, v.unit), (nc, c.unit))
    projectors = [_leg_projector(f, unit, n) for n, unit in legs]

    def split_leg(w, leg, which, indices):
        """Split w in A⊗V⊗C along one leg (0, 1, 2 for A, V, C): its unit
        coordinate there, indexed by the other two legs in order, or SplitFail
        if w has a component outside the span of that leg's unit."""
        n, unit = legs[leg]
        out = []
        projected = list(vzero(f, avc.total))
        ok = True
        for rest in itertools.product(*(range(legs[t][0]) for t in range(3) if t != leg)):
            flat = [avc.index(rest[:leg] + (z,) + rest[leg:]) for z in range(n)]
            leg_vec = tuple(w[i] for i in flat)
            coords = tuple(_dot(f, projectors[leg][t], leg_vec) for t in range(n))
            out.append(coords[0])
            for z, i in enumerate(flat):
                projected[i] = f.mul(coords[0], unit[z])
            ok = ok and all(f.is_zero(x) for x in coords[1:])
        if not ok:
            raise SplitFail(which, Witness(indices, tuple(w), tuple(projected),
                                           "component outside the allowed span"))
        return tuple(out)

    r1_cols = []
    for j in range(nv):
        for i in range(na):
            w = m.mul_vec(emb_v(basis_vector(f, nv, j)), emb_a(basis_vector(f, na, i)))
            r1_cols.append(split_leg(w, 2, "ajut1", (j, i)))
    r2_cols = []
    for k in range(nc):
        for j in range(nv):
            w = m.mul_vec(emb_c(basis_vector(f, nc, k)), emb_v(basis_vector(f, nv, j)))
            r2_cols.append(split_leg(w, 0, "ajut2", (k, j)))
    r3_cols = []
    for k in range(nc):
        for i in range(na):
            w = m.mul_vec(emb_c(basis_vector(f, nc, k)), emb_a(basis_vector(f, na, i)))
            r3_cols.append(split_leg(w, 1, "ajut3", (k, i)))
    for i in range(na):
        for j in range(nv):
            for k in range(nc):
                got = m.mul_vec(
                    m.mul_vec(emb_a(basis_vector(f, na, i)), emb_v(basis_vector(f, nv, j))),
                    emb_c(basis_vector(f, nc, k)))
                want = basis_vector(f, m.dim, avc.index((i, j, k)))
                if got != want:
                    raise SplitFail("ajut4", Witness((i, j, k), got, want,
                                                     "a⊗v⊗c = a·v·c"))
    e_cols = []
    for j in range(nv):
        for jp in range(nv):
            e_cols.append(m.mul_vec(emb_v(basis_vector(f, nv, j)),
                                    emb_v(basis_vector(f, nv, jp))))

    data = TwoSidedData(
        a, v, c,
        from_columns(f, shape(nv, na), shape(na, nv), tuple(r1_cols)),
        from_columns(f, shape(nc, nv), shape(nv, nc), tuple(r2_cols)),
        from_columns(f, shape(nc, na), shape(na, nc), tuple(r3_cols)),
        from_columns(f, shape(nv, nv), shape(na, nv, nc), tuple(e_cols)),
    )
    rep = check_twosided(data)
    if not rep.all_pass:
        raise RoundTripMismatch(
            f"extracted maps fail conditions: {', '.join(rep.failed_names())}")
    rebuilt = build_twosided(data)
    if not same_algebra(rebuilt, m):
        raise RoundTripMismatch("rebuilt product differs from the input algebra")
    return data


# -- universal property -------------------------------------------------------

def universal_map(d: TwoSidedData, x: FinAlgebra, f_a: TensorMap, f_v: TensorMap,
                  f_c: TensorMap) -> TensorMap:
    """The unique algebra map out of the two-sided product induced by f_A, f_V, f_C.

    Premises verified on all basis tuples, in order:

    * ``fA`` and ``fC`` are unital algebra maps into X,
    * ``unit-fV``: f_V(1_V) = 1_X (needed for the induced map to be unital),
    * ``premise-1``: f_C(c) f_V(v) f_A(a) =
      f_A((a_R1)_R3) f_V((v_R1)_R2) f_C((c_R3)_R2),
    * ``premise-2``: f_A(E_A) f_V(E_V) f_C(E_C) = f_V(v) f_V(v').

    Returns f with f(a⊗v⊗c) = f_A(a) f_V(v) f_C(c); the result is verified to
    be a unital algebra map restricting to f_A, f_V, f_C on the embeddings.
    """
    fld = d.field
    a, v, c = d.A, d.V, d.C
    if x.field != fld:
        raise FieldMismatch("target algebra over a different field")
    for name, mp, src in (("fA", f_a, a.dim), ("fV", f_v, v.dim), ("fC", f_c, c.dim)):
        if mp.domain.total != src or mp.codomain.total != x.dim:
            raise ShapeMismatch(f"{name} must map [{src}] to [{x.dim}]")
    rep = is_algebra_map(f_a.reshaped(shape(a.dim), shape(x.dim)), a, x)
    if not rep.all_pass:
        bad = next(e for e in rep.entries if not e.passed)
        raise PremiseFail("fA", bad.witness or Witness((), (), (), "fA not an algebra map"))
    rep = is_algebra_map(f_c.reshaped(shape(c.dim), shape(x.dim)), c, x)
    if not rep.all_pass:
        bad = next(e for e in rep.entries if not e.passed)
        raise PremiseFail("fC", bad.witness or Witness((), (), (), "fC not an algebra map"))
    got = f_v.apply(v.unit)
    if got != x.unit:
        raise PremiseFail("unit-fV", Witness((), got, x.unit, "f_V(1_V)=1_X"))

    idx = identity(fld, shape(x.dim))
    mul2x = compose(x.mul, tensor(idx, x.mul))
    triple = compose(mul2x, tensor(f_a, f_v, f_c))  # [A,V,C] -> X

    ida = identity(fld, shape(a.dim))
    idv = identity(fld, shape(v.dim))
    idc = identity(fld, shape(c.dim))
    braid = compose(tensor(ida, d.R2), tensor(d.R3, idv), tensor(idc, d.R1))
    lhs1 = compose(mul2x, tensor(f_c, f_v, f_a))
    rhs1 = compose(triple, braid)
    for j in range(lhs1.domain.total):
        if lhs1.cols[j] != rhs1.cols[j]:
            raise PremiseFail("premise-1", Witness(
                lhs1.domain.multi(j), lhs1.column(j), rhs1.column(j),
                "f_C f_V f_A = (f_A f_V f_C)∘braid"))
    lhs2 = compose(triple, d.E)
    rhs2 = compose(x.mul, tensor(f_v, f_v))
    for j in range(lhs2.domain.total):
        if lhs2.cols[j] != rhs2.cols[j]:
            raise PremiseFail("premise-2", Witness(
                lhs2.domain.multi(j), lhs2.column(j), rhs2.column(j),
                "(f_A f_V f_C)∘E = f_V f_V"))

    built = build_twosided(d)
    result = triple.reshaped(domain=shape(built.dim), codomain=shape(x.dim))
    rep = is_algebra_map(result, built, x)
    if not rep.all_pass:
        raise NotAlgebraMapResult("induced map is not an algebra map (internal bug)")
    emb_checks = (
        (f_a, lambda e: tensor_vec(fld, e, v.unit, c.unit), a.dim),
        (f_v, lambda e: tensor_vec(fld, a.unit, e, c.unit), v.dim),
        (f_c, lambda e: tensor_vec(fld, a.unit, v.unit, e), c.dim),
    )
    for mp, emb, n in emb_checks:
        for i in range(n):
            e = basis_vector(fld, n, i)
            if result.apply(emb(e)) != mp.apply(e):
                raise NotAlgebraMapResult(
                    "induced map does not restrict to the given maps (internal bug)")
    return result
