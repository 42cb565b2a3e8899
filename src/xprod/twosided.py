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
from collections.abc import Callable

from .algebra import (
    FinAlgebra,
    PointedSpace,
    _column_witness,
    _require_maps,
    is_algebra_map,
    new_algebra,
    same_algebra,
)
from .crossed import (
    BrzData,
    MirrorData,
    _braid,
    _connector_unit,
    _first_mismatch,
    _mult_left,
    _mult_right,
    _twist_units,
    _twist_units_hold,
    _unit_legs,
    build_brzezinski,
    build_mirror,
)
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
    compose,
    identity,
    shape,
    tensor,
    tensor_vec,
    vector_map,
    vzero,
)
from .record import record
from .report import ConditionResult, Report, Witness

# the domain legs (x, y) of each twisting map R: x⊗y -> y⊗x, as A, V, C = 0, 1, 2
TWIST_LEGS = {"R1": (1, 0), "R2": (2, 1), "R3": (2, 0)}


@record
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
        dims = (self.A.dim, self.V.dim, self.C.dim)
        _require_maps("two-sided data", (self.A, self.V, self.C), [
            *((name, getattr(self, name), (dims[x], dims[y]), (dims[y], dims[x]))
              for name, (x, y) in TWIST_LEGS.items()),
            ("E", self.E, (dims[1], dims[1]), dims)])

    @property
    def field(self) -> Field:
        return self.A.field


@record
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


def _chain_map(field, dims, chain) -> TensorMap:
    """The map whose column at each basis tuple of ``dims`` is ``chain``
    applied to that tuple; its codomain is the chain's output factors."""
    cod, cols = None, []
    for idx in itertools.product(*(range(d) for d in dims)):
        t = chain(_Ten.basis(field, dims, idx))
        cod = cod or TensorShape(t.dims)
        cols.append(tuple((cod.index(key), x) for key, x in sorted(t.data.items())
                          if not field.is_zero(x)))
    return TensorMap(field, TensorShape(dims), cod, tuple(cols))


def _scan_mult_left(r, alg, identity_text):
    """R∘(id⊗μ) = (μ⊗id)∘(id⊗R)∘(R⊗id) for a twist R: X (x) A -> A (x) X, on
    basis tuples (x, a, a')."""
    return _scan(
        (r.domain.dims[0], alg.dim, alg.dim),
        lambda t: t.mul_at(alg, 1).map_at(r, 0),
        lambda t: t.map_at(r, 0).map_at(r, 1).mul_at(alg, 0),
        r.field, identity_text)


def _scan_mult_right(r, alg, identity_text):
    """R∘(μ⊗id) = (id⊗μ)∘(R⊗id)∘(id⊗R) for a twist R: C (x) X -> X (x) C, on
    basis tuples (c, c', x)."""
    return _scan(
        (alg.dim, alg.dim, r.domain.dims[1]),
        lambda t: t.mul_at(alg, 0).map_at(r, 0),
        lambda t: t.map_at(r, 1).map_at(r, 0).mul_at(alg, 1),
        r.field, identity_text)


@record
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
    Condition("twR31", ("R3",), lambda a, v, c, r3: _first_mismatch(_twist_units(
        r3, c, a, "R3(c⊗1_A)=1_A⊗c", "R3(1_C⊗a)=a⊗1_C"))),
    Condition("twR32", ("R3",), lambda a, v, c, r3: _scan_mult_left(
        r3, a, "(aa')_R3⊗c_R3 = a_R3 a'_r3⊗(c_R3)_r3")),
    Condition("twR33", ("R3",), lambda a, v, c, r3: _scan_mult_right(
        r3, c, "a_R3⊗(cc')_R3 = (a_R3)_r3⊗c_r3 c'_R3")),
    Condition("unit-R1", ("R1",), lambda a, v, c, r1: _first_mismatch(_twist_units(
        r1, v, a, "R1(v⊗1_A)=1_A⊗v", "R1(1_V⊗a)=a⊗1_V", x_first=False))),
    Condition("unit-R2", ("R2",), lambda a, v, c, r2: _first_mismatch(_twist_units(
        r2, c, v, "R2(c⊗1_V)=1_V⊗c", "R2(1_C⊗v)=v⊗1_C"))),
    Condition("unit-E", ("E",), lambda a, v, c, e: _first_mismatch(_connector_unit(
        e, v, lambda x: tensor_vec(e.field, a.unit, x, c.unit),
        ("E(1_V⊗v)=1_A⊗v⊗1_C", "E(v⊗1_V)=1_A⊗v⊗1_C")))),
    Condition("equiv1", ("R1",), lambda a, v, c, r1: _scan_mult_left(
        r1, a, "(aa')_R1⊗v_R1 = a_R1 a'_r1⊗(v_R1)_r1")),
    Condition("equiv2", ("R2",), lambda a, v, c, r2: _scan_mult_right(
        r2, c, "v_R2⊗(cc')_R2 = (v_R2)_r2⊗c_r2 c'_R2")),
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
    uv = vector_map(f, v.unit)
    out = {}
    out["twR31"] = _twist_units_hold(r3, c.unit, a.unit)
    out["twR32"] = _column_witness(*_mult_left(r3, a)) is None
    out["twR33"] = _column_witness(*_mult_right(r3, c)) is None
    out["unit-R1"] = _twist_units_hold(r1, v.unit, a.unit)
    out["unit-R2"] = _twist_units_hold(r2, c.unit, v.unit)
    unit_e_rhs = tensor(vector_map(f, a.unit), idv, vector_map(f, c.unit)).cols
    out["unit-E"] = (
        compose(e, tensor(uv, idv)).cols == unit_e_rhs
        and compose(e, tensor(idv, uv)).cols == unit_e_rhs)
    out["equiv1"] = _column_witness(*_mult_left(r1, a)) is None
    out["equiv2"] = _column_witness(*_mult_right(r2, c)) is None
    out["equiv3"] = _column_witness(*_braid(r1, r2, r3)) is None
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


def check_twosided(d: TwoSidedData) -> Report:
    """Check all twelve conditions; witnesses are smallest failing tuples.

    The whole-matrix composite form of every condition is evaluated as well
    and must agree with the elementwise verdict.  Both routes run on sparse
    columns and cost about the number of nonzeros they touch: the elementwise
    scan of equiv6 visits dim(V)^3 basis triples, and a composite pays for
    identity factors only by their dimension.
    """
    maps = {"R1": d.R1, "R2": d.R2, "R3": d.R3, "E": d.E}
    entries = [cond.evaluate(d.A, d.V, d.C, maps) for cond in CONDITIONS]
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


def _raw_product(d: TwoSidedData) -> tuple[TensorMap, tuple]:
    f = d.field
    n = d.A.dim * d.V.dim * d.C.dim

    def chain(t):
        t = t.map_at(d.R3, 2)   # (c, a') -> a'_R3, c_R3
        t = t.map_at(d.R1, 1)   # (v, a'_R3) -> (a'_R3)_R1, v_R1
        t = t.map_at(d.R2, 3)   # (c_R3, v') -> v'_R2, (c_R3)_R2
        t = t.map_at(d.E, 2)    # E(v_R1, v'_R2)
        return t.mul_at(d.A, 0).mul_at(d.A, 0).mul_at(d.C, 2).mul_at(d.C, 2)

    mul = _chain_map(f, (d.A.dim, d.V.dim, d.C.dim) * 2, chain).reshaped(shape(n, n), shape(n))
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


@record
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
            if main.unit != other.unit:
                witness = Witness((), main.unit, other.unit, "units differ")
            else:
                witness = _column_witness(main.mul, other.mul, "structure constants differ")
            entries.append(ConditionResult(name, False, witness))
    return Report(tuple(entries))


# -- converse: extraction from a suitably split algebra ----------------------

def _extraction_shapes(m: FinAlgebra, a: FinAlgebra, v: PointedSpace, c: FinAlgebra):
    """Refuse unless M, A, V, C share one field and dim M = dim A·dim V·dim C."""
    _require_maps("extraction", (m, a, v, c), ())
    if m.dim != a.dim * v.dim * c.dim:
        raise ShapeMismatch("algebra dimension does not factor as dim A * dim V * dim C")


def extract(m: FinAlgebra, a: FinAlgebra, v: PointedSpace, c: FinAlgebra) -> TwoSidedData:
    """Recover (R1, R2, R3, E) from an algebra structure on A (x) V (x) C.

    Requirements checked, in order: the unit of M is 1_A ⊗ 1_V ⊗ 1_C; the
    maps a -> a⊗1_V⊗1_C and c -> 1_A⊗1_V⊗c are unital algebra maps; the
    splitting conditions hold:

    * ajut1: (1⊗v⊗1)(a'⊗1⊗1) lies in A ⊗ V ⊗ span(1_C),
    * ajut2: (1⊗1⊗c)(1⊗v'⊗1) lies in span(1_A) ⊗ V ⊗ C,
    * ajut3: (1⊗1⊗c)(a'⊗1⊗1) lies in A ⊗ span(1_V) ⊗ C,
    * ajut4: (a⊗1⊗1)(1⊗v⊗1)(1⊗1⊗c) = a⊗v⊗c.

    R1, R2, R3 are read off those products as their unit coordinate in the
    third leg, w_s / u_s at the last nonzero coordinate s of its unit u (each
    fibre must equal (w_s / u_s) u), E(v⊗v') = (1⊗v⊗1)(1⊗v'⊗1), and the
    extracted data must pass :func:`check_twosided` and rebuild M exactly.
    """
    _extraction_shapes(m, a, v, c)
    f = m.field
    avc = shape(a.dim, v.dim, c.dim)
    dims, units = avc.dims, (a.unit, v.unit, c.unit)
    if m.unit != tensor_vec(f, *units):
        raise UnitMismatch("unit of M is not 1_A ⊗ 1_V ⊗ 1_C")

    def legs(*keep):
        return _unit_legs(f, units, keep)

    def product(x, y):
        return compose(m.mul, tensor(x, y)).reshaped(codomain=avc)

    def unit_coordinate(leg):
        """A (x) V (x) C -> the other two legs: the unit coordinate in ``leg``."""
        u = units[leg]
        s = max((i for i, x in enumerate(u) if not f.is_zero(x)), default=None)
        if s is None:
            raise ShapeMismatch("the unit of a leg is zero")
        read = TensorMap(f, shape(len(u)), shape(1), tuple(
            ((0, f.inv(u[s])),) if i == s else () for i in range(len(u))))
        return tensor(*(read if t == leg else identity(f, shape(dims[t])) for t in range(3)))

    for leg, alg, which in ((0, a, "a ↦ a⊗1_V⊗1_C"), (2, c, "c ↦ 1_A⊗1_V⊗c")):
        rep = is_algebra_map(legs(leg), alg, m)
        if not rep.all_pass:
            raise NotAlgebraMap(which, rep)

    # R(x⊗y) is read off (x)(y), which must lie in the span of the unit of
    # the third leg: ajut1, ajut2, ajut3 for R1, R2, R3
    maps = {}
    for t, (name, (x, y)) in enumerate(TWIST_LEGS.items(), 1):
        xy = product(legs(x), legs(y))
        r = compose(unit_coordinate(3 - x - y), xy).reshaped(codomain=shape(dims[y], dims[x]))
        witness = _column_witness(xy, compose(legs(y, x), r), "component outside the allowed span")
        if witness is not None:
            raise SplitFail(f"ajut{t}", witness)
        maps[name] = r
    witness = _column_witness(compose(m.mul, tensor(product(legs(0), legs(1)), legs(2))),
                              identity(f, avc), "a⊗v⊗c = a·v·c")
    if witness is not None:
        raise SplitFail("ajut4", witness)
    data = TwoSidedData(a, v, c, E=product(legs(1), legs(1)), **maps)
    try:
        rebuilt = build_twosided(data)
    except AxiomFailure as exc:
        raise RoundTripMismatch("extracted maps fail conditions: "
                                + ", ".join(exc.report.failed_names())) from exc
    if not same_algebra(rebuilt, m):
        raise RoundTripMismatch("rebuilt product differs from the input algebra")
    return data


# -- universal property -------------------------------------------------------

def _universal_shapes(d: TwoSidedData, x: FinAlgebra, f_a, f_v, f_c):
    """Refuse unless X is over d's field and f_A, f_V, f_C map d's legs to X."""
    if x.field != d.field:
        raise FieldMismatch("target algebra over a different field")
    for name, mp, src in (("fA", f_a, d.A.dim), ("fV", f_v, d.V.dim), ("fC", f_c, d.C.dim)):
        if mp.domain.total != src or mp.codomain.total != x.dim:
            raise ShapeMismatch(f"{name} must map [{src}] to [{x.dim}]")


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
    _universal_shapes(d, x, f_a, f_v, f_c)
    fld = d.field
    a, v, c = d.A, d.V, d.C
    for name, mp, alg in (("fA", f_a, a), ("fC", f_c, c)):
        rep = is_algebra_map(mp.reshaped(shape(alg.dim), shape(x.dim)), alg, x)
        if not rep.all_pass:
            raise PremiseFail(name, next(e.witness for e in rep.entries if not e.passed))
    got = f_v.apply(v.unit)
    if got != x.unit:
        raise PremiseFail("unit-fV", Witness((), got, x.unit, "f_V(1_V)=1_X"))

    idx = identity(fld, shape(x.dim))
    mul2x = compose(x.mul, tensor(idx, x.mul))
    triple = compose(mul2x, tensor(f_a, f_v, f_c))  # [A,V,C] -> X

    braid, _ = _braid(d.R1, d.R2, d.R3)
    premises = (
        ("premise-1", compose(mul2x, tensor(f_c, f_v, f_a)), compose(triple, braid),
         "f_C f_V f_A = (f_A f_V f_C)∘braid"),
        ("premise-2", compose(triple, d.E), compose(x.mul, tensor(f_v, f_v)),
         "(f_A f_V f_C)∘E = f_V f_V"),
    )
    for name, lhs, rhs, text in premises:
        witness = _column_witness(lhs, rhs, text)
        if witness is not None:
            raise PremiseFail(name, witness)

    built = build_twosided(d)
    result = triple.reshaped(domain=shape(built.dim), codomain=shape(x.dim))
    rep = is_algebra_map(result, built, x)
    if not rep.all_pass:
        raise NotAlgebraMapResult("induced map is not an algebra map (internal bug)")
    for leg, mp in enumerate((f_a, f_v, f_c)):
        if compose(result, _unit_legs(fld, (a.unit, v.unit, c.unit), (leg,))).cols != mp.cols:
            raise NotAlgebraMapResult(
                "induced map does not restrict to the given maps (internal bug)")
    return result
