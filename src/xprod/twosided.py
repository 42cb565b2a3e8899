"""Two-sided crossed products on A (x) V (x) C.

Input data is the tuple (A, V, C, R1, R2, R3, E) with

* ``R1: V (x) A -> A (x) V``, written R1(v⊗a) = a_R1 ⊗ v_R1,
* ``R2: C (x) V -> V (x) C``, written R2(c⊗v) = v_R2 ⊗ c_R2,
* ``R3: C (x) A -> A (x) C``, written R3(c⊗a) = a_R3 ⊗ c_R3,
* ``E:  V (x) V -> A (x) V (x) C``, written E(v⊗v') = E_A ⊗ E_V ⊗ E_C.

:func:`check_twosided` verifies the twelve named conditions (``twR31``,
``twR32``, ``twR33``, ``unit-R1``, ``unit-R2``, ``unit-E``, ``equiv1`` ..
``equiv6``), each exhaustively on basis tuples with the lexicographically
smallest witness.  A condition is one or more sides ``(lhs, rhs, identity
text)`` in checking order, decided by two independent routes that must
agree.  The elementwise route, :func:`_scan`, runs each side's chains on the
sparse tensor state (``_Ten``) of each basis tuple.  A chain is data, a tuple
of steps that apply a named map at a leg, insert a named unit there, or
permute the legs from there on.  One interpreter runs every chain over any
field, :func:`_bind` turning each step into a call of a ``_Ten`` method: the
sides of the table :data:`CONDITIONS` (whose search in
:mod:`~xprod.constructions` runs the E sides over polynomials), the
product's :data:`PRODUCT_CHAIN` and the chains of that module.  The
composite route compares whole-matrix sides with
:func:`~xprod.algebra._column_witness`.

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
from functools import cached_property

from .algebra import (
    FinAlgebra,
    PointedSpace,
    _column_witness,
    _product_verdict,
    _require_maps,
    _routes_agree,
    _unit_legs,
    is_algebra_map,
    product_algebra,
)
from .crossed import (
    BrzData,
    MirrorData,
    _braid,
    _brz_product,
    _connector_unit,
    _mirror_product,
    _mult_left,
    _mult_right,
    _twist_units,
)
from .errors import (
    AxiomFailure,
    FieldMismatch,
    InternalCheckError,
    NotAlgebraMap,
    PremiseFail,
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
    vzero,
)
from .record import record
from .report import ConditionResult, Report, Witness

# the domain legs (x, y) of each twisting map R: x⊗y -> y⊗x, as A, V, C = 0, 1, 2
TWIST_LEGS = {"R1": (1, 0), "R2": (2, 1), "R3": (2, 0)}
MAP_NAMES = (*TWIST_LEGS, "E")  # the maps of the data, in the order reports list them


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


# -- declared chains and the sparse tensor states they run on ----------------

class _Ten:
    """Sparse exact tensor with an explicit list of factor dimensions."""

    __slots__ = ("field", "dims", "data")

    def __init__(self, field, dims: tuple, data):
        self.field = field
        self.dims = dims
        self.data = data  # dict: multi-index tuple -> nonzero scalar

    @classmethod
    def basis(cls, field, dims: tuple, idx: tuple):
        return cls(field, dims, {idx: field.one})

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

    def insert(self, vec, pos: int) -> "_Ten":
        """Insert the vector ``vec`` as a new factor at position pos."""
        f = self.field
        terms = [(i, x) for i, x in enumerate(vec) if not f.is_zero(x)]
        data = {key[:pos] + (i,) + key[pos:]: f.mul(coef, x)
                for key, coef in self.data.items() for i, x in terms}
        return _Ten(f, self.dims[:pos] + (len(vec),) + self.dims[pos:], data)

    def permute(self, perm: tuple, pos: int) -> "_Ten":
        """Reorder the factors from pos on: factor pos + t becomes the current
        factor pos + perm[t]."""
        order = (*range(pos), *(pos + p for p in perm))
        dims = tuple(self.dims[p] for p in order)
        data = {tuple(key[p] for p in order): v for key, v in self.data.items()}
        return _Ten(self.field, dims, data)

    def vector(self) -> tuple:
        shp = TensorShape(self.dims)
        out = list(vzero(self.field, shp.total))
        for key, val in self.data.items():
            out[shp.index(key)] = val
        return tuple(out)


def _bind(chain, named):
    """The steps of ``chain`` as (method of :class:`_Ten`, argument, leg),
    each run on a state t as ``t = method(t, argument, leg)``.  A step (x,
    leg) applies the map ``named[x]`` to the factors from ``leg`` on, inserts
    it there if it is a vector (a unit), or, if x is a tuple of numbers,
    permutes the factors from ``leg`` on by it."""
    return [(_Ten.permute, x, leg) if isinstance(x, tuple) else
            (_Ten.map_at if isinstance(m := named[x], TensorMap) else _Ten.insert, m, leg)
            for x, leg in chain]


def _named(a, v, c, maps):
    """What the chains of two-sided data read by name: ``maps``, ``μ_A``,
    ``μ_C``, ``1_A``, ``1_V``, ``1_C``, and the dimensions of the legs A, V, C."""
    return {**maps, "μ_A": a.mul, "μ_C": c.mul, "1_A": a.unit, "1_V": v.unit, "1_C": c.unit,
            "A": a.dim, "V": v.dim, "C": c.dim}


def _scan(field, scans, named):
    """The witness of the first failing scan, or None: a scan is (legs,
    sides), each side (lhs chain, rhs chain, identity text), and fails at the
    smallest basis tuple of the legs, lex order, where the chains of a side
    differ, and there at its first such side."""
    for legs, sides in scans:
        dims = tuple([named[x] for x in legs])
        bound = [(_bind(lhs, named), _bind(rhs, named), text) for lhs, rhs, text in sides]
        for idx in itertools.product(*(range(d) for d in dims)):
            start = _Ten.basis(field, dims, idx)
            for lhs, rhs, text in bound:
                left = right = start
                for op, x, leg in lhs:
                    left = op(left, x, leg)
                for op, x, leg in rhs:
                    right = op(right, x, leg)
                if left.data != right.data:  # both sparse with zeros dropped
                    return Witness(idx, left.vector(), right.vector(), text)
    return None


def _chain_map(field, dims, chain, named) -> TensorMap:
    """The map whose column at each basis tuple of ``dims`` is ``chain`` run
    on that tuple; its codomain is the chain's output factors."""
    bound, cod, cols = _bind(chain, named), None, []
    for idx in itertools.product(*(range(d) for d in dims)):
        t = _Ten.basis(field, dims, idx)
        for op, x, leg in bound:
            t = op(t, x, leg)
        cod = cod or TensorShape(t.dims)
        cols.append(tuple((cod.index(key), x) for key, x in sorted(t.data.items())
                          if not field.is_zero(x)))
    return TensorMap(field, TensorShape(dims), cod, tuple(cols))


def _one_scan(legs, *sides):
    """A condition that is one scan: its sides compared on the basis tuples of
    ``legs``, named "A", "V", "C"."""
    return ((legs, sides),)


def _mult_left_scan(r, alg, identity_text):
    """R∘(id⊗μ) = (μ⊗id)∘(id⊗R)∘(R⊗id) for a twist R: X (x) A -> A (x) X, on
    basis tuples (x, a, a'); R and A given by name, as "R3" and "A"."""
    mul = "μ_" + alg
    return _one_scan(("AVC"[TWIST_LEGS[r][0]], alg, alg),
                     (((mul, 1), (r, 0)), ((r, 0), (r, 1), (mul, 0)), identity_text))


def _mult_right_scan(r, alg, identity_text):
    """R∘(μ⊗id) = (id⊗μ)∘(R⊗id)∘(id⊗R) for a twist R: C (x) X -> X (x) C, on
    basis tuples (c, c', x); R and C given by name."""
    mul = "μ_" + alg
    return _one_scan((alg, alg, "AVC"[TWIST_LEGS[r][1]]),
                     (((mul, 0), (r, 0)), ((r, 1), (r, 0), (mul, 1)), identity_text))


def _twist_unit_scans(r, legs, texts):
    """The unit laws of a twist R: X (x) Y -> Y (x) X, given by name, one scan
    per leg in the order given: R(x⊗1_Y) = 1_Y⊗x for leg 0, R(1_X⊗y) = y⊗1_X
    for leg 1."""
    xy = ["AVC"[t] for t in TWIST_LEGS[r]]
    return sum((_one_scan((xy[leg],), ((("1_" + xy[1 - leg], 1 - leg), (r, 0)),
                                       (("1_" + xy[1 - leg], leg),), text))
                for leg, text in zip(legs, texts)), ())


@record
class Condition:
    """One two-sided condition: its label and its elementwise scans as data,
    in checking order, each a pair ``(legs, sides)`` that :func:`_scan`
    decides on the basis tuples of the legs A, V, C, given by name.  The chains
    of the sides read maps and units by name (:func:`_named`), and
    :attr:`maps` lists the maps among R1, R2, R3, E that they read.  The
    verdict depends on nothing else, which is what lets
    :func:`~xprod.constructions.search_fp` reuse verdicts across candidates
    that share those maps, and compile the sides that read E.
    """

    label: str
    scans: tuple

    @cached_property
    def maps(self) -> tuple[str, ...]:
        """The maps among R1, R2, R3, E that the chains apply, in that order."""
        read = {step[0] for _, sides in self.scans for lhs, rhs, _ in sides for step in lhs + rhs}
        return tuple(m for m in MAP_NAMES if m in read)

    def witness(self, a, v, c, maps) -> Witness | None:
        """The smallest failing basis tuple's witness, or None when the
        condition holds; ``maps`` holds at least :attr:`maps`, keyed by name."""
        return _scan(a.field, self.scans, _named(a, v, c, maps))

    def evaluate(self, a, v, c, maps) -> ConditionResult:
        """The condition's report entry, with ``maps`` keyed by name."""
        witness = self.witness(a, v, c, maps)
        return ConditionResult(self.label, witness is None, witness)


# The twelve conditions, each identity written once, in report order.
CONDITIONS = (
    Condition("twR31", _twist_unit_scans(
        "R3", (0, 1), ("R3(c⊗1_A)=1_A⊗c", "R3(1_C⊗a)=a⊗1_C"))),
    Condition("twR32", _mult_left_scan("R3", "A", "(aa')_R3⊗c_R3 = a_R3 a'_r3⊗(c_R3)_r3")),
    Condition("twR33", _mult_right_scan("R3", "C", "a_R3⊗(cc')_R3 = (a_R3)_r3⊗c_r3 c'_R3")),
    Condition("unit-R1", _twist_unit_scans(
        "R1", (1, 0), ("R1(1_V⊗a)=a⊗1_V", "R1(v⊗1_A)=1_A⊗v"))),
    Condition("unit-R2", _twist_unit_scans(
        "R2", (0, 1), ("R2(c⊗1_V)=1_V⊗c", "R2(1_C⊗v)=v⊗1_C"))),
    Condition("unit-E", _one_scan(
        ("V",),
        ((("1_V", 0), ("E", 0)), (("1_A", 0), ("1_C", 2)), "E(1_V⊗v)=1_A⊗v⊗1_C"),
        ((("1_V", 1), ("E", 0)), (("1_A", 0), ("1_C", 2)), "E(v⊗1_V)=1_A⊗v⊗1_C"))),
    Condition("equiv1", _mult_left_scan("R1", "A", "(aa')_R1⊗v_R1 = a_R1 a'_r1⊗(v_R1)_r1")),
    Condition("equiv2", _mult_right_scan("R2", "C", "v_R2⊗(cc')_R2 = (v_R2)_r2⊗c_r2 c'_R2")),
    Condition("equiv3", _one_scan(("C", "V", "A"), (
        (("R1", 1), ("R3", 0), ("R2", 1)),
        (("R2", 0), ("R3", 1), ("R1", 0)),
        "(a_R1)_R3⊗(v_R1)_R2⊗(c_R3)_R2 = (a_R3)_R1⊗(v_R2)_R1⊗(c_R2)_R3"))),
    Condition("equiv4", _one_scan(("V", "V", "A"), (
        (("R1", 1), ("R1", 0), ("E", 1), ("μ_A", 0)),
        (("E", 0), ("R3", 2), ("R1", 1), ("μ_A", 0)),
        "(a_R1)_r1 E(v_r1,v'_R1) ... = E_A(v,v')(a_R3)_R1⊗E_V(v,v')_R1⊗E_C(v,v')_R3"))),
    Condition("equiv5", _one_scan(("C", "V", "V"), (
        (("R2", 0), ("R2", 1), ("E", 0), ("μ_C", 2)),
        (("E", 1), ("R3", 0), ("R2", 1), ("μ_C", 2)),
        "E(v_R2,v'_r2)...(c_R2)_r2 = E_A(v,v')_R3⊗E_V(v,v')_R2⊗(c_R3)_R2 E_C(v,v')"))),
    Condition("equiv6", _one_scan(("V", "V", "V"), (
        (("E", 1), ("R1", 0), ("E", 1), ("μ_A", 0), ("μ_C", 2)),
        (("E", 0), ("R2", 2), ("E", 1), ("μ_A", 0), ("μ_C", 2)),
        "E-chain of (v v') v'' = E-chain of v (v' v'')"))),
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
    out = {}
    out["twR31"] = _twist_units(r3, (c.unit, a.unit), (0, 1)) is None
    out["twR32"] = _column_witness(_mult_left(r3, a)) is None
    out["twR33"] = _column_witness(_mult_right(r3, c)) is None
    out["unit-R1"] = _twist_units(r1, (v.unit, a.unit), (1, 0)) is None
    out["unit-R2"] = _twist_units(r2, (c.unit, v.unit), (0, 1)) is None
    want = _unit_legs(f, (a.unit, v.unit, c.unit), (1,))
    out["unit-E"] = _column_witness(_connector_unit(e, (v.unit, v.unit), 1, want),
                                    _connector_unit(e, (v.unit, v.unit), 0, want)) is None
    out["equiv1"] = _column_witness(_mult_left(r1, a)) is None
    out["equiv2"] = _column_witness(_mult_right(r2, c)) is None
    out["equiv3"] = _column_witness(_braid(r1, r2, r3)) is None
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
    maps = {m: getattr(d, m) for m in MAP_NAMES}
    entries = [cond.evaluate(d.A, d.V, d.C, maps) for cond in CONDITIONS]
    composite = _composite_conditions(d)
    for entry in entries:
        if composite[entry.name] != entry.passed:
            raise InternalCheckError(entry.name, ("elementwise", "composite"), entry.witness)
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


# the product's chain on (a, v, c, a', v', c')
PRODUCT_CHAIN = (
    ("R3", 2),  # (c, a') -> a'_R3, c_R3
    ("R1", 1),  # (v, a'_R3) -> (a'_R3)_R1, v_R1
    ("R2", 3),  # (c_R3, v') -> v'_R2, (c_R3)_R2
    ("E", 2),   # E(v_R1, v'_R2)
    ("μ_A", 0), ("μ_A", 0), ("μ_C", 2), ("μ_C", 2))


def _raw_product(d: TwoSidedData) -> TensorMap:
    """The two-sided product's multiplication, [A,V,C,A,V,C] -> [A,V,C], not validated."""
    f = d.field
    mul = _chain_map(f, (d.A.dim, d.V.dim, d.C.dim) * 2, PRODUCT_CHAIN,
                     _named(d.A, d.V, d.C, {m: getattr(d, m) for m in MAP_NAMES}))
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
    _routes_agree("two-sided product", ("chain", "composite"), mul, composite)
    return mul


def build_twosided(d: TwoSidedData) -> FinAlgebra:
    """Build the two-sided crossed product; requires an all-pass check."""
    check_twosided(d).require("two-sided crossed product conditions fail")
    return _validated_product(d)


def _validated_product(d: TwoSidedData) -> FinAlgebra:
    """The validated two-sided product of data known to pass every condition."""
    return product_algebra("two-sided conditions", _raw_product(d), d.A.unit, d.V.unit, d.C.unit)


@record
class BuildOutcome:
    """Result of a forced build: the product, and the law it fails with its witness, if any."""

    algebra: FinAlgebra
    failure: str | None
    witness: Witness | None


def force_build_twosided(d: TwoSidedData) -> BuildOutcome:
    """Build without requiring the checks, then validate and report as data."""
    return BuildOutcome(*_product_verdict(_raw_product(d), d.A.unit, d.V.unit, d.C.unit))


def presentations_agree(d: TwoSidedData) -> Report:
    """Confirm both crossed-product presentations reproduce the same algebra.

    Validates the two-sided product, then builds A (x)_{R,σ} (V (x) C) with
    V (x) C pointed by 1_V ⊗ 1_C and (A (x) V) (x)~_{P,ν} C with A (x) V
    pointed by 1_A ⊗ 1_V, each with its own conditions and post-build
    identity but no validation of its own, and compares their structure
    constants with it exactly: a failure of either is an internal error.  The
    units are 1_A ⊗ 1_V ⊗ 1_C in all three by construction.
    """
    a, v, c = d.A, d.V, d.C
    derived = derive_maps(d)
    main = build_twosided(d)  # raises AxiomFailure unless every condition holds
    vc = PointedSpace(d.field, v.dim * c.dim, tensor_vec(d.field, v.unit, c.unit))
    av = PointedSpace(d.field, a.dim * v.dim, tensor_vec(d.field, a.unit, v.unit))
    presentations = (
        ("brzezinski-presentation", "crossed-product", _brz_product, BrzData(
            a, vc,
            derived.R.reshaped(domain=shape(vc.dim, a.dim), codomain=shape(a.dim, vc.dim)),
            derived.sigma.reshaped(domain=shape(vc.dim, vc.dim), codomain=shape(a.dim, vc.dim)))),
        ("mirror-presentation", "mirror", lambda m: _mirror_product(m)[0], MirrorData(
            av, c,
            derived.P.reshaped(domain=shape(c.dim, av.dim), codomain=shape(av.dim, c.dim)),
            derived.nu.reshaped(domain=shape(av.dim, av.dim), codomain=shape(av.dim, c.dim)))),
    )
    for _, what, product, data in presentations:
        try:
            mul = product(data)
        except AxiomFailure as exc:
            raise exc.report.disagreement(f"the derived {what} data", (
                "two-sided conditions", f"{what} conditions")) from exc
        _routes_agree("structure constants", ("two-sided product", f"{what} presentation"),
                      main.mul, mul)
    return Report(tuple(ConditionResult(name, True) for name, *_ in presentations))


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
    data = _split(m, a, v, c)
    rep = check_twosided(data)
    if not rep.all_pass:
        raise rep.disagreement("the extracted maps", ("splitting", "two-sided conditions"))
    # the units agree: _split checked
    _routes_agree("the split algebra", ("input", "rebuilt product"), m.mul, _raw_product(data))
    return data


def _split(m: FinAlgebra, a: FinAlgebra, v: PointedSpace, c: FinAlgebra) -> TwoSidedData:
    """:func:`extract` up to ajut4: the maps read off M, not yet checked."""
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
        witness = _column_witness((xy, compose(legs(y, x), r),
                                   "component outside the allowed span"))
        if witness is not None:
            raise SplitFail(witness, f"ajut{t}")
        maps[name] = r
    witness = _column_witness((compose(m.mul, tensor(product(legs(0), legs(1)), legs(2))),
                               identity(f, avc), "a⊗v⊗c = a·v·c"))
    if witness is not None:
        raise SplitFail(witness, "ajut4")
    return TwoSidedData(a, v, c, E=product(legs(1), legs(1)), **maps)


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
            raise PremiseFail(next(e.witness for e in rep.entries if not e.passed), name)
    got = f_v.apply(v.unit)
    if got != x.unit:
        raise PremiseFail(Witness((), got, x.unit, "f_V(1_V)=1_X"), "unit-fV")

    idx = identity(fld, shape(x.dim))
    mul2x = compose(x.mul, tensor(idx, x.mul))
    triple = compose(mul2x, tensor(f_a, f_v, f_c))  # [A,V,C] -> X

    braid, _, _ = _braid(d.R1, d.R2, d.R3)
    premises = (
        ("premise-1", compose(mul2x, tensor(f_c, f_v, f_a)), compose(triple, braid),
         "f_C f_V f_A = (f_A f_V f_C)∘braid"),
        ("premise-2", compose(triple, d.E), compose(x.mul, tensor(f_v, f_v)),
         "(f_A f_V f_C)∘E = f_V f_V"),
    )
    for name, *side in premises:
        witness = _column_witness(side)
        if witness is not None:
            raise PremiseFail(witness, name)

    built = build_twosided(d)
    result = triple.reshaped(domain=shape(built.dim), codomain=shape(x.dim))
    rep = is_algebra_map(result, built, x)
    if not rep.all_pass:
        raise rep.disagreement("the induced map", ("premises", "algebra-map check"))
    for leg, (name, mp) in enumerate((("fA", f_a), ("fV", f_v), ("fC", f_c))):
        _routes_agree(f"induced map on {'AVC'[leg]}", ("restriction", name),
                      compose(result, _unit_legs(fld, (a.unit, v.unit, c.unit), (leg,))), mp)
    return result
