"""Twisting maps, twisted tensor products, and crossed products.

Condition labels follow the naming used throughout the package reports:
``twisting-unit-left``/``twisting-unit-right``/``twisting-mult-A``/``twisting-mult-B`` for twisting
maps, ``brz1``..``brz5`` for crossed products on A (x) V, and ``mirtwunit``,
``mircocunit``, ``mirtwmap``, ``mir1``, ``mir2`` for the mirror version on
W (x) B.

Every axiom is a list of sides ``(lhs, rhs, identity text)``, maps on one
domain; :func:`~xprod.algebra._column_witness` reports the smallest basis
tuple where they differ, and there the first failing side.  The identities
that recur here and in the composite route of :mod:`xprod.twosided` are
written once each, as sides: the unit laws of a twist (:func:`_twist_unit`;
both legs, one after the other, :func:`_twist_units`) and of a connector
(:func:`_connector_unit`), multiplicativity of a twist (:func:`_mult_left`,
:func:`_mult_right`) and the braid relation (:func:`_braid`).
"""

from __future__ import annotations

from .algebra import (
    FinAlgebra,
    PointedSpace,
    _column_witness,
    _require_maps,
    _routes_agree,
    _ttp_product,
    _unit_legs,
    product_algebra,
)
from .exactla import (
    TensorMap,
    compose,
    identity,
    permute_factors,
    shape,
    tensor,
    vector_map,
)
from .record import record
from .report import ConditionResult, Report, Witness


def _columns_equal(name: str, *sides) -> ConditionResult:
    """A report entry comparing (lhs, rhs, text) sides column by column; the
    witness is the smallest basis tuple, and there the first failing side."""
    witness = _column_witness(*sides)
    return ConditionResult(name, witness is None, witness)


def _connector_unit(m: TensorMap, units, leg: int, want: TensorMap, text: str = ""):
    """The side m(x⊗1_Y) = want(x) (leg 0) or m(1_X⊗y) = want(y) (leg 1) of a
    unit law of m on X (x) Y, units (1_X, 1_Y), over the basis of that leg."""
    return compose(m, _unit_legs(m.field, units, (leg,))), want, text


def _twist_unit(m: TensorMap, units, leg: int, text: str):
    """The side m(x⊗1_Y) = 1_Y⊗x (leg 0) or m(1_X⊗y) = y⊗1_X (leg 1) of a unit
    law of a twist m: X (x) Y -> Y (x) X, units (1_X, 1_Y)."""
    return _connector_unit(m, units, leg, _unit_legs(m.field, units[::-1], (1 - leg,)), text)


def _twist_units(m: TensorMap, units, legs, texts=("", "")) -> Witness | None:
    """Both unit laws of a twist m, one leg after the other in the order of
    ``legs``, labelled by ``texts``: the first failing law's witness, or None."""
    for leg, text in zip(legs, texts):
        witness = _column_witness(_twist_unit(m, units, leg, text))
        if witness is not None:
            return witness
    return None


def _mult_left(r: TensorMap, alg: FinAlgebra, text: str = ""):
    """The side R∘(id⊗μ) = (μ⊗id)∘(id⊗R)∘(R⊗id) for a twist
    R: X (x) A -> A (x) X, μ the multiplication of A."""
    f = r.field
    ida, idx = identity(f, shape(alg.dim)), identity(f, shape(r.domain.dims[0]))
    return (compose(r, tensor(idx, alg.mul)),
            compose(tensor(alg.mul, idx), tensor(ida, r), tensor(r, ida)), text)


def _mult_right(r: TensorMap, alg: FinAlgebra, text: str = ""):
    """The side R∘(μ⊗id) = (id⊗μ)∘(R⊗id)∘(id⊗R) for a twist
    R: C (x) X -> X (x) C, μ the multiplication of C."""
    f = r.field
    idc, idx = identity(f, shape(alg.dim)), identity(f, shape(r.domain.dims[1]))
    return (compose(r, tensor(alg.mul, idx)),
            compose(tensor(idx, alg.mul), tensor(r, idc), tensor(idc, r)), text)


def _braid(r1: TensorMap, r2: TensorMap, r3: TensorMap, text: str = ""):
    """The side (id⊗R2)∘(R3⊗id)∘(id⊗R1) = (R1⊗id)∘(id⊗R3)∘(R2⊗id) on
    C (x) V (x) A, for R1: V (x) A -> A (x) V, R2: C (x) V -> V (x) C and
    R3: C (x) A -> A (x) C."""
    f = r1.field
    nv, na = r1.domain.dims
    ida, idv = identity(f, shape(na)), identity(f, shape(nv))
    idc = identity(f, shape(r2.domain.dims[0]))
    return (compose(tensor(ida, r2), tensor(r3, idv), tensor(idc, r1)),
            compose(tensor(r1, idc), tensor(idv, r3), tensor(r2, ida)), text)


def _twisting_shapes(name: str, r: TensorMap, a: FinAlgebra, b: FinAlgebra):
    """Refuse unless the twist ``name`` maps B (x) A to A (x) B over one field."""
    _require_maps("twisting map check", (a, b), ((name, r, (b.dim, a.dim), (a.dim, b.dim)),))


def check_twisting(r: TensorMap, a: FinAlgebra, b: FinAlgebra) -> Report:
    """Verify that R: B (x) A -> A (x) B is a twisting map between A and B.

    Conditions: ``twisting-unit-left`` R(1_B (x) a) = a (x) 1_B, ``twisting-unit-right``
    R(b (x) 1_A) = 1_A (x) b, ``twisting-mult-A`` multiplicativity in A, and
    ``twisting-mult-B`` multiplicativity in B.
    """
    _twisting_shapes("R", r, a, b)
    units = (b.unit, a.unit)
    return Report((
        _columns_equal("twisting-unit-left", _twist_unit(r, units, 1, "R(1_B⊗a)=a⊗1_B")),
        _columns_equal("twisting-unit-right", _twist_unit(r, units, 0, "R(b⊗1_A)=1_A⊗b")),
        _columns_equal("twisting-mult-A", _mult_left(r, a, "R(b⊗aa')=a_R a'_r⊗(b_R)_r")),
        _columns_equal("twisting-mult-B", _mult_right(r, b, "R(bb'⊗a)=(a_R)_r⊗b_r b'_R")),
    ))


def build_ttp(a: FinAlgebra, b: FinAlgebra, r: TensorMap) -> FinAlgebra:
    """Twisted tensor product algebra on A (x) B, (a⊗b)(a'⊗b') = a a'_R ⊗ b_R b'."""
    check_twisting(r, a, b).require("twisting map conditions fail")
    return _ttp_product(a, b, r)


@record
class BrzData:
    """Input data for a crossed product on A (x) V.

    Shapes: R maps [V, A] to [A, V] and sigma maps [V, V] to [A, V]; fields
    and shapes are validated eagerly, at construction.
    """

    A: FinAlgebra
    V: PointedSpace
    R: TensorMap
    sigma: TensorMap

    def __post_init__(self):
        na, nv = self.A.dim, self.V.dim
        _require_maps("crossed product data", (self.A, self.V), (
            ("R", self.R, (nv, na), (na, nv)), ("sigma", self.sigma, (nv, nv), (na, nv))))


def check_brzezinski(d: BrzData) -> Report:
    """Verify brz1..brz5 for the data (A, V, R, sigma)."""
    a, v, r, sg = d.A, d.V, d.R, d.sigma
    f = a.field
    ida = identity(f, shape(a.dim))
    idv = identity(f, shape(v.dim))

    brz4_lhs = compose(tensor(a.mul, idv), tensor(ida, sg), tensor(r, idv), tensor(idv, sg))
    brz4_rhs = compose(tensor(a.mul, idv), tensor(ida, sg), tensor(sg, idv))
    brz5_lhs = compose(tensor(a.mul, idv), tensor(ida, sg), tensor(r, idv), tensor(idv, r))
    brz5_rhs = compose(tensor(a.mul, idv), tensor(ida, r), tensor(sg, ida))
    brz1 = _twist_units(r, (v.unit, a.unit), (1, 0), ("R(1_V⊗a)=a⊗1_V", "R(v⊗1_A)=1_A⊗v"))
    units, want = (v.unit, v.unit), _unit_legs(f, (a.unit, v.unit), (1,))
    return Report((
        ConditionResult("brz1", brz1 is None, brz1),
        _columns_equal("brz2", _connector_unit(sg, units, 1, want, "σ(1_V⊗v)=1_A⊗v"),
                       _connector_unit(sg, units, 0, want, "σ(v⊗1_V)=1_A⊗v")),
        _columns_equal("brz3", _mult_left(r, a, "R∘(id⊗μ)=(μ⊗id)∘(id⊗R)∘(R⊗id)")),
        _columns_equal("brz4", (brz4_lhs, brz4_rhs,
                                "(μ⊗id)∘(id⊗σ)∘(R⊗id)∘(id⊗σ)=(μ⊗id)∘(id⊗σ)∘(σ⊗id)")),
        _columns_equal("brz5", (brz5_lhs, brz5_rhs,
                                "(μ⊗id)∘(id⊗σ)∘(R⊗id)∘(id⊗R)=(μ⊗id)∘(id⊗R)∘(σ⊗id)")),
    ))


def _brz_mul(d: BrzData) -> TensorMap:
    """(a⊗v)(a'⊗v') = a a'_R σ1(v_R,v') ⊗ σ2(v_R,v'), as [A,V,A,V] -> [A,V]."""
    ida, idv = identity(d.A.field, shape(d.A.dim)), identity(d.A.field, shape(d.V.dim))
    return compose(tensor(compose(d.A.mul, tensor(ida, d.A.mul)), idv),
                   tensor(ida, ida, d.sigma), tensor(ida, d.R, idv))


def _brz_product(d: BrzData) -> TensorMap:
    """The crossed product's multiplication, not validated: brz1..brz5 must
    hold, and then (a⊗1_V)(b⊗v) = ab⊗v on basis tuples (a, b, v)."""
    check_brzezinski(d).require("crossed product conditions fail")
    a, v = d.A, d.V
    mul = _brz_mul(d)
    _routes_agree("(a⊗1_V)(b⊗v)=ab⊗v", ("crossed product", "product of A"),
                  compose(mul, _unit_legs(a.field, (a.unit, v.unit) * 2, (0, 2, 3))),
                  tensor(a.mul, identity(a.field, shape(v.dim))))
    return mul


def build_brzezinski(d: BrzData) -> FinAlgebra:
    """Crossed product on A (x) V: (a⊗v)(a'⊗v') = a a'_R σ1(v_R,v') ⊗ σ2(v_R,v')."""
    return product_algebra("crossed product conditions", _brz_product(d), d.A.unit, d.V.unit)


@record
class MirrorData:
    """Input data for the mirror crossed product on W (x) B.

    Shapes: P maps [B, W] to [W, B] and nu maps [W, W] to [W, B]; fields and
    shapes are validated eagerly, at construction.
    """

    W: PointedSpace
    B: FinAlgebra
    P: TensorMap
    nu: TensorMap

    def __post_init__(self):
        nw, nb = self.W.dim, self.B.dim
        _require_maps("mirror crossed product data", (self.W, self.B), (
            ("P", self.P, (nb, nw), (nw, nb)), ("nu", self.nu, (nw, nw), (nw, nb))))


def check_mirror(d: MirrorData) -> Report:
    """Verify mirtwunit, mircocunit, mirtwmap, mir1 and mir2 for (W, B, P, nu)."""
    w, b, p, nu = d.W, d.B, d.P, d.nu
    f = b.field
    idb = identity(f, shape(b.dim))
    idw = identity(f, shape(w.dim))

    mir1_lhs = compose(tensor(idw, b.mul), tensor(nu, idb), tensor(idw, p), tensor(nu, idw))
    mir1_rhs = compose(tensor(idw, b.mul), tensor(nu, idb), tensor(idw, nu))
    mir2_lhs = compose(tensor(idw, b.mul), tensor(nu, idb), tensor(idw, p), tensor(p, idw))
    mir2_rhs = compose(tensor(idw, b.mul), tensor(p, idb), tensor(idb, nu))
    mirtwunit = _twist_units(p, (b.unit, w.unit), (0, 1), ("P(b⊗1_W)=1_W⊗b", "P(1_B⊗w)=w⊗1_B"))
    units, want = (w.unit, w.unit), _unit_legs(f, (w.unit, b.unit), (0,))
    return Report((
        ConditionResult("mirtwunit", mirtwunit is None, mirtwunit),
        _columns_equal("mircocunit", _connector_unit(nu, units, 0, want, "ν(w⊗1_W)=w⊗1_B"),
                       _connector_unit(nu, units, 1, want, "ν(1_W⊗w)=w⊗1_B")),
        _columns_equal("mirtwmap", _mult_right(p, b, "P∘(μ⊗id)=(id⊗μ)∘(P⊗id)∘(id⊗P)")),
        _columns_equal("mir1", (mir1_lhs, mir1_rhs,
                                "(id⊗μ)∘(ν⊗id)∘(id⊗P)∘(ν⊗id)=(id⊗μ)∘(ν⊗id)∘(id⊗ν)")),
        _columns_equal("mir2", (mir2_lhs, mir2_rhs,
                                "(id⊗μ)∘(ν⊗id)∘(id⊗P)∘(P⊗id)=(id⊗μ)∘(P⊗id)∘(id⊗ν)")),
    ))


def _mirror_mul(d: MirrorData) -> TensorMap:
    """(w⊗b)(w'⊗b') = ν1(w,w'_P) ⊗ ν2(w,w'_P) b_P b', as [W,B,W,B] -> [W,B]."""
    idb, idw = identity(d.B.field, shape(d.B.dim)), identity(d.B.field, shape(d.W.dim))
    return compose(tensor(idw, compose(d.B.mul, tensor(idb, d.B.mul))),
                   tensor(d.nu, idb, idb), tensor(idw, d.P, idb))


def _mirror_product(d: MirrorData) -> tuple[TensorMap, Report]:
    """The mirror product's multiplication, not validated, and the report of
    its five conditions: they must hold, and then (w⊗b)(1_W⊗b') = w⊗bb' on
    basis tuples (b, b', w), in that order."""
    rep = check_mirror(d).require("mirror crossed product conditions fail")
    w, b, f = d.W, d.B, d.B.field
    mul = _mirror_mul(d)
    order = permute_factors(f, (b.dim, b.dim, w.dim), (2, 0, 1))
    _routes_agree("(w⊗b)(1_W⊗b')=w⊗bb' on (b, b', w)", ("mirror product", "product of B"),
                  compose(mul, _unit_legs(f, (w.unit, b.unit) * 2, (0, 1, 3)), order),
                  compose(tensor(identity(f, shape(w.dim)), b.mul), order))
    return mul, rep


def build_mirror(d: MirrorData) -> FinAlgebra:
    """Mirror crossed product on W (x) B: (w⊗b)(w'⊗b') = ν1(w,w'_P) ⊗ ν2(w,w'_P) b_P b'."""
    return product_algebra("mirror conditions", _mirror_product(d)[0], d.W.unit, d.B.unit)


def lift_twisting_to_brzezinski(a: FinAlgebra, b: FinAlgebra, r: TensorMap) -> BrzData:
    """View a twisting map as crossed product data via σ(b⊗b') = 1_A ⊗ bb'."""
    sigma = tensor(vector_map(a.field, a.unit), b.mul).reshaped(domain=shape(b.dim, b.dim))
    return BrzData(a, b.as_pointed(), r, sigma)


def lift_twisting_to_mirror(a: FinAlgebra, b: FinAlgebra, r: TensorMap) -> MirrorData:
    """View a twisting map as mirror data via ν(a⊗a') = aa' ⊗ 1_B."""
    nu = tensor(a.mul, vector_map(a.field, b.unit)).reshaped(domain=shape(a.dim, a.dim))
    return MirrorData(a.as_pointed(), b, r, nu)
