"""Twisting maps, twisted tensor products, and crossed products.

Condition labels follow the naming used throughout the package reports:
``twisting-unit-left``/``twisting-unit-right``/``twisting-mult-A``/``twisting-mult-B`` for twisting
maps, ``brz1``..``brz5`` for crossed products on A (x) V, and ``mirtwunit``,
``mircocunit``, ``mirtwmap``, ``mir1``, ``mir2`` for the mirror version on
W (x) B.  Every check runs over all basis tuples and reports the
lexicographically smallest witness.

Identities that recur in the checkers here and in :mod:`xprod.twosided` are
private helpers, each written once: the unit laws of a twist (:func:`_twist_unit`,
:func:`_twist_units`; as composites :func:`_twist_units_hold`), the unit law of a
connector (:func:`_connector_unit`), multiplicativity of a twist as composites
(:func:`_mult_left`, :func:`_mult_right`), the braid relation (:func:`_braid`)
and legs embedded with the units in the others (:func:`_unit_legs`).  The first
differing column of two maps, :func:`~xprod.algebra._column_witness`, lives in
:mod:`xprod.algebra`.
"""

from __future__ import annotations

import itertools

from .algebra import FinAlgebra, PointedSpace, _column_witness, _require_maps, new_algebra
from .errors import AxiomFailure, InternalCheckError, ShapeMismatch
from .exactla import (
    TensorMap,
    basis_vector,
    compose,
    identity,
    permute_factors,
    shape,
    tensor,
    tensor_vec,
    vector_map,
)
from .record import record
from .report import ConditionResult, Report, Witness


def _columns_equal(name: str, lhs: TensorMap, rhs: TensorMap,
                   identity_text: str = "") -> ConditionResult:
    """Compare two maps column by column; witness is the smallest basis tuple."""
    if lhs.domain.total != rhs.domain.total or lhs.codomain.total != rhs.codomain.total:
        raise ShapeMismatch(f"{name}: sides have different shapes")
    witness = _column_witness(lhs, rhs, identity_text)
    return ConditionResult(name, witness is None, witness)


def _first_mismatch(checks) -> Witness | None:
    """The first failing identity; checks yield (indices, left, right, text)."""
    for indices, left, right, text in checks:
        if left != right:
            return Witness(indices, left, right, text)
    return None


def _unit_family(name: str, checks) -> ConditionResult:
    """Bundle several unit identities into one condition."""
    witness = _first_mismatch(checks)
    return ConditionResult(name, witness is None, witness)


def _twist_unit(m: TensorMap, x, y, text: str, leg: int):
    """One unit law of a twist m: X (x) Y -> Y (x) X, as checks over the basis
    of one leg: m(x⊗1_Y) = 1_Y⊗x for leg 0, m(1_X⊗y) = y⊗1_X for leg 1."""
    f = m.field
    n, unit = (x.dim, y.unit) if leg == 0 else (y.dim, x.unit)
    for k in range(n):
        e = basis_vector(f, n, k)
        pair = (e, unit) if leg == 0 else (unit, e)
        yield (k,), m.apply(tensor_vec(f, *pair)), tensor_vec(f, *pair[::-1]), text


def _twist_units(m: TensorMap, x, y, x_text: str, y_text: str, x_first: bool = True):
    """Both unit laws of a twist m: X (x) Y -> Y (x) X, leg X first if ``x_first``."""
    sides = (_twist_unit(m, x, y, x_text, 0), _twist_unit(m, x, y, y_text, 1))
    return itertools.chain(*(sides if x_first else sides[::-1]))


def _twist_units_hold(m: TensorMap, x_unit, y_unit) -> bool:
    """Both unit laws of a twist m: X (x) Y -> Y (x) X as composite identities,
    m∘(id⊗1_Y) = 1_Y⊗id and m∘(1_X⊗id) = id⊗1_X."""
    f = m.field
    ux, uy = vector_map(f, x_unit), vector_map(f, y_unit)
    idx, idy = identity(f, shape(len(x_unit))), identity(f, shape(len(y_unit)))
    return (compose(m, tensor(idx, uy)).cols == tensor(uy, idx).cols
            and compose(m, tensor(ux, idy)).cols == tensor(idy, ux).cols)


def _connector_unit(m: TensorMap, x, want, texts, unit_first: bool = True):
    """The unit law m(1_X⊗x) = want(x) = m(x⊗1_X) of a connector on X (x) X: two
    checks per basis vector of X, m(1_X⊗x) first if ``unit_first``, labelled
    by ``texts`` in check order; want(x) is built once per basis vector."""
    f = m.field
    for j in range(x.dim):
        e = basis_vector(f, x.dim, j)
        expected = want(e)
        pairs = ((x.unit, e), (e, x.unit)) if unit_first else ((e, x.unit), (x.unit, e))
        for pair, text in zip(pairs, texts):
            yield (j,), m.apply(tensor_vec(f, *pair)), expected, text


def _mult_left(r: TensorMap, alg: FinAlgebra):
    """The two sides of R∘(id⊗μ) = (μ⊗id)∘(id⊗R)∘(R⊗id) for a twist
    R: X (x) A -> A (x) X, μ the multiplication of A."""
    f = r.field
    ida, idx = identity(f, shape(alg.dim)), identity(f, shape(r.domain.dims[0]))
    return (compose(r, tensor(idx, alg.mul)),
            compose(tensor(alg.mul, idx), tensor(ida, r), tensor(r, ida)))


def _mult_right(r: TensorMap, alg: FinAlgebra):
    """The two sides of R∘(μ⊗id) = (id⊗μ)∘(R⊗id)∘(id⊗R) for a twist
    R: C (x) X -> X (x) C, μ the multiplication of C."""
    f = r.field
    idc, idx = identity(f, shape(alg.dim)), identity(f, shape(r.domain.dims[1]))
    return (compose(r, tensor(alg.mul, idx)),
            compose(tensor(idx, alg.mul), tensor(r, idc), tensor(idc, r)))


def _braid(r1: TensorMap, r2: TensorMap, r3: TensorMap):
    """The two sides of (id⊗R2)∘(R3⊗id)∘(id⊗R1) = (R1⊗id)∘(id⊗R3)∘(R2⊗id) on
    C (x) V (x) A, for R1: V (x) A -> A (x) V, R2: C (x) V -> V (x) C and
    R3: C (x) A -> A (x) C."""
    f = r1.field
    nv, na = r1.domain.dims
    ida, idv = identity(f, shape(na)), identity(f, shape(nv))
    idc = identity(f, shape(r2.domain.dims[0]))
    return (compose(tensor(ida, r2), tensor(r3, idv), tensor(idc, r1)),
            compose(tensor(r1, idc), tensor(idv, r3), tensor(r2, ida)))


def _unit_legs(field, units, keep) -> TensorMap:
    """The embedding of the legs ``keep`` (increasing) into the tensor product
    of legs with the given units: identity on the kept legs, the unit inserted
    in every other, as in x ↦ 1⊗x⊗1."""
    m = tensor(*(identity(field, shape(len(u))) if t in keep else vector_map(field, u)
                 for t, u in enumerate(units)))
    return m.reshaped(domain=shape(*(len(units[t]) for t in keep)))


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
    return Report((
        _unit_family("twisting-unit-left", _twist_unit(r, b, a, "R(1_B⊗a)=a⊗1_B", 1)),
        _unit_family("twisting-unit-right", _twist_unit(r, b, a, "R(b⊗1_A)=1_A⊗b", 0)),
        _columns_equal("twisting-mult-A", *_mult_left(r, a), "R(b⊗aa')=a_R a'_r⊗(b_R)_r"),
        _columns_equal("twisting-mult-B", *_mult_right(r, b), "R(bb'⊗a)=(a_R)_r⊗b_r b'_R"),
    ))


def build_ttp(a: FinAlgebra, b: FinAlgebra, r: TensorMap) -> FinAlgebra:
    """Twisted tensor product algebra on A (x) B, (a⊗b)(a'⊗b') = a a'_R ⊗ b_R b'."""
    rep = check_twisting(r, a, b)
    if not rep.all_pass:
        raise AxiomFailure(rep, "twisting map conditions fail")
    f = a.field
    ida = identity(f, shape(a.dim))
    idb = identity(f, shape(b.dim))
    mul = compose(tensor(a.mul, b.mul), tensor(ida, r, idb))
    n = a.dim * b.dim
    mul = mul.reshaped(domain=shape(n, n), codomain=shape(n))
    return new_algebra(f, n, mul, tensor_vec(f, a.unit, b.unit))


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
    return Report((
        _unit_family("brz1", _twist_units(r, v, a, "R(v⊗1_A)=1_A⊗v", "R(1_V⊗a)=a⊗1_V",
                                          x_first=False)),
        _unit_family("brz2", _connector_unit(sg, v, lambda e: tensor_vec(f, a.unit, e),
                                             ("σ(1_V⊗v)=1_A⊗v", "σ(v⊗1_V)=1_A⊗v"))),
        _columns_equal("brz3", *_mult_left(r, a), "R∘(id⊗μ)=(μ⊗id)∘(id⊗R)∘(R⊗id)"),
        _columns_equal("brz4", brz4_lhs, brz4_rhs,
                       "(μ⊗id)∘(id⊗σ)∘(R⊗id)∘(id⊗σ)=(μ⊗id)∘(id⊗σ)∘(σ⊗id)"),
        _columns_equal("brz5", brz5_lhs, brz5_rhs,
                       "(μ⊗id)∘(id⊗σ)∘(R⊗id)∘(id⊗R)=(μ⊗id)∘(id⊗R)∘(σ⊗id)"),
    ))


def build_brzezinski(d: BrzData) -> FinAlgebra:
    """Crossed product on A (x) V: (a⊗v)(a'⊗v') = a a'_R σ1(v_R,v') ⊗ σ2(v_R,v')."""
    rep = check_brzezinski(d)
    if not rep.all_pass:
        raise AxiomFailure(rep, "crossed product conditions fail")
    a, v = d.A, d.V
    f = a.field
    ida = identity(f, shape(a.dim))
    idv = identity(f, shape(v.dim))
    mul2 = compose(a.mul, tensor(ida, a.mul))
    mul = compose(tensor(mul2, idv), tensor(ida, ida, d.sigma), tensor(ida, d.R, idv))
    n = a.dim * v.dim
    mul = mul.reshaped(domain=shape(n, n), codomain=shape(n))
    out = new_algebra(f, n, mul, tensor_vec(f, a.unit, v.unit))
    # (a⊗1_V)(b⊗v) = ab⊗v on basis tuples (a, b, v)
    lhs = compose(out.mul, _unit_legs(f, (a.unit, v.unit) * 2, (0, 2, 3)))
    witness = _column_witness(lhs, tensor(a.mul, idv))
    if witness is not None:
        raise InternalCheckError(f"(a⊗1_V)(b⊗v)=ab⊗v fails at basis {witness.indices}")
    return out


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
    return Report((
        _unit_family("mirtwunit", _twist_units(p, b, w, "P(b⊗1_W)=1_W⊗b", "P(1_B⊗w)=w⊗1_B")),
        _unit_family("mircocunit", _connector_unit(nu, w, lambda e: tensor_vec(f, e, b.unit),
                                                   ("ν(w⊗1_W)=w⊗1_B", "ν(1_W⊗w)=w⊗1_B"),
                                                   unit_first=False)),
        _columns_equal("mirtwmap", *_mult_right(p, b), "P∘(μ⊗id)=(id⊗μ)∘(P⊗id)∘(id⊗P)"),
        _columns_equal("mir1", mir1_lhs, mir1_rhs,
                       "(id⊗μ)∘(ν⊗id)∘(id⊗P)∘(ν⊗id)=(id⊗μ)∘(ν⊗id)∘(id⊗ν)"),
        _columns_equal("mir2", mir2_lhs, mir2_rhs,
                       "(id⊗μ)∘(ν⊗id)∘(id⊗P)∘(P⊗id)=(id⊗μ)∘(P⊗id)∘(id⊗ν)"),
    ))


def build_mirror(d: MirrorData) -> FinAlgebra:
    """Mirror crossed product on W (x) B: (w⊗b)(w'⊗b') = ν1(w,w'_P) ⊗ ν2(w,w'_P) b_P b'."""
    rep = check_mirror(d)
    if not rep.all_pass:
        raise AxiomFailure(rep, "mirror crossed product conditions fail")
    w, b = d.W, d.B
    f = b.field
    idb = identity(f, shape(b.dim))
    idw = identity(f, shape(w.dim))
    mul2 = compose(b.mul, tensor(idb, b.mul))
    mul = compose(tensor(idw, mul2), tensor(d.nu, idb, idb), tensor(idw, d.P, idb))
    n = w.dim * b.dim
    mul = mul.reshaped(domain=shape(n, n), codomain=shape(n))
    out = new_algebra(f, n, mul, tensor_vec(f, w.unit, b.unit))
    # (w⊗b)(1_W⊗b') = w⊗bb' on basis tuples (b, b', w), reported as (w, b, b')
    order = permute_factors(f, (b.dim, b.dim, w.dim), (2, 0, 1))
    lhs = compose(out.mul, _unit_legs(f, (w.unit, b.unit) * 2, (0, 1, 3)), order)
    witness = _column_witness(lhs, compose(tensor(idw, b.mul), order))
    if witness is not None:
        i, k, j = witness.indices
        raise InternalCheckError(f"(w⊗b)(1_W⊗b')=w⊗bb' fails at basis {(j, i, k)}")
    return out


def lift_twisting_to_brzezinski(a: FinAlgebra, b: FinAlgebra, r: TensorMap) -> BrzData:
    """View a twisting map as crossed product data via σ(b⊗b') = 1_A ⊗ bb'."""
    sigma = tensor(vector_map(a.field, a.unit), b.mul).reshaped(domain=shape(b.dim, b.dim))
    return BrzData(a, b.as_pointed(), r, sigma)


def lift_twisting_to_mirror(a: FinAlgebra, b: FinAlgebra, r: TensorMap) -> MirrorData:
    """View a twisting map as mirror data via ν(a⊗a') = aa' ⊗ 1_B."""
    nu = tensor(a.mul, vector_map(a.field, b.unit)).reshaped(domain=shape(a.dim, a.dim))
    return MirrorData(a.as_pointed(), b, r, nu)
