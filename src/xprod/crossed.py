"""Twisting maps, twisted tensor products, and crossed products.

Condition labels follow the naming used throughout the package reports:
``twisting-unit-left``/``twisting-unit-right``/``twisting-mult-A``/``twisting-mult-B`` for twisting
maps, ``brz1``..``brz5`` for crossed products on A (x) V, and ``mirtwunit``,
``mircocunit``, ``mirtwmap``, ``mir1``, ``mir2`` for the mirror version on
W (x) B.  Every check runs over all basis tuples and reports the
lexicographically smallest witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import FinAlgebra, PointedSpace, new_algebra
from .errors import AxiomFailure, FieldMismatch, InternalCheckError, ShapeMismatch
from .exactla import (
    TensorMap,
    basis_vector,
    compose,
    from_columns,
    identity,
    shape,
    tensor,
    tensor_vec,
)
from .report import ConditionResult, Report, Witness


def _columns_equal(name: str, lhs: TensorMap, rhs: TensorMap,
                   identity_text: str = "") -> ConditionResult:
    """Compare two maps column by column; witness is the smallest basis tuple."""
    if lhs.domain.total != rhs.domain.total or lhs.codomain.total != rhs.codomain.total:
        raise ShapeMismatch(f"{name}: sides have different shapes")
    for j in range(lhs.domain.total):
        if lhs.cols[j] != rhs.cols[j]:
            return ConditionResult(name, False, Witness(
                lhs.domain.multi(j), lhs.column(j), rhs.column(j), identity_text))
    return ConditionResult(name, True)


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


def check_twisting(r: TensorMap, a: FinAlgebra, b: FinAlgebra) -> Report:
    """Verify that R: B (x) A -> A (x) B is a twisting map between A and B.

    Conditions: ``twisting-unit-left`` R(1_B (x) a) = a (x) 1_B, ``twisting-unit-right``
    R(b (x) 1_A) = 1_A (x) b, ``twisting-mult-A`` multiplicativity in A, and
    ``twisting-mult-B`` multiplicativity in B.
    """
    if a.field != b.field or r.field != a.field:
        raise FieldMismatch("twisting map check across different fields")
    if r.domain.dims != (b.dim, a.dim) or r.codomain.dims != (a.dim, b.dim):
        raise ShapeMismatch(
            f"twisting map must map [{b.dim},{a.dim}] to [{a.dim},{b.dim}]")
    f = a.field
    ida = identity(f, shape(a.dim))
    idb = identity(f, shape(b.dim))

    def unit_left():
        for i in range(a.dim):
            e = basis_vector(f, a.dim, i)
            yield ((i,), r.apply(tensor_vec(f, b.unit, e)),
                   tensor_vec(f, e, b.unit), "R(1_B⊗a)=a⊗1_B")

    def unit_right():
        for j in range(b.dim):
            e = basis_vector(f, b.dim, j)
            yield ((j,), r.apply(tensor_vec(f, e, a.unit)),
                   tensor_vec(f, a.unit, e), "R(b⊗1_A)=1_A⊗b")

    mult_a_lhs = compose(r, tensor(idb, a.mul))
    mult_a_rhs = compose(tensor(a.mul, idb), tensor(ida, r), tensor(r, ida))
    mult_b_lhs = compose(r, tensor(b.mul, ida))
    mult_b_rhs = compose(tensor(ida, b.mul), tensor(r, idb), tensor(idb, r))
    return Report((
        _unit_family("twisting-unit-left", unit_left()),
        _unit_family("twisting-unit-right", unit_right()),
        _columns_equal("twisting-mult-A", mult_a_lhs, mult_a_rhs, "R(b⊗aa')=a_R a'_r⊗(b_R)_r"),
        _columns_equal("twisting-mult-B", mult_b_lhs, mult_b_rhs, "R(bb'⊗a)=(a_R)_r⊗b_r b'_R"),
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


@dataclass(frozen=True)
class BrzData:
    """Input data for a crossed product on A (x) V.

    Shapes: R maps [V, A] to [A, V] and sigma maps [V, V] to [A, V]; they are
    validated by :func:`check_brzezinski`, not at construction.
    """

    A: FinAlgebra
    V: PointedSpace
    R: TensorMap
    sigma: TensorMap


def _brz_shapes(d: BrzData):
    na, nv = d.A.dim, d.V.dim
    if d.A.field != d.V.field or d.R.field != d.A.field or d.sigma.field != d.A.field:
        raise FieldMismatch("crossed product data across different fields")
    if d.R.domain.dims != (nv, na) or d.R.codomain.dims != (na, nv):
        raise ShapeMismatch(f"R must map [{nv},{na}] to [{na},{nv}]")
    if d.sigma.domain.dims != (nv, nv) or d.sigma.codomain.dims != (na, nv):
        raise ShapeMismatch(f"sigma must map [{nv},{nv}] to [{na},{nv}]")


def check_brzezinski(d: BrzData) -> Report:
    """Verify brz1..brz5 for the data (A, V, R, sigma)."""
    _brz_shapes(d)
    a, v, r, sg = d.A, d.V, d.R, d.sigma
    f = a.field
    ida = identity(f, shape(a.dim))
    idv = identity(f, shape(v.dim))

    def brz1():
        for i in range(a.dim):
            e = basis_vector(f, a.dim, i)
            yield ((i,), r.apply(tensor_vec(f, v.unit, e)),
                   tensor_vec(f, e, v.unit), "R(1_V⊗a)=a⊗1_V")
        for j in range(v.dim):
            e = basis_vector(f, v.dim, j)
            yield ((j,), r.apply(tensor_vec(f, e, a.unit)),
                   tensor_vec(f, a.unit, e), "R(v⊗1_A)=1_A⊗v")

    def brz2():
        for j in range(v.dim):
            e = basis_vector(f, v.dim, j)
            want = tensor_vec(f, a.unit, e)
            yield ((j,), sg.apply(tensor_vec(f, v.unit, e)), want, "σ(1_V⊗v)=1_A⊗v")
            yield ((j,), sg.apply(tensor_vec(f, e, v.unit)), want, "σ(v⊗1_V)=1_A⊗v")

    brz3_lhs = compose(r, tensor(idv, a.mul))
    brz3_rhs = compose(tensor(a.mul, idv), tensor(ida, r), tensor(r, ida))
    brz4_lhs = compose(tensor(a.mul, idv), tensor(ida, sg), tensor(r, idv), tensor(idv, sg))
    brz4_rhs = compose(tensor(a.mul, idv), tensor(ida, sg), tensor(sg, idv))
    brz5_lhs = compose(tensor(a.mul, idv), tensor(ida, sg), tensor(r, idv), tensor(idv, r))
    brz5_rhs = compose(tensor(a.mul, idv), tensor(ida, r), tensor(sg, ida))
    return Report((
        _unit_family("brz1", brz1()),
        _unit_family("brz2", brz2()),
        _columns_equal("brz3", brz3_lhs, brz3_rhs, "R∘(id⊗μ)=(μ⊗id)∘(id⊗R)∘(R⊗id)"),
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
    for i, k in itertools.product(range(a.dim), repeat=2):
        ea = basis_vector(f, a.dim, i)
        eb = basis_vector(f, a.dim, k)
        for j in range(v.dim):
            ev = basis_vector(f, v.dim, j)
            got = out.mul_vec(tensor_vec(f, ea, v.unit), tensor_vec(f, eb, ev))
            want = tensor_vec(f, a.mul_vec(ea, eb), ev)
            if got != want:
                raise InternalCheckError(
                    f"(a⊗1_V)(b⊗v)=ab⊗v fails at basis {(i, k, j)}")
    return out


@dataclass(frozen=True)
class MirrorData:
    """Input data for the mirror crossed product on W (x) B.

    Shapes: P maps [B, W] to [W, B] and nu maps [W, W] to [W, B].
    """

    W: PointedSpace
    B: FinAlgebra
    P: TensorMap
    nu: TensorMap


def _mirror_shapes(d: MirrorData):
    nw, nb = d.W.dim, d.B.dim
    if d.W.field != d.B.field or d.P.field != d.B.field or d.nu.field != d.B.field:
        raise FieldMismatch("mirror crossed product data across different fields")
    if d.P.domain.dims != (nb, nw) or d.P.codomain.dims != (nw, nb):
        raise ShapeMismatch(f"P must map [{nb},{nw}] to [{nw},{nb}]")
    if d.nu.domain.dims != (nw, nw) or d.nu.codomain.dims != (nw, nb):
        raise ShapeMismatch(f"nu must map [{nw},{nw}] to [{nw},{nb}]")


def check_mirror(d: MirrorData) -> Report:
    """Verify mirtwunit, mircocunit, mirtwmap, mir1 and mir2 for (W, B, P, nu)."""
    _mirror_shapes(d)
    w, b, p, nu = d.W, d.B, d.P, d.nu
    f = b.field
    idb = identity(f, shape(b.dim))
    idw = identity(f, shape(w.dim))

    def mirtwunit():
        for i in range(b.dim):
            e = basis_vector(f, b.dim, i)
            yield ((i,), p.apply(tensor_vec(f, e, w.unit)),
                   tensor_vec(f, w.unit, e), "P(b⊗1_W)=1_W⊗b")
        for j in range(w.dim):
            e = basis_vector(f, w.dim, j)
            yield ((j,), p.apply(tensor_vec(f, b.unit, e)),
                   tensor_vec(f, e, b.unit), "P(1_B⊗w)=w⊗1_B")

    def mircocunit():
        for j in range(w.dim):
            e = basis_vector(f, w.dim, j)
            want = tensor_vec(f, e, b.unit)
            yield ((j,), nu.apply(tensor_vec(f, e, w.unit)), want, "ν(w⊗1_W)=w⊗1_B")
            yield ((j,), nu.apply(tensor_vec(f, w.unit, e)), want, "ν(1_W⊗w)=w⊗1_B")

    mirtw_lhs = compose(p, tensor(b.mul, idw))
    mirtw_rhs = compose(tensor(idw, b.mul), tensor(p, idb), tensor(idb, p))
    mir1_lhs = compose(tensor(idw, b.mul), tensor(nu, idb), tensor(idw, p), tensor(nu, idw))
    mir1_rhs = compose(tensor(idw, b.mul), tensor(nu, idb), tensor(idw, nu))
    mir2_lhs = compose(tensor(idw, b.mul), tensor(nu, idb), tensor(idw, p), tensor(p, idw))
    mir2_rhs = compose(tensor(idw, b.mul), tensor(p, idb), tensor(idb, nu))
    return Report((
        _unit_family("mirtwunit", mirtwunit()),
        _unit_family("mircocunit", mircocunit()),
        _columns_equal("mirtwmap", mirtw_lhs, mirtw_rhs,
                       "P∘(μ⊗id)=(id⊗μ)∘(P⊗id)∘(id⊗P)"),
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
    for i, k in itertools.product(range(b.dim), repeat=2):
        eb = basis_vector(f, b.dim, i)
        ec = basis_vector(f, b.dim, k)
        for j in range(w.dim):
            ew = basis_vector(f, w.dim, j)
            got = out.mul_vec(tensor_vec(f, ew, eb), tensor_vec(f, w.unit, ec))
            want = tensor_vec(f, ew, b.mul_vec(eb, ec))
            if got != want:
                raise InternalCheckError(
                    f"(w⊗b)(1_W⊗b')=w⊗bb' fails at basis {(j, i, k)}")
    return out


def lift_twisting_to_brzezinski(a: FinAlgebra, b: FinAlgebra, r: TensorMap) -> BrzData:
    """View a twisting map as crossed product data via σ(b⊗b') = 1_A ⊗ bb'."""
    f = a.field
    cols = []
    for j in range(b.dim):
        for jp in range(b.dim):
            cols.append(tensor_vec(f, a.unit, b.basis_product(j, jp)))
    sigma = from_columns(f, shape(b.dim, b.dim), shape(a.dim, b.dim), cols)
    return BrzData(a, b.as_pointed(), r, sigma)


def lift_twisting_to_mirror(a: FinAlgebra, b: FinAlgebra, r: TensorMap) -> MirrorData:
    """View a twisting map as mirror data via ν(a⊗a') = aa' ⊗ 1_B."""
    f = a.field
    cols = []
    for i in range(a.dim):
        for ip in range(a.dim):
            cols.append(tensor_vec(f, a.basis_product(i, ip), b.unit))
    nu = from_columns(f, shape(a.dim, a.dim), shape(a.dim, b.dim), cols)
    return MirrorData(a.as_pointed(), b, r, nu)
