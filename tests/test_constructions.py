"""Iterated products, coalgebra-based builders, remark transports, search."""

import contextlib
import hashlib
import random
from itertools import islice, product

import pytest

from fixtures import (
    F2,
    Q,
    corpus,
    dual_numbers,
    group_algebra_z2,
    moved_maps,
    searched_f2_fixtures,
    truncated_polynomials3,
    upper_triangular2,
)
from xprod import (
    MaData,
    PointedSpace,
    PrimeField,
    SearchSpec,
    TwoSidedData,
    build_twosided,
    check_twosided,
    flip,
    graded_flip,
    grouplike_coalgebra,
    iterated_ttp,
    ma_build,
    ordinary_tensor,
    presentations_agree,
    same_algebra,
    scalar_algebra as scalar_alg,
    search_fp,
    transport,
)
from xprod.algebra import associativity_witness
from xprod.record import replace
from xprod.twosided import CONDITIONS, MAP_NAMES, Condition
from xprod.constructions import (
    _PINNED_LAWS,
    _candidates,
    _compile,
    _fill,
    _holds,
    _map_template,
    _width,
    ma_connector,
    product_connector,
)
from xprod.errors import (
    AxiomFailure,
    FieldMismatch,
    InternalCheckError,
    PreconditionFail,
    SearchSpaceTooLarge,
    ShapeMismatch,
)
from xprod.exactla import (
    basis_vector,
    from_columns,
    from_rows,
    invert,
    permute_factors,
    shape,
    tensor_vec,
    vscale,
)

CORPUS = dict(corpus())


def legs(field, dims, vec):
    shp = shape(*dims)
    return [(shp.multi(t), x) for t, x in enumerate(vec) if not field.is_zero(x)]


# -- iterated twisted tensor product -------------------------------------------

def test_iterated_three_flips_is_ordinary_triple():
    d = dual_numbers(Q)
    g = group_algebra_z2(Q)
    it = iterated_ttp(d, g, d, flip(Q, 2, 2), flip(Q, 2, 2), flip(Q, 2, 2))
    want = ordinary_tensor(ordinary_tensor(d, g), d)
    assert it.mul.rows == want.mul.rows and it.unit == want.unit


def test_iterated_graded_sign():
    d = dual_numbers(Q)
    gf = graded_flip(Q, 2, 2, (0, 1), (0, 1))
    it = iterated_ttp(d, d, d, gf, gf, gf)
    f = Q
    x = basis_vector(f, 2, 1)
    one = basis_vector(f, 2, 0)
    got = it.mul_vec(tensor_vec(f, one, x, one), tensor_vec(f, x, one, one))
    assert got == vscale(f, f.neg(f.one), tensor_vec(f, x, x, one))


def oracle_iterated_product(a, b, c, r1, r2, r3, xa, xb, xc, ya, yb, yc):
    """Leg-by-leg evaluation of a (a'_R3)_R1 (x) b_R1 b'_R2 (x) (c_R3)_R2 c'."""
    f = a.field
    na, nb, nc = a.dim, b.dim, c.dim
    out = {}
    for (a3, c3), w1 in legs(f, (na, nc), r3.apply(tensor_vec(f, xc, ya))):
        for (a31, b1), w2 in legs(f, (na, nb), r1.apply(
                tensor_vec(f, xb, basis_vector(f, na, a3)))):
            for (b2, c32), w3 in legs(f, (nb, nc), r2.apply(
                    tensor_vec(f, basis_vector(f, nc, c3), yb))):
                amul = a.mul_vec(xa, basis_vector(f, na, a31))
                bmul = b.mul_vec(basis_vector(f, nb, b1), basis_vector(f, nb, b2))
                cmul = c.mul_vec(basis_vector(f, nc, c32), yc)
                coef = f.mul(f.mul(w1, w2), w3)
                for (i,), va in legs(f, (na,), amul):
                    for (j,), vb in legs(f, (nb,), bmul):
                        for (k,), vc in legs(f, (nc,), cmul):
                            key = (i, j, k)
                            out[key] = f.add(out.get(key, f.zero),
                                             f.mul(coef, f.mul(f.mul(va, vb), vc)))
    shp = shape(na, nb, nc)
    dense = [f.zero] * shp.total
    for key, val in out.items():
        if not f.is_zero(val):
            dense[shp.index(key)] = val
    return tuple(dense)


def test_iterated_matches_displayed_formula_oracle():
    d = dual_numbers(Q)
    g = group_algebra_z2(Q)
    gf_bd = graded_flip(Q, 2, 2, (0, 1), (0, 1))
    cases = [
        (d, g, d, flip(Q, 2, 2), flip(Q, 2, 2), flip(Q, 2, 2)),
        (d, d, d, gf_bd, gf_bd, gf_bd),
    ]
    f = Q
    for a, b, c, r1, r2, r3 in cases:
        it = iterated_ttp(a, b, c, r1, r2, r3)
        shp = shape(a.dim, b.dim, c.dim)
        for x in product(range(a.dim), range(b.dim), range(c.dim)):
            for y in product(range(a.dim), range(b.dim), range(c.dim)):
                got = it.mul_vec(basis_vector(f, it.dim, shp.index(x)),
                                 basis_vector(f, it.dim, shp.index(y)))
                want = oracle_iterated_product(
                    a, b, c, r1, r2, r3,
                    basis_vector(f, a.dim, x[0]), basis_vector(f, b.dim, x[1]),
                    basis_vector(f, c.dim, x[2]),
                    basis_vector(f, a.dim, y[0]), basis_vector(f, b.dim, y[1]),
                    basis_vector(f, c.dim, y[2]))
                assert got == want


def test_iterated_equals_twosided_with_trivial_e():
    d = dual_numbers(Q)
    gf = graded_flip(Q, 2, 2, (0, 1), (0, 1))
    it = iterated_ttp(d, d, d, gf, gf, gf)
    data = TwoSidedData(d, d.as_pointed(), d, gf, gf, gf, product_connector(d, d, d))
    assert same_algebra(it, build_twosided(data))


def twisting_map_on_duals(field, xx_column):
    """Flip on unit inputs, the given column on x (x) x."""
    fl = flip(field, 2, 2)
    cols = [fl.column(t) for t in range(4)]
    cols[3] = tuple(field.from_int(v) for v in xx_column)
    return from_columns(field, shape(2, 2), shape(2, 2), cols)


def test_iterated_braid_failure_witness():
    d = dual_numbers(Q)
    # each map passes the twisting conditions on its own, but the triple
    # fails the hexagon at (x, x, x)
    r1 = twisting_map_on_duals(Q, (-1, 0, 0, -1))
    r2 = twisting_map_on_duals(Q, (-1, 0, 0, -1))
    r3 = twisting_map_on_duals(Q, (0, 0, 0, 0))
    from xprod.crossed import check_twisting as ct
    assert all(ct(r, d, d).all_pass for r in (r1, r2, r3))
    with pytest.raises(AxiomFailure) as exc:
        iterated_ttp(d, d, d, r1, r2, r3)
    rep = exc.value.report
    entry = rep.get("braid")
    assert not entry.passed
    assert entry.witness is not None and entry.witness.indices == (1, 1, 1)
    assert entry.witness.left != entry.witness.right


# -- coalgebra-based builder -----------------------------------------------------

def grouplike_mult_g(field, a, h_dim, mult):
    """G(g_i (x) g_j) = 1_A (x) g_(mult(i,j)) on a grouplike basis."""
    cols = [tensor_vec(field, a.unit, basis_vector(field, h_dim, mult(i, j)))
            for i in range(h_dim) for j in range(h_dim)]
    return from_columns(field, shape(h_dim, h_dim), shape(a.dim, h_dim), cols)


def constant_tau(field, h_dim, b, special=None):
    """tau(g_i (x) g_j) = 1_B, except an optional single override."""
    cols = []
    for i in range(h_dim):
        for j in range(h_dim):
            if special is not None and (i, j) == special[0]:
                cols.append(special[1])
            else:
                cols.append(b.unit)
    return from_columns(field, shape(h_dim, h_dim), shape(b.dim), cols)


def test_ma_one_dim_grouplike_gives_ordinary_tensor():
    a = dual_numbers(Q)
    b = group_algebra_z2(Q)
    h = grouplike_coalgebra(Q, 1)
    data = MaData(
        h, a, b,
        grouplike_mult_g(Q, a, 1, lambda i, j: 0),
        from_columns(Q, shape(1, a.dim), shape(a.dim, 1),
                     [basis_vector(Q, a.dim, i) for i in range(a.dim)]),
        from_columns(Q, shape(b.dim, 1), shape(1, b.dim),
                     [basis_vector(Q, b.dim, k) for k in range(b.dim)]),
        constant_tau(Q, 1, b))
    built = build_twosided(ma_build(data))
    want = ordinary_tensor(a, b)
    assert built.mul.rows == want.mul.rows and built.unit == want.unit


def test_ma_two_grouplikes_over_f2():
    a = dual_numbers(F2)
    b = dual_numbers(F2)
    h = grouplike_coalgebra(F2, 2)
    data = MaData(
        h, a, b,
        grouplike_mult_g(F2, a, 2, lambda i, j: (i + j) % 2),
        flip(F2, 2, 2),
        flip(F2, 2, 2),
        constant_tau(F2, 2, b))
    two = ma_build(data)
    assert check_twosided(two).all_pass
    built = build_twosided(two)
    assert associativity_witness(built) is None


def test_ma_connector_matches_sweedler_oracle():
    a = dual_numbers(F2)
    b = dual_numbers(F2)
    h = grouplike_coalgebra(F2, 2)
    g_map = grouplike_mult_g(F2, a, 2, lambda i, j: (i + j) % 2)
    tau = constant_tau(F2, 2, b, special=(((1, 1), basis_vector(F2, 2, 1))))
    data = MaData(h, a, b, g_map, flip(F2, 2, 2), flip(F2, 2, 2), tau)
    e_map = ma_connector(data)
    f = F2
    for i, j in product(range(2), repeat=2):
        # independent evaluation through explicit comultiplication legs
        out = {}
        dh = legs(f, (2, 2), h.comul.apply(basis_vector(f, 2, i)))
        dhp = legs(f, (2, 2), h.comul.apply(basis_vector(f, 2, j)))
        for (h1, h2), c1 in dh:
            for (h1p, h2p), c2 in dhp:
                gval = g_map.apply(tensor_vec(f, basis_vector(f, 2, h1),
                                              basis_vector(f, 2, h1p)))
                tval = tau.apply(tensor_vec(f, basis_vector(f, 2, h2),
                                            basis_vector(f, 2, h2p)))
                for (ga, gh), cg in legs(f, (a.dim, 2), gval):
                    for (tb,), ct in legs(f, (b.dim,), tval):
                        key = (ga, gh, tb)
                        out[key] = f.add(out.get(key, f.zero),
                                         f.mul(f.mul(c1, c2), f.mul(cg, ct)))
        shp = shape(a.dim, 2, b.dim)
        want = [f.zero] * shp.total
        for key, val in out.items():
            want[shp.index(key)] = val
        got = e_map.apply(tensor_vec(f, basis_vector(f, 2, i), basis_vector(f, 2, j)))
        assert got == tuple(want)


def test_ma_primitive_coalgebra_gives_dual_numbers():
    # non-grouplike comultiplication: comul(x) = x (x) 1 + 1 (x) x; with scalar
    # outer algebras and the symmetrized G, the induced product on H is x*x = 0
    from fixtures import primitive_coalgebra
    f = Q
    k = scalar_alg(f)
    h = primitive_coalgebra(f)
    g_cols = [basis_vector(f, 2, 0), basis_vector(f, 2, 1),
              basis_vector(f, 2, 1), (f.zero, f.zero)]
    g_map = from_columns(f, shape(2, 2), shape(1, 2), g_cols)
    tau_cols = [(f.one,), (f.zero,), (f.zero,), (f.zero,)]
    tau = from_columns(f, shape(2, 2), shape(1), tau_cols)
    ident = from_columns(f, shape(2, 1), shape(1, 2),
                         [basis_vector(f, 2, t) for t in range(2)])
    ident2 = from_columns(f, shape(1, 2), shape(2, 1),
                          [basis_vector(f, 2, t) for t in range(2)])
    data = MaData(h, k, k, g_map, ident, ident2, tau)
    built = build_twosided(ma_build(data))
    assert built.mul.rows == dual_numbers(f).mul.rows
    assert built.unit == dual_numbers(f).unit


def test_ma_non_cocycle_tau_fails_equiv6():
    a = scalar_alg(F2)
    b = dual_numbers(F2)  # tau lands on the non-invertible element y
    h = grouplike_coalgebra(F2, 3)
    data = MaData(
        h, a, b,
        grouplike_mult_g(F2, a, 3, lambda i, j: (i + j) % 3),
        from_columns(F2, shape(3, 1), shape(1, 3),
                     [basis_vector(F2, 3, j) for j in range(3)]),
        flip(F2, b.dim, 3),
        constant_tau(F2, 3, b, special=(((1, 1), basis_vector(F2, 2, 1)))))
    with pytest.raises(AxiomFailure) as exc:
        ma_build(data)
    rep = exc.value.report
    entry = rep.get("equiv6")
    assert not entry.passed
    assert entry.witness.indices == (1, 1, 2)


# -- remark transports ------------------------------------------------------------

def graded_r2_r3_fixture():
    d = dual_numbers(Q)
    gf = graded_flip(Q, 2, 2, (0, 1), (0, 1))
    return TwoSidedData(d, d.as_pointed(), d, flip(Q, 2, 2), gf, gf,
                        product_connector(d, d, d))


def test_remark1_transport_flip_and_graded():
    for data in (CORPUS["q-dual-flip-trivial"], graded_r2_r3_fixture()):
        _, presentations, rep = transport(data)
        mir = presentations["remark1"]
        assert rep.all_pass
        # P((a (x) c) (x) v) = v_R2 (x) (a (x) c_R2) on basis vectors
        f = Q
        na, nv, nc = data.A.dim, data.V.dim, data.C.dim
        for i, k, j in product(range(na), range(nc), range(nv)):
            got = mir.P.apply(tensor_vec(
                f, basis_vector(f, na * nc, shape(na, nc).index((i, k))),
                basis_vector(f, nv, j)))
            want = {}
            r2out = data.R2.apply(tensor_vec(f, basis_vector(f, nc, k),
                                             basis_vector(f, nv, j)))
            for (v2, c2), w in legs(f, (nv, nc), r2out):
                key = (v2, i, c2)
                want[key] = f.add(want.get(key, f.zero), w)
            shp = shape(nv, na, nc)
            dense = [f.zero] * shp.total
            for key, val in want.items():
                dense[shp.index(key)] = val
            assert got == tuple(dense)


def graded_r1_r2_fixture():
    d = dual_numbers(Q)
    gf = graded_flip(Q, 2, 2, (0, 1), (0, 1))
    return TwoSidedData(d, d.as_pointed(), d, gf, gf, flip(Q, 2, 2),
                        product_connector(d, d, d))


def test_remark2_lr_flip_and_graded():
    for data in (CORPUS["q-dual-flip-trivial"], graded_r1_r2_fixture()):
        _, presentations, rep = transport(data)
        assert "remark2" in presentations
        assert rep.all_pass


def test_transport_requires_flip_r1_or_r3():
    # R1 and R3 are both graded flips here, so neither remark applies
    with pytest.raises(PreconditionFail) as exc:
        transport(CORPUS["q-dual-graded-super"])
    assert str(exc.value) == "neither R1 nor R3 is the flip map"


def test_remark2_informational_witness_for_nontrivial_r1():
    data = graded_r1_r2_fixture()
    lralg, _, rep = transport(data)
    info = rep.get("remark2:lr-differs-from-mirror")
    assert info.informational and info.passed
    w = info.witness
    assert w is not None
    # re-evaluate the witness: left is the bullet product against 1_V, right the
    # mirror-style expectation
    f = Q
    ac = ordinary_tensor(data.A, data.C)
    j, i, k, ip, kp = w.indices
    x = tensor_vec(f, basis_vector(f, 2, j), basis_vector(f, 2, i),
                   basis_vector(f, 2, k))
    y = tensor_vec(f, data.V.unit, basis_vector(f, 2, ip), basis_vector(f, 2, kp))
    assert lralg.mul_vec(x, y) == w.left
    assert w.left != w.right


def test_remark2_flip_everything_has_no_divergence_witness():
    data = CORPUS["q-dual-flip-trivial"]
    _, _, rep = transport(data)
    assert rep.get("remark2:lr-differs-from-mirror").witness is None


def oracle_lr_product(lr, ac, nv, x_idx, y_idx):
    """The general product through J, T, gamma, eta, leg by leg."""
    f = ac.field
    nac = ac.dim
    j, iac = x_idx
    jp, ipac = y_idx
    out = {}
    gout = lr.gamma.apply(tensor_vec(f, basis_vector(f, nv, j),
                                     basis_vector(f, nv, jp)))
    for (g1, g2, g3), cg in legs(f, (nv, nv, nac), gout):
        tout = lr.T.apply(tensor_vec(f, basis_vector(f, nv, g1),
                                     basis_vector(f, nac, ipac)))
        for (g1t, act), ct in legs(f, (nv, nac), tout):
            jout = lr.J.apply(tensor_vec(f, basis_vector(f, nac, iac),
                                         basis_vector(f, nv, g2)))
            for (g2j, acj), cj in legs(f, (nv, nac), jout):
                eout = lr.eta.apply(tensor_vec(f, basis_vector(f, nv, g1t),
                                               basis_vector(f, nv, g2j)))
                for (e1, e2, e3), ce in legs(f, (nv, nac, nac), eout):
                    word = ac.mul_vec(basis_vector(f, nac, e2),
                                      basis_vector(f, nac, acj))
                    word = ac.mul_vec(word, basis_vector(f, nac, g3))
                    word = ac.mul_vec(word, basis_vector(f, nac, act))
                    word = ac.mul_vec(word, basis_vector(f, nac, e3))
                    coef = f.mul(f.mul(cg, ct), f.mul(cj, ce))
                    for (m,), wv in legs(f, (nac,), word):
                        key = (e1, m)
                        out[key] = f.add(out.get(key, f.zero), f.mul(coef, wv))
    shp = shape(nv, nac)
    dense = [f.zero] * shp.total
    for key, val in out.items():
        if not f.is_zero(val):
            dense[shp.index(key)] = val
    return tuple(dense)


def test_remark2_general_jtge_chain_matches_built_product():
    data = graded_r1_r2_fixture()
    lralg, presentations, _ = transport(data)
    lr = presentations["remark2"]
    ac = ordinary_tensor(data.A, data.C)
    f = Q
    nv, nac = data.V.dim, ac.dim
    shp = shape(nv, nac)
    for j, iac in product(range(nv), range(nac)):
        for jp, ipac in product(range(nv), range(nac)):
            got = lralg.mul_vec(
                basis_vector(f, lralg.dim, shp.index((j, iac))),
                basis_vector(f, lralg.dim, shp.index((jp, ipac))))
            want = oracle_lr_product(lr, ac, nv, (j, iac), (jp, ipac))
            assert got == want


def inner_twist_fixture():
    """A = upper triangular 2x2 matrices over Q, V = span(1_V, x), C = k, with
    x a = (t a t^-1) x and x x = t^2 for t = e11 + e12 + 2 e22: R3 is the flip
    and E_A(x, x) = t^2 is not central in A."""
    f = Q
    a, k = upper_triangular2(f), scalar_alg(f)
    t, t_inv = (1, 1, 2), (1, f.parse("-1/2"), f.parse("1/2"))
    assert a.mul_vec(t, t_inv) == a.unit
    e0, x = basis_vector(f, 2, 0), basis_vector(f, 2, 1)
    basis = [basis_vector(f, 3, j) for j in range(3)]
    r1 = from_columns(f, shape(2, 3), shape(3, 2), [
        *(tensor_vec(f, b, e0) for b in basis),
        *(tensor_vec(f, a.mul_vec(a.mul_vec(t, b), t_inv), x) for b in basis)])
    one_c = k.unit
    e = from_columns(f, shape(2, 2), shape(3, 2, 1), [
        tensor_vec(f, a.unit, e0, one_c), tensor_vec(f, a.unit, x, one_c),
        tensor_vec(f, a.unit, x, one_c), tensor_vec(f, a.mul_vec(t, t), e0, one_c)])
    return TwoSidedData(a, PointedSpace(f, 2, e0), k, r1, flip(f, 1, 2), flip(f, 1, 3), e)


def test_remark2_chain_keeps_e_a_on_the_right():
    # E_A(x, x) = t^2 does not commute with e12, so a product that moved E_A
    # next to E_C, past x_J 1 x'_T, would differ from the built one
    data = inner_twist_fixture()
    a, t2 = data.A, data.E.column(3)[:3]
    e12 = basis_vector(Q, 3, 1)
    assert a.mul_vec(e12, t2) != a.mul_vec(t2, e12)
    lralg, presentations, rep = transport(data)
    assert set(presentations) == {"remark2"} and rep.all_pass
    lr, nv, nac = presentations["remark2"], data.V.dim, a.dim
    shp = shape(nv, nac)
    for j, iac in product(range(nv), range(nac)):
        for jp, ipac in product(range(nv), range(nac)):
            got = lralg.mul_vec(
                basis_vector(Q, lralg.dim, shp.index((j, iac))),
                basis_vector(Q, lralg.dim, shp.index((jp, ipac))))
            assert got == oracle_lr_product(lr, ordinary_tensor(a, scalar_alg(Q)), nv,
                                            (j, iac), (jp, ipac))


def test_transport_equalities_on_searched_fixtures():
    # searched solutions freeze all three R maps to flips, so both transports apply
    for data in searched_f2_fixtures():
        _, presentations, rep = transport(data)
        assert set(presentations) == {"remark1", "remark2"}
        assert rep.all_pass


def test_permutation_transport_preserves_associativity_both_ways():
    from xprod.algebra import FinAlgebra, conjugate_algebra
    from xprod.errors import NotAssociative
    data = CORPUS["q-dual-graded-super"]
    m = build_twosided(data)
    perm = permute_factors(Q, (2, 2, 2), (1, 0, 2)).reshaped(shape(8), shape(8))
    moved = conjugate_algebra(m, perm)  # validates associativity on the way
    back = conjugate_algebra(moved, perm)
    assert same_algebra(back, m)
    # a non-associative table stays non-associative after transport
    rows = [list(r) for r in m.mul.rows]
    rows[0][9] = Q.add(rows[0][9], Q.one)
    broken = FinAlgebra(Q, 8, from_rows(Q, shape(8, 8), shape(8),
                                        tuple(tuple(r) for r in rows)),
                        m.unit)
    assert associativity_witness(broken) is not None
    with pytest.raises(NotAssociative):
        conjugate_algebra(broken, perm)


# -- finite-field search -----------------------------------------------------------

def test_search_all_dims_one_finds_only_trivial():
    one = scalar_alg(F2)
    res = search_fp(SearchSpec(), one, one.as_pointed(), one)
    assert len(res) == 1
    d = res[0]
    assert check_twosided(d).all_pass


def test_search_frozen_flips_e_count_pinned():
    # regression value produced by the exhaustive search itself
    assert len(full_frozen_search()) == 256


def full_frozen_search():
    d = dual_numbers(F2)
    fl = flip(F2, 2, 2)
    spec = SearchSpec(frozen={"R1": fl, "R2": fl, "R3": fl})
    return search_fp(spec, d, d.as_pointed(), d)


@pytest.mark.parametrize("spec, v_field, error, message", [
    # a misspelt label used to be dropped, so R3 was searched as well (276 results)
    (SearchSpec(cap=1 << 20, frozen={
        "R1": flip(F2, 2, 2), "R2": flip(F2, 2, 2), "r3": flip(F2, 2, 2)}), F2,
     PreconditionFail, "frozen label 'r3' is not among R1, R2, R3, E"),
    # a negative budget used to draw nothing and report no solutions
    (SearchSpec(mode="randomized", budget=-1), F2,
     PreconditionFail, "search budget must be nonnegative, got -1"),
    # random.Random(-5) seeds like Random(5), so a negative seed was read as 5
    (SearchSpec(mode="randomized", seed=-5), F2,
     PreconditionFail, "search seed must be nonnegative, got -5"),
    (SearchSpec(), PrimeField(3), FieldMismatch, "search algebras over a different field"),
    (SearchSpec(mode="sideways"), F2, PreconditionFail,
     "unknown search mode 'sideways'"),
])
def test_search_refusals_name_the_culprit(spec, v_field, error, message):
    d = dual_numbers(F2)
    with pytest.raises(error) as exc:
        search_fp(spec, d, dual_numbers(v_field).as_pointed(), d)
    assert str(exc.value) == message


def test_search_r1_only_count_and_solutions_pinned():
    d = dual_numbers(F2)
    fl = flip(F2, 2, 2)
    e0 = product_connector(d, d, d)
    spec = SearchSpec(frozen={"R2": fl, "R3": fl, "E": e0})
    res = search_fp(spec, d, d.as_pointed(), d)
    assert len(res) == 3
    got = {r.R1.column(3) for r in res}
    zero = (F2.zero,) * 4
    xx = basis_vector(F2, 4, 3)
    both = tuple(F2.one if t in (0, 3) else F2.zero for t in range(4))
    assert got == {zero, xx, both}


def test_search_results_rebuild_and_agree():
    for data in searched_f2_fixtures():
        build_twosided(data)
        assert presentations_agree(data).all_pass


def test_search_randomized_deterministic_and_worker_independent():
    d = dual_numbers(F2)
    fl = flip(F2, 2, 2)
    spec = SearchSpec(mode="randomized", budget=48, seed=11,
                      frozen={"R1": fl, "R2": fl, "R3": fl})
    key = lambda res: [(x.R1.rows, x.R2.rows, x.R3.rows, x.E.rows) for x in res]
    a = search_fp(spec, d, d.as_pointed(), d)
    b = search_fp(spec, d, d.as_pointed(), d)
    c = search_fp(spec, d, d.as_pointed(), d)
    assert key(a) == key(b) == key(c)
    other = SearchSpec(mode="randomized", budget=48, seed=12,
                       frozen={"R1": fl, "R2": fl, "R3": fl})
    search_fp(other, d, d.as_pointed(), d)  # different seed still runs fine


def test_search_randomized_over_f7():
    from xprod import PrimeField
    f7 = PrimeField(7)
    d = dual_numbers(f7)
    fl = flip(f7, 2, 2)
    spec = SearchSpec(mode="randomized", budget=30, seed=5,
                      frozen={"R1": fl, "R2": fl, "R3": fl})
    res = search_fp(spec, d, d.as_pointed(), d)
    assert res  # the frozen-flip family admits solutions over every prime
    for data in res[:3]:
        build_twosided(data)
        assert presentations_agree(data).all_pass


def _search_oracle(spec, a, v, c):
    """Brute force: draw the candidates as the search does, decode each one in
    full, and keep those whose complete check_twosided report passes."""
    f = a.field
    units = [list(x).index(f.one) for x in (a.unit, v.unit, c.unit)]
    templates = {name: _map_template(f, name, a.dim, v.dim, c.dim, *units)
                 for name in MAP_NAMES if name not in spec.frozen}
    slots = sum(_width(t) for t in templates.values())
    rng = random.Random(spec.seed)
    found = set()
    for _ in range(spec.budget):
        n = rng.randrange(f.p ** slots)
        digits = [n // f.p ** (slots - 1 - t) % f.p for t in range(slots)]
        maps, pos = dict(spec.frozen), 0
        for name, template in templates.items():
            maps[name] = _fill(f, template, digits[pos:pos + _width(template)])
            pos += _width(template)
        data = TwoSidedData(a, v, c, **maps)
        if check_twosided(data).all_pass:
            found.add(tuple(getattr(data, m).cols for m in MAP_NAMES))
    return found


def test_randomized_search_matches_brute_force_oracle():
    f3 = PrimeField(3)
    cases = []
    for field, alg in ((F2, dual_numbers), (F2, group_algebra_z2), (f3, dual_numbers)):
        d = alg(field)
        fl = flip(field, 2, 2)
        e0 = product_connector(d, d, d)
        for frozen in ({}, {"R3": fl, "E": e0}, {"R1": fl, "R2": fl}):
            cases.append((SearchSpec(mode="randomized", budget=60,
                                     seed=len(cases), frozen=frozen), d))
    total = 0
    for spec, d in cases:
        got = search_fp(spec, d, d.as_pointed(), d)
        keys = [tuple(getattr(x, m).cols for m in MAP_NAMES) for x in got]
        assert len(set(keys)) == len(keys)
        assert set(keys) == _search_oracle(spec, d, d.as_pointed(), d)
        total += len(keys)
    assert total > 0  # the partly frozen spaces are dense enough to accept some


@contextlib.contextmanager
def scanned_conditions(monkeypatch):
    """The (label, mentions E, holds) of every condition scanned inside."""
    calls, witness = [], Condition.witness

    def counted(cond, *args):
        w = witness(cond, *args)
        calls.append((cond.label, "E" in cond.maps, w is None))
        return w

    with monkeypatch.context() as patch:
        patch.setattr(Condition, "witness", counted)
        yield calls


def test_exhaustive_search_skips_the_e_values_of_a_failed_r_triple(monkeypatch):
    # A = V = k[x]/(x^2), C = k over F2: the unit laws pin R2 and R3 and leave
    # 4 free digits each to R1 and E, so 16 R-triples of 16 candidates each
    d, k = dual_numbers(F2), scalar_alg(F2)
    spec = SearchSpec()
    with scanned_conditions(monkeypatch) as calls:
        got = search_fp(spec, d, d.as_pointed(), k)

    # brute force: decode every candidate in full and run check_twosided on it
    templates = {name: _map_template(F2, name, 2, 2, 1, 0, 0, 0) for name in MAP_NAMES}
    widths = [_width(t) for t in templates.values()]
    assert widths == [4, 0, 0, 4]
    found = set()
    for digits in product((0, 1), repeat=8):
        maps = {"R1": digits[:4], "R2": (), "R3": (), "E": digits[4:]}
        data = TwoSidedData(d, d.as_pointed(), k, **{
            name: _fill(F2, t, maps[name]) for name, t in templates.items()})
        if check_twosided(data).all_pass:
            found.add(tuple(getattr(data, m).cols for m in MAP_NAMES))
    assert {tuple(getattr(x, m).cols for m in MAP_NAMES) for x in got} == found

    # an R-triple's evaluation starts at equiv1, the first condition that reads
    # R1 and is evaluated (R1's template pins unit-R1); those before it read
    # only R2 and R3, which are decided once
    first = next(t for t, call in enumerate(calls) if call[0] == "equiv1")
    triples = []
    for label, with_e, holds in calls[first:]:
        if label == "equiv1":
            triples.append([])
        triples[-1].append((with_e, holds))
    assert len(triples) == 16
    rejected = [t for t in triples if not all(holds for with_e, holds in t if not with_e)]
    assert 0 < len(rejected) < 16 and found
    assert not any(with_e for t in rejected for with_e, _ in t)


F3 = PrimeField(3)


def test_frozen_flip_f3_exhaustive_count_pinned():
    # every E value of the frozen-flip space over F3 passes, as over F2; the
    # compiled E conditions decide all but the first two of the 3^8 candidates
    d = dual_numbers(F3)
    fl = flip(F3, 2, 2)
    spec = SearchSpec(frozen={"R1": fl, "R2": fl, "R3": fl})
    assert len(search_fp(spec, d, d.as_pointed(), d)) == 3 ** 8


def test_a_library_search_keeps_only_the_rows_the_command_keeps():
    # search_fp keeps each of the 6,561 frozen-flip F3 solutions as its rows,
    # as the search command does, and builds an item's two-sided data when it
    # is read: 1.1 MB held, where a list of each solution's TwoSidedData held
    # 2.9 MB
    import tracemalloc
    d = dual_numbers(F3)
    fl = flip(F3, 2, 2)
    spec = SearchSpec(frozen={"R1": fl, "R2": fl, "R3": fl})
    search_fp(spec, d, d.as_pointed(), d)  # warm-up: caches filled before the count
    tracemalloc.start()
    try:
        got = search_fp(spec, d, d.as_pointed(), d)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(got) == 3 ** 8
    assert held < 2 * 2**20, held


def test_search_solutions_read_as_a_sequence():
    got = full_frozen_search()
    items = list(got)
    assert len(items) == len(got) == 256
    assert (got[0], got[-1], got[3:7], got[::50]) == (items[0], items[-1], items[3:7], items[::50])
    assert random.Random(4).sample(got, 5) == random.Random(4).sample(items, 5)
    assert items.index(got[100]) == 100 and got[100] in got
    with pytest.raises(IndexError):
        got[256]


def test_unfrozen_f2_exhaustive_solutions_pinned():
    # the whole (2,2,2) space over the dual numbers: 4,096 R-triples, 48 of
    # them compiled, 47 with residuals that do not vanish; the count and the
    # sha of the solutions' rows are regression values taken before the
    # compile read the residuals off the chains
    d = dual_numbers(F2)
    got = search_fp(SearchSpec(cap=1 << 20), d, d.as_pointed(), d)
    rows = repr([tuple(getattr(x, m).formatted_rows for m in MAP_NAMES) for x in got])
    assert len(got) == 620
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "8fae060d684f966193a65e15dacbe58485e50912ab85c6cb3096f0ac373d5287")


def test_r2_r3_frozen_f3_exhaustive_solutions_pinned():
    # R1 and E searched over F3 (3^12 candidates, 81 R-triples, each with its
    # 6,561 E values in one run); the count and the sha of the solutions' rows
    # are regression values taken before each R-triple was decided once
    d = dual_numbers(F3)
    fl = flip(F3, 2, 2)
    spec = SearchSpec(cap=1 << 20, frozen={"R2": fl, "R3": fl})
    got = search_fp(spec, d, d.as_pointed(), d)
    rows = repr([tuple(getattr(x, m).formatted_rows for m in MAP_NAMES) for x in got])
    assert len(got) == 6921
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "f91c40dc43083b73d8903231ee44381f24ff3d07ba31f3901c73abb403a4a5f4")


@pytest.mark.parametrize("field, frozen, count", [(F2, (), 620), (F3, ("R2", "R3"), 6921)])
def test_search_solutions_equal_the_checked_constructor(field, frozen, count):
    # search_fp builds each solution from its candidate number without the
    # checks of TwoSidedData; the checked constructor, given the same maps,
    # builds equal data for every F2 solution and a sample of the F3 ones,
    # and each sampled solution passes every two-sided condition
    d = dual_numbers(field)
    fl = flip(field, 2, 2)
    spec = SearchSpec(cap=1 << 20, frozen={m: fl for m in frozen})
    got = search_fp(spec, d, d.as_pointed(), d)
    assert len(got) == count
    rng = random.Random(11)
    picked = got if field is F2 else rng.sample(got, 200)
    for data in picked:
        assert data == TwoSidedData(d, d.as_pointed(), d,
                                    *(getattr(data, m) for m in MAP_NAMES))
    for data in rng.sample(picked, 20):
        assert check_twosided(data).all_pass


def dual_number_symmetries(field):
    """G = Aut(A) x Aut(V, 1_V) x Aut(C) for A = V = C = k[x]/(x^2): x -> cx
    on A and on C, and e1 -> b e0 + c e1 on V, for c != 0.  An element is its
    three (g, g^-1) pairs, each inverse from ``exactla.invert``."""
    def pair(rows):
        rows = tuple(tuple(map(field.from_int, row)) for row in rows)
        return tuple(from_rows(field, shape(2), shape(2), m) for m in (rows, invert(field, rows)))

    scale = [pair(((1, 0), (0, c))) for c in range(1, field.p)]
    pointed = [pair(((1, b), (0, c))) for b in range(field.p) for c in range(1, field.p)]
    return list(product(scale, pointed, scale))


def closure(listed, group, moved):
    """The orbits under ``group`` of the solutions ``moved``, and the images
    in them that ``listed`` does not hold."""
    keys = {tuple(getattr(x, m).cols for m in MAP_NAMES) for x in listed}
    orbits = {frozenset(tuple(m.cols for m in moved_maps(x, g).values()) for g in group)
              for x in moved}
    return orbits, set().union(*orbits) - keys


# the F3 solutions moved: a seeded sample of each space
F3_SAMPLE = {("R2", "R3"): 200, ("R1", "R2", "R3"): 100}


@pytest.mark.parametrize("field, frozen, size, orbits",
                         [(F2, (), 2, 348), (F3, ("R2", "R3"), 24, 156),
                          (F2, ("R1", "R2", "R3"), 2, 136), (F3, ("R1", "R2", "R3"), 24, 81)])
def test_search_solutions_are_closed_under_the_symmetries_of_the_algebras(
        field, frozen, size, orbits):
    # G moves data passing the twelve conditions to data passing them, so an
    # exhaustive solution set is a union of G-orbits: every image of a listed
    # solution is listed.  Moved: all 620 unfrozen F2 solutions and all 256
    # with R1, R2 and R3 frozen to flips, and a sample of the 6,921 F3 ones
    # with R2 and R3 frozen and of the 6,561 with all three frozen: G keeps a
    # frozen flip, as it conjugates a flip to a flip.  The orbit counts are
    # regression values; orbits of data are not isomorphism classes of the
    # built algebras.
    d = dual_numbers(field)
    fl = flip(field, 2, 2)
    got = search_fp(SearchSpec(cap=1 << 20, frozen={m: fl for m in frozen}),
                    d, d.as_pointed(), d)
    group = dual_number_symmetries(field)
    assert len(group) == size
    moved = got if field is F2 else random.Random(1).sample(got, F3_SAMPLE[frozen])
    met, missed = closure(got, group, moved)
    assert not missed, f"{len(missed)} images of listed solutions are not listed"
    assert len(met) == orbits


def test_search_closure_catches_a_dropped_solution(monkeypatch):
    # The negative half: a search mutant that loses one listed solution, whose
    # orbit has other members, fails the closure test, and the one image it
    # misses is the dropped solution, which passes the twelve conditions.
    d = dual_numbers(F2)
    fl = flip(F2, 2, 2)
    got = search_fp(SearchSpec(frozen={m: fl for m in MAP_NAMES[:3]}), d, d.as_pointed(), d)
    group = dual_number_symmetries(F2)
    k = next(i for i, x in enumerate(got) if len(closure(got, group, [x])[0].pop()) > 1)
    dropped = got[k]
    monkeypatch.setitem(globals(), "search_fp", lambda *args: got[:k] + got[k + 1:])
    with pytest.raises(AssertionError, match="1 images of listed solutions are not listed"):
        test_search_solutions_are_closed_under_the_symmetries_of_the_algebras(
            F2, MAP_NAMES[:3], 2, 136)
    _, missed = closure(got[:k] + got[k + 1:], group, got[:k] + got[k + 1:])
    assert missed == {tuple(getattr(dropped, m).cols for m in MAP_NAMES)}
    assert check_twosided(dropped).all_pass


def _unit_bases(field):
    """(A, V, C) with their units at different basis positions."""
    dual, trunc, k = dual_numbers(field), truncated_polynomials3(field), scalar_alg(field)
    last = PointedSpace(field, 3, (field.zero, field.zero, field.one))
    return [(dual, dual.as_pointed(), dual), (trunc, last, dual), (k, last, trunc)]


@pytest.mark.parametrize("field", [F2, F3])
def test_map_templates_satisfy_the_unit_laws_they_pin(field):
    # the search skips these laws on unfrozen maps, so every fill must pass them
    rng = random.Random(7)
    laws = [cond for cond in CONDITIONS if cond.label in _PINNED_LAWS]
    assert [cond.maps for cond in laws] == [("R3",), ("R1",), ("R2",), ("E",)]
    for a, v, c in _unit_bases(field):
        units = [list(x).index(field.one) for x in (a.unit, v.unit, c.unit)]
        for cond in laws:
            template = _map_template(field, cond.maps[0], a.dim, v.dim, c.dim, *units)
            width = _width(template)
            fills = [[0] * width, [field.p - 1] * width,
                     *([rng.randrange(field.p) for _ in range(width)] for _ in range(20))]
            for digits in fills:
                filled = {cond.maps[0]: _fill(field, template, digits)}
                assert cond.witness(a, v, c, filled) is None


def test_e_degrees_cover_the_conditions_that_mention_e(monkeypatch):
    # the search compiles every condition that mentions E, bar the unit law its
    # template pins, into residuals of degree at most 2 in E's digits
    import xprod.constructions
    compiled, honest = [], xprod.constructions._compile

    def recorded(a, v, c, conds, maps, template):
        rows = honest(a, v, c, conds, maps, template)
        compiled.append(({cond.label for cond in conds}, rows))
        return rows

    monkeypatch.setattr(xprod.constructions, "_compile", recorded)
    d = dual_numbers(F3)
    fl = flip(F3, 2, 2)
    spec = SearchSpec(frozen={"R2": fl, "R3": fl},
                      mode="randomized", budget=300, seed=1)
    search_fp(spec, d, d.as_pointed(), d)
    e_labels = {cond.label for cond in CONDITIONS if "E" in cond.maps}
    assert e_labels - set(_PINNED_LAWS) == {"equiv4", "equiv5", "equiv6"}
    assert compiled and all(labels == e_labels - set(_PINNED_LAWS) for labels, _ in compiled)
    assert max(len(m) for _, rows in compiled for row in rows for m, _ in row) == 2


def test_compiled_e_conditions_equal_the_scans_on_every_e_value():
    rng = random.Random(3)
    degrees = {}      # (label, p) -> the (degree, distinct digits) of its monomials
    verdicts = set()  # the (label, scanned verdict) pairs met
    for field, (a, v, c) in ((F2, (dual_numbers(F2),) * 3),
                             (F2, (dual_numbers(F2), dual_numbers(F2), scalar_alg(F2))),
                             (F3, (scalar_alg(F3), dual_numbers(F3), dual_numbers(F3))),
                             (F3, (dual_numbers(F3), dual_numbers(F3), scalar_alg(F3)))):
        v = v.as_pointed()
        p = field.p
        templates = {name: _map_template(field, name, a.dim, v.dim, c.dim, 0, 0, 0)
                     for name in MAP_NAMES}
        e_conds = [cond for cond in CONDITIONS if "E" in cond.maps and cond.label != "unit-E"]
        d = _width(templates["E"])
        assert p ** d <= 256
        triples = [{name: _fill(field, templates[name],
                                [rng.randrange(p) for _ in range(_width(templates[name]))])
                    for name in ("R1", "R2", "R3")} for _ in range(3)]
        if a.dim == c.dim == 2:
            fl = flip(field, 2, 2)
            triples.append({"R1": fl, "R2": fl, "R3": fl})
        for r_maps in triples:
            # all three at once, as the search compiles them, and each alone
            joint = _compile(a, v, c, e_conds, r_maps, templates["E"])
            split = {cond.label: _compile(a, v, c, (cond,), r_maps, templates["E"])
                     for cond in e_conds}
            for x in product(range(p), repeat=d):
                maps = {**r_maps, "E": _fill(field, templates["E"], x)}
                scanned = {cond.label: cond.witness(a, v, c, maps) is None for cond in e_conds}
                assert _holds(joint, x, p) == all(scanned.values())
                for label, holds in scanned.items():
                    assert _holds(split[label], x, p) == holds
                    verdicts.add((label, holds))
            for label, rows in split.items():
                degrees.setdefault((label, p), set()).update(
                    (len(m), len(set(m))) for row in rows for m, _ in row)
    assert verdicts == {(cond.label, holds) for cond in CONDITIONS[-3:]
                        for holds in (True, False)}
    # equiv4 and equiv5 apply E once a side, so their residuals are affine in
    # E's digits; equiv6 applies it twice, and over F3 its residuals have
    # square and cross terms
    for p in (2, 3):
        assert degrees["equiv4", p] | degrees["equiv5", p] == {(0, 0), (1, 1)}
    assert {(2, 1), (2, 2)} <= degrees["equiv6", 3]


def scans_per_r1(monkeypatch, label, spec, a, v, c):
    """The search's results, and how often it scans the E condition ``label``
    per R1 value.  equiv4 comes first of them, so it counts the candidates that
    are scanned rather than compiled."""
    counts, witness = {}, Condition.witness

    def counted(cond, *args):
        if cond.label == label:
            key = args[3]["R1"].cols  # (A, V, C, maps by name)
            counts[key] = counts.get(key, 0) + 1
        return witness(cond, *args)

    with monkeypatch.context() as patch:
        patch.setattr(Condition, "witness", counted)
        got = search_fp(spec, a, v, c)
    return got, counts


def test_search_compiles_on_the_second_visit_to_the_e_conditions(monkeypatch):
    # the frozen R maps are one triple: its first two draws are scanned, and
    # the second compiles the E conditions (every E value of the frozen-flip
    # space passes)
    d = dual_numbers(F3)
    fl = flip(F3, 2, 2)
    frozen = SearchSpec(frozen={"R1": fl, "R2": fl, "R3": fl},
                        mode="randomized", budget=45, seed=1)
    for label in ("equiv4", "equiv6"):
        got, counts = scans_per_r1(monkeypatch, label, frozen, d, d.as_pointed(), d)
        assert list(counts.values()) == [2] and len(got) > 2
    for budget in (0, 1, 2, 3):
        _, counts = scans_per_r1(monkeypatch, "equiv6", replace(frozen, budget=budget),
                                 d, d.as_pointed(), d)
        assert sum(counts.values()) == min(budget, 2)

    def repeats(seed):  # the frozen-flip F3 space has 3^8 candidates
        rng = random.Random(seed)
        return rng.randrange(3 ** 8) == rng.randrange(3 ** 8)

    # a repeated draw is a visit too: it is scanned again, though it adds no solution
    twice = replace(frozen, budget=2, seed=next(filter(repeats, range(10 ** 5))))
    got, counts = scans_per_r1(monkeypatch, "equiv6", twice, d, d.as_pointed(), d)
    assert len(got) == 1 and list(counts.values()) == [2]
    # every passing triple of an exhaustive search meets all its E values
    d2 = dual_numbers(F2)
    fl2 = flip(F2, 2, 2)
    exhaustive = SearchSpec(frozen={"R2": fl2, "R3": fl2})
    got, counts = scans_per_r1(monkeypatch, "equiv4", exhaustive, d2, d2.as_pointed(), d2)
    assert len(counts) > 1 and set(counts.values()) == {2} and len(got) > 2 * len(counts)


def test_search_with_an_unfrozen_r_compiles_on_the_second_visit_and_cross_checks(
        monkeypatch):
    import xprod.constructions
    d = dual_numbers(F2)
    fl = flip(F2, 2, 2)
    spec = SearchSpec(frozen={"R2": fl, "R3": fl},
                      mode="randomized", budget=1500, seed=5)
    got, counts = scans_per_r1(monkeypatch, "equiv4", spec, d, d.as_pointed(), d)
    # R1's 4 free digits lead each candidate number, above E's 8
    template = _map_template(F2, "R1", 2, 2, 2, 0, 0, 0)
    slices = [_fill(F2, template, [t >> 3 - i & 1 for i in range(4)]).cols
              for t in range(16)]
    rng = random.Random(spec.seed)
    draws = [slices[rng.randrange(2 ** 12) >> 8] for _ in range(spec.budget)]
    assert counts == {key: min(draws.count(key), 2) for key in counts}
    assert max(draws.count(key) for key in counts) > 2  # some triple compiled
    assert len(got) == 97

    honest = xprod.constructions._compile

    def corrupt(*args):
        return ((((), 1),), *honest(*args))  # a nonzero constant residual

    with monkeypatch.context() as patch:
        patch.setattr(xprod.constructions, "_compile", corrupt)
        with pytest.raises(InternalCheckError, match="scanned and compiled"):
            search_fp(spec, d, d.as_pointed(), d)


def test_frozen_e_conditions_are_decided_once_per_unfrozen_maps(monkeypatch):
    # R1 alone is searched: every condition is decided once per R1 value,
    # those that mention only frozen maps once in all
    d = dual_numbers(F2)
    fl = flip(F2, 2, 2)
    spec = SearchSpec(mode="randomized", budget=300, seed=2,
                      frozen={"R2": fl, "R3": fl, "E": product_connector(d, d, d)})
    with scanned_conditions(monkeypatch) as calls:
        got = search_fp(spec, d, d.as_pointed(), d)
    calls = [label for label, *_ in calls]
    r1_values = 2 ** _width(_map_template(F2, "R1", 2, 2, 2, 0, 0, 0))
    assert r1_values == 16
    for cond in CONDITIONS:
        if cond.label == "unit-R1":
            assert calls.count(cond.label) == 0  # pinned by R1's template
        else:
            assert 0 < calls.count(cond.label) <= (r1_values if "R1" in cond.maps else 1)
    assert calls.count("equiv4") < spec.budget
    exhaustive = search_fp(replace(spec, mode="exhaustive"), d, d.as_pointed(), d)
    assert [r.R1.column(3) for r in got] == [r.R1.column(3) for r in exhaustive]


def test_candidate_stream_is_lazy_and_seeded():
    spec = SearchSpec(mode="randomized", budget=10**12, seed=5)
    rng = random.Random(5)
    assert list(islice(_candidates(spec, 2**20), 3)) == [
        rng.randrange(2**20) for _ in range(3)]
    exhaustive = SearchSpec(cap=10**30)
    assert list(islice(_candidates(exhaustive, 10**30), 3)) == [0, 1, 2]


def test_frozen_map_of_wrong_shape_is_refused_before_any_candidate():
    d = dual_numbers(F2)
    spec = SearchSpec(mode="randomized", budget=0,
                      frozen={"R1": flip(F2, 2, 1)})
    with pytest.raises(ShapeMismatch):
        search_fp(spec, d, d.as_pointed(), d)


def test_search_space_cap():
    d = dual_numbers(F2)
    fl = flip(F2, 2, 2)
    spec = SearchSpec(frozen={"R1": fl, "R2": fl, "R3": fl}, cap=10)
    with pytest.raises(SearchSpaceTooLarge):
        search_fp(spec, d, d.as_pointed(), d)


def test_search_requires_prime_field_and_basis_units():
    d = dual_numbers(Q)
    with pytest.raises(PreconditionFail):
        search_fp(SearchSpec(), d, d.as_pointed(), d)
    from fixtures import upper_triangular2
    u = upper_triangular2(F2)
    d2 = dual_numbers(F2)
    with pytest.raises(PreconditionFail):
        search_fp(SearchSpec(frozen={}), u, d2.as_pointed(), u)
