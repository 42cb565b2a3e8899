"""Twisting maps, twisted tensor products, crossed products and mirrors."""

from itertools import product

import pytest

from fixtures import Q, dual_numbers, group_algebra_z2
from xprod import (
    BrzData,
    MirrorData,
    build_brzezinski,
    build_mirror,
    build_ttp,
    check_brzezinski,
    check_mirror,
    check_twisting,
    flip,
    graded_flip,
    lift_twisting_to_brzezinski,
    lift_twisting_to_mirror,
    new_algebra,
    ordinary_tensor,
    same_algebra,
    scalar_algebra,
)
from xprod.algebra import PointedSpace
from xprod.errors import AxiomFailure
from xprod.exactla import (
    basis_vector,
    from_columns,
    from_rows,
    shape,
    tensor_vec,
    vscale,
)


def oracle_twisting_mult_conditions(r, a, b):
    """Independent brute force of both multiplicativity axioms via mul_vec.

    R(b (x) aa') = a_R a'_r (x) (b_R)_r and R(bb' (x) a) = (a_R)_r (x) b_r b'_R,
    evaluated with explicit leg-by-leg loops.
    """
    f = a.field
    na, nb = a.dim, b.dim

    def legs(vec):
        # nonzero ((i, j), coeff) entries of a vector on [A, B]
        out = []
        for i in range(na):
            for j in range(nb):
                x = vec[i * nb + j]
                if not f.is_zero(x):
                    out.append(((i, j), x))
        return out

    for j, i, ip in product(range(nb), range(na), range(na)):
        eb, ea, eap = basis_vector(f, nb, j), basis_vector(f, na, i), basis_vector(f, na, ip)
        lhs = r.apply(tensor_vec(f, eb, a.mul_vec(ea, eap)))
        rhs = [f.zero] * (na * nb)
        for (a1, b1), c1 in legs(r.apply(tensor_vec(f, eb, ea))):
            for (a2, b2), c2 in legs(r.apply(tensor_vec(f, basis_vector(f, nb, b1), eap))):
                prod_a = a.mul_vec(basis_vector(f, na, a1), basis_vector(f, na, a2))
                coeff = f.mul(c1, c2)
                for k in range(na):
                    if not f.is_zero(prod_a[k]):
                        rhs[k * nb + b2] = f.add(rhs[k * nb + b2],
                                                 f.mul(coeff, prod_a[k]))
        if lhs != tuple(rhs):
            return ("mult-A", (j, i, ip))
    for j, jp, i in product(range(nb), range(nb), range(na)):
        eb, ebp, ea = basis_vector(f, nb, j), basis_vector(f, nb, jp), basis_vector(f, na, i)
        lhs = r.apply(tensor_vec(f, b.mul_vec(eb, ebp), ea))
        rhs = [f.zero] * (na * nb)
        for (a1, b1), c1 in legs(r.apply(tensor_vec(f, ebp, ea))):
            for (a2, b2), c2 in legs(r.apply(tensor_vec(f, eb, basis_vector(f, na, a1)))):
                prod_b = b.mul_vec(basis_vector(f, nb, b2), basis_vector(f, nb, b1))
                coeff = f.mul(c1, c2)
                for k in range(nb):
                    if not f.is_zero(prod_b[k]):
                        rhs[a2 * nb + k] = f.add(rhs[a2 * nb + k],
                                                 f.mul(coeff, prod_b[k]))
        if lhs != tuple(rhs):
            return ("mult-B", (j, jp, i))
    return None


def test_flip_is_twisting_map():
    d = dual_numbers(Q)
    g = group_algebra_z2(Q)
    assert check_twisting(flip(Q, g.dim, d.dim), d, g).all_pass


def test_graded_flip_is_twisting_map_with_oracle():
    d = dual_numbers(Q)
    gf = graded_flip(Q, 2, 2, (0, 1), (0, 1))
    assert oracle_twisting_mult_conditions(gf, d, d) is None
    assert check_twisting(gf, d, d).all_pass


def test_scaled_unit_fails_with_witness():
    d = dual_numbers(Q)
    base = flip(Q, 2, 2)
    rows = [list(r) for r in base.rows]
    rows[0][0] = Q.add(Q.one, Q.one)  # R(1_B (x) 1_A) = 2 (1_A (x) 1_B)
    bad = from_rows(Q, base.domain, base.codomain, tuple(tuple(r) for r in rows))
    rep = check_twisting(bad, d, d)
    assert not rep.all_pass
    entry = rep.get("twisting-unit-left")
    assert not entry.passed
    w = entry.witness
    # re-evaluate the witness by hand
    assert bad.apply(tensor_vec(Q, d.unit, basis_vector(Q, 2, w.indices[0]))) == w.left
    assert w.left != w.right


def test_build_ttp_flip_equals_ordinary_tensor():
    d = dual_numbers(Q)
    g = group_algebra_z2(Q)
    assert same_algebra(build_ttp(d, g, flip(Q, 2, 2)), ordinary_tensor(d, g))


def test_build_ttp_graded_signs():
    d = dual_numbers(Q)
    t = build_ttp(d, d, graded_flip(Q, 2, 2, (0, 1), (0, 1)))
    x = basis_vector(Q, 2, 1)
    x1 = tensor_vec(Q, x, d.unit)
    onex = tensor_vec(Q, d.unit, x)
    xx = tensor_vec(Q, x, x)
    assert t.mul_vec(x1, onex) == xx
    assert t.mul_vec(onex, x1) == vscale(Q, Q.neg(Q.one), xx)


def test_build_ttp_with_scalar_left():
    b = group_algebra_z2(Q)
    k = scalar_algebra(Q)
    t = build_ttp(k, b, flip(Q, b.dim, 1))
    assert t.mul.rows == b.mul.rows and t.unit == b.unit


def test_build_ttp_rejects_non_twisting():
    d = dual_numbers(Q)
    base = flip(Q, 2, 2)
    rows = [list(r) for r in base.rows]
    rows[0][0] = Q.add(Q.one, Q.one)
    bad = from_rows(Q, base.domain, base.codomain, tuple(tuple(r) for r in rows))
    with pytest.raises(AxiomFailure):
        build_ttp(d, d, bad)


# -- crossed products ----------------------------------------------------------

def test_lifted_twisting_passes_brzezinski():
    d = dual_numbers(Q)
    gf = graded_flip(Q, 2, 2, (0, 1), (0, 1))
    data = lift_twisting_to_brzezinski(d, d, gf)
    assert check_brzezinski(data).all_pass
    assert same_algebra(build_brzezinski(data), build_ttp(d, d, gf))


def test_brzezinski_broken_sigma_unit():
    d = dual_numbers(Q)
    data = lift_twisting_to_brzezinski(d, d, flip(Q, 2, 2))
    rows = [list(r) for r in data.sigma.rows]
    rows[0][1] = Q.add(rows[0][1], Q.one)  # sigma(1_V (x) x) picks up 1_A (x) 1_V
    bad = BrzData(data.A, data.V, data.R,
                  from_rows(Q, data.sigma.domain, data.sigma.codomain,
                            tuple(tuple(r) for r in rows)))
    rep = check_brzezinski(bad)
    assert not rep.get("brz2").passed
    assert rep.get("brz2").witness is not None


def _sigma_from_table(field, a, table):
    """sigma(v (x) v') = 1_A (x) (v * v') for a raw product table on V."""
    n = len(table)
    cols = [tensor_vec(field, a.unit, tuple(table[i][j])) for i in range(n)
            for j in range(n)]
    return from_columns(field, shape(n, n), shape(a.dim, n), cols)


@pytest.mark.parametrize("assoc", [True, False])
def test_scalar_a_reduces_to_associativity_of_v(assoc):
    # A = k: brz data is exactly a product on V; valid iff that product is
    # unital associative
    k = scalar_algebra(Q)
    if assoc:
        table = [[(Q.one, Q.zero), (Q.zero, Q.one)],
                 [(Q.zero, Q.one), (Q.one, Q.zero)]]     # Z/2 group algebra
    else:
        z = (Q.zero,) * 3
        table = [[(Q.one, Q.zero, Q.zero), (Q.zero, Q.one, Q.zero),
                  (Q.zero, Q.zero, Q.one)],
                 [(Q.zero, Q.one, Q.zero), (Q.zero, Q.zero, Q.one),
                  (Q.one, Q.zero, Q.zero)],
                 [(Q.zero, Q.zero, Q.one), z, z]]        # fails associativity
    n = len(table)
    v = PointedSpace(Q, n, basis_vector(Q, n, 0))
    r = from_columns(Q, shape(n, 1), shape(1, n),
                     [basis_vector(Q, n, j) for j in range(n)])
    data = BrzData(k, v, r, _sigma_from_table(Q, k, table))
    rep = check_brzezinski(data)
    assert rep.all_pass == assoc
    if assoc:
        built = build_brzezinski(data)
        want = new_algebra(Q, n, from_columns(
            Q, shape(n, n), shape(n),
            [tuple(table[i][j]) for i in range(n) for j in range(n)]),
            basis_vector(Q, n, 0))
        assert built.mul.rows == want.mul.rows
    else:
        assert not rep.get("brz4").passed


def test_brzezinski_cocycle_builds_cyclic_group_algebra():
    # sigma(x (x) x) = g (x) 1 over A = Q[Z/2] realizes Q[Z/4]: the class of x
    # gets order four
    g_alg = group_algebra_z2(Q)
    v = PointedSpace(Q, 2, basis_vector(Q, 2, 0))
    g_vec = basis_vector(Q, 2, 1)
    cols = [tensor_vec(Q, g_alg.unit, basis_vector(Q, 2, 0)),
            tensor_vec(Q, g_alg.unit, basis_vector(Q, 2, 1)),
            tensor_vec(Q, g_alg.unit, basis_vector(Q, 2, 1)),
            tensor_vec(Q, g_vec, basis_vector(Q, 2, 0))]
    sigma = from_columns(Q, shape(2, 2), shape(2, 2), cols)
    data = BrzData(g_alg, v, flip(Q, 2, 2), sigma)
    assert check_brzezinski(data).all_pass
    built = build_brzezinski(data)
    y = tensor_vec(Q, g_alg.unit, basis_vector(Q, 2, 1))
    y2 = built.mul_vec(y, y)
    assert y2 == tensor_vec(Q, g_vec, basis_vector(Q, 2, 0))
    assert y2 != built.unit
    assert built.mul_vec(y2, y2) == built.unit


def test_mirror_cocycle_builds_cyclic_group_algebra():
    g_alg = group_algebra_z2(Q)
    w = PointedSpace(Q, 2, basis_vector(Q, 2, 0))
    g_vec = basis_vector(Q, 2, 1)
    cols = [tensor_vec(Q, basis_vector(Q, 2, 0), g_alg.unit),
            tensor_vec(Q, basis_vector(Q, 2, 1), g_alg.unit),
            tensor_vec(Q, basis_vector(Q, 2, 1), g_alg.unit),
            tensor_vec(Q, basis_vector(Q, 2, 0), g_vec)]
    nu = from_columns(Q, shape(2, 2), shape(2, 2), cols)
    data = MirrorData(w, g_alg, flip(Q, 2, 2), nu)
    assert check_mirror(data).all_pass
    built = build_mirror(data)
    y = tensor_vec(Q, basis_vector(Q, 2, 1), g_alg.unit)
    y2 = built.mul_vec(y, y)
    assert y2 == tensor_vec(Q, basis_vector(Q, 2, 0), g_vec)
    assert y2 != built.unit and built.mul_vec(y2, y2) == built.unit


def test_brzezinski_defining_property_brute_force():
    d = dual_numbers(Q)
    gf = graded_flip(Q, 2, 2, (0, 1), (0, 1))
    built = build_brzezinski(lift_twisting_to_brzezinski(d, d, gf))
    f = Q
    for i, k, j in product(range(2), range(2), range(2)):
        ea, eb = basis_vector(f, 2, i), basis_vector(f, 2, k)
        ev = basis_vector(f, 2, j)
        got = built.mul_vec(tensor_vec(f, ea, d.unit), tensor_vec(f, eb, ev))
        assert got == tensor_vec(f, d.mul_vec(ea, eb), ev)


# -- mirror --------------------------------------------------------------------

def test_lifted_twisting_passes_mirror():
    d = dual_numbers(Q)
    gf = graded_flip(Q, 2, 2, (0, 1), (0, 1))
    data = lift_twisting_to_mirror(d, d, gf)
    assert check_mirror(data).all_pass
    assert same_algebra(build_mirror(data), build_ttp(d, d, gf))


def test_mirror_scalar_w_reduces_to_b():
    b = group_algebra_z2(Q)
    k = PointedSpace(Q, 1, (Q.one,))
    p = from_columns(Q, shape(b.dim, 1), shape(1, b.dim),
                     [basis_vector(Q, b.dim, i) for i in range(b.dim)])
    nu = from_columns(Q, shape(1, 1), shape(1, b.dim), [tensor_vec(Q, (Q.one,), b.unit)])
    data = MirrorData(k, b, p, nu)
    built = build_mirror(data)
    assert built.mul.rows == b.mul.rows and built.unit == b.unit


def test_mirror_defining_property_brute_force():
    d = dual_numbers(Q)
    gf = graded_flip(Q, 2, 2, (0, 1), (0, 1))
    built = build_mirror(lift_twisting_to_mirror(d, d, gf))
    f = Q
    for j, i, k in product(range(2), range(2), range(2)):
        ew = basis_vector(f, 2, j)
        eb, ebp = basis_vector(f, 2, i), basis_vector(f, 2, k)
        got = built.mul_vec(tensor_vec(f, ew, eb), tensor_vec(f, d.unit, ebp))
        assert got == tensor_vec(f, ew, d.mul_vec(eb, ebp))


def test_brzezinski_and_mirror_lifts_agree_with_ttp():
    d = dual_numbers(Q)
    g = group_algebra_z2(Q)
    for r in (flip(Q, g.dim, d.dim), ):
        ttp = build_ttp(d, g, r)
        assert same_algebra(build_brzezinski(lift_twisting_to_brzezinski(d, g, r)), ttp)
        assert same_algebra(build_mirror(lift_twisting_to_mirror(d, g, r)), ttp)
    gf = graded_flip(Q, 2, 2, (0, 1), (0, 1))
    ttp = build_ttp(d, d, gf)
    assert same_algebra(build_brzezinski(lift_twisting_to_brzezinski(d, d, gf)), ttp)
    assert same_algebra(build_mirror(lift_twisting_to_mirror(d, d, gf)), ttp)


def test_failing_witness_reproduces_inequality():
    d = dual_numbers(Q)
    base = graded_flip(Q, 2, 2, (0, 1), (0, 1))
    rows = [list(r) for r in base.rows]
    rows[1][3] = Q.one  # R(x (x) x) gains a 1 (x) x component
    bad = from_rows(Q, base.domain, base.codomain, tuple(tuple(r) for r in rows))
    rep = check_twisting(bad, d, d)
    failed = [e for e in rep.entries if not e.passed]
    assert failed
    for e in failed:
        assert e.witness is not None
        assert e.witness.left != e.witness.right
