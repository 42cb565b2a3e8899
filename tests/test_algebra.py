"""Structure-constant algebras, coalgebras, and algebra-map checks."""

import random
from fractions import Fraction
from itertools import product

import pytest

from fixtures import (
    F2,
    Q,
    algebra_from_table,
    dual_numbers,
    group_algebra_z2,
    quadratic_algebra,
    truncated_polynomials3,
    twosided_flip_trivial,
    upper_triangular2,
)
from xprod import (
    FinAlgebra,
    build_twosided,
    conjugate_algebra,
    grouplike_coalgebra,
    is_algebra_map,
    new_algebra,
    new_coalgebra,
    ordinary_tensor,
    same_algebra,
    scalar_algebra,
)
from xprod.algebra import PointedSpace, associativity_witness
from xprod.errors import (
    CounitFail,
    NotAssociative,
    NotCoassociative,
    NotUnital,
    ShapeMismatch,
    UnitNotGrouplike,
)
from xprod.exactla import (
    basis_vector,
    from_columns,
    from_rows,
    permute_factors,
    shape,
    tensor_vec,
)
from xprod.report import Witness


def oracle_associativity_witness(table, field):
    """Independent brute force over all basis triples on a raw c[i][j] table:
    the first failing triple with both sides as dense vectors, or None."""
    n = len(table)

    def mul(x, y):
        out = [field.zero] * n
        for i in range(n):
            if field.is_zero(x[i]):
                continue
            for j in range(n):
                c = field.mul(x[i], y[j])
                if field.is_zero(c):
                    continue
                for k in range(n):
                    out[k] = field.add(out[k], field.mul(c, table[i][j][k]))
        return tuple(out)

    for i, j, k in product(range(n), repeat=3):
        ei, ej, ek = (basis_vector(field, n, t) for t in (i, j, k))
        left, right = mul(mul(ei, ej), ek), mul(ei, mul(ej, ek))
        if left != right:
            return (i, j, k), left, right
    return None


def test_dual_numbers_accepted():
    d = dual_numbers(Q)
    x = basis_vector(Q, 2, 1)
    assert d.mul_vec(d.unit, x) == x
    assert d.mul_vec(x, x) == (Fraction(0), Fraction(0))


def test_quadratic_relation_accepted_iff_oracle_passes():
    # t*t = 1 + t: accepted exactly when the 8-triple brute force passes
    table = [
        [(Q.one, Q.zero), (Q.zero, Q.one)],
        [(Q.zero, Q.one), (Q.one, Q.one)],
    ]
    assert oracle_associativity_witness(table, Q) is None
    alg = quadratic_algebra(Q, Q.one, Q.one)
    t = basis_vector(Q, 2, 1)
    assert alg.mul_vec(t, t) == (Q.one, Q.one)


def test_nonassociative_table_rejected_with_oracle_witness():
    z = (Q.zero,) * 3
    # b1*b1 = b2, b1*b2 = 1, everything else involving b1, b2 zero
    table = [
        [(Q.one, Q.zero, Q.zero), (Q.zero, Q.one, Q.zero), (Q.zero, Q.zero, Q.one)],
        [(Q.zero, Q.one, Q.zero), (Q.zero, Q.zero, Q.one), (Q.one, Q.zero, Q.zero)],
        [(Q.zero, Q.zero, Q.one), z, z],
    ]
    expected = oracle_associativity_witness(table, Q)
    assert expected is not None
    with pytest.raises(NotAssociative) as exc:
        algebra_from_table(Q, table, (Q.one, Q.zero, Q.zero))
    assert (exc.value.witness, exc.value.left, exc.value.right) == expected


def test_cancelling_triple_is_not_a_witness():
    # e0 is the unit; e1 e1 = e2 + e3, e2 e1 = e2, e3 e1 = -e2, other products
    # of e1, e2, e3 vanish.  At (1, 1, 1) the left side e2 e1 + e3 e1 cancels
    # to zero and equals the right side, so the first failure is (2, 1, 1).
    o, z, m = Q.one, Q.zero, Q.neg(Q.one)
    e = [basis_vector(Q, 4, t) for t in range(4)]
    zero = (z,) * 4
    table = [[e[j] for j in range(4)]] + [[e[i]] + [zero] * 3 for i in range(1, 4)]
    table[1][1] = (z, z, o, o)
    table[2][1] = e[2]
    table[3][1] = (z, z, m, z)
    assert oracle_associativity_witness(table, Q) == ((2, 1, 1), e[2], zero)
    alg = algebra_from_table(Q, table, e[0], validate=False)
    assert associativity_witness(alg) == Witness((2, 1, 1), e[2], zero, "(xy)z=x(yz)")


def test_broken_n27_product_gives_smallest_witness_and_dense_vectors():
    t3 = truncated_polynomials3(Q)
    m = build_twosided(twosided_flip_trivial(t3, t3, t3))
    # (1⊗1⊗t)(1⊗1⊗t) = 1⊗1⊗t² becomes 1⊗1⊗t² + 1/2 (1⊗t⊗1) - 1⊗t²⊗1
    rows = [list(r) for r in m.mul.rows]
    col = m.mul.domain.index((1, 1))
    rows[3][col] = Fraction(1, 2)
    rows[6][col] = Fraction(-1)
    mul = from_rows(Q, m.mul.domain, m.mul.codomain, tuple(tuple(r) for r in rows))
    table = [[mul.column(i * 27 + j) for j in range(27)] for i in range(27)]
    want = oracle_associativity_witness(table, Q)
    assert want is not None
    with pytest.raises(NotAssociative) as exc:
        new_algebra(Q, 27, mul, m.unit)
    assert (exc.value.witness, exc.value.left, exc.value.right) == want


def test_zero_unit_rejected():
    table = [
        [(Q.one, Q.zero), (Q.zero, Q.one)],
        [(Q.zero, Q.one), (Q.zero, Q.zero)],
    ]
    with pytest.raises(NotUnital) as exc:
        algebra_from_table(Q, table, (Q.zero, Q.zero))
    assert exc.value.witness.indices == (0,)
    assert exc.value.witness.identity == "left unit law"


def test_algebra_mul_matches_contraction_oracle():
    rng = random.Random(20240)
    f = Q
    n = 3
    rows = tuple(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(n * n)) for _ in range(n))
    mul = from_rows(f, shape(n, n), shape(n), rows)
    alg = FinAlgebra(f, n, mul, basis_vector(f, n, 0))
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        y = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        # independent contraction: sum_ij x_i y_j c[i][j][k]
        want = [f.zero] * n
        for i in range(n):
            for j in range(n):
                col = mul.column(i * n + j)
                for k in range(n):
                    want[k] += x[i] * y[j] * col[k]
        assert alg.mul_vec(x, y) == tuple(want)


def test_ordinary_tensor_with_scalar_is_identity():
    b = group_algebra_z2(Q)
    k = scalar_algebra(Q)
    t = ordinary_tensor(k, b)
    assert t.mul.rows == b.mul.rows and t.unit == b.unit


def test_ordinary_tensor_componentwise():
    d = dual_numbers(Q)
    t = ordinary_tensor(d, d)
    x1 = tensor_vec(Q, basis_vector(Q, 2, 1), d.unit)
    onex = tensor_vec(Q, d.unit, basis_vector(Q, 2, 1))
    xx = tensor_vec(Q, basis_vector(Q, 2, 1), basis_vector(Q, 2, 1))
    assert t.mul_vec(x1, onex) == xx
    assert t.mul_vec(onex, x1) == xx


def test_ordinary_tensor_structure_constants_entrywise_oracle():
    a = dual_numbers(Q)
    b = group_algebra_z2(Q)
    t = ordinary_tensor(a, b)
    for i, j in product(range(a.dim), range(b.dim)):
        for ip, jp in product(range(a.dim), range(b.dim)):
            got = t.mul.column((i * b.dim + j) * t.dim + ip * b.dim + jp)
            want = tensor_vec(Q, a.mul.column(i * a.dim + ip), b.mul.column(j * b.dim + jp))
            assert got == want


def test_is_algebra_map_identity_and_zero():
    d = dual_numbers(Q)
    ident = from_rows(Q, shape(2), shape(2),
                      tuple(basis_vector(Q, 2, i) for i in range(2)))
    assert is_algebra_map(ident, d, d).all_pass
    zero = from_rows(Q, shape(2), shape(2), ((Q.zero,) * 2,) * 2)
    rep = is_algebra_map(zero, d, d)
    assert not rep.all_pass
    assert not rep.get("unit").passed


def test_algebra_map_composition_property():
    d = dual_numbers(Q)
    dd = ordinary_tensor(d, d)
    # a -> a (x) 1 and then (x) 1 again: composites of algebra maps stay algebra maps
    emb1 = from_columns(Q, shape(2), shape(4), tuple(
        tensor_vec(Q, basis_vector(Q, 2, i), d.unit) for i in range(2)))
    ddd = ordinary_tensor(dd, d)
    emb2 = from_columns(Q, shape(4), shape(8), tuple(
        tensor_vec(Q, basis_vector(Q, 4, i), d.unit) for i in range(4)))
    assert is_algebra_map(emb1, d, dd).all_pass
    assert is_algebra_map(emb2, dd, ddd).all_pass
    composed = from_columns(Q, shape(2), shape(8), tuple(
        emb2.apply(emb1.apply(basis_vector(Q, 2, i))) for i in range(2)))
    assert is_algebra_map(composed, d, ddd).all_pass


def test_ut2_unit_is_not_a_basis_vector():
    u = upper_triangular2(Q)
    assert u.unit == (Q.one, Q.zero, Q.one)
    e12 = basis_vector(Q, 3, 1)
    e11 = basis_vector(Q, 3, 0)
    assert u.mul_vec(e11, e12) == e12
    assert u.mul_vec(e12, e11) == (Q.zero,) * 3  # noncommutative


def test_conjugate_algebra_by_permutation():
    d = dual_numbers(Q)
    g = group_algebra_z2(Q)
    t = ordinary_tensor(d, g)
    perm = permute_factors(Q, (2, 2), (1, 0)).reshaped(shape(4), shape(4))
    moved = conjugate_algebra(t, perm)
    assert same_algebra(moved, ordinary_tensor(g, d))


def test_pointed_space_rejects_zero_unit():
    with pytest.raises(ShapeMismatch):
        PointedSpace(Q, 2, (Q.zero, Q.zero))


# -- coalgebras ----------------------------------------------------------------

def test_one_dim_grouplike_coalgebra():
    h = grouplike_coalgebra(Q, 1)
    assert h.comul.apply(h.unit) == tensor_vec(Q, h.unit, h.unit)
    assert h.counit.apply(h.unit) == (Q.one,)


def test_two_grouplikes_direct_check():
    h = grouplike_coalgebra(F2, 2)
    # independent check of both basis elements
    for i in range(2):
        e = basis_vector(F2, 2, i)
        assert h.comul.apply(e) == tensor_vec(F2, e, e)
        assert h.counit.apply(e) == (F2.one,)


def test_unit_not_grouplike_rejected():
    # comul(e0) = e0 (x) e1 with counit laws intact is impossible; instead keep
    # a valid grouplike comul but point the coalgebra at a non-grouplike unit
    f = Q
    h = grouplike_coalgebra(f, 2)
    bad_unit = (f.one, f.one)  # comul(1,1) = e00 + e11 != (1,1) (x) (1,1)
    with pytest.raises(UnitNotGrouplike):
        new_coalgebra(f, 2, h.comul, h.counit, bad_unit)


def test_non_coassociative_rejected():
    f = Q
    # comul(e0) = e0 (x) e0, comul(e1) = e1 (x) e1 + e0 (x) e1:
    # (comul (x) id) comul (e1) lacks the e1 (x) e0 (x) e1 term
    col1 = tuple(f.add(a, b) for a, b in zip(basis_vector(f, 4, 3),
                                             basis_vector(f, 4, 1)))
    comul = from_columns(f, shape(2), shape(2, 2), [basis_vector(f, 4, 0), col1])
    counit = from_rows(f, shape(2), shape(1), ((f.one, f.one),))
    with pytest.raises(NotCoassociative):
        new_coalgebra(f, 2, comul, counit, (f.one, f.zero))


def test_counit_failure_rejected():
    f = Q
    h = grouplike_coalgebra(f, 2)
    bad_counit = from_rows(f, shape(2), shape(1), ((f.one, f.zero),))
    with pytest.raises(CounitFail):
        new_coalgebra(f, 2, h.comul, bad_counit, h.unit)
