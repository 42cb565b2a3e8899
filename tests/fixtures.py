"""Shared algebra fixtures and the corpus of valid two-sided datasets."""

from __future__ import annotations

from functools import lru_cache

from xprod import (
    FinAlgebra,
    PrimeField,
    RATIONALS,
    SearchSpec,
    TwoSidedData,
    flip,
    graded_flip,
    new_algebra,
    scalar_algebra,
    search_fp,
)
from xprod.constructions import product_connector
from xprod.exactla import compose, from_columns, shape, tensor
from xprod.twosided import TWIST_LEGS

F2 = PrimeField(2)
Q = RATIONALS
# (domain legs, codomain legs) of each map, with A, V, C numbered 0, 1, 2
MAP_LEGS = {**{name: ((x, y), (y, x)) for name, (x, y) in TWIST_LEGS.items()},
            "E": ((1, 1), (0, 1, 2))}


def moved_maps(d, changes):
    """R1, R2, R3 and E of ``d`` moved by a change of basis of each of A, V
    and C, given as (g, g^-1) pairs: g_cod o m o g_dom^-1, leg by leg."""
    return {name: compose(tensor(*(changes[leg][0] for leg in cod)), getattr(d, name),
                          tensor(*(changes[leg][1] for leg in dom)))
            for name, (dom, cod) in MAP_LEGS.items()}


def algebra_from_table(field, table, unit, validate=True):
    """Build an algebra from a nested table c[i][j] = product vector; without
    ``validate``, the table need not be associative or unital."""
    dim = len(table)
    cols = [tuple(table[i][j]) for i in range(dim) for j in range(dim)]
    mul = from_columns(field, shape(dim, dim), shape(dim), cols)
    return (new_algebra if validate else FinAlgebra)(field, dim, mul, tuple(unit))


def dual_numbers(field):
    """k[x]/(x^2), basis (1, x)."""
    one, zero = field.one, field.zero
    return algebra_from_table(field, [
        [(one, zero), (zero, one)],
        [(zero, one), (zero, zero)],
    ], (one, zero))


def group_algebra_z2(field):
    """k[g]/(g^2 - 1), basis (1, g)."""
    one, zero = field.one, field.zero
    return algebra_from_table(field, [
        [(one, zero), (zero, one)],
        [(zero, one), (one, zero)],
    ], (one, zero))


def quadratic_algebra(field, alpha, beta):
    """k[t]/(t^2 - beta t - alpha), basis (1, t)."""
    one, zero = field.one, field.zero
    return algebra_from_table(field, [
        [(one, zero), (zero, one)],
        [(zero, one), (alpha, beta)],
    ], (one, zero))


def truncated_polynomials3(field):
    """k[t]/(t^3), basis (1, t, t^2)."""
    one, zero = field.one, field.zero
    z3 = (zero, zero, zero)
    return algebra_from_table(field, [
        [(one, zero, zero), (zero, one, zero), (zero, zero, one)],
        [(zero, one, zero), (zero, zero, one), z3],
        [(zero, zero, one), z3, z3],
    ], (one, zero, zero))


def upper_triangular2(field):
    """Upper triangular 2x2 matrices, basis (e11, e12, e22), unit e11 + e22."""
    one, zero = field.one, field.zero
    z3 = (zero, zero, zero)
    return algebra_from_table(field, [
        [(one, zero, zero), (zero, one, zero), z3],
        [z3, z3, (zero, one, zero)],
        [z3, z3, (zero, zero, one)],
    ], (one, zero, one))


def twosided_flip_trivial(a, valg, c):
    """All flips, E(v⊗v') = 1_A ⊗ vv' ⊗ 1_C from the middle algebra."""
    f = a.field
    return TwoSidedData(
        a, valg.as_pointed(), c,
        flip(f, valg.dim, a.dim),
        flip(f, c.dim, valg.dim),
        flip(f, c.dim, a.dim),
        product_connector(a, valg, c),
    )


def twosided_graded(a, valg, c, dega, degv, degc):
    """Sign-twisted flips for graded algebras, trivial E."""
    f = a.field
    return TwoSidedData(
        a, valg.as_pointed(), c,
        graded_flip(f, valg.dim, a.dim, degv, dega),
        graded_flip(f, c.dim, valg.dim, degc, degv),
        graded_flip(f, c.dim, a.dim, degc, dega),
        product_connector(a, valg, c),
    )


def twosided_bicocycle(field):
    """A = C = k[Z/2], flips, E(x (x) x) = g (x) 1_V (x) g.

    The connector puts nonunit legs in both outer slots, so the middle
    element squares to g on each side at once.
    """
    from xprod.algebra import PointedSpace
    from xprod.exactla import basis_vector, tensor_vec

    g_alg = group_algebra_z2(field)
    v = PointedSpace(field, 2, basis_vector(field, 2, 0))
    g_vec = basis_vector(field, 2, 1)
    unit_col = tensor_vec(field, g_alg.unit, basis_vector(field, 2, 0), g_alg.unit)
    x_col = tensor_vec(field, g_alg.unit, basis_vector(field, 2, 1), g_alg.unit)
    cocycle = tensor_vec(field, g_vec, basis_vector(field, 2, 0), g_vec)
    e_map = from_columns(field, shape(2, 2), shape(2, 2, 2),
                         [unit_col, x_col, x_col, cocycle])
    fl = flip(field, 2, 2)
    return TwoSidedData(g_alg, v, g_alg, fl, fl, fl, e_map)


@lru_cache(maxsize=None)
def searched_f2_fixtures():
    """First three all-pass datasets of the frozen-flip exhaustive F2 search."""
    d = dual_numbers(F2)
    fl = flip(F2, 2, 2)
    spec = SearchSpec(frozen={"R1": fl, "R2": fl, "R3": fl})
    results = search_fp(spec, d, d.as_pointed(), d)
    return tuple(results[:3])


def primitive_coalgebra(field):
    """dim 2: comul(1) = 1 (x) 1, comul(x) = x (x) 1 + 1 (x) x, counit = (1, 0)."""
    from xprod import new_coalgebra
    from xprod.exactla import basis_vector, from_rows

    e00 = basis_vector(field, 4, 0)
    mixed = tuple(field.add(a, b) for a, b in zip(basis_vector(field, 4, 1),
                                                  basis_vector(field, 4, 2)))
    comul = from_columns(field, shape(2), shape(2, 2), [e00, mixed])
    counit = from_rows(field, shape(2), shape(1), ((field.one, field.zero),))
    return new_coalgebra(field, 2, comul, counit, basis_vector(field, 2, 0))


def doc_field(field):
    return {"kind": "rationals"} if field == Q else {"kind": "prime", "p": field.p}


def doc_algebra(field, alg):
    return {"dim": alg.dim,
            "unit": [field.fmt(x) for x in alg.unit],
            "mul": [[[field.fmt(x) for x in alg.mul.column(i * alg.dim + j)]
                     for j in range(alg.dim)] for i in range(alg.dim)]}


def doc_map(field, m, dom, cod):
    return {"domain": list(dom), "codomain": list(cod),
            "matrix": [[field.fmt(x) for x in row] for row in m.rows]}


def twosided_doc(data):
    field = data.field
    return {
        "field": doc_field(field),
        "algebras": {"A": doc_algebra(field, data.A), "C": doc_algebra(field, data.C)},
        "spaces": {"V": {"dim": data.V.dim,
                         "unit": [field.fmt(x) for x in data.V.unit]}},
        "maps": {
            "R1": doc_map(field, data.R1, ("V", "A"), ("A", "V")),
            "R2": doc_map(field, data.R2, ("C", "V"), ("V", "C")),
            "R3": doc_map(field, data.R3, ("C", "A"), ("A", "C")),
            "E": doc_map(field, data.E, ("V", "V"), ("A", "V", "C")),
        },
        "datasets": {"d": {"type": "twosided", "A": "A", "V": "V", "C": "C",
                           "R1": "R1", "R2": "R2", "R3": "R3", "E": "E"}},
    }


@lru_cache(maxsize=None)
def corpus():
    """Named valid fixtures: flip/trivial and graded over Q and F2, mixed
    dimensions, a non-basis-unit algebra, plus searched F2 solutions."""
    dq = dual_numbers(Q)
    gq = group_algebra_z2(Q)
    d2 = dual_numbers(F2)
    g2 = group_algebra_z2(F2)
    kq = scalar_algebra(Q)
    k2 = scalar_algebra(F2)
    ut = upper_triangular2(Q)
    odd = (0, 1)

    items = [
        ("q-dual-flip-trivial", twosided_flip_trivial(dq, dq, dq)),
        ("q-dual-graded-super", twosided_graded(dq, dq, dq, odd, odd, odd)),
        ("q-group-graded-super", twosided_graded(gq, gq, gq, odd, odd, odd)),
        ("q-mixed-flip-trivial", twosided_flip_trivial(dq, gq, dq)),
        ("q-scalar-ends", twosided_flip_trivial(kq, dq, kq)),
        ("q-ut2-pointed-line", twosided_flip_trivial(ut, kq, ut)),
        ("f2-dual-flip-trivial", twosided_flip_trivial(d2, d2, d2)),
        # over F2 the sign-twisted flip coincides with the flip; the graded
        # constructor is still exercised on its own
        ("f2-dual-graded-super", twosided_graded(d2, d2, d2, odd, odd, odd)),
        ("f2-mixed-flip-trivial", twosided_flip_trivial(g2, d2, k2)),
        ("q-wide-middle", twosided_flip_trivial(dq, truncated_polynomials3(Q), dq)),
        ("q-bicocycle", twosided_bicocycle(Q)),
    ]
    for t, data in enumerate(searched_f2_fixtures()):
        items.append((f"f2-searched-{t}", data))
    return tuple(items)
