"""Witnesses and messages of failures that no corpus dataset reaches: the
split of ``extract`` on legs whose unit is not a basis vector, and the
post-build internal checks of ``build_brzezinski``, ``build_mirror`` and
``iterated_ttp``."""

import itertools
import random
from functools import reduce

import pytest

from fixtures import Q, dual_numbers, twosided_flip_trivial, upper_triangular2
from xprod import algebra, crossed
from xprod.algebra import FinAlgebra
from xprod.constructions import iterated_ttp
from xprod.crossed import (
    build_brzezinski,
    build_mirror,
    lift_twisting_to_brzezinski,
    lift_twisting_to_mirror,
)
from xprod.errors import InternalCheckError, SplitFail
from xprod.exactla import (
    TensorMap,
    TensorShape,
    basis_vector,
    flip,
    invert,
    row_reduce,
    tensor_vec,
    vzero,
)
from xprod.twosided import TWIST_LEGS, build_twosided, extract


def with_entry(m: TensorMap, col: int, row: int, value) -> TensorMap:
    """m with one matrix entry replaced."""
    cols = [dict(c) for c in m.cols]
    cols[col][row] = value
    if m.field.is_zero(value):
        del cols[col][row]
    return TensorMap(m.field, m.domain, m.codomain,
                     tuple(tuple(sorted(c.items())) for c in cols))


# -- extract's split, against the basis-completion projector ---------------------

def projector(field, unit):
    """Coordinates in the basis {unit} completed greedily by standard basis
    vectors: row 0 reads off the unit component."""
    n = len(unit)
    basis = [tuple(unit)]
    for i in range(n):
        cand = basis + [basis_vector(field, n, i)]
        if len(row_reduce(field, cand, n)[1]) == len(cand):
            basis = cand
    return invert(field, tuple(tuple(b[i] for b in basis) for i in range(n)))


def first_split_failure(m, d):
    """(which, indices, product, projection) of the first failing ajut1-ajut3
    basis pair, in extract's order, or None."""
    f = m.field
    dims = (d.A.dim, d.V.dim, d.C.dim)
    units = (d.A.unit, d.V.unit, d.C.unit)
    shp = TensorShape(dims)

    def emb(leg, i):
        return tensor_vec(f, *units[:leg], basis_vector(f, dims[leg], i), *units[leg + 1:])

    for t, (x, y) in enumerate(TWIST_LEGS.values(), 1):
        leg = 3 - x - y
        proj = projector(f, units[leg])
        for i, j in itertools.product(range(dims[x]), range(dims[y])):
            w = m.mul_vec(emb(x, i), emb(y, j))
            projected = list(vzero(f, len(w)))
            ok = True
            for rest in itertools.product(*(range(dims[s]) for s in range(3) if s != leg)):
                flat = [shp.index(rest[:leg] + (z,) + rest[leg:]) for z in range(dims[leg])]
                coords = [reduce(f.add, (f.mul(p, w[k]) for p, k in zip(row, flat)), f.zero)
                          for row in proj]
                for z, k in enumerate(flat):
                    projected[k] = f.mul(coords[0], units[leg][z])
                ok = ok and all(f.is_zero(c) for c in coords[1:])
            if not ok:
                return f"ajut{t}", (i, j), w, tuple(projected)
    return None


def split_columns(m, d):
    """Columns of M's multiplication that the ajut1-ajut3 products read and
    the algebra-map checks of a ↦ a⊗1⊗1 and c ↦ 1⊗1⊗c do not."""
    dims = (d.A.dim, d.V.dim, d.C.dim)
    units = (d.A.unit, d.V.unit, d.C.unit)
    shp = TensorShape(dims)

    def support(leg):
        return [shp.index(k) for k in itertools.product(*(
            range(dims[t]) if t == leg else [i for i, u in enumerate(units[t]) if u]
            for t in range(3)))]

    def cols(x, y):
        return {p * m.dim + q for p in support(x) for q in support(y)}

    return sorted(set().union(*(cols(x, y) for x, y in TWIST_LEGS.values()))
                  - cols(0, 0) - cols(2, 2))


UT = upper_triangular2(Q)   # unit e11 + e22: its first and last nonzero coordinates differ
DQ = dual_numbers(Q)
SPLIT_CASES = {  # the splits that read a leg whose unit is e11 + e22
    "q-ut2-ends": (twosided_flip_trivial(UT, DQ, UT), {"ajut1", "ajut2"}),
    "q-ut2-middle": (twosided_flip_trivial(DQ, UT, DQ), {"ajut3"}),
}


@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_split_witness_matches_basis_completion(name):
    d, expected = SPLIT_CASES[name]
    m = build_twosided(d)
    columns = split_columns(m, d)
    rng = random.Random(name)
    seen = set()
    for _ in range(40):
        col, row = rng.choice(columns), rng.randrange(m.dim)
        value = Q.add(dict(m.mul.cols[col]).get(row, Q.zero), Q.from_int(rng.choice((1, 2, -3))))
        mutant = FinAlgebra(Q, m.dim, with_entry(m.mul, col, row, value), m.unit)
        got = None  # the checks after the split may fail as well
        try:
            extract(mutant, d.A, d.V, d.C)
        except SplitFail as exc:
            w = exc.witness
            if exc.which != "ajut4":
                got = (exc.which, w.indices, w.left, w.right)
        except InternalCheckError as exc:  # only the round trip's two checks
            assert exc.routes in {("splitting", "two-sided conditions"),
                                  ("input", "rebuilt product")}
        assert got == first_split_failure(mutant, d)
        seen.add(got and got[0])
    assert expected <= seen


# -- post-build internal checks -------------------------------------------------

def corrupt_builds(monkeypatch, module, entries):
    """Change the given (column, row, value) entries of every product that
    ``module`` builds: in ``crossed``, the multiplications that ``_brz_mul``
    and ``_mirror_mul`` assemble, before the post-build identities read them;
    elsewhere, each product that ``new_algebra`` receives, with validation
    skipped."""
    def corrupt(mul):
        for col, row, value in entries:
            mul = with_entry(mul, col, row, value)
        return mul

    if module is crossed:
        for name in ("_brz_mul", "_mirror_mul"):
            monkeypatch.setattr(module, name,
                                lambda d, honest=getattr(module, name): corrupt(honest(d)))
    else:
        monkeypatch.setattr(module, "new_algebra", lambda field, dim, mul, unit:
                            FinAlgebra(field, dim, corrupt(mul), unit))


def test_brzezinski_post_build_check_names_first_failing_tuple(monkeypatch):
    # A = k[x]/x^2, V = upper triangular 2x2 matrices, so 1_V = e11 + e22; the
    # entry sits in column (a⊗e22)(b⊗v) with a = x, b = 1, v = e12
    d = lift_twisting_to_brzezinski(DQ, UT, flip(Q, 3, 2))
    corrupt_builds(monkeypatch, crossed, [((1 * 3 + 2) * 6 + (0 * 3 + 1), 0, Q.one)])
    with pytest.raises(InternalCheckError) as exc:
        build_brzezinski(d)
    assert str(exc.value) == (
        "(a⊗1_V)(b⊗v)=ab⊗v: crossed product and product of A disagree at (1, 0, 1)")
    assert exc.value.routes == ("crossed product", "product of A")
    assert exc.value.witness.indices == (1, 0, 1)


def test_mirror_post_build_check_names_first_failing_tuple(monkeypatch):
    # W = upper triangular matrices (1_W = e11 + e22), B = k[x]/x^2; the entry
    # sits in column (w⊗b)(e22⊗b') with w = e22, b = 1, b' = x; the witness
    # is in scan order (b, b', w)
    d = lift_twisting_to_mirror(UT, DQ, flip(Q, 2, 3))
    corrupt_builds(monkeypatch, crossed, [((2 * 2 + 0) * 6 + (2 * 2 + 1), 3, Q.one)])
    with pytest.raises(InternalCheckError) as exc:
        build_mirror(d)
    assert str(exc.value) == (
        "(w⊗b)(1_W⊗b')=w⊗bb' on (b, b', w): mirror product and product of B disagree "
        "at (0, 1, 2)")
    assert exc.value.routes == ("mirror product", "product of B")
    assert exc.value.witness.indices == (0, 1, 2)


def test_mirror_post_build_check_scans_b_b_prime_w(monkeypatch):
    # two failing tuples: (w, b, b') = (2, 0, 1), which is (b, b', w) =
    # (0, 1, 2), comes first in the scan over (b, b', w); (w, b, b') =
    # (0, 1, 0) would come first in the order (w, b, b')
    d = lift_twisting_to_mirror(UT, DQ, flip(Q, 2, 3))
    corrupt_builds(monkeypatch, crossed, [((2 * 2 + 0) * 6 + (2 * 2 + 1), 3, Q.one),
                                          ((0 * 2 + 1) * 6 + (2 * 2 + 0), 0, Q.one)])
    with pytest.raises(InternalCheckError) as exc:
        build_mirror(d)
    assert str(exc.value) == (
        "(w⊗b)(1_W⊗b')=w⊗bb' on (b, b', w): mirror product and product of B disagree "
        "at (0, 1, 2)")
    assert exc.value.witness.indices == (0, 1, 2)


def test_iterated_ttp_formula_check_names_first_failing_tuple(monkeypatch):
    shp = TensorShape((2, 3, 2))
    col = shp.index((1, 2, 0)) * 12 + shp.index((0, 1, 1))
    corrupt_builds(monkeypatch, algebra, [(col, 5, Q.from_int(7))])
    with pytest.raises(InternalCheckError) as exc:
        iterated_ttp(DQ, UT, DQ, flip(Q, 3, 2), flip(Q, 2, 3), flip(Q, 2, 2))
    assert str(exc.value) == ("iterated twisted tensor product: displayed formula and "
                              "two-sided product disagree at (1, 2, 0, 0, 1, 1)")
    assert exc.value.witness.indices == (1, 2, 0, 0, 1, 1)
