"""The two-sided crossed product: checks, builder, presentations, converse,
universal property."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    Q,
    corpus,
    dual_numbers,
    group_algebra_z2,
    moved_maps,
    truncated_polynomials3,
    twosided_bicocycle,
    twosided_flip_trivial,
    twosided_graded,
)
from xprod import (
    BrzData,
    CONDITION_LABELS,
    FinAlgebra,
    MirrorData,
    PrimeField,
    TwoSidedData,
    build_brzezinski,
    build_mirror,
    build_ttp,
    build_twosided,
    check_brzezinski,
    check_mirror,
    check_twosided,
    conjugate_algebra,
    derive_maps,
    extract,
    flip,
    force_build_twosided,
    identity,
    is_algebra_map,
    new_algebra,
    ordinary_tensor,
    permute_factors,
    presentations_agree,
    same_algebra,
    universal_map,
)
from xprod.algebra import PointedSpace
from xprod.constructions import _is_flip, product_connector, transport
from xprod.record import replace
from xprod.twosided import CONDITIONS, MAP_NAMES
from xprod.errors import (
    AxiomFailure,
    InternalCheckError,
    NotAlgebraMap,
    PremiseFail,
    ShapeMismatch,
    SplitFail,
    UnitMismatch,
)
from xprod.report import Witness
from xprod.exactla import (
    TensorMap,
    basis_vector,
    compose,
    from_columns,
    from_rows,
    invert,
    shape,
    tensor,
    tensor_vec,
    vscale,
)

CORPUS = dict(corpus())


def legs(field, dims, vec):
    shp = shape(*dims)
    return [(shp.multi(t), x) for t, x in enumerate(vec) if not field.is_zero(x)]


def test_all_condition_labels_present_in_order():
    rep = check_twosided(CORPUS["q-dual-flip-trivial"])
    assert tuple(e.name for e in rep.entries) == CONDITION_LABELS


def _random_map(rng, like):
    """A random map of the same shape and field as ``like``, other than it."""
    f = like.field
    while True:
        m = from_columns(f, like.domain, like.codomain, [
            tuple(f.from_int(rng.randrange(f.p)) for _ in range(like.codomain.total))
            for _ in range(like.domain.total)])
        if m.cols != like.cols:
            return m


def _perturbed(rng, like):
    """``like`` half the time, else ``like`` with one column redrawn or a
    random map."""
    kind = rng.randrange(4)
    if kind < 2:
        return like
    if kind == 3:
        return _random_map(rng, like)
    cols = list(like.cols)
    j = rng.randrange(len(cols))
    cols[j] = _random_map(rng, like).cols[j]
    return TensorMap(like.field, like.domain, like.codomain, tuple(cols))


def test_condition_maps_are_read_off_the_steps():
    # each condition's maps are the names among R1, R2, R3, E that its
    # declared steps apply, in that order: the search keys its verdicts by them
    assert {cond.label: cond.maps for cond in CONDITIONS} == {
        "twR31": ("R3",), "twR32": ("R3",), "twR33": ("R3",), "unit-R1": ("R1",),
        "unit-R2": ("R2",), "unit-E": ("E",), "equiv1": ("R1",), "equiv2": ("R2",),
        "equiv3": ("R1", "R2", "R3"), "equiv4": ("R1", "R3", "E"),
        "equiv5": ("R2", "R3", "E"), "equiv6": ("R1", "R2", "E")}


@pytest.mark.parametrize("p", [2, 3])
def test_each_condition_depends_only_on_the_maps_it_declares(p):
    # Swapping every map a condition does not declare for a different map of
    # the same shape leaves its verdict and its witness unchanged; this is what
    # makes the search's verdict cache, keyed by the declared maps, sound.
    f = PrimeField(p)
    rng = random.Random(p)
    base = twosided_flip_trivial(dual_numbers(f), truncated_polynomials3(f),
                                 group_algebra_z2(f))
    names = ("R1", "R2", "R3", "E")
    assert [cond.label for cond in CONDITIONS] == list(CONDITION_LABELS)
    assert all(set(cond.maps) <= set(names) for cond in CONDITIONS)
    seen = {label: set() for label in CONDITION_LABELS}
    for _ in range(24):
        maps = {m: _perturbed(rng, getattr(base, m)) for m in names}
        for cond in CONDITIONS:
            entry = cond.evaluate(base.A, base.V, base.C, maps)
            swapped = {m: maps[m] if m in cond.maps else _random_map(rng, maps[m])
                       for m in names}
            assert cond.evaluate(base.A, base.V, base.C, swapped) == entry
            seen[cond.label].add(entry.passed)
    assert all(verdicts == {True, False} for verdicts in seen.values()), sorted(seen.items())


def test_flips_with_commutative_v_product_all_pass():
    g = group_algebra_z2(Q)
    data = twosided_flip_trivial(g, g, g)
    assert check_twosided(data).all_pass


def test_graded_fixture_all_pass():
    assert check_twosided(CORPUS["q-dual-graded-super"]).all_pass


def oracle_equiv6_sides(d, j, jp, jpp):
    """Independent leg-by-leg evaluation of both sides of equiv6."""
    f = d.field
    na, nv, nc = d.A.dim, d.V.dim, d.C.dim
    out_dims = (na, nv, nc)

    def e_legs(x, y):
        return legs(f, out_dims, d.E.apply(tensor_vec(
            f, basis_vector(f, nv, x), basis_vector(f, nv, y))))

    def e_legs_vec(xvec, y):
        return legs(f, out_dims, d.E.apply(tensor_vec(f, xvec, basis_vector(f, nv, y))))

    lhs = {}
    for (a1, b1, g1), c1 in e_legs(jp, jpp):
        r1out = d.R1.apply(tensor_vec(f, basis_vector(f, nv, j),
                                      basis_vector(f, na, a1)))
        for (a2, v2), c2 in legs(f, (na, nv), r1out):
            inner = d.E.apply(tensor_vec(f, basis_vector(f, nv, v2),
                                         basis_vector(f, nv, b1)))
            for (a3, b3, g3), c3 in legs(f, out_dims, inner):
                amul = d.A.mul_vec(basis_vector(f, na, a2), basis_vector(f, na, a3))
                cmul = d.C.mul_vec(basis_vector(f, nc, g3), basis_vector(f, nc, g1))
                coef = f.mul(f.mul(c1, c2), c3)
                for (ka,), xa in legs(f, (na,), amul):
                    for (kc,), xc in legs(f, (nc,), cmul):
                        key = (ka, b3, kc)
                        lhs[key] = f.add(lhs.get(key, f.zero),
                                         f.mul(coef, f.mul(xa, xc)))
    rhs = {}
    for (a1, b1, g1), c1 in e_legs(j, jp):
        r2out = d.R2.apply(tensor_vec(f, basis_vector(f, nc, g1),
                                      basis_vector(f, nv, jpp)))
        for (v2, c2i), c2 in legs(f, (nv, nc), r2out):
            inner = d.E.apply(tensor_vec(f, basis_vector(f, nv, b1),
                                         basis_vector(f, nv, v2)))
            for (a3, b3, g3), c3 in legs(f, out_dims, inner):
                amul = d.A.mul_vec(basis_vector(f, na, a1), basis_vector(f, na, a3))
                cmul = d.C.mul_vec(basis_vector(f, nc, g3), basis_vector(f, nc, c2i))
                coef = f.mul(f.mul(c1, c2), c3)
                for (ka,), xa in legs(f, (na,), amul):
                    for (kc,), xc in legs(f, (nc,), cmul):
                        key = (ka, b3, kc)
                        rhs[key] = f.add(rhs.get(key, f.zero),
                                         f.mul(coef, f.mul(xa, xc)))

    def dense(dic):
        shp = shape(*out_dims)
        out = [f.zero] * shp.total
        for key, val in dic.items():
            if not f.is_zero(val):
                out[shp.index(key)] = val
        return tuple(out)

    return dense(lhs), dense(rhs)


def test_perturbed_e_fails_equiv6_with_reproducible_witness():
    base = CORPUS["q-dual-graded-super"]
    cols = [base.E.column(t) for t in range(4)]
    # E(x (x) x) = x (x) 1_V (x) 1_C
    cols[3] = tensor_vec(Q, basis_vector(Q, 2, 1), basis_vector(Q, 2, 0),
                         basis_vector(Q, 2, 0))
    bad = TwoSidedData(base.A, base.V, base.C, base.R1, base.R2, base.R3,
                       from_columns(Q, shape(2, 2), shape(2, 2, 2), cols))
    rep = check_twosided(bad)
    entry = rep.get("equiv6")
    assert not entry.passed
    assert entry.witness.indices == (1, 1, 1)
    lhs, rhs = oracle_equiv6_sides(bad, 1, 1, 1)
    assert lhs != rhs
    assert entry.witness.left == lhs
    assert entry.witness.right == rhs


def test_derive_maps_flip_case():
    d = CORPUS["q-dual-flip-trivial"]
    derived = derive_maps(d)
    # R is the plain factor rotation (v (x) c (x) a -> a (x) v (x) c)
    assert derived.R.rows == permute_factors(Q, (2, 2, 2), (2, 0, 1)).rows
    assert derived.P.rows == permute_factors(Q, (2, 2, 2), (1, 2, 0)).rows
    # sigma and nu collapse to the componentwise products
    f = Q
    dd = dual_numbers(Q)
    for j, k, jp, kp in product(range(2), repeat=4):
        got = derived.sigma.apply(tensor_vec(
            f, basis_vector(f, 2, j), basis_vector(f, 2, k),
            basis_vector(f, 2, jp), basis_vector(f, 2, kp)))
        vv = dd.mul_vec(basis_vector(f, 2, j), basis_vector(f, 2, jp))
        cc = dd.mul_vec(basis_vector(f, 2, k), basis_vector(f, 2, kp))
        assert got == tensor_vec(f, d.A.unit, vv, cc)
    for i, j, ip, jp in product(range(2), repeat=4):
        got = derived.nu.apply(tensor_vec(
            f, basis_vector(f, 2, i), basis_vector(f, 2, j),
            basis_vector(f, 2, ip), basis_vector(f, 2, jp)))
        aa = dd.mul_vec(basis_vector(f, 2, i), basis_vector(f, 2, ip))
        vv = dd.mul_vec(basis_vector(f, 2, j), basis_vector(f, 2, jp))
        assert got == tensor_vec(f, aa, vv, d.C.unit)


def test_derive_maps_graded_sign():
    d = CORPUS["q-dual-graded-super"]
    derived = derive_maps(d)
    x = basis_vector(Q, 2, 1)
    one_c = basis_vector(Q, 2, 0)
    got = derived.R.apply(tensor_vec(Q, x, one_c, x))
    want = vscale(Q, Q.neg(Q.one), tensor_vec(Q, x, x, one_c))
    assert got == want


def test_derive_maps_unit_slot_is_identity_like():
    d = CORPUS["q-dual-graded-super"]
    derived = derive_maps(d)
    f = Q
    for j, k in product(range(2), repeat=2):
        got = derived.R.apply(tensor_vec(
            f, basis_vector(f, 2, j), basis_vector(f, 2, k), d.A.unit))
        assert got == tensor_vec(f, d.A.unit, basis_vector(f, 2, j),
                                 basis_vector(f, 2, k))


def test_build_graded_signs():
    m = build_twosided(CORPUS["q-dual-graded-super"])
    f = Q
    x = basis_vector(f, 2, 1)
    one = basis_vector(f, 2, 0)
    x11 = tensor_vec(f, x, one, one)
    ox1 = tensor_vec(f, one, x, one)
    xx1 = tensor_vec(f, x, x, one)
    assert m.mul_vec(x11, ox1) == xx1
    assert m.mul_vec(ox1, x11) == vscale(f, f.neg(f.one), xx1)


def test_scalar_end_collapse_gives_e_product_on_v():
    d = CORPUS["q-scalar-ends"]
    m = build_twosided(d)
    assert m.dim == 2
    # the product on V is exactly the middle component of E
    f = Q
    for j, jp in product(range(2), repeat=2):
        got = m.mul_vec(basis_vector(f, 2, j), basis_vector(f, 2, jp))
        want = d.E.apply(tensor_vec(f, basis_vector(f, 2, j), basis_vector(f, 2, jp)))
        assert got == want


def test_flip_fixture_builds_ordinary_triple_tensor():
    from xprod import ordinary_tensor
    d = CORPUS["q-dual-flip-trivial"]
    m = build_twosided(d)
    valg = dual_numbers(Q)
    want = ordinary_tensor(ordinary_tensor(d.A, valg), d.C)
    assert m.mul.rows == want.mul.rows and m.unit == want.unit


def test_embeddings_into_built_product_are_algebra_maps():
    d = CORPUS["q-dual-graded-super"]
    m = build_twosided(d)
    f = Q
    emb_a = from_columns(f, shape(2), shape(8), tuple(
        tensor_vec(f, basis_vector(f, 2, i), d.V.unit, d.C.unit) for i in range(2)))
    emb_c = from_columns(f, shape(2), shape(8), tuple(
        tensor_vec(f, d.A.unit, d.V.unit, basis_vector(f, 2, k)) for k in range(2)))
    assert is_algebra_map(emb_a, d.A, m).all_pass
    assert is_algebra_map(emb_c, d.C, m).all_pass


def test_presentations_agree_on_fixtures():
    for name in ("q-dual-flip-trivial", "q-dual-graded-super", "q-ut2-pointed-line"):
        rep = presentations_agree(CORPUS[name])
        assert rep.all_pass, name


def test_cubic_truncated_triple_n27_checks_builds_and_agrees():
    # N = 27 with every cross-check on: the composite form of each condition,
    # the composite product route, and both presentations
    t3 = truncated_polynomials3(Q)
    d = twosided_flip_trivial(t3, t3, t3)
    assert check_twosided(d).all_pass
    m = build_twosided(d)
    want = ordinary_tensor(ordinary_tensor(t3, t3), t3)
    assert m.dim == 27
    assert m.mul.rows == want.mul.rows and m.unit == want.unit
    assert presentations_agree(d).all_pass


def test_dim1_v_degenerates_to_ttp():
    d = CORPUS["q-ut2-pointed-line"]
    m = build_twosided(d)
    t = build_ttp(d.A, d.C, d.R3)
    assert m.mul.rows == t.mul.rows and m.unit == t.unit


def test_unit_laws_direct():
    for name in ("q-dual-graded-super", "f2-searched-0"):
        d = CORPUS[name]
        m = build_twosided(d)
        f = d.field
        unit = tensor_vec(f, d.A.unit, d.V.unit, d.C.unit)
        assert m.unit == unit
        for t in range(m.dim):
            e = basis_vector(f, m.dim, t)
            assert m.mul_vec(unit, e) == e
            assert m.mul_vec(e, unit) == e


def test_build_requires_all_pass():
    base = CORPUS["q-dual-graded-super"]
    cols = [base.E.column(t) for t in range(4)]
    cols[3] = tensor_vec(Q, basis_vector(Q, 2, 1), basis_vector(Q, 2, 0),
                         basis_vector(Q, 2, 0))
    bad = TwoSidedData(base.A, base.V, base.C, base.R1, base.R2, base.R3,
                       from_columns(Q, shape(2, 2), shape(2, 2, 2), cols))
    with pytest.raises(AxiomFailure) as exc:
        build_twosided(bad)
    assert "equiv6" in exc.value.report.failed_names()


# -- converse ------------------------------------------------------------------

def test_extract_round_trip_graded():
    d = CORPUS["q-dual-graded-super"]
    got = extract(build_twosided(d), d.A, d.V, d.C)
    for label in ("R1", "R2", "R3", "E"):
        assert getattr(got, label).rows == getattr(d, label).rows


def test_extract_ordinary_triple_gives_flips_and_trivial_e():
    dq = dual_numbers(Q)
    gq = group_algebra_z2(Q)
    d = twosided_flip_trivial(dq, gq, dq)
    got = extract(build_twosided(d), d.A, d.V, d.C)
    assert got.R1.rows == flip(Q, 2, 2).rows
    assert got.R2.rows == flip(Q, 2, 2).rows
    assert got.R3.rows == flip(Q, 2, 2).rows
    assert got.E.rows == product_connector(dq, gq, dq).rows


def corrupted_algebra():
    """Transport the graded fixture along a unipotent map mixing C into V."""
    d = CORPUS["q-dual-graded-super"]
    m = build_twosided(d)
    rows = [list(r) for r in identity(Q, shape(8)).rows]
    rows[1][6] = Q.one  # e_(1,1,0) also feeds e_(0,0,1)
    g = from_rows(Q, shape(8), shape(8), tuple(tuple(r) for r in rows))
    return d, conjugate_algebra(m, g)


def test_extract_split_fail_with_valid_witness():
    d, bad = corrupted_algebra()
    with pytest.raises(SplitFail) as exc:
        extract(bad, d.A, d.V, d.C)
    assert exc.value.which == "ajut1"
    w = exc.value.witness
    assert w.indices == (1, 1)
    # re-evaluate: the product (1 (x) x (x) 1) (x (x) 1 (x) 1) in the corrupted
    # algebra must reproduce the witness vector and escape A (x) V (x) span(1_C)
    f = Q
    x = basis_vector(f, 2, 1)
    one = basis_vector(f, 2, 0)
    got = bad.mul_vec(tensor_vec(f, one, x, one), tensor_vec(f, x, one, one))
    assert got == w.left
    assert got != w.right
    assert not f.is_zero(got[shape(2, 2, 2).index((0, 0, 1))])


def test_extract_non_basis_unit_over_f2():
    from fixtures import F2, twosided_flip_trivial, upper_triangular2
    from xprod import scalar_algebra
    u = upper_triangular2(F2)  # unit (1, 0, 1): the projector must complete it
    d = twosided_flip_trivial(u, scalar_algebra(F2), u)
    got = extract(build_twosided(d), d.A, d.V, d.C)
    for label in ("R1", "R2", "R3", "E"):
        assert getattr(got, label).rows == getattr(d, label).rows


def test_extract_bicocycle_round_trip():
    # E has nonunit components in both outer slots
    d = CORPUS["q-bicocycle"]
    got = extract(build_twosided(d), d.A, d.V, d.C)
    assert got.E.rows == d.E.rows


def test_extract_checks_the_extracted_data_once(monkeypatch):
    # the rebuild checks the extracted data, and extract does not check it
    # again; a failing check is an internal error that names it
    import xprod.twosided
    honest, reports = xprod.twosided.check_twosided, []
    monkeypatch.setattr(xprod.twosided, "check_twosided",
                        lambda data: reports.append(honest(data)) or reports[-1])
    d = CORPUS["q-dual-flip-trivial"]
    m = build_twosided(d)
    reports.clear()
    assert extract(m, d.A, d.V, d.C) == d
    assert len(reports) == 1
    # the product of basis vectors 1 and 2 gains e_0: the splits still
    # hold, but the product is no longer associative
    cols = list(m.mul.cols)
    column = dict(cols[10])
    column[0] = Q.add(column.get(0, Q.zero), Q.one)
    cols[10] = tuple(sorted((k, x) for k, x in column.items() if x))
    mutant = FinAlgebra(Q, m.dim, TensorMap(Q, m.mul.domain, m.mul.codomain, tuple(cols)),
                        m.unit)
    reports.clear()
    with pytest.raises(InternalCheckError) as exc:
        extract(mutant, d.A, d.V, d.C)
    assert len(reports) == 1
    assert reports[0].failed_names() == ("equiv2", "equiv5")
    assert str(exc.value) == ("equiv2, equiv5 of the extracted maps: splitting and two-sided "
                              "conditions disagree at (1, 1, 1)")
    assert exc.value.witness == reports[0].get("equiv2").witness


def test_extract_unit_mismatch():
    d = CORPUS["q-dual-graded-super"]
    m = build_twosided(d)
    from xprod.algebra import PointedSpace
    wrong_v = PointedSpace(Q, 2, basis_vector(Q, 2, 1))
    with pytest.raises(UnitMismatch):
        extract(m, d.A, wrong_v, d.C)


def test_extract_wrong_component_algebra_is_not_algebra_map():
    d = CORPUS["q-dual-graded-super"]
    m = build_twosided(d)
    wrong_a = group_algebra_z2(Q)
    with pytest.raises(NotAlgebraMap) as exc:
        extract(m, wrong_a, d.V, d.C)
    assert "a ↦" in exc.value.which


# -- universal property ----------------------------------------------------------

def canonical_embeddings(d):
    f = d.field
    na, nv, nc = d.A.dim, d.V.dim, d.C.dim
    n = na * nv * nc
    fa = from_columns(f, shape(na), shape(n), tuple(
        tensor_vec(f, basis_vector(f, na, i), d.V.unit, d.C.unit) for i in range(na)))
    fv = from_columns(f, shape(nv), shape(n), tuple(
        tensor_vec(f, d.A.unit, basis_vector(f, nv, j), d.C.unit) for j in range(nv)))
    fc = from_columns(f, shape(nc), shape(n), tuple(
        tensor_vec(f, d.A.unit, d.V.unit, basis_vector(f, nc, k)) for k in range(nc)))
    return fa, fv, fc


def test_universal_canonical_embeddings_give_identity():
    d = CORPUS["q-dual-graded-super"]
    x = build_twosided(d)
    fa, fv, fc = canonical_embeddings(d)
    f = universal_map(d, x, fa, fv, fc)
    assert f.rows == identity(Q, shape(x.dim)).rows


def test_universal_scalar_ends_driven_by_fv():
    d = CORPUS["q-scalar-ends"]
    f = Q
    dq = dual_numbers(Q)
    x = dq
    unit_emb = from_columns(f, shape(1), shape(2), (dq.unit,))
    fv_good = identity(f, shape(2))
    result = universal_map(d, x, unit_emb, fv_good, unit_emb)
    assert result.rows == identity(f, shape(2)).rows
    # fV not multiplicative for the E-product: fV(x) = 1_A
    fv_bad = from_columns(f, shape(2), shape(2), (dq.unit, dq.unit))
    with pytest.raises(PremiseFail) as exc:
        universal_map(d, x, unit_emb, fv_bad, unit_emb)
    assert exc.value.which == "premise-2"


def test_universal_premise1_violation_with_reproducible_witness():
    d = CORPUS["q-ut2-pointed-line"]
    u = d.A
    idu = identity(Q, shape(3))
    fv = from_columns(Q, shape(1), shape(3), (u.unit,))
    with pytest.raises(PremiseFail) as exc:
        universal_map(d, u, idu, fv, idu)
    assert exc.value.which == "premise-1"
    w = exc.value.witness
    k, j, i = w.indices
    # re-evaluate both sides: with flips, premise 1 reads f_C(c) f_A(a) = f_A(a) f_C(c)
    ec = basis_vector(Q, 3, k)
    ea = basis_vector(Q, 3, i)
    assert u.mul_vec(ec, ea) == w.left
    assert u.mul_vec(ea, ec) == w.right
    assert w.left != w.right


@pytest.mark.parametrize("which", ["fA", "fC", "unit-fV"])
def test_universal_premise_on_a_given_map_fails_with_its_witness(which):
    # fA scaled by 2 breaks its unit law, fC with x ↦ 1_X its multiplicativity
    # at (x, x), and fV scaled by 2 sends 1_V to 2·1_X
    d = CORPUS["q-dual-flip-trivial"]
    x = build_twosided(d)
    two = Q.from_int(2)
    maps = dict(zip(("fA", "unit-fV", "fC"), canonical_embeddings(d)))
    if which == "fC":
        maps[which] = from_columns(Q, shape(2), shape(8), (x.unit, x.unit))
        want = Witness((1, 1), vscale(Q, Q.zero, x.unit), x.unit, "f(ab)=f(a)f(b)")
    else:
        m = maps[which]
        maps[which] = from_columns(Q, m.domain, m.codomain,
                                   (vscale(Q, two, m.column(j)) for j in range(2)))
        want = Witness((), vscale(Q, two, x.unit), x.unit,
                       "f(1)=1" if which == "fA" else "f_V(1_V)=1_X")
    with pytest.raises(PremiseFail) as exc:
        universal_map(d, x, maps["fA"], maps["unit-fV"], maps["fC"])
    assert exc.value.which == which
    assert exc.value.witness == want


@given(st.sampled_from(["R1", "R2", "R3", "E"]), st.data())
@settings(max_examples=30, deadline=None)
def test_random_single_entry_mutation_sound_or_witnessed(map_name, data):
    """Soundness and failure isolation under random single-entry edits.

    Any single-entry change over F2 either leaves all twelve conditions
    passing, in which case the build must succeed and be associative, or some
    condition fails and every failing entry carries a witness whose two sides
    genuinely differ.
    """
    base = CORPUS["f2-dual-flip-trivial"]
    parts = {"R1": base.R1, "R2": base.R2, "R3": base.R3, "E": base.E}
    m = parts[map_name]
    row = data.draw(st.integers(0, len(m.rows) - 1))
    col = data.draw(st.integers(0, m.domain.total - 1))
    rows = [list(r) for r in m.rows]
    rows[row][col] = m.field.add(rows[row][col], m.field.one)
    parts[map_name] = from_rows(m.field, m.domain, m.codomain,
                                tuple(tuple(r) for r in rows))
    mutant = TwoSidedData(base.A, base.V, base.C, parts["R1"], parts["R2"],
                          parts["R3"], parts["E"])
    rep = check_twosided(mutant)
    if rep.all_pass:
        built = build_twosided(mutant)
        from xprod.algebra import associativity_witness
        assert associativity_witness(built) is None
    else:
        for entry in rep.entries:
            if not entry.passed:
                assert entry.witness is not None
                assert entry.witness.left != entry.witness.right


def test_universal_result_is_algebra_map():
    d = CORPUS["q-dual-flip-trivial"]
    x = build_twosided(d)
    fa, fv, fc = canonical_embeddings(d)
    f = universal_map(d, x, fa, fv, fc)
    assert is_algebra_map(f, build_twosided(d), x).all_pass


# -- metamorphic: relabelling the bases keeps the verdicts ---------------------

F3 = PrimeField(3)
D3 = dual_numbers(F3)
METAMORPHIC = {**CORPUS, **{
    "f3-dual-flip-trivial": twosided_flip_trivial(D3, D3, D3),
    "f3-dual-graded-super": twosided_graded(D3, D3, D3, (0, 1), (0, 1), (0, 1)),
    "f3-mixed-flip-trivial": twosided_flip_trivial(
        group_algebra_z2(F3), truncated_polynomials3(F3), D3),
    "f3-bicocycle": twosided_bicocycle(F3),
}}

def basis_permutation(field, n, rng):
    """The map e_j -> e_perm(j) for a seeded permutation, and its inverse."""
    perm = rng.sample(range(n), n)
    inverse = sorted(range(n), key=perm.__getitem__)
    return tuple(TensorMap(field, shape(n), shape(n), tuple(((p[j], field.one),) for j in range(n)))
                 for p in (perm, inverse))


def basis_change(field, n, rng):
    """A seeded invertible map with integer entries -2..2, and its inverse
    from ``exactla.invert``: a general change of basis, which need not keep a
    unit a basis vector or a map's columns sparse."""
    while True:
        rows = tuple(tuple(field.from_int(rng.randint(-2, 2)) for _ in range(n))
                     for _ in range(n))
        try:
            inverse = invert(field, rows)
        except ShapeMismatch:  # singular: draw again
            continue
        return tuple(from_rows(field, shape(n), shape(n), m) for m in (rows, inverse))


def changed(d, changes):
    """``d`` with A, V and C conjugated by the changes of basis ``changes``,
    one (g, g^-1) pair a leg, and R1, R2, R3 and E transported to match:
    g_cod o m o g_dom^-1, leg by leg."""
    return TwoSidedData(conjugate_algebra(d.A, changes[0][0]),
                        PointedSpace(d.field, d.V.dim, changes[1][0].apply(d.V.unit)),
                        conjugate_algebra(d.C, changes[2][0]), **moved_maps(d, changes))


def relabelled(d, rng, change=basis_permutation):
    """``d`` :func:`changed` by a seeded change of basis (``change``) of each
    of A, V and C."""
    return changed(d, [change(d.field, space.dim, rng) for space in (d.A, d.V, d.C)])


def raised_entry(m, rng):
    """``m`` with one seeded matrix entry raised by one."""
    rows = [list(row) for row in m.rows]
    i, j = rng.randrange(len(rows)), rng.randrange(m.domain.total)
    rows[i][j] = m.field.add(rows[i][j], m.field.one)
    return from_rows(m.field, m.domain, m.codomain, tuple(map(tuple, rows)))


def single_entry_mutant(d, rng, names=MAP_NAMES):
    """``d`` with one seeded matrix entry of one of its maps ``names`` raised by one."""
    name = rng.choice(names)
    return replace(d, **{name: raised_entry(getattr(d, name), rng)})


@pytest.mark.parametrize("label", sorted(METAMORPHIC))
def test_relabelling_the_bases_keeps_the_failing_conditions(label):
    """Two relations.  Relabelling the bases of A, V and C, by permutations or
    by a general change of basis, keeps the failing conditions.  And no
    condition fails exactly when the forced build is associative and unital:
    the converse of the paper's theorem is not a theorem, but a relation
    measured on these families.  It held on 720 single- and double-entry
    mutants of these datasets and on 1,860 single-entry mutants of the 620
    unfrozen F2 dual-number search solutions.  The forced build decides it
    through the built product's laws, not through the twelve identities."""
    rng = random.Random(label)
    base = METAMORPHIC[label]
    failing = 0
    for d in (base, *(single_entry_mutant(base, rng) for _ in range(6))):
        want = check_twosided(d).failed_names()
        assert (not want) == (force_build_twosided(d).failure is None)
        failing += bool(want)
        for change in (basis_permutation, basis_permutation, basis_change):
            assert check_twosided(relabelled(d, rng, change)).failed_names() == want
    assert check_twosided(base).all_pass and failing > 0


# -- metamorphic: the opposite algebra -----------------------------------------

# the twelve labels under the opposite: the twins of A's and C's sides swap
OPPOSITE_LABEL = {**{x: x for x in CONDITION_LABELS}, **{
    a: b for pair in (("twR32", "twR33"), ("unit-R1", "unit-R2"), ("equiv1", "equiv2"),
                      ("equiv4", "equiv5")) for a, b in (pair, pair[::-1])}}


def opposite_algebra(alg):
    """A^op, with x * y = yx; an algebra exactly when A is."""
    return new_algebra(alg.field, alg.dim, compose(alg.mul, flip(alg.field, alg.dim, alg.dim)),
                       alg.unit)


def reversal(d):
    """The leg reversal a⊗v⊗c -> c⊗v⊗a of A⊗V⊗C, with its three legs."""
    return permute_factors(d.field, (d.A.dim, d.V.dim, d.C.dim), (2, 1, 0))


def opposite_data(d):
    """The data on C^op ⊗ V ⊗ A^op whose product is M^op, M the product of
    ``d``: R1' = τ R2 τ, R2' = τ R1 τ, R3' = τ R3 τ and E'(v⊗v') = rev E(v'⊗v),
    τ a flip of two legs and rev the leg reversal."""
    f, (a, v, c) = d.field, (d.A.dim, d.V.dim, d.C.dim)
    return TwoSidedData(
        opposite_algebra(d.C), d.V, opposite_algebra(d.A),
        compose(flip(f, v, c), d.R2, flip(f, v, c)),
        compose(flip(f, a, v), d.R1, flip(f, a, v)),
        compose(flip(f, a, c), d.R3, flip(f, a, c)),
        compose(reversal(d), d.E, flip(f, v, v)))


@pytest.mark.parametrize("label", sorted(METAMORPHIC))
def test_the_opposite_data_fail_the_twin_conditions(label):
    """Taking opposites maps the verdicts by the involution ``OPPOSITE_LABEL``:
    each twin condition is checked against the other, though both routes write
    the two separately.  Where both build, the leg reversal is an isomorphism
    M^op -> M' of the two products: it carries the structure constants and
    the unit of one onto the other."""
    rng = random.Random(label)
    base = METAMORPHIC[label]
    built = 0
    for d in (base, *(single_entry_mutant(base, rng) for _ in range(10))):
        opp = opposite_data(d)
        want = check_twosided(d).failed_names()
        got = check_twosided(opp).failed_names()
        assert got == tuple(x for x in CONDITION_LABELS if OPPOSITE_LABEL[x] in want)
        if not want:
            m, m_opp = build_twosided(d), build_twosided(opp)
            n = m.dim
            rev = reversal(d).reshaped(shape(n), shape(n))
            assert (compose(rev, m.mul, flip(d.field, n, n)).cols
                    == compose(m_opp.mul, tensor(rev, rev)).cols)
            assert rev.apply(m.unit) == m_opp.unit
            built += 1
    assert built > 0


# the crossed products: the opposite of Brzeziński data is mirror data, and the
# five conditions of one are the five of the other, in order
MIRROR_LABEL = dict(zip(("brz1", "brz2", "brz3", "brz4", "brz5"),
                        ("mirtwunit", "mircocunit", "mirtwmap", "mir1", "mir2")))


def derived_brzezinski(d):
    """The Brzeziński data (A, V ⊗ C, R, σ) of ``d``, as its presentation
    A ⊗_{R,σ} (V ⊗ C) takes them."""
    f, m = d.field, derive_maps(d)
    vc = PointedSpace(f, d.V.dim * d.C.dim, tensor_vec(f, d.V.unit, d.C.unit))
    legs = (shape(vc.dim, d.A.dim), shape(d.A.dim, vc.dim), shape(vc.dim, vc.dim))
    return BrzData(d.A, vc, m.R.reshaped(legs[0], legs[1]), m.sigma.reshaped(legs[2], legs[1]))


def opposite_mirror(b):
    """The mirror data (V, A^op, P, ν) whose product is M^op, M the crossed
    product of ``b``: P = τ R τ and ν(v⊗v') = τ σ(v'⊗v), τ a flip."""
    f, na, nv = b.A.field, b.A.dim, b.V.dim
    tau = flip(f, na, nv)
    return MirrorData(b.V, opposite_algebra(b.A), compose(tau, b.R, tau),
                      compose(tau, b.sigma, flip(f, nv, nv)))


@pytest.mark.parametrize("label", sorted(METAMORPHIC))
def test_the_opposite_brzezinski_data_fail_the_twin_mirror_conditions(label):
    """brz1..brz5 of the derived data and of 5 seeded mutants of their R or σ
    fail exactly where the twin mirror conditions of the opposite data fail,
    though each is one transcription of its own.  Where both build, the flip
    A ⊗ V -> V ⊗ A carries M^op's structure constants and unit onto M′'s."""
    rng = random.Random(label)
    base = derived_brzezinski(METAMORPHIC[label])
    built = 0
    for b in (base, *(single_entry_mutant(base, rng, ("R", "sigma")) for _ in range(5))):
        opp = opposite_mirror(b)
        want = check_brzezinski(b).failed_names()
        assert check_mirror(opp).failed_names() == tuple(MIRROR_LABEL[x] for x in want)
        if not want:
            m, m_opp = build_brzezinski(b), build_mirror(opp)
            n = m.dim
            tau = flip(b.A.field, b.A.dim, b.V.dim).reshaped(shape(n), shape(n))
            assert (compose(tau, m.mul, flip(b.A.field, n, n)).cols
                    == compose(m_opp.mul, tensor(tau, tau)).cols)
            assert tau.apply(m.unit) == m_opp.unit
            built += 1
    assert built > 0


# a general change of basis makes these two Q datasets' entries grow, so
# they are moved by a permutation
PERMUTED_ONLY = ("q-ut2-pointed-line", "q-wide-middle")


@pytest.mark.parametrize("label", sorted(METAMORPHIC))
def test_a_change_of_basis_commutes_with_extract_and_transport(label):
    """The conjugated product splits into the changed data, and where R1 or
    R3 is the flip, so is the changed one's, and its transport is the moved
    product conjugated by g_V ⊗ g_A ⊗ g_C, with the same remarks and an
    equal report."""
    rng = random.Random(label)
    d = METAMORPHIC[label]
    change = basis_permutation if label in PERMUTED_ONLY else basis_change
    changes = [change(d.field, space.dim, rng) for space in (d.A, d.V, d.C)]
    g_a, g_v, g_c = (g for g, _ in changes)
    new = changed(d, changes)
    conjugated = conjugate_algebra(build_twosided(d), tensor(g_a, g_v, g_c))
    assert extract(conjugated, new.A, new.V, new.C) == new
    if _is_flip(d.R1) or _is_flip(d.R3):
        moved, data, rep = transport(d)
        new_moved, new_data, new_rep = transport(new)
        assert same_algebra(new_moved, conjugate_algebra(moved, tensor(g_v, g_a, g_c)))
        assert new_data.keys() == data.keys() and new_rep == rep


def induced(d, x, maps):
    """The rows of the map that ``maps`` (f_A, f_V, f_C) induce out of the
    product of ``d``, or the name of the first premise that fails."""
    try:
        return universal_map(d, x, *maps).rows
    except PremiseFail as exc:
        return exc.which


@pytest.mark.parametrize("label", sorted(METAMORPHIC))
def test_a_change_of_basis_commutes_with_universal(label):
    """On the changed data, f_A g_A⁻¹, f_V g_V⁻¹ and f_C g_C⁻¹ induce the old
    map composed with (g_A ⊗ g_V ⊗ g_C)⁻¹, and where a premise fails, the
    same premise fails on the changed data: the premises are identities of
    maps, so no basis decides them.  X is the product, with the canonical
    embeddings and one seeded single-entry mutant of each."""
    rng = random.Random(label)
    d = METAMORPHIC[label]
    change = basis_permutation if label in PERMUTED_ONLY else basis_change
    changes = [change(d.field, space.dim, rng) for space in (d.A, d.V, d.C)]
    new, x = changed(d, changes), build_twosided(d)
    n = x.dim
    inverse = tensor(*(g_inv for _, g_inv in changes)).reshaped(shape(n), shape(n))
    embeddings = canonical_embeddings(d)
    for k in (None, 0, 1, 2):  # the embeddings, then f_A, f_V or f_C mutated
        maps = [raised_entry(m, rng) if i == k else m for i, m in enumerate(embeddings)]
        want = induced(d, x, maps)
        got = induced(new, x, [compose(m, g_inv) for m, (_, g_inv) in zip(maps, changes)])
        if isinstance(want, str):
            assert got == want and k is not None
        else:
            assert got == compose(from_rows(d.field, shape(n), shape(n), want), inverse).rows
