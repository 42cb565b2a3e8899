"""The identities the checkers share: the twisting-map checker and the braid
report against the two-sided checker, and the order of bundled unit laws.

Conditions twR31, twR32 and twR33 are the twisting-map laws of R3 between A
and C, and equiv3 is the braid relation of R1, R2, R3.  So on every dataset
``check_twisting(R3, A, C)`` and ``braid_report`` must reach the same verdicts
as ``check_twosided``, and a failing pair must carry the same witness: the
same basis tuple and the same two sides.  The corpus passes everything; the
mutants, each with one column of R1, R2 or R3 replaced, supply the failures.

A condition that bundles two unit laws must name the law that fails, and
check its laws in a fixed order, which the smallest witness depends on.

Every data tuple refuses, on construction, maps over another field and maps
of the wrong shape, each with the one message format all tuples share.
"""

import random

import pytest

from fixtures import Q, corpus, dual_numbers, truncated_polynomials3
from xprod import (
    BrzData,
    MaData,
    MirrorData,
    PrimeField,
    TwoSidedData,
    check_brzezinski,
    check_mirror,
    check_twisting,
    check_twosided,
    flip,
    grouplike_coalgebra,
    lift_twisting_to_brzezinski,
    lift_twisting_to_mirror,
    scalar_algebra,
)
from xprod.algebra import PointedSpace
from xprod.constructions import braid_report, iterated_report
from xprod.errors import FieldMismatch, ShapeMismatch
from xprod.exactla import from_columns, shape, zero_map
from xprod.record import replace


def mutant(data, name, rng):
    """``data`` with one column of map ``name`` replaced by a different
    random vector with entries in {-1, 0, 1, 2}."""
    f = data.field
    m = getattr(data, name)
    j = rng.randrange(m.domain.total)
    old = m.column(j)
    new = old
    while new == old:
        new = tuple(f.parse(rng.choice(("-1", "0", "1", "2"))) for _ in old)
    cols = [new if t == j else m.column(t) for t in range(m.domain.total)]
    maps = {key: getattr(data, key) for key in ("R1", "R2", "R3", "E")}
    maps[name] = from_columns(f, m.domain, m.codomain, cols)
    return TwoSidedData(data.A, data.V, data.C, **maps)


def cases():
    rng = random.Random(5)
    for label, data in corpus():
        yield label, data
        for name in ("R1", "R2", "R3"):
            for t in range(3):
                yield f"{label}/{name}#{t}", mutant(data, name, rng)


def same_witness(one, other):
    return (one.indices, one.left, one.right) == (other.indices, other.left, other.right)


def test_twisting_and_braid_checks_agree_with_the_twosided_conditions():
    failing = {"unit": 0, "mult": 0, "braid": 0}
    count = 0
    for label, d in cases():
        count += 1
        two = {e.name: e for e in check_twosided(d).entries}
        tw = {e.name: e for e in check_twisting(d.R3, d.A, d.C).entries}
        braid = braid_report(d.R1, d.R2, d.R3, d.A, d.V, d.C).entries[0]

        # twR31 scans the C leg, R3(c⊗1_A), before the A leg, R3(1_C⊗a)
        units = [tw["twisting-unit-right"], tw["twisting-unit-left"]]
        assert two["twR31"].passed == all(u.passed for u in units), label
        if not two["twR31"].passed:
            failing["unit"] += 1
            first = next(u for u in units if not u.passed)
            assert same_witness(two["twR31"].witness, first.witness), label

        pairs = (("mult", two["twR32"], tw["twisting-mult-A"]),
                 ("mult", two["twR33"], tw["twisting-mult-B"]),
                 ("braid", two["equiv3"], braid))
        for kind, ours, theirs in pairs:
            assert ours.passed == theirs.passed, (label, ours.name)
            if not ours.passed:
                failing[kind] += 1
                assert same_witness(ours.witness, theirs.witness), (label, ours.name)
    assert count == 14 * 10
    assert all(failing.values()), failing


def broken(data, key, pair):
    """``data`` with map ``key`` set to zero (pair None), or with the first
    entry of its column at the basis pair ``pair`` moved by one."""
    m = getattr(data, key)
    f = m.field
    if pair is None:
        new = zero_map(f, m.domain, m.codomain)
    else:
        cols = [m.column(t) for t in range(m.domain.total)]
        j = m.domain.index(pair)
        cols[j] = (f.add(cols[j][0], f.one),) + cols[j][1:]
        new = from_columns(f, m.domain, m.codomain, cols)
    return replace(data, **{key: new})


A, B = dual_numbers(Q), truncated_polynomials3(Q)
BRZ = lift_twisting_to_brzezinski(A, B, flip(Q, B.dim, A.dim))
MIR = lift_twisting_to_mirror(A, B, flip(Q, B.dim, A.dim))
TWO = dict(corpus())["q-wide-middle"]


def twisting(d):
    """The twisting-map checks of the R in crossed-product data on A (x) B."""
    return check_twisting(d.R, d.A, B)


# Every unit basis vector here is e_0.  Moving one column breaks one law at
# basis index 1, so the witness must name that law; a zero map breaks both at
# index 0, so the witness names the law its condition checks first.
@pytest.mark.parametrize("check, data, key, pair, name, text", [
    (twisting, BRZ, "R", (0, 1), "twisting-unit-left", "R(1_B⊗a)=a⊗1_B"),
    (twisting, BRZ, "R", (1, 0), "twisting-unit-right", "R(b⊗1_A)=1_A⊗b"),
    (check_brzezinski, BRZ, "R", None, "brz1", "R(1_V⊗a)=a⊗1_V"),
    (check_brzezinski, BRZ, "R", (0, 1), "brz1", "R(1_V⊗a)=a⊗1_V"),
    (check_brzezinski, BRZ, "R", (1, 0), "brz1", "R(v⊗1_A)=1_A⊗v"),
    (check_brzezinski, BRZ, "sigma", None, "brz2", "σ(1_V⊗v)=1_A⊗v"),
    (check_brzezinski, BRZ, "sigma", (0, 1), "brz2", "σ(1_V⊗v)=1_A⊗v"),
    (check_brzezinski, BRZ, "sigma", (1, 0), "brz2", "σ(v⊗1_V)=1_A⊗v"),
    (check_mirror, MIR, "P", None, "mirtwunit", "P(b⊗1_W)=1_W⊗b"),
    (check_mirror, MIR, "P", (1, 0), "mirtwunit", "P(b⊗1_W)=1_W⊗b"),
    (check_mirror, MIR, "P", (0, 1), "mirtwunit", "P(1_B⊗w)=w⊗1_B"),
    (check_mirror, MIR, "nu", None, "mircocunit", "ν(w⊗1_W)=w⊗1_B"),
    (check_mirror, MIR, "nu", (1, 0), "mircocunit", "ν(w⊗1_W)=w⊗1_B"),
    (check_mirror, MIR, "nu", (0, 1), "mircocunit", "ν(1_W⊗w)=w⊗1_B"),
    (check_twosided, TWO, "R3", None, "twR31", "R3(c⊗1_A)=1_A⊗c"),
    (check_twosided, TWO, "R3", (1, 0), "twR31", "R3(c⊗1_A)=1_A⊗c"),
    (check_twosided, TWO, "R3", (0, 1), "twR31", "R3(1_C⊗a)=a⊗1_C"),
    (check_twosided, TWO, "R1", None, "unit-R1", "R1(1_V⊗a)=a⊗1_V"),
    (check_twosided, TWO, "R1", (1, 0), "unit-R1", "R1(v⊗1_A)=1_A⊗v"),
    (check_twosided, TWO, "R1", (0, 1), "unit-R1", "R1(1_V⊗a)=a⊗1_V"),
    (check_twosided, TWO, "R2", None, "unit-R2", "R2(c⊗1_V)=1_V⊗c"),
    (check_twosided, TWO, "R2", (1, 0), "unit-R2", "R2(c⊗1_V)=1_V⊗c"),
    (check_twosided, TWO, "R2", (0, 1), "unit-R2", "R2(1_C⊗v)=v⊗1_C"),
    (check_twosided, TWO, "E", None, "unit-E", "E(1_V⊗v)=1_A⊗v⊗1_C"),
    (check_twosided, TWO, "E", (0, 1), "unit-E", "E(1_V⊗v)=1_A⊗v⊗1_C"),
    (check_twosided, TWO, "E", (1, 0), "unit-E", "E(v⊗1_V)=1_A⊗v⊗1_C"),
])
def test_unit_law_witness_names_the_broken_law(check, data, key, pair, name, text):
    report = check(broken(data, key, pair))
    witness = next(e for e in report.entries if e.name == name).witness
    assert witness.identity == text
    assert witness.indices == ((0,) if pair is None else (1,))


# Legs of distinct dimensions, so that a message names which leg is which:
# A, B and the algebra legs have dim 2, V, W and H dim 3, C dim 1.
A2, V3, C1 = dual_numbers(Q), PointedSpace(Q, 3, (Q.one, Q.zero, Q.zero)), scalar_algebra(Q)
DATA_TUPLES = {
    # class: (its non-map parts, what its field refusal calls it, map shapes)
    TwoSidedData: (dict(A=A2, V=V3, C=C1), "two-sided data", {
        "R1": ((3, 2), (2, 3)), "R2": ((1, 3), (3, 1)), "R3": ((1, 2), (2, 1)),
        "E": ((3, 3), (2, 3, 1))}),
    BrzData: (dict(A=A2, V=V3), "crossed product data", {
        "R": ((3, 2), (2, 3)), "sigma": ((3, 3), (2, 3))}),
    MirrorData: (dict(W=V3, B=A2), "mirror crossed product data", {
        "P": ((2, 3), (3, 2)), "nu": ((3, 3), (3, 2))}),
    MaData: (dict(H=grouplike_coalgebra(Q, 3), A=A2, B=C1), "coalgebra-based data", {
        "G": ((3, 3), (2, 3)), "R": ((3, 2), (2, 3)), "T": ((1, 3), (3, 1)),
        "tau": ((3, 3), (1,))}),
}


def zero_maps(field, shapes):
    return {name: zero_map(field, shape(*dom), shape(*cod))
            for name, (dom, cod) in shapes.items()}


@pytest.mark.parametrize("cls, name", [(cls, name) for cls, (_, _, shapes) in
                                       DATA_TUPLES.items() for name in shapes],
                         ids=lambda x: getattr(x, "__name__", x))
def test_data_tuples_refuse_other_fields_and_shapes_on_construction(cls, name):
    parts, what, shapes = DATA_TUPLES[cls]
    maps = zero_maps(Q, shapes)
    cls(**parts, **maps)
    dom, cod = shapes[name]
    with pytest.raises(ShapeMismatch) as exc:
        cls(**parts, **dict(maps, **zero_maps(Q, {name: (cod, dom)})))
    assert str(exc.value) == (f"{name} must map {list(dom)} to {list(cod)}, "
                              f"got {list(cod)} to {list(dom)}")
    with pytest.raises(FieldMismatch) as exc:
        cls(**parts, **dict(maps, **zero_maps(PrimeField(3), {name: (dom, cod)})))
    assert str(exc.value) == f"{what} across different fields"


def test_check_twisting_refuses_a_misshaped_map_by_its_name():
    with pytest.raises(ShapeMismatch) as exc:
        check_twisting(zero_map(Q, shape(2, 1), shape(1, 2)), A2, C1)
    assert str(exc.value) == "R must map [1, 2] to [2, 1], got [2, 1] to [1, 2]"
    with pytest.raises(FieldMismatch) as exc:
        check_twisting(zero_map(PrimeField(3), shape(1, 2), shape(2, 1)), A2, C1)
    assert str(exc.value) == "twisting map check across different fields"


@pytest.mark.parametrize("name", ["R1", "R2", "R3"])
def test_iterated_report_refuses_a_misshaped_twist_by_its_name(name):
    # the iterated legs A, B, C have dims 2, 3, 1, as A, V, C of two-sided data
    shapes = {key: DATA_TUPLES[TwoSidedData][2][key] for key in ("R1", "R2", "R3")}
    dom, cod = shapes[name]
    maps = dict(zero_maps(Q, shapes), **zero_maps(Q, {name: (cod, dom)}))
    with pytest.raises(ShapeMismatch) as exc:
        iterated_report(A2, truncated_polynomials3(Q), C1, maps["R1"], maps["R2"], maps["R3"])
    assert str(exc.value) == (f"{name} must map {list(dom)} to {list(cod)}, "
                              f"got {list(cod)} to {list(dom)}")
