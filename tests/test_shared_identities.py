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
"""

import random
from dataclasses import replace

import pytest

from fixtures import Q, corpus, dual_numbers, truncated_polynomials3
from xprod import (
    TwoSidedData,
    check_brzezinski,
    check_mirror,
    check_twisting,
    check_twosided,
    flip,
    lift_twisting_to_brzezinski,
    lift_twisting_to_mirror,
)
from xprod.constructions import braid_report
from xprod.exactla import from_columns, zero_map


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
