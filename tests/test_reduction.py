"""Reduction mod p preserves every two-sided condition.

Each condition is a polynomial identity with integer coefficients in the
entries of the structure constants, the units and the maps.  So when integer
data passes ``check_twosided`` over Q, its reduction mod p passes over F_p,
provided every unit stays nonzero (a pointed space needs a nonzero point).
The converse does not hold, and is not tested: a failing identity over Q may
fail by a multiple of p.  The data are the integer-entry Q corpus datasets
and seeded mutants of them that change one integer entry of one map or one
unit."""

import random

import pytest

from fixtures import Q, corpus
from xprod import FinAlgebra, PointedSpace, PrimeField, TwoSidedData, check_twosided
from xprod.exactla import TensorMap, from_rows

MAPS = ("R1", "R2", "R3", "E")
UNITS = ("A", "V", "C")
MUTANTS = 24


def integer_entries(d: TwoSidedData):
    return [x for m in (d.A.mul, d.C.mul, d.R1, d.R2, d.R3, d.E) for row in m.rows for x in row
            ] + [x for leg in UNITS for x in getattr(d, leg).unit]


INTEGER_DATASETS = {name: d for name, d in corpus()
                    if d.field == Q and all(x.denominator == 1 for x in integer_entries(d))}


def convert(field, d: TwoSidedData, maps=None, units=None) -> TwoSidedData:
    """``d`` over ``field`` (entries read as integers), with some maps or
    units replaced; the algebras keep their structure constants unvalidated."""
    maps, units = maps or {}, units or {}

    def entries(xs):
        return tuple(field.from_int(int(x)) for x in xs)

    def matrix(m: TensorMap):
        return from_rows(field, m.domain, m.codomain, tuple(map(entries, m.rows)))

    unit = {leg: entries(units.get(leg, getattr(d, leg).unit)) for leg in UNITS}
    return TwoSidedData(
        FinAlgebra(field, d.A.dim, matrix(d.A.mul), unit["A"]),
        PointedSpace(field, d.V.dim, unit["V"]),
        FinAlgebra(field, d.C.dim, matrix(d.C.mul), unit["C"]),
        **{name: matrix(maps.get(name, getattr(d, name))) for name in MAPS})


def mutants(name, d: TwoSidedData):
    """Seeded single-entry integer mutants of d, as (maps, units) replacements."""
    rng = random.Random(name)
    for _ in range(MUTANTS):
        target = rng.choice(MAPS + UNITS)
        value = Q.from_int(rng.randrange(-3, 4))
        if target in MAPS:
            m = getattr(d, target)
            rows = [list(row) for row in m.rows]
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
            rows[i][j] = value
            yield {target: from_rows(Q, m.domain, m.codomain, tuple(map(tuple, rows)))}, {}
        else:
            unit = list(getattr(d, target).unit)
            unit[rng.randrange(len(unit))] = value
            yield {}, {target: tuple(unit)}


@pytest.mark.parametrize("p", [2, 3])
def test_passing_over_q_implies_passing_mod_p(p):
    fp = PrimeField(p)
    passed_mutants = 0
    for name, d in sorted(INTEGER_DATASETS.items()):
        for maps, units in [({}, {}), *mutants(name, d)]:
            unit = {leg: units.get(leg, getattr(d, leg).unit) for leg in UNITS}
            if any(all(int(x) % p == 0 for x in u) for u in unit.values()):
                continue  # a unit would vanish mod p
            if not check_twosided(convert(Q, d, maps, units)).all_pass:
                continue
            passed_mutants += bool(maps or units)
            rep = check_twosided(convert(fp, d, maps, units))
            assert rep.all_pass, (name, maps, units, rep.failed_names())
    assert len(INTEGER_DATASETS) >= 6
    assert passed_mutants > 0  # the relation is exercised beyond the corpus itself
