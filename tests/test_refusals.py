"""Public input refusals, each pinned by the call that reaches it, the
exception type and the exact message.  These are the refusals that no other
test reaches: a refusal that is never run can change or break unseen."""

import json

import pytest

from fixtures import F2, Q, corpus, dual_numbers
from xprod import cli
from xprod.algebra import (
    FinAlgebra,
    PointedSpace,
    conjugate_algebra,
    is_algebra_map,
    new_algebra,
    new_coalgebra,
    ordinary_tensor,
)
from xprod.crossed import BrzData, check_brzezinski, check_twisting
from xprod.errors import DocumentError, FieldMismatch, ShapeMismatch
from xprod.exactla import (
    PrimeField,
    TensorMap,
    TensorShape,
    compose,
    flat_index,
    flip,
    from_columns,
    from_rows,
    identity,
    permute_factors,
    shape,
    tensor,
    unflatten,
    zero_map,
)
from xprod.report import Report
from xprod.twosided import TwoSidedData, check_twosided, extract, universal_map

DQ, DF2 = dual_numbers(Q), dual_numbers(F2)
ID2, ID3 = identity(Q, shape(2)), identity(Q, shape(3))
K_MUL = TensorMap(Q, shape(1, 1), shape(1), (((0, 1),),))  # the ground field's product
# legs given as FinAlgebra without new_algebra, outside the contract that a
# FinAlgebra is an algebra: one with a zero unit, one whose product has
# domain [4] rather than [2, 2]
ZERO_UNIT = FinAlgebra(Q, 1, zero_map(Q, shape(1, 1), shape(1)), (0,))
FLAT_MUL = FinAlgebra(Q, 2, DQ.mul.reshaped(shape(4)), DQ.unit)
SHORT_UNIT = FinAlgebra(Q, 2, DQ.mul, (1,))  # a unit of length 1 for dimension 2
FLIP_FLIP = dict(corpus())["q-dual-flip-trivial"]


def universal_into_f2():
    f = zero_map(F2, shape(2), shape(2))
    return universal_map(FLIP_FLIP, DF2, f, f, f)


REFUSALS = {
    # algebra
    "pointed-unit-length": (lambda: PointedSpace(Q, 2, (1,)), ShapeMismatch,
                            "unit vector length does not match dimension"),
    "mul-vec-length": (lambda: DQ.mul_vec((1,), (1, 0)), ShapeMismatch,
                       "vector length does not match algebra dimension"),
    "algebra-field": (lambda: new_algebra(F2, 1, K_MUL, (1,)), FieldMismatch,
                      "multiplication map is over a different field"),
    "algebra-mul-shape": (lambda: new_algebra(Q, 2, K_MUL, (1, 0)), ShapeMismatch,
                          "multiplication must map [2,2] to [2], got (1, 1) to (1,)"),
    "algebra-unit-length": (lambda: new_algebra(Q, 1, K_MUL, (1, 0)), ShapeMismatch,
                            "unit vector length does not match dimension"),
    "tensor-fields": (lambda: ordinary_tensor(DQ, DF2), FieldMismatch,
                      "tensor product of algebras over different fields"),
    "algebra-map-shape": (lambda: is_algebra_map(ID3, DQ, DQ), ShapeMismatch,
                          "map shape does not match the algebras"),
    "algebra-map-field": (lambda: is_algebra_map(identity(F2, shape(2)), DQ, DQ),
                          FieldMismatch, "algebra map check across different fields"),
    "conjugate-shape": (lambda: conjugate_algebra(DQ, ID3), ShapeMismatch,
                        "transport map must be an endomorphism of the algebra space"),
    "comul-shape": (lambda: new_coalgebra(Q, 2, ID2, zero_map(Q, shape(2), shape(1)), (1, 0)),
                    ShapeMismatch, "comultiplication must map [h] to [h,h]"),
    "counit-shape": (lambda: new_coalgebra(Q, 1, K_MUL.reshaped(shape(1), shape(1, 1)), ID2,
                                           (1,)), ShapeMismatch, "counit must map [h] to [1]"),
    "coalgebra-unit-length": (lambda: new_coalgebra(
        Q, 1, K_MUL.reshaped(shape(1), shape(1, 1)), identity(Q, shape(1)), (1, 0)),
        ShapeMismatch, "unit vector length does not match dimension"),
    # exactla
    "inverse-of-zero": (lambda: PrimeField(3).inv(0), ZeroDivisionError, "inverse of zero"),
    "factor-dimension": (lambda: TensorShape((2, 0)), ShapeMismatch,
                         "non-positive factor dimension in (2, 0)"),
    "multi-index-length": (lambda: flat_index(shape(2, 2), (1,)), ShapeMismatch,
                           "multi-index (1,) does not match shape (2, 2)"),
    "flat-index-range": (lambda: unflatten(shape(2), 2), ShapeMismatch,
                         "flat index 2 out of range for shape (2,)"),
    "column-count": (lambda: TensorMap(Q, shape(2), shape(1), ((),)), ShapeMismatch,
                     "map has 1 columns, domain total is 2"),
    "reshape-total": (lambda: ID2.reshaped(shape(3)), ShapeMismatch,
                      "reshape must preserve total dimensions"),
    "column-length": (lambda: from_columns(Q, shape(1), shape(2), [(1,)]), ShapeMismatch,
                      "column length 1, codomain total is 2"),
    "row-count": (lambda: from_rows(Q, shape(1), shape(2), [(1,)]), ShapeMismatch,
                  "matrix has 1 rows, codomain total is 2"),
    "row-length": (lambda: from_rows(Q, shape(2), shape(1), [(1,)]), ShapeMismatch,
                   "matrix row length 1, domain total is 2"),
    "compose-none": (lambda: compose(), ShapeMismatch, "compose needs at least one map"),
    "compose-fields": (lambda: compose(ID2, identity(F2, shape(2))), FieldMismatch,
                       "composing maps over different fields"),
    "compose-shapes": (lambda: compose(ID2, ID3), ShapeMismatch,
                       "compose: domain total 2 != codomain total 3"),
    "tensor-none": (lambda: tensor(), ShapeMismatch, "tensor needs at least one map"),
    "tensor-map-fields": (lambda: tensor(ID2, identity(F2, shape(2))), FieldMismatch,
                          "tensoring maps over different fields"),
    "permutation": (lambda: permute_factors(Q, (2, 2), (0, 0)), ShapeMismatch,
                    "(0, 0) is not a permutation of the factors"),
    # crossed: a unit law's side built from a unit of the wrong length is
    # refused by compose, before its two sides are compared
    "twist-unit-length": (lambda: check_twisting(flip(Q, 2, 2), SHORT_UNIT, DQ), ShapeMismatch,
                          "compose: domain total 4 != codomain total 2"),
    "brz-unit-length": (lambda: check_brzezinski(BrzData(
        SHORT_UNIT, DQ.as_pointed(), flip(Q, 2, 2), identity(Q, shape(2, 2)))),
        ShapeMismatch, "compose: domain total 4 != codomain total 2"),
    # report
    "report-entry": (lambda: Report(()).get("brz1"), KeyError, "'brz1'"),
    # twosided
    "chain-factors": (lambda: check_twosided(TwoSidedData(
        FLAT_MUL, DQ.as_pointed(), DQ, FLIP_FLIP.R1, FLIP_FLIP.R2, FLIP_FLIP.R3, FLIP_FLIP.E)),
        ShapeMismatch, "factors (2,) do not match map domain (4,)"),
    "zero-unit-leg": (lambda: extract(ZERO_UNIT, ZERO_UNIT, PointedSpace(Q, 1, (1,)), ZERO_UNIT),
                      ShapeMismatch, "the unit of a leg is zero"),
    "universal-field": (universal_into_f2, FieldMismatch, "target algebra over a different field"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_public_refusal(name):
    call, exc_type, message = REFUSALS[name]
    with pytest.raises(exc_type) as exc:
        call()
    assert str(exc.value) == message


def test_recursion_while_decoding_is_a_nesting_refusal(monkeypatch):
    # the depth pre-check passes every document that json then decodes, but
    # json's C decoder can still run out of stack under a caller's low
    # recursion limit
    def deep(text):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli.json, "loads", deep)
    with pytest.raises(DocumentError) as exc:
        cli.parse_document(json.dumps({"field": {"kind": "rationals"}}))
    assert str(exc.value) == "$: document is nested too deeply"
