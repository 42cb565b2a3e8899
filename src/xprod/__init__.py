"""Exact-arithmetic toolkit for twisted tensor products, crossed products
and two-sided crossed products of finite-dimensional algebras."""

from .algebra import (
    Coalgebra,
    FinAlgebra,
    PointedSpace,
    conjugate_algebra,
    grouplike_coalgebra,
    is_algebra_map,
    new_algebra,
    new_coalgebra,
    ordinary_tensor,
    same_algebra,
    scalar_algebra,
)
from .constructions import (
    LRData,
    MaData,
    SearchSpec,
    iterated_ttp,
    ma_build,
    product_connector,
    search_fp,
    transport,
)
from .crossed import (
    BrzData,
    MirrorData,
    build_brzezinski,
    build_mirror,
    build_ttp,
    check_brzezinski,
    check_mirror,
    check_twisting,
    lift_twisting_to_brzezinski,
    lift_twisting_to_mirror,
)
from .exactla import (
    Field,
    PrimeField,
    RATIONALS,
    Rationals,
    TensorMap,
    TensorShape,
    compose,
    flat_index,
    flip,
    graded_flip,
    identity,
    permute_factors,
    shape,
    tensor,
    unflatten,
)
from .report import ConditionResult, Report, Witness
from .twosided import (
    BuildOutcome,
    CONDITION_LABELS,
    DerivedMaps,
    TwoSidedData,
    build_twosided,
    check_twosided,
    derive_maps,
    extract,
    force_build_twosided,
    presentations_agree,
    universal_map,
)

__version__ = "0.1.0"
