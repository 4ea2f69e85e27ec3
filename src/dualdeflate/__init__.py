"""Multiplicity structure and deflation of isolated singular polynomial roots."""

__version__ = "0.1.0"

from .poly import GRLEX, MonomialOrder, Polynomial, PolySystem
from .linalg import (
    RankReport,
    kernel_basis,
    least_squares,
    numerical_rank,
)
from .dual import (
    MonomialFrame,
    MultiplicityReport,
    dual_space_dz,
    dual_space_st,
)
from .deflate import (
    AugmentedSystem,
    DeflationOperator,
    OrderPrediction,
    SymbolicMatrix,
    deflate_first_order,
    deflate_higher_order,
    deflate_with_operator,
    deflation_matrix,
    predict_order,
)
from .solver import (
    DriverConfig,
    DriverResult,
    NewtonOptions,
    NewtonTrace,
    deflation_driver,
    gauss_newton,
    is_regular,
)
from .parsing import parse_point, parse_system, serialize_system

__all__ = [
    "GRLEX",
    "MonomialOrder",
    "Polynomial",
    "PolySystem",
    "RankReport",
    "kernel_basis",
    "least_squares",
    "numerical_rank",
    "MonomialFrame",
    "MultiplicityReport",
    "dual_space_dz",
    "dual_space_st",
    "AugmentedSystem",
    "DeflationOperator",
    "OrderPrediction",
    "SymbolicMatrix",
    "deflate_first_order",
    "deflate_higher_order",
    "deflate_with_operator",
    "deflation_matrix",
    "predict_order",
    "DriverConfig",
    "DriverResult",
    "NewtonOptions",
    "NewtonTrace",
    "deflation_driver",
    "gauss_newton",
    "is_regular",
    "parse_point",
    "parse_system",
    "serialize_system",
]
