"""fractalmark: event-study abnormal returns, fractal interpolation, and
box-counting dimension analysis for daily stock-index data."""

__version__ = "0.1.0"

from .errors import ComputationError, FractalmarkError, InputError
from .market_data import (
    PriceSeries,
    ReturnSeries,
    daily_returns,
    parse_price_csv,
)
from .event_study import (
    AbnormalReturnPanel,
    InterpolationData,
    build_panel,
    estimate_capm,
    subsample_to_grid,
)
from .fif import (
    AttractorBlocks,
    FifModel,
    GraphSample,
    ScalingVector,
    build_fif_model,
    evaluate_fif_fixed_point,
    generate_attractor_points,
    verify_interpolation,
)
from .boxdim import (
    BoxCountCurve,
    DimensionEstimate,
    StreamedCloud,
    affine_fif_dimension_oracle,
    estimate_dimension,
    normalize_to_unit_square,
)

__all__ = [
    "__version__",
    "FractalmarkError",
    "InputError",
    "ComputationError",
    "PriceSeries",
    "ReturnSeries",
    "parse_price_csv",
    "daily_returns",
    "AbnormalReturnPanel",
    "InterpolationData",
    "estimate_capm",
    "build_panel",
    "subsample_to_grid",
    "ScalingVector",
    "FifModel",
    "GraphSample",
    "build_fif_model",
    "evaluate_fif_fixed_point",
    "generate_attractor_points",
    "AttractorBlocks",
    "verify_interpolation",
    "StreamedCloud",
    "BoxCountCurve",
    "DimensionEstimate",
    "normalize_to_unit_square",
    "estimate_dimension",
    "affine_fif_dimension_oracle",
]
