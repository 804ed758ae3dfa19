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
    CapmParams,
    EventWindow,
    InterpolationData,
    build_panel,
    estimate_capm,
    extract_event_window,
    subsample_to_grid,
)
from .fif import (
    AffineMaps,
    AttractorBlocks,
    FifModel,
    GraphSample,
    PiecewiseLinear,
    ScalingVector,
    base_from_germ,
    build_affine_maps,
    build_fif_model,
    evaluate_fif_fixed_point,
    generate_attractor_points,
    germ_piecewise_linear,
    rb_operator_apply,
    verify_interpolation,
)
from .boxdim import (
    BoxCountCurve,
    DimensionEstimate,
    NormalizedCloud,
    StreamedCloud,
    affine_fif_dimension_oracle,
    count_boxes,
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
    "CapmParams",
    "EventWindow",
    "AbnormalReturnPanel",
    "InterpolationData",
    "estimate_capm",
    "build_panel",
    "extract_event_window",
    "subsample_to_grid",
    "AffineMaps",
    "ScalingVector",
    "PiecewiseLinear",
    "FifModel",
    "GraphSample",
    "build_affine_maps",
    "germ_piecewise_linear",
    "base_from_germ",
    "build_fif_model",
    "rb_operator_apply",
    "evaluate_fif_fixed_point",
    "generate_attractor_points",
    "AttractorBlocks",
    "verify_interpolation",
    "NormalizedCloud",
    "StreamedCloud",
    "BoxCountCurve",
    "DimensionEstimate",
    "normalize_to_unit_square",
    "count_boxes",
    "estimate_dimension",
    "affine_fif_dimension_oracle",
]
