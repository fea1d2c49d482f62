"""Regional epidemic monitoring with instance-transfer kNN regression.

The library covers the full pipeline: CSV ingestion of per-region daily
records, derived-feature construction and selection, quantile-normal and
min-max scaling, a distance-weighted kNN regressor with per-instance
source weights, weighted instance transfer from pooled regions into one
store, bootstrap metric intervals, and a downstream PPE kit-demand
predictor.
"""

from .artifact import load_model, save_model
from .errors import ConfigError, DataError, RegioForecastError
from .evaluation import (
    BootstrapConfig,
    Interval,
    MetricReport,
    bootstrap_interval,
    evaluate_model,
    evs,
    mae,
    r2,
    rmse,
)
from .features import (
    DEFAULT_DERIVED_REGISTRY,
    DEFAULT_SELECTED_FEATURES,
    PRIMARY_FEATURE_CODES,
    TARGET_COLUMNS,
    FeatureMatrix,
    RelevanceReport,
    TargetMatrix,
    compute_derived_features,
    concat_features,
    score_relevance,
    select_features,
)
from .ingest import (
    RegionalDataset,
    RegionId,
    TrainTestSplit,
    parse_regional_csv,
    region_by_code,
    region_by_name,
    split_train_test,
    validate_dataset,
    write_regional_csv,
)
from .knn import InstanceStore, KnnConfig, fit_knn, predict_knn_batch
from .mtl import (
    MonitoringPrediction,
    MtlModel,
    TrainReport,
    predict_monitoring,
    rotate_regions,
    train_mtl,
)
from .ppe import (
    PpeDayForecast,
    PpeInputs,
    expand_kit_items,
    forecast_series,
    predict_ppe_kits,
)
from .scaling import (
    MinMaxScalerState,
    QuantileNormalScaler,
    apply_quantile_scaler,
    fit_minmax,
    fit_quantile_scaler,
    l2_normalize_rows,
)
from .synth import SyntheticSpec, generate_regions, write_region_files

__version__ = "0.1.0"
