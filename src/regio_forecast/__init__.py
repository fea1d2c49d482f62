"""Regional epidemic monitoring with instance-transfer kNN regression.

The library covers the full pipeline: CSV ingestion of per-region daily
records, feature columns (a derived one computed only when selected) and
relevance ranking, quantile-normal feature scaling and row normalization,
a distance-weighted kNN regressor with per-instance source weights,
weighted instance transfer from pooled regions into one store, bootstrap
metric intervals, and a downstream PPE kit-demand predictor. The package
exports what the README example and the demos use; everything else is
imported from its module.
"""

from .errors import ConfigError, DataError
from .evaluation import r2
from .features import DEFAULT_SELECTED_FEATURES, score_relevance
from .ingest import parse_regional_csv, region_by_name, split_train_test
from .knn import KnnConfig
from .mtl import predict_monitoring, rotate_regions, train_mtl
from .ppe import forecast_series, predict_ppe_kits
from .scaling import apply_quantile_scaler, fit_quantile_scaler, l2_normalize_rows
from .synth import SyntheticSpec, generate_regions, write_region_files

__version__ = "0.1.0"
