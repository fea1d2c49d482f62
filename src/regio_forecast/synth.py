"""Synthetic regional datasets for desk-scale runs and tests.

Every region shares one latent epidemic-intensity curve (two waves over
the sampled window). Targets are smooth functions of that latent factor
with small per-region amplitude offsets plus observation noise, and the
time-varying features (mobility, lockdown stage, vaccination ramp, wave
phase) all encode the latent factor. Transfer from other regions is
therefore beneficial by construction: a day from a neighboring region at
the same epidemic phase is informative about the case-study region.

With ``noise=0`` the generator is fully deterministic and targets are
exact functions of the features, so a well-trained model should recover
held-out days almost perfectly.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .ingest import RegionalDataset, region_by_code, write_regional_csv

DEFAULT_START_DATE = dt.date(2020, 1, 25)

# Most days a generated series can hold: its last date is datetime.date.max.
MAX_ROWS = (dt.date.max - DEFAULT_START_DATE).days + 1

# Largest relative noise; even at MAX_ROWS every generated cell stays finite.
MAX_NOISE = 100.0

# Per-target amplitude of the latent curve: infections, hospitalizations,
# recoveries, deaths.
TARGET_SCALES = (900.0, 210.0, 720.0, 28.0)

# Baseline magnitudes for the slow-moving administrative columns.
_STATIC_BASES = {
    "feat_03": 6.2e5,     # inhabited land, km^2
    "feat_11": 55.0,      # community health centres
    "feat_18": 1.6e4,     # returning travelers
    "feat_21": 7.4e6,     # labor population
    "feat_22": 3.20e6,    # males 0-34
    "feat_23": 3.50e6,    # males 35-69
    "feat_24": 0.80e6,    # males 70+
    "feat_25": 3.05e6,    # females 0-34
    "feat_26": 3.55e6,    # females 35-69
    "feat_27": 1.00e6,    # females 70+
}

_INTEGER_FEATURES = {"feat_06", "feat_11", "feat_18", "feat_21",
                     "feat_22", "feat_23", "feat_24", "feat_25",
                     "feat_26", "feat_27"}


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and randomness of a generated multi-region dataset."""

    regions: int = 7
    rows: int = 362
    noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.regions <= 10:
            raise ConfigError(f"regions must be in [1, 10], got {self.regions}")
        if self.rows < 10:
            raise ConfigError(f"rows must be >= 10, got {self.rows}")
        if self.rows > MAX_ROWS:
            raise ConfigError(f"rows must be <= {MAX_ROWS} (the last date must fit in "
                              f"datetime.date), got {self.rows}")
        if not 0 <= self.noise < np.inf:
            raise ConfigError(f"noise must be finite and >= 0, got {self.noise}")
        if self.noise > MAX_NOISE:
            raise ConfigError(f"noise must be <= {MAX_NOISE}, got {self.noise}")


def _shared_latent(rows: int, rng: np.random.Generator) -> np.ndarray:
    """Two-wave intensity curve on [0, 1], identical across regions."""
    t = np.arange(rows)
    c1 = rows * (0.30 + 0.04 * rng.random())
    c2 = rows * (0.74 + 0.04 * rng.random())
    w1 = rows / (15.0 + 3.0 * rng.random())
    w2 = rows / (13.0 + 3.0 * rng.random())
    curve = (0.55 * np.exp(-((t - c1) / w1) ** 2)
             + 1.00 * np.exp(-((t - c2) / w2) ** 2)
             + 0.03)
    return curve / curve.max()


def generate_regions(spec: SyntheticSpec) -> list[RegionalDataset]:
    """Generate ``spec.regions`` datasets; the same spec always yields the same data."""
    master = np.random.SeedSequence(spec.seed)
    shared_rng = np.random.default_rng(master.spawn(1)[0])
    latent = _shared_latent(spec.rows, shared_rng)
    t = np.arange(spec.rows)
    dates = np.datetime64(DEFAULT_START_DATE) + t
    # 1 = spring (March-May), 2 = summer, 3 = autumn, 4 = winter (December-February)
    month = dates.astype("datetime64[M]").astype(np.int64) % 12        # 0 = January
    season = ((month + 10) % 12 // 3 + 1).astype(np.float64)
    weekend = ((dates.astype(np.int64) + 3) % 7 >= 5).astype(np.float64)   # 1970-01-01: Thursday
    wave_boundary = int(np.argmin(
        latent[int(0.35 * spec.rows):int(0.70 * spec.rows)])) + int(0.35 * spec.rows)

    datasets = []
    for code in range(spec.regions):
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(code,)))

        # Administrative columns: small fixed per-region offsets under a
        # comparable daily revision jitter, so pooled ranks interleave.
        static_offsets = {c: 0.008 * rng.standard_normal() for c in _STATIC_BASES}
        features = {}
        for col, base in _STATIC_BASES.items():
            jitter = 0.5 * spec.noise * rng.standard_normal(spec.rows)
            features[col] = base * (1.0 + static_offsets[col] + jitter)

        # Region intensity: the shared curve with a slow amplitude wiggle.
        phase = 2 * np.pi * rng.random()
        wiggle = 1.0 + 0.03 * np.sin(2 * np.pi * t / 130.0 + phase)
        intensity = np.clip(latent * wiggle, 0.0, None)

        # Target amplitude follows the region's population offset so
        # cross-region instances stay consistent with their features.
        pop_cols = ("feat_22", "feat_23", "feat_24", "feat_25", "feat_26", "feat_27")
        amplitude = 1.0 + float(np.mean([static_offsets[c] for c in pop_cols]))

        targets = np.empty((spec.rows, 4), dtype=np.int64)
        for j, scale in enumerate(TARGET_SCALES):
            eps = rng.standard_normal(spec.rows)
            series = scale * amplitude * intensity * (1.0 + spec.noise * eps)
            targets[:, j] = np.maximum(np.rint(series), 0).astype(np.int64)

        grad = np.gradient(intensity)
        features["feat_01"] = np.clip(
            1.0 + 22.0 * grad + 0.06 * spec.noise * rng.standard_normal(spec.rows), 0.05, None)
        features["feat_02"] = season
        features["feat_04"] = np.full(spec.rows, float(code))
        features["feat_05"] = np.where(t < wave_boundary, 1.0, 2.0)

        doses = np.zeros(spec.rows)
        ramp = t - int(0.86 * spec.rows)
        active = ramp > 0
        doses[active] = (40.0 * ramp[active]
                         * (1.0 + spec.noise * np.abs(rng.standard_normal(active.sum()))))
        features["feat_06"] = np.cumsum(doses)

        features["feat_07"] = np.select(
            [intensity > 0.55, intensity > 0.22], [1.0, 2.0], default=3.0)
        features["feat_08"] = np.select(
            [intensity > 0.50, intensity > 0.15], [2.0, 1.0], default=0.0)
        features["feat_09"] = np.where(t >= int(0.25 * spec.rows), 1.0, 0.0)
        features["feat_10"] = weekend

        mobility_pull = (10.0, 8.0, 6.0, 9.0, 8.5)
        for col, pull in zip(("feat_12", "feat_13", "feat_14", "feat_15", "feat_16"),
                             mobility_pull):
            eps = rng.standard_normal(spec.rows)
            features[col] = -(pull + 3.4 * pull * intensity) + 3.0 * spec.noise * eps
        features["feat_17"] = (4.0 + 16.0 * intensity
                               + 1.5 * spec.noise * rng.standard_normal(spec.rows))

        features["feat_18"] = features["feat_18"] * (1.0 - 0.6 * intensity)
        features["feat_19"] = np.clip(
            61.0 - 9.0 * intensity + 0.5 * spec.noise * rng.standard_normal(spec.rows),
            0.0, 100.0)
        features["feat_20"] = np.clip(
            5.5 + 9.0 * intensity + 0.5 * spec.noise * rng.standard_normal(spec.rows),
            0.0, 100.0)
        for col in _INTEGER_FEATURES:
            features[col] = np.maximum(np.rint(features[col]), 0.0)
        # at least one health centre per region, always
        features["feat_11"] = np.maximum(features["feat_11"], 1.0)

        matrix = np.column_stack(
            [features[f"feat_{i:02d}"] for i in range(1, 28)])
        datasets.append(RegionalDataset(region_by_code(code), dates, matrix, targets))
    return datasets


def write_region_files(spec: SyntheticSpec, out_dir: str | Path) -> list[Path]:
    """Generate datasets and write one CSV per region into ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for ds in generate_regions(spec):
        path = out_dir / f"{ds.region.file_stem}.csv"
        write_regional_csv(ds, path)
        paths.append(path)
    return paths
