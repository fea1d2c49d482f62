"""Every array field of a package dataclass refuses text and ragged rows with DataError.

This walks the same array-holding dataclasses as ``test_dataclass_identity``.
Each class has a factory of valid arguments here; every ``np.ndarray``
field in turn gets a text array and then a ragged list, with the other
arguments valid, and construction must raise DataError. A new
array-holding class with no factory fails the walk, so it cannot skip
the input gate.
"""

import dataclasses
import typing

import numpy as np
import pytest

from regio_forecast.errors import DataError
from regio_forecast.features import TARGET_COLUMNS
from regio_forecast.mtl import train_mtl
from regio_forecast.synth import SyntheticSpec, generate_regions

from test_dataclass_identity import _array_holders, _mentions_ndarray


def _dataset():
    ds = generate_regions(SyntheticSpec(regions=1, rows=10, seed=0))[0]
    return {"region": ds.region, "dates": ds.dates, "features": ds.features,
            "targets": ds.targets}


def _model():
    datasets = generate_regions(SyntheticSpec(regions=2, rows=10, seed=0))
    model = train_mtl(datasets, datasets[0].region, range(8), k=2)[0]
    return {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}


FACTORIES = {
    "RegionalDataset": _dataset,
    "TrainTestSplit": lambda: {"train_indices": np.array([0, 2]), "test_indices": np.array([1])},
    "MtlModel": _model,
    "PpeForecast": lambda: {"dates": np.array(["2021-03-01", "2021-03-02"], "datetime64[D]"),
                            "predicted_hospitalized": np.ones(2), "hsp_ratio": np.ones(2),
                            "kits": np.ones(2)},
    "RelevanceReport": lambda: {"feature_codes": ("a", "b"), "target_names": TARGET_COLUMNS,
                                "scores": np.full((2, 4), 0.5)},
}

HOSTILE = {"text": lambda valid: np.full(np.shape(valid), "a"),
           "ragged": lambda valid: [[1, 2], [3]]}


def _array_fields():
    for cls in _array_holders():
        hints = typing.get_type_hints(cls)
        for field in (name for name, hint in hints.items() if _mentions_ndarray(hint)):
            for kind in HOSTILE:
                yield pytest.param(cls, field, kind, id=f"{cls.__name__}.{field}-{kind}")


def _arguments(cls) -> dict:
    if cls.__name__ not in FACTORIES:
        pytest.fail(f"{cls.__module__}.{cls.__name__} holds an np.ndarray field; "
                    "give it a factory of valid arguments in FACTORIES")
    return FACTORIES[cls.__name__]()


@pytest.mark.parametrize("cls", _array_holders(), ids=lambda cls: cls.__name__)
def test_factory_arguments_are_valid(cls):
    cls(**_arguments(cls))


@pytest.mark.parametrize("cls, field, kind", _array_fields())
def test_array_field_refuses_text_and_ragged_rows(cls, field, kind):
    arguments = _arguments(cls)
    arguments[field] = HOSTILE[kind](arguments[field])
    with pytest.raises(DataError):
        cls(**arguments)
