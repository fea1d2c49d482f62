"""Dataclasses that hold arrays compare and hash by identity.

A dataclass with the default ``eq=True`` compares its fields as a tuple,
so ``==`` on two instances holding arrays raises "The truth value of an
array ... is ambiguous", and a frozen one hashes its fields, so ``hash()``
raises "unhashable type". Declared ``eq=False``, they compare and hash by
identity. This walks every module of the package, so a new array-holding
dataclass cannot bring the fault back.
"""

import dataclasses
import importlib
import pkgutil
import typing

import numpy as np
import pytest

import regio_forecast


def _package_dataclasses():
    for info in pkgutil.iter_modules(regio_forecast.__path__, "regio_forecast."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                yield obj


def _mentions_ndarray(hint) -> bool:
    return hint is np.ndarray or any(_mentions_ndarray(a) for a in typing.get_args(hint))


def _array_holders():
    return [cls for cls in _package_dataclasses()
            if any(_mentions_ndarray(h) for h in typing.get_type_hints(cls).values())]


def test_the_walk_finds_the_array_holders():
    names = {cls.__name__ for cls in _array_holders()}
    assert {"RegionalDataset", "TrainTestSplit", "MtlModel", "PpeForecast",
            "RelevanceReport"} <= names
    assert "TrainReport" not in names


@pytest.mark.parametrize("cls", _array_holders(), ids=lambda cls: cls.__name__)
def test_array_holding_dataclass_compares_by_identity(cls):
    assert cls.__dataclass_params__.eq is False, (
        f"{cls.__module__}.{cls.__name__} holds an np.ndarray field; declare it eq=False")
    assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


def test_model_compares_and_hashes_by_identity(trained_small_model):
    model = trained_small_model[0]
    twin = dataclasses.replace(model)
    assert model == model and model != twin
    assert len({model, twin, model}) == 2
