"""The public surface: every exported name resolves, removed names stay gone."""

import importlib

import pytest

import token_lab

REMOVED = (
    "ThresholdStrategy",
    "sigma_gamma",
    "bounds_grid",
    "efficiency_grid",
    "canonical_classification_grid",
)


def test_every_exported_name_resolves():
    for name in token_lab.__all__:
        assert getattr(token_lab, name) is not None, name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_not_exported_or_importable(name):
    assert name not in token_lab.__all__
    for module in ("token_lab", "token_lab.population", "token_lab.design"):
        assert not hasattr(importlib.import_module(module), name)
