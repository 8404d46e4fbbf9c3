"""Docstring examples in the package modules stay correct."""

import doctest

import pytest

import conformal_kit._rational
import conformal_kit.calibration
import conformal_kit.dists
import conformal_kit.experiments
import conformal_kit.predictors
import conformal_kit.risk

MODULES = (
    conformal_kit._rational,
    conformal_kit.dists,
    conformal_kit.calibration,
    conformal_kit.risk,
    conformal_kit.predictors,
    conformal_kit.experiments,
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0
