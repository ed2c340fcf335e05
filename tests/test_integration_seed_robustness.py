"""Seed robustness: the key paper shapes must not be artifacts of one
particular generated dataset.

Evaluates the most load-bearing registry claims (``repro.core.validate``)
on a *different* data seed (and a slightly different scale) than every
other suite uses, with the registry's thresholds.
"""

import pytest

from tests.conftest import assert_claims

from repro.config import DEFAULT_SIM
from repro.core.sweep import SweepRunner
from repro.tpch.datagen import TPCHConfig

ALT_TPCH = TPCHConfig(sf=0.0006, seed=424242)


@pytest.fixture(scope="module")
def runner():
    return SweepRunner(sim=DEFAULT_SIM, tpch=ALT_TPCH)


def test_fig2_shapes(runner):
    assert_claims(runner, "fig2a-equal-cycles", "fig2b-origin-more-cycles")


def test_fig4_ratios(runner):
    assert_claims(runner, "fig4-q6-ratio", "fig4-q21-ratio", "fig4-q21-l2")


def test_fig6_comm_majority_for_q21(runner):
    assert_claims(runner, "fig6-comm-major")


def test_fig9_bump_and_dip(runner):
    assert_claims(runner, "fig9-latency-bump")


def test_fig10_voluntary_growth(runner):
    assert_claims(runner, "fig10-voluntary")
