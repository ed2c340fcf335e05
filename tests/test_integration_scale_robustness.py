"""Cache-scale robustness: the headline shapes must survive changing
the simulation's cache-scaling factor (1/64 and 1/16 instead of the
default 1/32), since that factor is our own methodological artifact.
Each test evaluates the registry claims (``repro.core.validate``) its
shape maps to, with the registry's thresholds.
"""

import pytest

from tests.conftest import assert_claims

from repro.config import DEFAULT_SIM
from repro.core.sweep import SweepRunner
from repro.tpch.datagen import TPCHConfig

TPCH = TPCHConfig(sf=0.0005, seed=20020411)


@pytest.fixture(scope="module", params=[6, 4], ids=["scale-1/64", "scale-1/16"])
def runner(request):
    sim = DEFAULT_SIM.with_(cache_scale_log2=request.param)
    return SweepRunner(sim=sim, tpch=TPCH)


def test_fig2_cycles_shapes(runner):
    assert_claims(runner, "fig2a-equal-cycles", "fig2b-origin-more-cycles")


def test_fig4_l1_ordering(runner):
    assert_claims(runner, "fig4-q6-ratio", "fig4-q21-ratio", "fig4-q21-l2",
                  "fig4-l2-helps-index")


def test_fig6_comm_majority(runner):
    assert_claims(runner, "fig6-comm-major")


def test_fig10_switch_shapes(runner):
    assert_claims(runner, "fig10-voluntary")
