"""Paper-claim validation machinery.

The full scoreboard at SF 0.001 is ``python -m repro validate`` (and
EXPERIMENTS.md); here we check the machinery itself plus the claims at
tiny scale.
"""

import pytest

from tests.conftest import SMALL_TPCH

from repro.config import DEFAULT_SIM
from repro.core.sweep import SweepRunner
from repro.core.validate import CLAIMS, ClaimResult, scoreboard, validate_all


@pytest.fixture(scope="module")
def runner():
    return SweepRunner(sim=DEFAULT_SIM, tpch=SMALL_TPCH)


class TestStructure:
    def test_claims_cover_every_figure(self):
        figures = {c.figure for c in CLAIMS}
        assert figures == {
            "Fig. 2(a)", "Fig. 2(b)", "Fig. 3", "Fig. 4", "Fig. 5",
            "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10",
        }

    def test_claim_ids_unique(self):
        ids = [c.claim_id for c in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_scoreboard_rendering(self):
        results = [
            ClaimResult("a", "Fig. 2(a)", "s", True, "m"),
            ClaimResult("b", "Fig. 3", "s", False, "m"),
        ]
        text = scoreboard(results)
        assert "1/2 paper claims reproduced" in text
        assert "NO" in text


class TestEvaluation:
    def test_all_claims_evaluate(self, runner):
        results = validate_all(runner)
        assert len(results) == len(CLAIMS)
        for r in results:
            assert isinstance(r.holds, bool)
            assert r.measured

    def test_claims_hold_at_small_scale(self, runner):
        results = validate_all(runner)
        held = [r.claim_id for r in results if r.holds]
        failed = [r.claim_id for r in results if not r.holds]
        # the SF 0.001 board (EXPERIMENTS.md) must be perfect; at tiny
        # test scale allow at most two marginal shape misses
        assert len(failed) <= 2, f"failed claims: {failed}"
        assert "fig2b-origin-more-cycles" in held
        assert "fig10-voluntary" in held
