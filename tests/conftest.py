"""Shared fixtures for the test suite.

Expensive artifacts (the TPC-H database) are session-scoped; everything
else is built fresh per test.  All tests use the TEST_SIM profile
(small quanta) and a tiny scale factor so the whole suite stays fast.
"""

from __future__ import annotations

import pytest

from repro.config import TEST_SIM
from repro.core.validate import CLAIMS
from repro.db.engine import Database
from repro.mem.cache import CacheConfig
from repro.mem.machine import hp_v_class, sgi_origin_2000
from repro.tpch.datagen import TPCHConfig, build_database

#: Scale used by most integration tests (lineitem ~= 2.4k rows).
TINY_TPCH = TPCHConfig(sf=0.0004, seed=20020411)

#: Slightly larger dataset for the paper-claim shape tests.
SMALL_TPCH = TPCHConfig(sf=0.0008, seed=20020411)


@pytest.fixture(scope="session")
def tiny_db() -> Database:
    return build_database(TINY_TPCH)


@pytest.fixture(scope="session")
def small_db() -> Database:
    return build_database(SMALL_TPCH)


@pytest.fixture
def sim():
    return TEST_SIM


@pytest.fixture
def hpv():
    """Scaled-down V-Class (matches the experiment default scaling)."""
    return hp_v_class().scaled(TEST_SIM.cache_scale_log2)


@pytest.fixture
def sgi():
    """Scaled-down Origin 2000."""
    return sgi_origin_2000().scaled(TEST_SIM.cache_scale_log2)


@pytest.fixture
def tiny_cache_config():
    """A 4-set, 2-way, 32 B-line cache: easy to reason about exactly."""
    return CacheConfig("tiny", 4 * 2 * 32, 32, 2)


def assert_claims(runner, *claim_ids: str) -> None:
    """Evaluate registry claims by id; fail with each miss's numbers."""
    by_id = {c.claim_id: c for c in CLAIMS}
    misses = {}
    for claim_id in claim_ids:
        measured = by_id[claim_id].measure(runner)
        if not by_id[claim_id].holds(measured):
            misses[claim_id] = measured
    assert not misses, f"claims missed: {misses}"


def fresh_database() -> Database:
    """A Database with its own address space (for tests that mutate)."""
    return Database()
