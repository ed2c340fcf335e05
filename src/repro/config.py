"""Global simulation configuration.

The paper runs a 200 MB TPC-H database against machines with megabyte
caches.  Simulating that at cache-line granularity in Python is
impossible, so the whole experiment is shrunk by a pair of scale
factors:

* ``cache_scale`` multiplies every cache capacity in a machine model
  (line sizes, associativities, and latencies are preserved), and
* the database is generated small enough that the footprint-to-cache
  ratios of the paper survive (database ≫ V-Class D-cache ≫ hot index
  and metadata set > Origin L1).

All scheduler quanta and backoff delays are expressed in cycles and are
scaled consistently.  :data:`DEFAULT_SIM` is the configuration the
benchmarks use; tests use smaller variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError


@dataclass(frozen=True, kw_only=True)
class SimConfig:
    """Knobs shared by every layer of the simulator.

    Fields are keyword-only: the field order is not API.

    Attributes
    ----------
    seed:
        Master RNG seed.  Everything (data generation, scheduler noise)
        derives its stream from this, so runs are bit-reproducible.
    cache_scale_log2:
        Caches are scaled by ``1 / 2**cache_scale_log2`` relative to the
        real machines (default 1/32).
    time_slice_cycles:
        Scheduler quantum.  A real 10 ms quantum at 200 MHz is 2M
        cycles; the default is scaled down with the workload so a run
        still experiences a handful of involuntary switches.
    context_switch_cycles:
        Direct cost charged to a process when it is switched out and
        back in (register save/restore, kernel path).
    backoff_cycles:
        Simulated length of the ``select()`` sleep PostgreSQL's s_lock
        backoff performs when a spinlock cannot be acquired.
    spin_tries:
        Number of test-and-set attempts before falling back to
        ``select()`` (mirrors s_lock's spin loop).
    preempt_noise_per_mcycles:
        Expected number of extra involuntary preemptions (system daemon
        activity) per simulated megacycle *per additional busy CPU*;
        reproduces the slow involuntary-switch growth in Fig. 10.
    """

    seed: int = 0xD55
    cache_scale_log2: int = 5
    #: A real 10 ms quantum at 200 MHz: keeps involuntary switches per
    #: 1M instructions at the paper's sub-1 magnitude.
    time_slice_cycles: int = 2_000_000
    context_switch_cycles: int = 2_000
    #: Scaled stand-in for s_lock's ~10 ms select() (a full 2M-cycle
    #: sleep would dwarf the scaled-down runs; only wall time, not
    #: thread time, depends on this).
    backoff_cycles: int = 100_000
    spin_tries: int = 3
    preempt_noise_per_mcycles: float = 0.04
    #: Cache lines the preempting kernel/daemon work displaces from the
    #: coherent cache at each involuntary switch (0 = off, the default:
    #: the paper's machines have caches large enough that quantum-length
    #: daemon activity barely dents them).
    cs_pollution_lines: int = 0
    #: Hand each batch to the batched engine (:meth:`repro.mem.memsys.
    #: MemorySystem.access_batch`) instead of one ``access`` call per
    #: reference.  The engine is bitwise-equivalent to ``access`` — an
    #: implementation speedup only — and ``False`` is the escape hatch
    #: that runs the per-reference specification for A/B equivalence
    #: testing.
    fast_path: bool = True

    def __post_init__(self) -> None:
        if self.cache_scale_log2 < 0:
            raise ConfigError("cache_scale_log2 must be >= 0")
        if self.time_slice_cycles <= 0:
            raise ConfigError("time_slice_cycles must be positive")
        if self.backoff_cycles < 0:
            raise ConfigError("backoff_cycles must be >= 0")
        if self.spin_tries < 1:
            raise ConfigError("spin_tries must be >= 1")

    @property
    def cache_scale(self) -> float:
        """Multiplier applied to real cache capacities (e.g. 1/32)."""
        return 1.0 / (1 << self.cache_scale_log2)

    def with_(self, **kwargs) -> "SimConfig":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)


#: Production configuration: figures, validation, ablations, bench/run.py.
DEFAULT_SIM = SimConfig()

#: Small configuration for unit tests: tiny quanta so scheduler paths
#: are exercised even by short workloads.
TEST_SIM = SimConfig(
    time_slice_cycles=200_000,
    context_switch_cycles=500,
    backoff_cycles=10_000,
    spin_tries=2,
)
