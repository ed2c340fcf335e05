"""Per-CPU cache hierarchies.

The PA-8200 has a single-level hierarchy (huge off-chip 2 MB D-cache);
the R10000 has a small on-chip L1 backed by a large unified L2 with
longer (128 B) lines; modern machine files add a third level.  The
*coherent level* is always the last cache: it is the one the directory
tracks, at its line granularity.  Inclusion is enforced between every
adjacent pair of levels, so directory invalidations only need to
consult the coherent level and then sweep the covered inner lines.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import ConfigError
from .cache import CacheConfig, SetAssocCache
from .states import INVALID

#: Deepest supported hierarchy (mirrored by ``MachineConfig``).
MAX_LEVELS = 3


class CacheHierarchy:
    """A stack of 1 to 3 cache levels for one CPU."""

    __slots__ = (
        "levels",
        "l1",
        "coherent",
        "coherent_line_size",
        "has_l2",
        "_inner",
    )

    def __init__(self, configs: List[CacheConfig]) -> None:
        if not 1 <= len(configs) <= MAX_LEVELS:
            raise ConfigError(f"hierarchy supports 1 to {MAX_LEVELS} levels")
        for inner, outer in zip(configs, configs[1:]):
            if inner.line_size > outer.line_size:
                raise ConfigError(
                    f"{inner.name} line size must not exceed {outer.name}'s"
                )
        self.levels = [SetAssocCache(c) for c in configs]
        self.l1 = self.levels[0]
        self.coherent = self.levels[-1]
        self.coherent_line_size = self.coherent.config.line_size
        self.has_l2 = len(self.levels) >= 2
        #: Every level above the coherent one, innermost first.
        self._inner = self.levels[:-1]

    def soa_views(self):
        """Columnar snapshot of the whole hierarchy: one
        struct-of-arrays view per level, innermost (L1) first, the
        coherent level last.  The array-verification checker sweeps
        these instead of walking per-line dicts; see
        :meth:`SetAssocCache.soa_view` for the layout contract."""
        return tuple(c.soa_view() for c in self.levels)

    # -- state maintenance -------------------------------------------------
    def fill(self, addr: int, state: int) -> Optional[Tuple[int, int]]:
        """Install the line(s) for ``addr`` in ``state`` at every level.

        Returns ``(victim_byte_base, victim_state)`` for a coherent-level
        eviction that the directory must hear about, else ``None``.
        Inclusion: a coherent-level victim is swept out of every inner
        level too.
        """
        victim = self.coherent.insert(addr, state)
        out = None
        if victim is not None:
            vline, vstate = victim
            vbase = self.coherent.line_base(vline)
            for c in self._inner:
                c.invalidate_range(vbase, self.coherent_line_size)
            out = (vbase, vstate)
        # Fill only the line actually touched at each inner level
        # (no sub-line prefetch here; the prefetcher is a memsys stage).
        self.fill_inner(addr, state, len(self.levels) - 1)
        return out

    def fill_inner(self, addr: int, state: int, src_level: int) -> None:
        """Install ``addr`` in every level above ``src_level`` — the
        level that satisfied the access — keeping inclusion: a victim
        evicted from a mid level sweeps its covered lines out of the
        levels inside it.  Mid-level victims are silent to the
        directory (the coherent level still holds them)."""
        levels = self.levels
        for li in range(src_level - 1, -1, -1):
            cache = levels[li]
            victim = cache.insert(addr, state)
            if victim is not None and li > 0:
                vbase = cache.line_base(victim[0])
                for inner in levels[:li]:
                    inner.invalidate_range(vbase, cache.config.line_size)

    def set_state(self, addr: int, state: int) -> None:
        """Propagate a state change to every level where the line sits."""
        self.coherent.set_state(addr, state)
        if self.has_l2:
            base = self.coherent.line_base(self.coherent.line_of(addr))
            for c in self._inner:
                self._restate_range(c, base, state)

    def _restate_range(self, cache: SetAssocCache, base: int, state: int) -> None:
        step = cache.config.line_size
        for a in range(base, base + self.coherent_line_size, step):
            if cache.peek(a) != INVALID:
                cache.set_state(a, state)

    def invalidate(self, addr: int) -> int:
        """Invalidate the coherence line holding ``addr`` everywhere;
        return its prior coherent-level state."""
        base = self.coherent.line_base(self.coherent.line_of(addr))
        old = self.coherent.invalidate(addr)
        for c in self._inner:
            c.invalidate_range(base, self.coherent_line_size)
        return old

    def flush(self) -> None:
        for c in self.levels:
            c.flush()

    # -- invariant checking --------------------------------------------------
    def check_inclusion(self) -> bool:
        """Every valid line of an inner level must be covered by a valid
        line of the level outside it (checked per adjacent pair)."""
        for inner, outer in zip(self.levels, self.levels[1:]):
            shift = outer.config.line_shift - inner.config.line_shift
            for line, state in inner.resident():
                if state == INVALID:
                    continue
                if outer.peek(outer.line_base(line >> shift)) == INVALID:
                    return False
        return True
