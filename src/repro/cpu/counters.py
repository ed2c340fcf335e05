"""Hardware performance-counter emulation.

The paper's methodology (§2.3) reads the PA-8200's counters through a
software library from the PArSOL research group and the R10000's
counters through direct ``ioctl()`` calls on IRIX.  We reproduce both
*interfaces* as thin façades over the simulator's exact counters, so
the experiment harness consumes counter values exactly the way the
original instrumented PostgreSQL did.

Everything in this module is **generated from the declarative counter
schema** (:mod:`repro.obs.schema`): the :class:`CounterSnapshot` field
set, its ``add``/``scaled``/``to_dict``/``from_dict`` operations, and
the per-platform facade event maps.  Adding a counter means adding one
:class:`~repro.obs.schema.CounterField` row — the snapshot, the
facades, the run-end flush and the serialization sites all pick it up,
and the schema drift checks fail CI if any consumer references a
counter the table doesn't carry.
"""

from __future__ import annotations

from dataclasses import field, make_dataclass
from typing import Dict

from ..errors import ConfigError
from ..obs import schema as _schema

_SCALARS = _schema.SCALAR_FIELD_NAMES
_BY_CLASS = _schema.BY_CLASS_FIELD_NAMES
_FIELD_NAMES = _schema.SNAPSHOT_FIELD_NAMES
_FIELD_SET = frozenset(_FIELD_NAMES)
_scale = _schema.scale_counter


def _to_dict(self) -> Dict:
    """Plain-JSON form (result cache, golden snapshots, reports).

    What ``dataclasses.asdict`` returns, without its recursive deep
    copy: the schema says every field is an int or a flat dict of
    ints."""
    d = {name: getattr(self, name) for name in _FIELD_NAMES}
    for name in _BY_CLASS:
        d[name] = dict(d[name])
    return d


def _from_dict(cls, d: Dict) -> "CounterSnapshot":
    """Inverse of :meth:`to_dict`.  Strict: missing *and* extra keys
    raise, so truncated or drifted serialized snapshots surface as
    errors, not as silent zeros in a figure."""
    got = set(d)
    if got != _FIELD_SET:
        missing = sorted(_FIELD_SET - got)
        extra = sorted(got - _FIELD_SET)
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"extra {extra}")
        raise ValueError(f"counter snapshot keys drifted: {', '.join(detail)}")
    return cls(**d)


def _add(self, other: "CounterSnapshot") -> None:
    """Accumulate ``other`` into self (the schema's merge rule: every
    counter is additive; per-class dicts sum key-wise)."""
    for name in _SCALARS:
        setattr(self, name, getattr(self, name) + getattr(other, name))
    for name in _BY_CLASS:
        mine = getattr(self, name)
        for k, v in getattr(other, name).items():
            mine[k] = mine.get(k, 0) + v


def _scaled(self, factor: float) -> "CounterSnapshot":
    """Uniformly scale every counter (used for repetition averages).

    Applies the schema's single rounding rule
    (:func:`repro.obs.schema.scale_counter`: round half to even), so a
    scaled counter is within half an event of the exact value — the
    old per-field ``int()`` truncation dropped up to N-1 events per
    counter when averaging N repetitions.
    """
    out = CounterSnapshot(
        **{name: _scale(getattr(self, name), factor) for name in _SCALARS}
    )
    for name in _BY_CLASS:
        setattr(
            out,
            name,
            {k: _scale(v, factor) for k, v in getattr(self, name).items()},
        )
    return out


CounterSnapshot = make_dataclass(
    "CounterSnapshot",
    [
        (
            (f.name, int, 0)
            if f.kind == _schema.SCALAR
            else (f.name, Dict[str, int], field(default_factory=dict))
        )
        for f in _schema.SNAPSHOT_FIELDS
    ],
    namespace={
        "to_dict": _to_dict,
        "from_dict": classmethod(_from_dict),
        "add": _add,
        "scaled": _scaled,
    },
)
# Pin the identity so instances pickle by reference on every
# supported Python version.
CounterSnapshot.__module__ = __name__
CounterSnapshot.__qualname__ = "CounterSnapshot"
CounterSnapshot.__doc__ = (
    "Portable counter values for one process (or an aggregate).\n\n"
    "Fields (generated from the counter schema):\n"
    + "\n".join(f"* ``{f.name}`` — {f.doc}" for f in _schema.SNAPSHOT_FIELDS)
)


class CounterFacade:
    """Base class for the native counter interfaces."""

    #: event name -> CounterSnapshot attribute
    EVENTS: Dict[str, str] = {}

    def __init__(self, snapshot: CounterSnapshot, instr_skew: float = 1.0) -> None:
        self._snap = snapshot
        self._skew = instr_skew

    def _value(self, attr: str) -> int:
        value = getattr(self._snap, attr)
        if attr == "instructions":
            # The paper attributes small cross-machine CPI differences to
            # "the little difference of the instruction event counters".
            return int(value * self._skew)
        return value


class PA8200Counters(CounterFacade):
    """PArSOL-library style named events for the HP PA-8200."""

    EVENTS = _schema.pa8200_events()

    def read_counter(self, event: str) -> int:
        try:
            return self._value(self.EVENTS[event])
        except KeyError:
            raise ConfigError(f"PA-8200 has no event {event!r}") from None


class R10000Counters(CounterFacade):
    """``ioctl()``-style numbered events for the MIPS R10000.

    Event numbers follow the R10000 counter specification: 0 = cycles,
    15/17 = graduated instructions, 25 = L1 D-cache misses, 26 =
    secondary-cache data misses.
    """

    EVENTS_BY_NUMBER = _schema.r10000_events()

    def ioctl_read(self, event_number: int) -> int:
        try:
            return self._value(self.EVENTS_BY_NUMBER[event_number])
        except KeyError:
            raise ConfigError(f"R10000 has no event {event_number}") from None


def facade_for(platform_processor: str, snapshot: CounterSnapshot, skew: float):
    """Build the right native façade for a machine's processor name."""
    if "PA-8200" in platform_processor:
        return PA8200Counters(snapshot, skew)
    if "R10000" in platform_processor:
        return R10000Counters(snapshot, skew)
    raise ConfigError(f"no counter facade for processor {platform_processor!r}")
