"""Address space, data-class taxonomy, and memory-reference streams."""

from .address import SEGMENT_ALIGN, AddressSpace, Segment
from .classify import CLASS_NAMES, NUM_CLASSES, DataClass, class_name
from .stream import RefBatch, RefBuilder, single

# NOTE: trace.capture sits above the cpu/db layers and must be imported
# as `repro.trace.capture` directly; re-exporting it here would create
# an import cycle (capture -> cpu -> mem -> trace).

__all__ = [
    "AddressSpace",
    "Segment",
    "SEGMENT_ALIGN",
    "DataClass",
    "NUM_CLASSES",
    "CLASS_NAMES",
    "class_name",
    "RefBatch",
    "RefBuilder",
    "single",
]
