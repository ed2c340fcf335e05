"""The ``repro/v1`` JSON envelope — one contract for every machine
consumer.

Before this module each ``--json`` subcommand printed whatever dict it
had grown: ``sweep`` a report-with-extras, ``verify`` an ad-hoc
summary, ``trace``/``machines`` nothing at all.  A service boundary
cannot work that way — the daemon serializes specs and results over
the wire, so the shape must be *one* versioned contract shared by the
HTTP API and every CLI path.  That contract is:

.. code-block:: json

    {"schema": "repro/v1", "kind": "<kind>", "data": {...}}

* ``schema`` — the contract version.  Consumers dispatch on it;
  breaking changes bump it (``repro/v2``) instead of mutating shapes
  in place.
* ``kind`` — what ``data`` is (one of :data:`ENVELOPE_KINDS`).
* ``data`` — the payload, a JSON object.  Everything the consumer
  reads lives here.

Those three keys are the whole envelope: :func:`validate_envelope`
rejects any other top-level key.

Error responses are envelopes too (:func:`error_envelope`,
``kind="error"``): a typed ``code`` drawn from :data:`ERROR_CODES` —
mapped from the existing :mod:`repro.errors` taxonomy, so a bad spec
fails the same way over HTTP as it does at the CLI — plus the
human-readable ``error`` string and optional structured ``detail``.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

from ..errors import ReproError

#: The current contract version.
SCHEMA_V1 = "repro/v1"

#: Every payload kind a v1 envelope may carry.
ENVELOPE_KINDS: Tuple[str, ...] = (
    # CLI-originated payloads
    "sweep-report",       # repro sweep --json (SweepReport + cache/trace stats)
    "verify-report",      # repro verify --json
    "trace-capture",      # repro trace capture --json
    "trace-replay",       # repro trace replay --json
    "machine-list",       # repro machines list --json
    "machine",            # repro machines describe --json
    "machine-validation", # repro machines validate --json
    # service-originated payloads
    "service-info",       # GET /v1/  (daemon identity, queue, limits)
    "job",                # POST /v1/sweeps, GET /v1/sweeps/{id}
    "job-list",           # GET /v1/sweeps
    "sweep-results",      # GET /v1/sweeps/{id}/results (spec-determined)
    "sweep-event",        # one SSE record on /v1/sweeps/{id}/events
    "error",              # any 4xx/5xx body
)

#: Typed error codes an ``error`` envelope may carry, with the HTTP
#: status each maps to.  The codes mirror the :mod:`repro.errors`
#: taxonomy where one exists (``bad-spec`` ↔ :class:`ConfigError`,
#: ``unknown-platform`` ↔ :class:`UnknownPlatformError`, ...).
ERROR_CODES = {
    "bad-request": 400,       # unparseable body, wrong content type
    "bad-spec": 400,          # ConfigError from the spec taxonomy
    "unknown-platform": 400,  # UnknownPlatformError (carries suggestion)
    "unknown-query": 400,     # ConfigError naming an unknown query
    "not-found": 404,         # no such job / route
    "not-ready": 409,         # results requested before the job finished
    "payload-too-large": 413,  # request body over the daemon's fixed cap
    "rate-limited": 429,      # per-tenant token bucket empty
    "queue-full": 429,        # backpressure: FIFO queue at capacity
    "method-not-allowed": 405,
    "internal": 500,
}

class EnvelopeError(ReproError):
    """A JSON document does not satisfy the ``repro/v1`` envelope
    contract (missing/mistyped ``schema``/``kind``/``data``, an extra
    top-level key, unknown kind, malformed error payload)."""


def make_envelope(kind: str, data: dict) -> dict:
    """Wrap ``data`` in a v1 envelope."""
    if kind not in ENVELOPE_KINDS:
        raise EnvelopeError(
            f"unknown envelope kind {kind!r}; known: {', '.join(ENVELOPE_KINDS)}"
        )
    if not isinstance(data, dict):
        raise EnvelopeError(f"envelope data must be a JSON object, got "
                            f"{type(data).__name__}")
    return {"schema": SCHEMA_V1, "kind": kind, "data": data}


def error_envelope(code: str, error: str, detail: Optional[dict] = None) -> dict:
    """An ``error``-kind envelope with a typed ``code`` (one of
    :data:`ERROR_CODES`), the human-readable ``error`` string, and
    optional structured ``detail``."""
    if code not in ERROR_CODES:
        raise EnvelopeError(f"unknown error code {code!r}")
    data = {"code": code, "error": str(error)}
    if detail:
        data["detail"] = detail
    return make_envelope("error", data)


def error_status(envelope: dict) -> int:
    """The HTTP status an ``error`` envelope maps to."""
    return ERROR_CODES.get(envelope["data"].get("code"), 500)


def validate_envelope(obj, kind: Optional[str] = None) -> dict:
    """Assert ``obj`` is a well-formed v1 envelope and return it.

    ``obj`` may be a dict or a JSON string.  ``kind`` (optional) pins
    the expected payload kind.  Raises :class:`EnvelopeError` with the
    first defect found.
    """
    if isinstance(obj, (str, bytes)):
        try:
            obj = json.loads(obj)
        except ValueError as exc:
            raise EnvelopeError(f"not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise EnvelopeError(
            f"envelope must be a JSON object, got {type(obj).__name__}"
        )
    extra = sorted(set(obj) - {"schema", "kind", "data"})
    if extra:
        raise EnvelopeError(
            f"unexpected top-level key(s) {', '.join(map(repr, extra))}; "
            f"the envelope is schema/kind/data only"
        )
    schema = obj.get("schema")
    if schema != SCHEMA_V1:
        raise EnvelopeError(
            f"schema must be {SCHEMA_V1!r}, got {schema!r}"
        )
    k = obj.get("kind")
    if k not in ENVELOPE_KINDS:
        raise EnvelopeError(f"unknown envelope kind {k!r}")
    if kind is not None and k != kind:
        raise EnvelopeError(f"expected kind {kind!r}, got {k!r}")
    data = obj.get("data")
    if not isinstance(data, dict):
        raise EnvelopeError("envelope data must be a JSON object")
    if k == "error":
        if data.get("code") not in ERROR_CODES:
            raise EnvelopeError(
                f"error envelope carries unknown code {data.get('code')!r}"
            )
        if not isinstance(data.get("error"), str):
            raise EnvelopeError("error envelope needs an 'error' string")
    return obj


def dump_envelope(envelope: dict, indent: Optional[int] = 2) -> str:
    """Canonical serialization (sorted keys), so identical payloads are
    identical bytes.  The CLI prints the indented form; the daemon
    sends ``indent=None``, which the C encoder writes in one pass."""
    return json.dumps(envelope, indent=indent, sort_keys=True)
