"""The five benchmark workloads, as data.

Cell order inside a workload is fixed: shared segments are bump-allocated
lazily, so simulated counters depend on the order cells run in, and the
pinned digests assume this one.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

#: ``TPCHConfig(sf=SF, seed=<--seed>)``; the default seed is the one the
#: pins in ``bench/expected/`` were blessed with.
SF = 0.001
DEFAULT_SEED = 19920101

#: ``--seconds`` is turned into whole units of work so that every run of a
#: commit attempts the same operations: one measured pass per
#: ``PASS_NOMINAL_S`` and ``WARM_PER_S`` warm requests per second.
PASS_NOMINAL_S = 8.0
WARM_PER_S = 15
DEFAULT_SECONDS = 8
#: Fresh daemons (one cold grid each) on ``service``; set-ups per run.
COLD_LEGS = 3
SETUPS = 3
#: ``repro serve --jobs``: the cold leg needs two workers.
DAEMON_JOBS = 2

Cell = Tuple[str, str, int]  # (query, platform, n_procs)

WARMUP_CELL: Cell = ("Q6", "hpv", 1)


class Workload(NamedTuple):
    """Why each workload exists is in ``BENCHMARK.json`` and the README."""

    name: str
    cells: List[Cell]
    #: ``replay`` only: the (query, n_procs) tapes captured on ``hpv``
    #: during set-up.
    tapes: List[Tuple[str, int]] = []


def _grid(queries, platforms, nprocs) -> List[Cell]:
    return [(q, p, n) for q in queries for p in platforms for n in nprocs]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("scan", _grid(("Q6", "Q12"), ("hpv", "sgi"), (4, 8))),
        Workload("index", _grid(("Q21",), ("hpv", "sgi"), (1, 2))),
        Workload(
            "modern",
            [
                ("Q6", "islands-2x8", 8),
                ("Q6", "flat-smp-16", 8),
                ("Q12", "islands-2x8", 4),
                ("Q12", "flat-smp-16", 4),
            ],
        ),
        Workload(
            "replay",
            _grid(("Q21",), ("sgi", "islands-2x8"), (2,))
            + _grid(("Q6",), ("sgi", "islands-2x8"), (8,)),
            tapes=[("Q21", 2), ("Q6", 8)],
        ),
        Workload("service", _grid(("Q6", "Q12"), ("hpv", "sgi"), (1, 2, 4))),
    )
}

def grid_axes(cells: List[Cell]) -> Dict[str, list]:
    """The ``JobSpec`` axes whose product, in order, is ``cells``."""
    axes = {
        "queries": list(dict.fromkeys(c[0] for c in cells)),
        "platforms": list(dict.fromkeys(c[1] for c in cells)),
        "nprocs": list(dict.fromkeys(c[2] for c in cells)),
    }
    if _grid(axes["queries"], axes["platforms"], axes["nprocs"]) != cells:
        raise ValueError("cells are not a full grid in canonical order")
    return axes


def smoke(w: Workload) -> Workload:
    """One cell (and the one tape it needs) of ``w``."""
    cell = w.cells[0]
    tapes = [(cell[0], cell[2])] if w.tapes else []
    return w._replace(cells=[cell], tapes=tapes)


def cell_id(cell: Cell) -> str:
    return "%s/%s/p%d" % cell


def units_for(seconds: float, smoke_mode: bool) -> Dict[str, int]:
    """Whole units of work for a run of ``seconds``."""
    if smoke_mode:
        return {"passes": 1, "warm_n": 5, "cold_legs": 1, "setups": 1}
    return {
        "passes": max(1, round(seconds / PASS_NOMINAL_S)),
        "warm_n": max(20, round(seconds * WARM_PER_S)),
        "cold_legs": COLD_LEGS,
        "setups": SETUPS,
    }
