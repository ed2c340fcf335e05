"""Interconnect and memory-bank models with queueing contention.

Both machines are modelled as a set of memory *banks*, each a single
server with fixed occupancy per request (``LatencyModel.bank_service``).
A request arriving at a busy bank queues; the queue delay is added to
its latency.  This is the mechanism behind the paper's §4.1.1
observation that Origin thread time grows superlinearly at 6–8 query
processes: the DBMS shared memory lives on one or two home nodes, so
their banks saturate, while the V-Class interleaves every line across
eight controllers behind a non-blocking crossbar.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .latency import LatencyModel
from .topology import Topology


class Interconnect:
    """Shared base: bank queueing plus per-machine distance rules.

    ``now`` arguments are the requesting CPU's current cycle count; the
    scheduler advances CPUs in global-time order, so cross-CPU
    comparisons of ``now`` are meaningful.
    """

    #: Contention is accounted in fixed epochs of 2**EPOCH_SHIFT cycles:
    #: a request queues behind the service time of every other request
    #: that hit the same bank in the same epoch, plus any backlog
    #: spilling over from the previous epoch.  Unlike a busy-until
    #: model, this is robust to the slight out-of-time-order arrival
    #: the batch-granular scheduler produces.
    EPOCH_SHIFT = 10
    #: Upper bound on a single queue delay (four epochs); keeps
    #: pathological spill accumulation from dominating a run.
    MAX_DELAY = 4 << EPOCH_SHIFT
    #: Interleaved banks behind each home node.  On every subclass
    #: ``bank_of(line, home) == home * banks_per_home + (line >> 6) %
    #: banks_per_home`` for the homes its machine produces (crossbar
    #: lines are all homed on node 0), which is how the batched engine
    #: charges banks without a call.
    banks_per_home = 1

    def __init__(self, topology: Topology, lat: LatencyModel) -> None:
        self.topology = topology
        self.lat = lat
        self._load: Dict[Tuple[int, int], int] = {}
        self._spill: Dict[Tuple[int, int], int] = {}
        # statistics
        self.n_requests = 0
        self.n_queued = 0
        self.total_queue_delay = 0
        self.n_writebacks = 0

    # -- to be specialised -------------------------------------------------
    def bank_of(self, line_addr: int, home_node: int) -> int:
        """Memory bank servicing ``line_addr`` homed at ``home_node``."""
        raise NotImplementedError

    def distance_cost(self, cpu: int, home_node: int) -> int:
        """Network latency between ``cpu`` and the home of the line."""
        raise NotImplementedError

    # -- queueing core ------------------------------------------------------
    def _enter_bank(self, bank: int, now: int) -> int:
        """Register a request at ``bank`` in the epoch containing
        ``now``; return its queue delay."""
        service = self.lat.bank_service
        epoch = now >> self.EPOCH_SHIFT
        key = (bank, epoch)
        cnt = self._load.get(key, 0)
        if cnt == 0:
            prev = (bank, epoch - 1)
            backlog = (
                self._spill.get(prev, 0)
                + self._load.get(prev, 0) * service
                - (1 << self.EPOCH_SHIFT)
            )
            if backlog > 0:
                self._spill[key] = backlog
        delay = self._spill.get(key, 0) + cnt * service
        if delay > self.MAX_DELAY:
            delay = self.MAX_DELAY
        self._load[key] = cnt + 1
        self.n_requests += 1
        if delay:
            self.n_queued += 1
            self.total_queue_delay += delay
        return delay

    # -- transactions ---------------------------------------------------------
    def memory_fetch(self, cpu: int, line_addr: int, home_node: int, now: int) -> int:
        """Raw latency of fetching a line from its home memory."""
        bank = self.bank_of(line_addr, home_node)
        delay = self._enter_bank(bank, now)
        return self.lat.mem_base + self.distance_cost(cpu, home_node) + delay

    def intervention(
        self, cpu: int, owner_cpu: int, line_addr: int, home_node: int, now: int
    ) -> int:
        """Raw latency of a fetch that must be serviced by the cache
        currently holding the line exclusive/dirty.

        The request still visits the home directory (and occupies its
        bank); the extra owner leg is the intervention cost, with the
        Origin's speculative reply recovering part of it."""
        bank = self.bank_of(line_addr, home_node)
        delay = self._enter_bank(bank, now)
        round_trip = self.lat.mem_base + self.distance_cost(cpu, home_node)
        owner_leg = self.distance_cost(owner_cpu, home_node)
        return self.lat.intervention_cost(round_trip) + owner_leg + delay

    def upgrade(self, cpu: int, line_addr: int, home_node: int, n_sharers: int, now: int) -> int:
        """Raw latency of acquiring ownership of a shared line
        (invalidations, no data)."""
        bank = self.bank_of(line_addr, home_node)
        delay = self._enter_bank(bank, now)
        return (
            self.lat.upgrade_base
            + self.distance_cost(cpu, home_node)
            + self.lat.inval_per_sharer * n_sharers
            + delay
        )

    def post_writeback(self, line_addr: int, home_node: int, now: int) -> None:
        """A dirty eviction consumes bank bandwidth but is off the
        requesting CPU's critical path, so no latency is returned."""
        bank = self.bank_of(line_addr, home_node)
        self._enter_bank(bank, now)
        self.n_writebacks += 1

    # -- bookkeeping -----------------------------------------------------------
    def reset_contention(self) -> None:
        """Forget bank occupancy (between experiment repetitions)."""
        self._load.clear()
        self._spill.clear()

    @property
    def mean_queue_delay(self) -> float:
        """Average queueing delay over all requests (cycles)."""
        return self.total_queue_delay / self.n_requests if self.n_requests else 0.0


class CrossbarInterconnect(Interconnect):
    """HP V-Class hyperplane: uniform distance, lines interleaved
    round-robin across the eight EMAC memory controllers."""

    def __init__(self, topology: Topology, lat: LatencyModel, n_banks: int = 8) -> None:
        super().__init__(topology, lat)
        self.n_banks = self.banks_per_home = n_banks

    def bank_of(self, line_addr: int, home_node: int) -> int:
        # Interleave at 64 B granularity (the V-Class's EMAC interleave);
        # line_addr is line-aligned, so the raw address must be shifted
        # before the modulo or everything lands on bank 0.
        return (line_addr >> 6) % self.n_banks

    def distance_cost(self, cpu: int, home_node: int) -> int:
        return 0


class NumaInterconnect(Interconnect):
    """SGI Origin 2000 hypercube: one memory bank per node, latency
    grows with router hops from the requesting CPU's node."""

    def bank_of(self, line_addr: int, home_node: int) -> int:
        return home_node

    def distance_cost(self, cpu: int, home_node: int) -> int:
        hops = self.topology.hops(self.topology.node_of_cpu(cpu), home_node)
        return self.lat.hop_cost * hops


class IslandsInterconnect(Interconnect):
    """Socket-aware interconnect for NUMA "hardware islands".

    Each socket owns ``banks_per_socket`` interleaved memory channels;
    a line homed on a socket interleaves across that socket's channels
    at 64 B granularity.  Distance is binary: intra-socket requests pay
    nothing, cross-socket requests pay one ``hop_cost`` link traversal.
    Placement policy enters through the machine's ``db_home_nodes``:
    spreading the DBMS segments over all sockets trades local-access
    probability for home-bank pressure, exactly the island-placement
    tension Porobic et al. measure.
    """

    def __init__(
        self, topology: Topology, lat: LatencyModel, banks_per_socket: int = 1
    ) -> None:
        super().__init__(topology, lat)
        self.banks_per_socket = self.banks_per_home = max(1, banks_per_socket)

    def bank_of(self, line_addr: int, home_node: int) -> int:
        return home_node * self.banks_per_socket + (
            (line_addr >> 6) % self.banks_per_socket
        )

    def distance_cost(self, cpu: int, home_node: int) -> int:
        if self.topology.node_of_cpu(cpu) == home_node:
            return 0
        return self.lat.hop_cost
