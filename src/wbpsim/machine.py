"""Timed hardware model: event engine, scratchpad allocators, DMA engines,
tiles and clusters, and the bundled deploy/retrieve protocol.

The event engine is strictly single-threaded: events are dispatched in
(time, seq) order, seq being assigned when the event is posted, so identical
configurations and seeds replay the exact same stream. A rolling SHA-256
over the dispatched stream serves as the run's trace digest.

The deploy protocol for a tile is: flip the scratchpad port to the bus, burst
code+data in over the cluster DMA, flip the port back to the core, release
the core's reset (3 CSR writes plus one burst). Completion mirrors it: the
tile posts its return-value count, the port flips back to the bus, an
interrupt reaches the cluster scheduler, and the DMA retrieves the results.

The machine owns that protocol. ``Machine._advance`` is the only writer of
a tile's ``run_state`` (IDLE -> LOADING -> RUNNING -> RETURNING -> IDLE); it
stamps ``since`` and adds each RUNNING span to ``busy_cycles``. The machine
also posts every event of a tile job, each a copy of the deploy event's
cluster, tile, thread, task and ctx.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
import json
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Any, Callable

from .costmodel import DmaTiming, TileTiming, dma_cycles


class ProtocolViolation(RuntimeError):
    """A pack-and-ship invariant was broken; the run stops."""


class SimulationStalled(RuntimeError):
    """The run cannot finish: its event queue drained while threads were
    live, or it exceeded its event budget."""


class AllocationFailure(RuntimeError):
    """A scratchpad could not fit a request that its caller did not check."""


class EventKind(enum.Enum):
    DMA_DONE = "dma_done"
    TILE_DONE = "tile_done"
    INTERRUPT = "interrupt"
    THREAD_ARRIVAL = "thread_arrival"


@dataclass
class Event:
    time: int
    kind: EventKind
    cluster: int = -1
    tile: int = -1
    thread: int = -1
    task: str = ""
    nbytes: int = 0
    ctx: Any = None  # the event's subject; excluded from digest and trace
    seq: int = -1


# Dispatched-event budget of one run; exceeding it means the model diverged.
MAX_EVENTS = 20_000_000


class EventEngine:
    """Deterministic discrete-event core with a rolling trace digest.

    ``salt`` (typically the run seed) enters the digest first: event timing
    is data-independent, so runs differing only in payload values would
    otherwise hash identically.
    """

    def __init__(self, trace_path: str | None = None, salt: str = ""):
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0
        self._now = 0
        self._digest = hashlib.sha256()
        if salt:
            self._digest.update(salt.encode())
            self._digest.update(b"\n")
        self._trace_fh = open(trace_path, "w", encoding="utf-8") if trace_path else None
        self.dispatched = 0

    @property
    def now(self) -> int:
        return self._now

    def post(self, event: Event) -> Event:
        if event.time < self._now:
            raise RuntimeError(f"cannot post event at t={event.time} before now={self._now}")
        event.seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    def _record(self, event: Event) -> None:
        line = (f"{event.time},{event.seq},{event.kind.value},{event.cluster},"
                f"{event.tile},{event.thread},{event.task},{event.nbytes}")
        self._digest.update(line.encode())
        self._digest.update(b"\n")
        if self._trace_fh is not None:
            self._trace_fh.write(json.dumps(
                {"t": event.time, "seq": event.seq, "kind": event.kind.value,
                 "cluster": event.cluster, "tile": event.tile,
                 "thread": event.thread, "task": event.task,
                 "bytes": event.nbytes},
                sort_keys=True) + "\n")

    def _step(self, handler: Callable[[Event], None], max_events: int) -> None:
        """Dispatch the earliest event: causality check, digest, budget."""
        time, _, event = heapq.heappop(self._heap)
        if time < self._now:
            raise RuntimeError("event causality violated")
        self._now = time
        self._record(event)
        self.dispatched += 1
        if self.dispatched > max_events:
            raise SimulationStalled("event budget exceeded; simulation diverged")
        handler(event)

    def run(self, handler: Callable[[Event], None],
            max_events: int = MAX_EVENTS) -> None:
        while self._heap:
            self._step(handler, max_events)
        if self._trace_fh is not None:
            self._trace_fh.close()
            self._trace_fh = None

    def run_until(self, t: int, handler: Callable[[Event], None],
                  max_events: int = MAX_EVENTS) -> None:
        """Dispatch every event at or before ``t``, then advance the clock to ``t``."""
        while self._heap and self._heap[0][0] <= t:
            self._step(handler, max_events)
        self._now = max(self._now, t)

    def digest(self) -> str:
        return self._digest.hexdigest()


# ---------------------------------------------------------------------------
# scratchpad sections


class SpmSection:
    """First-fit byte allocator with hole coalescing (implicit via scanning).

    ``allocations`` maps region ids to (offset, size). ``_spans`` holds the
    same pairs sorted by offset, and ``_span_regions`` their region ids in
    the same order, so first fit and the invariant check walk them without
    re-sorting. Live spans never share an offset.

    A section changes only through ``alloc`` and ``free_region``, and only
    for real reservations; ``would_fit`` changes nothing. Both set
    ``changed``, which ``Machine.check_invariants`` reads to run ``check``
    only on the sections an event changed, and clears once ``check`` passes.
    """

    def __init__(self, name: str, capacity: int):
        if capacity <= 0:
            raise ValueError("section capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.allocations: dict[int, tuple[int, int]] = {}
        self._spans: list[tuple[int, int]] = []
        self._span_regions: list[int] = []
        self._next_region = 0
        self.changed = True  # not checked since the last change

    @property
    def used(self) -> int:
        return sum(size for _, size in self.allocations.values())

    def _first_fit(self, spans: list[tuple[int, int]], nbytes: int) -> int | None:
        """Lowest offset of a hole of ``nbytes`` between ``spans``, or None."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        cursor = 0
        for offset, size in spans:
            if offset - cursor >= nbytes:
                return cursor
            cursor = offset + size
        return cursor if self.capacity - cursor >= nbytes else None

    def would_fit(self, *sizes: int) -> bool:
        """Whether allocating ``sizes`` one after another would succeed."""
        spans = self._spans
        last = len(sizes) - 1
        for i, nbytes in enumerate(sizes):
            offset = self._first_fit(spans, nbytes)
            if offset is None:
                return False
            if i < last:  # the later sizes must see this one placed
                if spans is self._spans:
                    spans = spans.copy()
                insort(spans, (offset, nbytes))
        return True

    def alloc(self, nbytes: int) -> int:
        offset = self._first_fit(self._spans, nbytes)
        if offset is None:
            raise AllocationFailure(f"{self.name}: no fit for {nbytes} bytes")
        region = self._next_region
        self._next_region += 1
        span = (offset, nbytes)
        self.allocations[region] = span
        index = bisect_left(self._spans, span)
        self._spans.insert(index, span)
        self._span_regions.insert(index, region)
        self.changed = True
        return region

    def free_region(self, region: int) -> None:
        if region not in self.allocations:
            raise RuntimeError(f"{self.name}: unknown region {region}")
        index = bisect_left(self._spans, self.allocations.pop(region))
        del self._spans[index]
        del self._span_regions[index]
        self.changed = True

    def offset_of(self, region: int) -> int:
        return self.allocations[region][0]

    def check(self) -> None:
        cursor = 0
        for offset, size in self._spans:
            if offset < cursor:
                raise RuntimeError(f"{self.name}: overlapping regions")
            cursor = offset + size
        if cursor > self.capacity:
            raise RuntimeError(f"{self.name}: allocation beyond capacity")
        # The walk proved the spans distinct, so their regions are distinct
        # too; with equal counts they are exactly the allocated regions.
        if len(self._spans) != len(self.allocations) or \
                list(map(self.allocations.get, self._span_regions)) != self._spans:
            raise RuntimeError(f"{self.name}: span index differs from allocations")


SECTION_NAMES = ("TASK_CODE_POOL", "FIFO_LISTS", "LOAD_INDICATION", "COMPUTE_DATA")


# ---------------------------------------------------------------------------
# DMA


class DmaEngine:
    """One in-flight burst at a time; later requests queue FIFO."""

    def __init__(self, name: str, timing: DmaTiming):
        self.name = name
        self.timing = timing
        self.busy_until = 0

    def reserve(self, request_time: int, nbytes: int) -> tuple[int, int]:
        """Returns (start, done) for a burst submitted at request_time."""
        start = max(request_time, self.busy_until)
        done = start + dma_cycles(nbytes, self.timing)
        self.busy_until = done
        return start, done


# ---------------------------------------------------------------------------
# tiles and clusters


class PortDirection(enum.Enum):
    BUS = "bus"
    CORE = "core"


class RunState(enum.Enum):
    IDLE = "idle"
    LOADING = "loading"
    RUNNING = "running"
    RETURNING = "returning"


# The one legal successor of each tile state.
_NEXT_STATE = {RunState.IDLE: RunState.LOADING, RunState.LOADING: RunState.RUNNING,
               RunState.RUNNING: RunState.RETURNING, RunState.RETURNING: RunState.IDLE}

TILE_CLASS_TIMING = {
    "L": TileTiming(lanes=16, vrf_count=32),
    "S": TileTiming(lanes=8, vrf_count=64),
}


@dataclass
class TileState:
    tile_id: int
    cluster_id: int
    tile_class: str
    timing: TileTiming
    tspm_capacity: int
    port: PortDirection = PortDirection.BUS
    run_state: RunState = RunState.IDLE
    busy_cycles: int = 0  # summed RUNNING spans
    since: int = 0  # when run_state took effect


@dataclass
class ClusterState:
    cluster_id: int
    tiles: list[TileState]
    sections: dict[str, SpmSection]
    dma: DmaEngine
    max_threads: int

    def idle_tiles(self) -> list[TileState]:
        idle = RunState.IDLE  # an enum member lookup costs more than the test
        return [t for t in self.tiles if t.run_state is idle]


@dataclass
class MachineConfig:
    clusters: int = 1
    tile_mix: tuple[str, ...] = ("L", "L", "S", "S")
    tspm_bytes: int = 131072
    section_bytes: dict[str, int] = field(default_factory=lambda: {
        "TASK_CODE_POOL": 393216,
        "FIFO_LISTS": 65536,
        "LOAD_INDICATION": 16384,
        "COMPUTE_DATA": 1048576,
    })
    dma: DmaTiming = DmaTiming()
    max_threads: int = 2
    clock_hz: float = 500e6
    thread_eval_cycles: int = 50
    scan_visit_cycles: int = 10

    def __post_init__(self):
        # Each message starts "<field>: " (a section's name for its size),
        # which the config parser maps to the config key.
        if self.clusters < 1:
            raise ValueError("clusters: must be >= 1")
        if not self.tile_mix:
            raise ValueError("tile_mix: must not be empty")
        for cls in self.tile_mix:
            if cls not in TILE_CLASS_TIMING:
                raise ValueError(f"tile_mix: unknown tile class {cls!r}")
        for name in SECTION_NAMES:
            if self.section_bytes.get(name, 0) <= 0:
                raise ValueError(f"{name}: must have positive capacity")


class Machine:
    """Clusters, tiles, DMA engines and the protocol-level state transitions."""

    def __init__(self, config: MachineConfig, trace_path: str | None = None,
                 digest_salt: str = ""):
        self.config = config
        self.engine = EventEngine(trace_path, salt=digest_salt)
        self.clusters: list[ClusterState] = []
        next_tile = 0
        for cid in range(config.clusters):
            tiles = []
            for cls in config.tile_mix:
                tiles.append(TileState(
                    tile_id=next_tile, cluster_id=cid, tile_class=cls,
                    timing=TILE_CLASS_TIMING[cls], tspm_capacity=config.tspm_bytes))
                next_tile += 1
            sections = {name: SpmSection(f"c{cid}.{name}", config.section_bytes[name])
                        for name in SECTION_NAMES}
            self.clusters.append(ClusterState(
                cluster_id=cid, tiles=tiles, sections=sections,
                dma=DmaEngine(f"c{cid}.dma", config.dma),
                max_threads=config.max_threads))
        self.main_dma = DmaEngine("main.dma", config.dma)
        self.tiles = {t.tile_id: t for c in self.clusters for t in c.tiles}
        # tile id -> (deploy event, compute cycles) from deploy to release
        self._jobs: dict[int, tuple[Event, int]] = {}

    # -- protocol primitives ------------------------------------------------

    def _advance(self, tile: TileState, state: RunState, at: int) -> None:
        """Move the tile to ``state``, which takes effect at ``at``."""
        if _NEXT_STATE[tile.run_state] is not state:
            raise ProtocolViolation(
                f"tile {tile.tile_id}: {tile.run_state.value} -> {state.value}")
        if tile.run_state is RunState.RUNNING:
            tile.busy_cycles += at - tile.since
        tile.run_state = state
        tile.since = at

    def _post_job(self, tile: TileState, kind: EventKind, time: int,
                  nbytes: int = 0) -> Event:
        """Post a copy of the tile's job; every tile out of IDLE has one."""
        job = self._jobs[tile.tile_id][0]
        return self.engine.post(Event(time, kind, job.cluster, job.tile, job.thread,
                                      job.task, nbytes, job.ctx))

    def set_port_direction(self, tile: TileState, direction: PortDirection) -> int:
        """Atomic CSR write flipping scratchpad ownership; returns its cost."""
        if tile.run_state is RunState.RUNNING:
            raise ProtocolViolation(f"tile {tile.tile_id}: port flip while running")
        tile.port = direction
        return self.config.dma.csr_write_cycles

    def begin_deploy(self, cluster: ClusterState, tile: TileState,
                     code_bytes: int, data_bytes: int, cycles: int, now: int,
                     ctx: Any, thread: int = -1, task: str = "") -> Event:
        """Port->BUS, program the cluster DMA, and post its completion, which
        is the tile's job until release. ``finish_deploy`` applies the other
        two CSR writes (port->CORE, reset release); the job then runs for
        ``cycles``."""
        total = code_bytes + data_bytes
        if total > tile.tspm_capacity:
            raise AllocationFailure(
                f"tile {tile.tile_id}: payload {total} exceeds scratchpad")
        self._advance(tile, RunState.LOADING, now)
        csr = self.set_port_direction(tile, PortDirection.BUS)
        _, done = cluster.dma.reserve(now + csr, total)
        job = self.engine.post(Event(
            time=done, kind=EventKind.DMA_DONE, cluster=cluster.cluster_id,
            tile=tile.tile_id, thread=thread, task=task, nbytes=total, ctx=ctx))
        self._jobs[tile.tile_id] = (job, cycles)
        return job

    def finish_deploy(self, tile: TileState) -> int:
        """Port->CORE, reset release and TILE_DONE; returns the start time."""
        start = self.engine.now + 2 * self.config.dma.csr_write_cycles
        self._advance(tile, RunState.RUNNING, start)
        if tile.port is not PortDirection.BUS:
            raise ProtocolViolation(f"tile {tile.tile_id}: DMA finished with port at core")
        tile.port = PortDirection.CORE
        _, cycles = self._jobs[tile.tile_id]
        self._post_job(tile, EventKind.TILE_DONE, start + cycles)
        return start

    def tile_finish(self, tile: TileState) -> int:
        """Port->BUS and interrupt; returns the interrupt time."""
        self._advance(tile, RunState.RETURNING, self.engine.now)
        if tile.port is not PortDirection.CORE:
            raise ProtocolViolation(f"tile {tile.tile_id}: ran with port at bus")
        tile.port = PortDirection.BUS
        interrupt_time = self.engine.now + self.config.dma.csr_write_cycles
        self._post_job(tile, EventKind.INTERRUPT, interrupt_time)
        return interrupt_time

    def begin_retrieval(self, cluster: ClusterState, tile: TileState,
                        nbytes: int, now: int) -> Event:
        if tile.run_state is not RunState.RETURNING:
            raise ProtocolViolation(f"tile {tile.tile_id}: retrieval while {tile.run_state}")
        if tile.port is not PortDirection.BUS:
            raise ProtocolViolation(f"tile {tile.tile_id}: retrieval with port at core")
        _, done = cluster.dma.reserve(now, nbytes)
        return self._post_job(tile, EventKind.DMA_DONE, done, nbytes)

    def release_tile(self, tile: TileState, now: int) -> None:
        self._advance(tile, RunState.IDLE, now)
        del self._jobs[tile.tile_id]

    def main_transfer(self, now: int, nbytes: int, cluster_id: int,
                      thread: int, ctx: Any) -> Event:
        """Main-memory to cluster scratchpad burst (single CSR program)."""
        _, done = self.main_dma.reserve(now + self.config.dma.csr_write_cycles, nbytes)
        return self.engine.post(Event(
            time=done, kind=EventKind.DMA_DONE, cluster=cluster_id,
            thread=thread, nbytes=nbytes, ctx=ctx))

    def check_invariants(self) -> None:
        """Check the machine after an event.

        Every event: each busy tile's port.
        Only sections an event changed: the allocator ``check``. A section
        changes only through ``alloc`` and ``free_region``, which set its
        ``changed`` flag, so a section with a clear flag still holds the
        state that passed its last check. The flag is cleared only after
        the check passes, so a failed check leaves it set.
        """
        idle, running = RunState.IDLE, RunState.RUNNING
        core, bus = PortDirection.CORE, PortDirection.BUS
        for cluster in self.clusters:
            for section in cluster.sections.values():
                if section.changed:
                    section.check()
                    section.changed = False
            for tile in cluster.tiles:
                state = tile.run_state
                if state is idle:
                    continue
                if state is running:
                    if tile.port is not core:
                        raise ProtocolViolation(f"tile {tile.tile_id} running with port at bus")
                elif tile.port is not bus:  # loading or returning
                    raise ProtocolViolation(
                        f"tile {tile.tile_id} transferring with port at core")
