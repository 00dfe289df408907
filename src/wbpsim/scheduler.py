"""Two-level scheduling runtime.

The main scheduler places whole software threads onto clusters: a thread
whose dag is already resident on an admitting cluster ships only its data
(lazy-deletion residency hit); otherwise clusters are asked in ascending id
order whether they can admit the packed dag+data bundle, and as a last
resort the least-recently-used idle dag is evicted to make room. Each
cluster's scheduler then scans resident dag instances in registration order
and dispatches ready tasks to attribute-matching idle tiles through the
bundled deploy/retrieve protocol.

The modeled scan walks each resident's tasks in topological order and pays
``scan_visit_cycles`` for every WAITING/READY task it passes, so a dispatch
leaves at ``now + visits * scan_visit_cycles``. The host does not walk:
each ``DagInstance`` keeps its ready set and the sorted topological indices
of its WAITING/READY tasks up to date, and the scan touches ready tasks
only. A ready task's ``visits`` is the pending count of the residents
before it plus its rank (1-based position) among its own instance's pending
tasks, taken when the scan starts. That equals the walk's count, because a
dispatch only pops the dispatched task's inputs and so changes no other
task's readiness during the scan.

All mutation happens inside the single-threaded event loop, so a (config,
seed) pair always yields the same event stream and trace digest.
"""

from __future__ import annotations

import dataclasses
import enum
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from .costmodel import CostModel
from .dag import PACK_HEADER_BYTES, Dag, DagInstance, TaskState, Token
from .machine import (AllocationFailure, ClusterState, Event, EventKind,
                      Machine, RunState, SimulationStalled, TileState)

FIFO_RECORD_BYTES = 16
LOAD_INDICATION_BYTES = 16


class ThreadStatus(enum.Enum):
    READY = "ready"
    REGISTERED = "registered"
    RUNNING = "running"
    DONE = "done"


@dataclass
class ThreadDescriptor:
    tid: int
    dag: Dag
    inputs: list[Token]
    arrival_time: int
    meta: dict[str, Any] = field(default_factory=dict)
    status: ThreadStatus = ThreadStatus.READY

    def advance(self, new: ThreadStatus) -> None:
        order = list(ThreadStatus)
        if order.index(new) < order.index(self.status):
            raise RuntimeError(f"thread {self.tid}: status may not move backwards")
        self.status = new


@dataclass
class TableEntry:
    dag_id: str
    cluster_id: int
    last_used: int
    code_region: int


class DeploymentTable:
    """Residency map: which cluster holds which dag's code, and how stale."""

    def __init__(self):
        self.entries: dict[tuple[str, int], TableEntry] = {}

    def holders(self, dag_id: str) -> list[TableEntry]:
        return sorted((e for (d, _), e in self.entries.items() if d == dag_id),
                      key=lambda e: e.cluster_id)

    def lookup(self, dag_id: str, cluster_id: int) -> TableEntry | None:
        return self.entries.get((dag_id, cluster_id))

    def record(self, entry: TableEntry) -> None:
        key = (entry.dag_id, entry.cluster_id)
        if key in self.entries:
            raise RuntimeError(f"duplicate deployment entry {key}")
        self.entries[key] = entry

    def drop(self, dag_id: str, cluster_id: int) -> TableEntry:
        return self.entries.pop((dag_id, cluster_id))

    def touch(self, dag_id: str, cluster_id: int, now: int) -> None:
        self.entries[(dag_id, cluster_id)].last_used = now


@dataclass(frozen=True)
class PackedPayload:
    """One contiguous bundle: header, serialized dag records, data tokens.

    The modeled transfer size is header + dag code + token bytes; the record
    fields exist so the bundle can be unpacked and checked in tests.
    """

    dag_id: str
    task_records: tuple
    edge_records: tuple
    dismissal_records: tuple
    tokens: tuple[Token, ...]
    code_bytes: int

    @property
    def dag_bytes(self) -> int:
        return PACK_HEADER_BYTES + self.code_bytes

    @property
    def byte_size(self) -> int:
        return self.dag_bytes + sum(t.byte_size for t in self.tokens)


def mem_pack(data_tokens: list[Token], dag: Dag) -> PackedPayload:
    return PackedPayload(
        dag_id=dag.dag_id,
        task_records=tuple((t.task_id, t.kernel, t.attribute, t.code_bytes)
                           for t in dag.tasks.values()),
        edge_records=tuple((e.src, e.dst, e.capacity) for e in dag.edges),
        dismissal_records=tuple((r.producer, r.group) for r in dag.rules),
        tokens=tuple(data_tokens),
        code_bytes=dag.total_code_bytes,
    )


def mem_unpack(payload: PackedPayload) -> tuple[str, tuple[Token, ...]]:
    return payload.dag_id, payload.tokens


@dataclass(slots=True)
class Decision:
    time: int
    thread: int
    action: str  # hit | admit | evict | wait
    cluster: int = -1
    evicted: tuple[str, ...] = ()


@dataclass
class Metrics:
    dag_transfers: int = 0
    data_transfers: int = 0
    evictions: int = 0
    residency_hits: int = 0
    backpressure_events: int = 0
    dispatched_tasks: int = 0
    dismissed_tasks: int = 0
    retrieval_stalls: int = 0
    deployment_failures: int = 0
    dma_bytes: int = 0

    def snapshot(self) -> dict[str, int]:
        return dataclasses.asdict(self)


@dataclass
class BodyResult:
    """What executing a task produced, before timing is applied.

    ``edge_outputs`` aligns with dag.out_edges(task); ``None`` entries are
    only legal when the destination task was dismissed. ``cost_items`` is a
    list of (kernel_kind, size, count) contributions. ``returned_tokens``
    lists what the tile hands back: the edge outputs that are not None,
    then the thread output.
    """

    edge_outputs: list[Token | None]
    cost_items: list[tuple[str, int, int]]
    thread_output: Token | None = None
    scalar_return: int | None = None

    def returned_tokens(self) -> list[Token]:
        tokens = [t for t in self.edge_outputs if t is not None]
        if self.thread_output is not None:
            tokens.append(self.thread_output)
        return tokens


TaskBody = Callable[..., BodyResult]


@dataclass
class ThreadRun:
    thread: ThreadDescriptor
    cluster_id: int
    fifo_region: int
    anon_code_region: int | None = None
    instance: DagInstance | None = None
    completed_at: int | None = None


@dataclass
class TaskRun:
    run: ThreadRun
    task_id: str
    tile: TileState
    result: BodyResult
    cycles: int
    indication_region: int
    output_regions: list[int] = field(default_factory=list)


class ClusterScheduler:
    """Task-level scheduler owning one cluster's resident dag instances."""

    def __init__(self, system: "System", cluster: ClusterState):
        # A weak back-reference keeps System free of reference cycles, so a
        # finished run's memory is released as soon as the caller drops it.
        self.system = weakref.proxy(system)
        self.cluster = cluster
        self.residents: OrderedDict[int, ThreadRun] = OrderedDict()
        self.stalled_retrievals: list[TaskRun] = []

    # -- admission ----------------------------------------------------------

    def slot_free(self) -> bool:
        return len(self.cluster.active_threads) < self.cluster.max_threads

    def admit_instance(self, run: ThreadRun) -> None:
        instance = DagInstance(run.thread.dag)
        run.instance = instance
        ext_edges = run.thread.dag.external_input_edges()
        if len(ext_edges) != len(run.thread.inputs):
            raise RuntimeError("thread input count does not match dag input edges")
        for edge_idx, token in zip(ext_edges, run.thread.inputs):
            instance.push_token(edge_idx, token)
        self.residents[run.thread.tid] = run

    # -- scanning and dispatch ------------------------------------------------

    def select_tile(self, attribute: str) -> TileState | None:
        candidates = [t for t in self.cluster.idle_tiles()
                      if attribute == "ANY" or t.tile_class == attribute[0]]
        if not candidates:
            return None
        return min(candidates, key=lambda t: (t.last_finish, t.tile_id))

    def scan(self, now: int) -> list[TaskRun]:
        """One pass over resident instances; dispatches what fits right now.

        Only ready tasks are touched, but each dispatch is charged as if the
        pass had walked every WAITING/READY task of the earlier residents and
        of its own instance up to it (see the module docstring).
        """
        visit_cycles = self.system.machine.config.scan_visit_cycles
        dispatched = []
        # A dispatch only makes tiles busy, so an attribute that found no idle
        # tile finds none for the rest of the pass.
        no_tile: set[str] = set()
        base = 0
        for run in list(self.residents.values()):
            instance = run.instance
            pending = instance.pending_count
            for rank, task_id in instance.ready_ranks():
                if instance.states[task_id] is TaskState.WAITING:
                    instance.set_state(task_id, TaskState.READY)
                attribute = run.thread.dag.tasks[task_id].attribute
                if attribute in no_tile:
                    continue
                tile = self.select_tile(attribute)
                if tile is None:
                    no_tile.add(attribute)
                    continue
                dispatch_time = now + (base + rank) * visit_cycles
                task_run = self._dispatch(run, task_id, tile, dispatch_time)
                if task_run is not None:
                    dispatched.append(task_run)
            base += pending
        return dispatched

    def _dispatch(self, run: ThreadRun, task_id: str, tile: TileState,
                  now: int) -> TaskRun | None:
        instance = run.instance
        dag = run.thread.dag
        spec = dag.tasks[task_id]
        live_edges = instance.live_in_edges(task_id)
        in_tokens = [instance.fifos[idx][0] for idx in live_edges]
        in_bytes = sum(t.byte_size for t in in_tokens)
        if spec.code_bytes + in_bytes > tile.tspm_capacity:
            # Deployment failure: the task stays ready and is retried later.
            self.system.metrics.deployment_failures += 1
            return None
        try:
            ind_region = self.cluster.section("LOAD_INDICATION").alloc(
                LOAD_INDICATION_BYTES)
        except AllocationFailure:
            self.system.metrics.backpressure_events += 1
            return None
        tokens = instance.pop_inputs(task_id)
        for token in tokens:
            self.cluster.section("COMPUTE_DATA").free_region(token.region)
        result = self.system.execute_body(spec, tokens, run.thread)
        cycles = self.system.cost_of(result, tile)
        instance.set_state(task_id, TaskState.DISPATCHED)
        task_run = TaskRun(run=run, task_id=task_id, tile=tile, result=result,
                           cycles=cycles, indication_region=ind_region)
        self.system.metrics.dispatched_tasks += 1
        self.system.machine.begin_deploy(
            self.cluster, tile, spec.code_bytes, in_bytes, now,
            ctx=("deploy", task_run), thread=run.thread.tid, task=task_id)
        return task_run

    # -- completion ----------------------------------------------------------

    def start_retrieval(self, task_run: TaskRun, now: int) -> bool:
        compute = self.cluster.section("COMPUTE_DATA")
        needed = task_run.result.returned_tokens()
        regions = []
        try:
            for token in needed:
                regions.append(compute.alloc(token.byte_size))
        except AllocationFailure:
            for region in regions:
                compute.free_region(region)
            self.system.metrics.retrieval_stalls += 1
            self.stalled_retrievals.append(task_run)
            return False
        task_run.output_regions = regions
        self.system.machine.begin_retrieval(
            self.cluster, task_run.tile, sum(t.byte_size for t in needed), now,
            ctx=("retrieval", task_run), thread=task_run.run.thread.tid,
            task=task_run.task_id)
        return True

    def retry_stalled(self, now: int) -> None:
        stalled, self.stalled_retrievals = self.stalled_retrievals, []
        for task_run in stalled:
            self.start_retrieval(task_run, now)

    def complete_task(self, task_run: TaskRun, now: int) -> None:
        """Free the tile, apply dismissal, and queue the retrieved tokens.

        A task completes once and pushes at most one token per out-edge, so
        each FIFO of an instance receives one token in its life; a FIFO holds
        at least one, so these pushes never meet backpressure.
        """
        run = task_run.run
        instance = run.instance
        dag = run.thread.dag
        task_id = task_run.task_id
        self.system.machine.release_tile(task_run.tile, now)
        task_run.tile.busy_cycles += task_run.cycles
        self.cluster.section("LOAD_INDICATION").free_region(task_run.indication_region)
        instance.set_state(task_id, TaskState.DONE)
        rule = dag.dismissal_rule(task_id)
        if rule is not None:
            observed = task_run.result.scalar_return
            if observed is None:
                raise RuntimeError(f"dismissal producer {task_id} returned no count")
            dismissed = instance.apply_dismissal(rule, observed)
            self.system.metrics.dismissed_tasks += len(dismissed)
        region_iter = iter(task_run.output_regions)
        for edge_idx, token in zip(dag.out_edges(task_id), task_run.result.edge_outputs):
            dst = dag.edges[edge_idx].dst
            if token is None:
                if dst in instance.states and \
                        instance.states[dst] is not TaskState.DISMISSED:
                    raise RuntimeError(
                        f"{task_id} produced no token for live successor {dst}")
                continue
            token = dataclasses.replace(token, region=next(region_iter))
            if dst in instance.states and instance.states[dst] is TaskState.DISMISSED:
                # Successor pruned after this body was computed; drop the token.
                self.cluster.section("COMPUTE_DATA").free_region(token.region)
                continue
            instance.push_token(edge_idx, token)
        if task_run.result.thread_output is not None:
            token = dataclasses.replace(task_run.result.thread_output,
                                        region=next(region_iter))
            instance.outputs.setdefault(task_id, []).append(token)
        if instance.is_complete():
            self.finish_thread(run, now)
        self.scan(now)

    def finish_thread(self, run: ThreadRun, now: int) -> None:
        compute = self.cluster.section("COMPUTE_DATA")
        for fifo in run.instance.fifos.values():
            for token in fifo:
                compute.free_region(token.region)
            fifo.clear()
        for tokens in run.instance.outputs.values():
            for token in tokens:
                compute.free_region(token.region)
        self.cluster.section("FIFO_LISTS").free_region(run.fifo_region)
        self.cluster.active_threads.discard(run.thread.tid)
        run.thread.advance(ThreadStatus.DONE)
        run.completed_at = now
        del self.residents[run.thread.tid]
        self.system.on_thread_done(run, now)


class MainScheduler:
    """Thread-level scheduler: residency lookup, admission inquiry, LRU."""

    def __init__(self, system: "System", strict_algorithm: bool = False):
        self.system = weakref.proxy(system)  # see ClusterScheduler
        self.table = DeploymentTable()
        self.pending: list[ThreadDescriptor] = []
        self.strict_algorithm = strict_algorithm
        self.decisions: list[Decision] = []
        # Active thread count per (dag_id, cluster): guards LRU eviction.
        self.active_dag_threads: dict[tuple[str, int], int] = {}

    # -- public queries -------------------------------------------------------

    def code_deployed(self, thread: ThreadDescriptor) -> int | None:
        """Least-loaded resident cluster that can admit the thread's data now.

        Preferring the emptiest admitting holder keeps same-dag threads from
        piling onto one cluster; ties fall to the lowest cluster id.
        """
        admitting = []
        for entry in self.table.holders(thread.dag.dag_id):
            sched = self.system.cluster_scheds[entry.cluster_id]
            if sched.slot_free() and self._data_would_fit(sched.cluster, thread):
                admitting.append(entry.cluster_id)
        if not admitting:
            return None
        return min(admitting,
                   key=lambda cid: (len(self.system.cluster_scheds[cid]
                                        .cluster.active_threads), cid))

    def thread_manager_query(self, cluster_id: int, thread: ThreadDescriptor) -> bool:
        """Slot plus scratchpad headroom for the full dag+data bundle."""
        sched = self.system.cluster_scheds[cluster_id]
        if not self.system.cluster_covers(cluster_id, thread.dag):
            return False
        if not sched.slot_free():
            return False
        cluster = sched.cluster
        resident = self.table.lookup(thread.dag.dag_id, cluster_id)
        if resident is None and \
                not cluster.section("TASK_CODE_POOL").would_fit(thread.dag.packed_bytes):
            return False
        return self._data_would_fit(cluster, thread)

    def get_cluster_lru(self, thread: ThreadDescriptor) -> int | None:
        """Cluster of the least-recently-used evictable entry, or None.

        Evictable means no live thread uses the entry and the owning cluster
        has a free thread slot. Ties pick the lowest cluster id.
        """
        candidates = [
            entry for entry in self.table.entries.values()
            if self.active_dag_threads.get((entry.dag_id, entry.cluster_id), 0) == 0
            and self.system.cluster_scheds[entry.cluster_id].slot_free()
            and self.system.cluster_covers(entry.cluster_id, thread.dag)
        ]
        if not candidates:
            return None
        best = min(candidates, key=lambda e: (e.last_used, e.cluster_id))
        return best.cluster_id

    # -- helper allocation -----------------------------------------------------

    def _data_would_fit(self, cluster: ClusterState, thread: ThreadDescriptor) -> bool:
        fifo_bytes = max(1, len(thread.dag.edges) * FIFO_RECORD_BYTES)
        if not cluster.section("FIFO_LISTS").would_fit(fifo_bytes):
            return False
        compute = cluster.section("COMPUTE_DATA")
        regions = []
        ok = True
        try:
            for token in thread.inputs:
                regions.append(compute.alloc(token.byte_size))
        except AllocationFailure:
            ok = False
        for region in regions:
            compute.free_region(region)
        return ok

    def _alloc_thread(self, cluster: ClusterState, thread: ThreadDescriptor,
                      dag_bytes: int | None) -> tuple[int, int]:
        """Reserve sections for a placement and tag the thread's input tokens
        with their data regions; returns (code_region, fifo_region) with
        code_region == -1 for data-only. Raises AllocationFailure, having
        released everything, when a section has no room."""
        code_region = -1
        fifo_region = -1
        regions: list[int] = []
        try:
            if dag_bytes is not None:
                code_region = cluster.section("TASK_CODE_POOL").alloc(dag_bytes)
            fifo_region = cluster.section("FIFO_LISTS").alloc(
                max(1, len(thread.dag.edges) * FIFO_RECORD_BYTES))
            compute = cluster.section("COMPUTE_DATA")
            for token in thread.inputs:
                regions.append(compute.alloc(token.byte_size))
        except AllocationFailure:
            if code_region != -1:
                cluster.section("TASK_CODE_POOL").free_region(code_region)
            if fifo_region != -1:
                cluster.section("FIFO_LISTS").free_region(fifo_region)
            for region in regions:
                cluster.section("COMPUTE_DATA").free_region(region)
            raise
        thread.inputs = [dataclasses.replace(token, region=region)
                         for token, region in zip(thread.inputs, regions)]
        return code_region, fifo_region

    # -- the thread-level scheduling pass ---------------------------------------

    def evaluate(self, now: int) -> None:
        """One pass over pending threads; unplaced ones stay pending."""
        eval_cycles = self.system.machine.config.thread_eval_cycles
        self.pending = [
            thread for evals, thread in enumerate(self.pending, start=1)
            if not self._try_place(thread, now, now + evals * eval_cycles)]

    def _place(self, thread: ThreadDescriptor, cluster_id: int, now: int,
               decision_time: int, ship_dag: bool, register: bool) -> None:
        """Reserve the cluster's sections and ship the bundle; raises
        AllocationFailure when they have no room."""
        cluster = self.system.cluster_scheds[cluster_id].cluster
        dag_bytes = thread.dag.packed_bytes
        code_region, fifo_region = self._alloc_thread(
            cluster, thread, dag_bytes if ship_dag else None)
        run = ThreadRun(thread=thread, cluster_id=cluster_id,
                        fifo_region=fifo_region)
        transfer_bytes = sum(t.byte_size for t in thread.inputs)
        if ship_dag:
            transfer_bytes += dag_bytes
            self.system.metrics.dag_transfers += 1
            if register:
                self.table.record(TableEntry(thread.dag.dag_id, cluster_id,
                                             now, code_region))
            else:
                run.anon_code_region = code_region
        else:
            self.table.touch(thread.dag.dag_id, cluster_id, now)
            self.system.metrics.residency_hits += 1
        self.system.metrics.data_transfers += 1
        key = (thread.dag.dag_id, cluster_id)
        self.active_dag_threads[key] = self.active_dag_threads.get(key, 0) + 1
        cluster.active_threads.add(thread.tid)
        thread.advance(ThreadStatus.REGISTERED)
        self.system.machine.main_transfer(
            decision_time, transfer_bytes, cluster_id, thread.tid,
            ctx=("thread_payload", run))

    def _try_place(self, thread: ThreadDescriptor, now: int,
                   decision_time: int) -> bool:
        # (a) residency hit: ship data only. code_deployed checked the same
        # FIFO and input fit that _place reserves, so it cannot fail.
        cid = self.code_deployed(thread)
        if cid is not None:
            self._place(thread, cid, now, decision_time,
                        ship_dag=False, register=False)
            self.decisions.append(Decision(now, thread.tid, "hit", cid))
            return True
        # (b) ask each cluster in ascending id order for admission. A holder
        # of the dag that passes the query was already taken in (a), so the
        # dag is shipped; the query checked every section _place reserves.
        # The literal control flow jumps straight to packing here; by
        # default we also register so later lookups can hit.
        for sched in self.system.cluster_scheds:
            cid = sched.cluster.cluster_id
            if self.thread_manager_query(cid, thread):
                self._place(thread, cid, now, decision_time, ship_dag=True,
                            register=not self.strict_algorithm)
                self.decisions.append(Decision(now, thread.tid, "admit", cid))
                return True
        # (c) evict the least-recently-used idle dag and place there.
        cid = self.get_cluster_lru(thread)
        if cid is None:
            self.decisions.append(Decision(now, thread.tid, "wait"))
            self.system.metrics.backpressure_events += 1
            return False
        evicted = tuple(self._evict_until_fit(cid, thread))
        try:
            self._place(thread, cid, now, decision_time,
                        ship_dag=True, register=True)
        except AllocationFailure:
            self.system.metrics.backpressure_events += 1
            self.decisions.append(Decision(now, thread.tid, "wait", cid, evicted))
            return False
        self.decisions.append(Decision(now, thread.tid, "evict", cid, evicted))
        return True

    def _evict_until_fit(self, cluster_id: int, thread: ThreadDescriptor) -> list[str]:
        """Free idle LRU entries on the cluster until the bundle would fit."""
        cluster = self.system.cluster_scheds[cluster_id].cluster
        evicted: list[str] = []
        while not cluster.section("TASK_CODE_POOL").would_fit(thread.dag.packed_bytes):
            idle = [e for e in self.table.entries.values()
                    if e.cluster_id == cluster_id
                    and self.active_dag_threads.get((e.dag_id, cluster_id), 0) == 0]
            if not idle:
                break
            victim = min(idle, key=lambda e: (e.last_used, e.dag_id))
            cluster.section("TASK_CODE_POOL").free_region(victim.code_region)
            self.table.drop(victim.dag_id, cluster_id)
            self.system.metrics.evictions += 1
            evicted.append(victim.dag_id)
        return evicted

    def on_thread_done(self, run: ThreadRun, now: int) -> None:
        key = (run.thread.dag.dag_id, run.cluster_id)
        self.active_dag_threads[key] -= 1
        cluster = self.system.cluster_scheds[run.cluster_id].cluster
        if run.anon_code_region is not None:
            # Unregistered placement (literal control flow): nothing retains
            # the code once its thread ends.
            cluster.section("TASK_CODE_POOL").free_region(run.anon_code_region)
            return
        # A registered entry outlives its threads: eviction and eager
        # deletion only drop entries that no live thread uses.
        entry = self.table.entries[key]
        if self.system.lazy_deletion:
            entry.last_used = now
        elif self.active_dag_threads[key] == 0:
            cluster.section("TASK_CODE_POOL").free_region(entry.code_region)
            self.table.drop(entry.dag_id, entry.cluster_id)


class System:
    """Binds the machine, both scheduler levels, and the task bodies."""

    def __init__(self, machine: Machine, cost_model: CostModel,
                 body_fn: TaskBody, lazy_deletion: bool = True,
                 strict_algorithm: bool = False):
        self.machine = machine
        self.cost_model = cost_model
        self.body_fn = body_fn
        self.lazy_deletion = lazy_deletion
        self.metrics = Metrics()
        self.main = MainScheduler(self, strict_algorithm=strict_algorithm)
        self.cluster_scheds = [ClusterScheduler(self, c) for c in machine.clusters]
        self.threads: dict[int, ThreadDescriptor] = {}
        self.finished_runs: dict[int, ThreadRun] = {}
        self.last_completion = 0
        self._tick_posted = False
        self._stall_ticks = 0
        self._progress_sig = None
        self._dag_classes: dict[str, set[str]] = {}
        # Tile classes per cluster; the tiles are fixed for the whole run.
        self._cluster_classes = [{t.tile_class for t in c.tiles}
                                 for c in machine.clusters]

    # -- workload interface ----------------------------------------------------

    def _needed_classes(self, dag) -> set[str]:
        if dag.dag_id not in self._dag_classes:
            self._dag_classes[dag.dag_id] = {
                spec.attribute[0] for spec in dag.tasks.values()
                if spec.attribute != "ANY"}
        return self._dag_classes[dag.dag_id]

    def cluster_covers(self, cluster_id: int, dag) -> bool:
        """The cluster has a tile of every class the dag's tasks require."""
        return self._needed_classes(dag) <= self._cluster_classes[cluster_id]

    def submit(self, thread: ThreadDescriptor) -> None:
        if thread.tid in self.threads:
            raise ValueError(f"duplicate thread id {thread.tid}")
        if not any(self.cluster_covers(c.cluster_id, thread.dag)
                   for c in self.machine.clusters):
            needed = sorted(self._needed_classes(thread.dag))
            raise ValueError(
                f"no cluster provides tile classes {needed} required by the dag")
        self.threads[thread.tid] = thread
        self.machine.engine.post(Event(
            time=thread.arrival_time, kind=EventKind.THREAD_ARRIVAL,
            thread=thread.tid, ctx=("arrival", thread)))

    def run(self) -> None:
        self._post_tick(self.machine.config.sched_tick_cycles)
        try:
            self.machine.engine.run(self.handle)
        except SimulationStalled as exc:
            raise SimulationStalled(
                f"{exc}; stuck threads {self._live_tids()}") from None
        live = self._live_tids()
        if live:
            raise SimulationStalled(f"simulation drained with live threads {live}")

    def execute_body(self, spec, tokens, thread) -> BodyResult:
        return self.body_fn(spec, [t.payload for t in tokens], thread)

    def cost_of(self, result: BodyResult, tile: TileState) -> int:
        total = 0
        for kind, size, count in result.cost_items:
            if count <= 0:
                continue
            total += count * self.cost_model.kernel_cycles(kind, size, tile.timing)
        return max(1, total)

    # -- event handling ----------------------------------------------------------

    def _post_tick(self, time: int) -> None:
        if not self._tick_posted:
            self.machine.engine.post(Event(time=time, kind=EventKind.SCHED_TICK))
            self._tick_posted = True

    def _live_tids(self) -> list[int]:
        return [t.tid for t in self.threads.values()
                if t.status is not ThreadStatus.DONE]

    def _check_progress(self, now: int) -> None:
        """Fail fast when live threads exist but nothing can ever advance.

        Only loading and running tiles count as busy: a returning tile whose
        retrieval is in flight keeps its cluster DMA busy, and one whose
        retrieval stalled waits on scratchpad space, not on time.
        """
        busy = any(t.run_state in (RunState.LOADING, RunState.RUNNING)
                   for t in self.machine.tiles.values())
        busy = busy or self.machine.main_dma.busy_until > now
        busy = busy or any(c.dma.busy_until > now for c in self.machine.clusters)
        sig = (self.metrics.dispatched_tasks, len(self.finished_runs),
               self.metrics.dma_bytes, len(self.main.pending))
        if busy or sig != self._progress_sig:
            self._stall_ticks = 0
            self._progress_sig = sig
            return
        self._stall_ticks += 1
        if self._stall_ticks >= 10:
            # run() adds the stuck threads to the message.
            raise SimulationStalled(
                f"scheduler made no progress for {self._stall_ticks} ticks")

    def handle(self, event: Event) -> None:
        now = event.time
        if event.kind is EventKind.THREAD_ARRIVAL:
            _, thread = event.ctx
            self.main.pending.append(thread)
            self.main.evaluate(now)
        elif event.kind is EventKind.SCHED_TICK:
            self._tick_posted = False
            self.main.evaluate(now)
            for sched in self.cluster_scheds:
                sched.retry_stalled(now)
                sched.scan(now)
            if self._live_tids():
                self._check_progress(now)
                self._post_tick(now + self.machine.config.sched_tick_cycles)
        elif event.kind is EventKind.DMA_DONE:
            self.metrics.dma_bytes += event.nbytes
            tag = event.ctx[0]
            if tag == "thread_payload":
                run: ThreadRun = event.ctx[1]
                run.thread.advance(ThreadStatus.RUNNING)
                sched = self.cluster_scheds[run.cluster_id]
                sched.admit_instance(run)
                if run.instance.is_complete():  # degenerate zero-task dag
                    sched.finish_thread(run, now)
                else:
                    sched.scan(now)
            elif tag == "deploy":
                task_run: TaskRun = event.ctx[1]
                started = self.machine.finish_deploy(task_run.tile)
                task_run.run.instance.set_state(task_run.task_id, TaskState.RUNNING)
                self.machine.engine.post(Event(
                    time=started + task_run.cycles, kind=EventKind.TILE_DONE,
                    cluster=task_run.run.cluster_id, tile=task_run.tile.tile_id,
                    thread=task_run.run.thread.tid, task=task_run.task_id,
                    ctx=("tile_done", task_run)))
            elif tag == "retrieval":
                task_run = event.ctx[1]
                self.cluster_scheds[task_run.run.cluster_id].complete_task(
                    task_run, now)
            else:
                raise RuntimeError(f"unknown DMA context {tag!r}")
        elif event.kind is EventKind.TILE_DONE:
            task_run = event.ctx[1]
            returns = len(task_run.result.returned_tokens())
            if task_run.result.scalar_return is not None:
                returns += 1
            interrupt_time = self.machine.tile_finish(task_run.tile, returns)
            self.machine.engine.post(Event(
                time=interrupt_time, kind=EventKind.INTERRUPT,
                cluster=task_run.run.cluster_id, tile=task_run.tile.tile_id,
                thread=task_run.run.thread.tid, task=task_run.task_id,
                ctx=("interrupt", task_run)))
        elif event.kind is EventKind.INTERRUPT:
            task_run = event.ctx[1]
            self.cluster_scheds[task_run.run.cluster_id].start_retrieval(
                task_run, now)
        else:
            raise RuntimeError(f"unhandled event kind {event.kind}")
        self.machine.check_invariants()

    def on_thread_done(self, run: ThreadRun, now: int) -> None:
        self.main.on_thread_done(run, now)
        self.finished_runs[run.thread.tid] = run
        self.last_completion = max(self.last_completion, now)
        self.main.evaluate(now)
