"""Two-level scheduling runtime.

The main scheduler places whole software threads onto clusters: a thread
whose dag is already resident on an admitting cluster ships only its data
(lazy-deletion residency hit); otherwise clusters are asked in ascending id
order whether they can admit the packed dag+data bundle, and as a last
resort idle dags are evicted, least recently used first, to make room. Each
cluster's scheduler then scans its dag instances and dispatches ready tasks
to attribute-matching idle tiles through the bundled deploy/retrieve
protocol.

A thread declares the byte sizes of its inputs, ``input_sizes``; the
tokens themselves do not exist until it is placed. A placed thread has one
record, its ``ThreadRun``. ``_place`` asks ``System.synthesize`` for the
tokens, checks each against its declared size and keeps them on the run,
tagged with their data regions, while the bundle is in flight;
``admit_instance`` pushes them onto the dag's external edges and drops them
from the run. The run table ``ClusterScheduler.runs`` holds every thread
placed on the cluster and not yet finished, in placement order. A run's ``instance`` is None while its bundle is in flight, and the
scan skips it. Placement order is admission order: each ``reserve`` of the
one main DMA engine returns a ``done`` no earlier than the last, and equal
times dispatch in posting order. A thread keeps no status: it is in
``MainScheduler.pending``, in one ``runs`` table or in ``System.finished_runs``.
A finished thread hands its output tokens to ``System.check`` and keeps
none: ``finish_thread`` empties its instance's ``fifos`` and ``outputs``, so
memory holds the payloads of placed, unfinished threads only.

The modeled scan walks each instance's tasks in topological order and pays
``scan_visit_cycles`` for every WAITING task it passes, so a dispatch
leaves at ``now + visits * scan_visit_cycles``. The host does not walk.
Each ``DagInstance`` keeps the sorted topological indices of its
WAITING tasks and its ready tasks split by attribute, and the scan
reaches only the ready tasks whose attribute some idle tile takes. A pass
on a cluster without an idle tile reaches nothing, and a pass ends once
each attribute it started with has found no idle tile. A task's ``visits``
is the pending count of the instances before it plus its rank (1-based
position) among all of its own instance's pending tasks, whatever their
attribute, taken when the scan starts. That equals the walk's count, because a dispatch only pops
the dispatched task's inputs and so changes no other task's readiness
during the scan. It also only makes a tile busy, so a task skipped for want
of a tile would have found none in the walk either.

A placement needs a free thread slot on its cluster: the residency hit and
the admission query ask ``slot_free``, and the LRU path evicts only on a
cluster with a free slot. So while no cluster has a free slot, a pending
thread waits without a try: one backpressure event and one "wait" decision
with cluster -1, as the full try records.

A scratchpad section changes only through ``alloc`` and ``free_region``,
on real reservations. Every fit query is pure: a placement, a dispatch and a
retrieval each ask ``would_fit`` for everything they will reserve, then
allocate, so nothing is ever rolled back and an ``AllocationFailure`` in
them is a bug.

``System.handle`` only schedules: the machine changes tile states, keeps
tile time and posts every event of a tile job. An event's ctx is its
subject: the ``ThreadDescriptor`` of an arrival, the ``ThreadRun`` of a
thread bundle, the ``TaskRun`` of a tile job.

Each wait resumes on the event that frees it; nothing polls. A pending
thread is tried on each arrival and each thread completion. LOAD_INDICATION
frees only in ``complete_task``, and COMPUTE_DATA only there or in a dispatch;
both end in a scan of the cluster, which retries its stalled retrievals. So
a run whose queue drains while threads live has stalled.

All mutation happens inside the single-threaded event loop, so a (config,
seed) pair always yields the same event stream and trace digest.
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable

from .costmodel import CostModel
from .dag import ATTRIBUTES, Dag, DagInstance, TaskState, Token
from .machine import (TILE_CLASS_TIMING, ClusterState, Event, EventKind, Machine,
                      RunState, SimulationStalled, TileState)

FIFO_RECORD_BYTES = 16
LOAD_INDICATION_BYTES = 16


def _fifo_bytes(dag: Dag) -> int:
    """FIFO_LISTS bytes of one thread of ``dag``: a record per edge."""
    return max(1, len(dag.edges) * FIFO_RECORD_BYTES)


# The task attributes each tile class may run.
_TAKES = {cls: {attr for attr in ATTRIBUTES if attr == "ANY" or attr[0] == cls}
          for cls in TILE_CLASS_TIMING}


class UncoveredDag(ValueError):
    """A submitted thread's dag needs a tile class that no cluster has."""


@dataclass(frozen=True)
class ThreadDescriptor:
    tid: int
    dag: Dag
    input_sizes: tuple[int, ...]  # bytes per external input edge, in edge order
    arrival_time: int
    meta: dict[str, Any] = field(default_factory=dict)


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

    def record(self, entry: TableEntry) -> None:
        key = (entry.dag_id, entry.cluster_id)
        if key in self.entries:
            raise RuntimeError(f"duplicate deployment entry {key}")
        self.entries[key] = entry

    def drop(self, dag_id: str, cluster_id: int) -> TableEntry:
        return self.entries.pop((dag_id, cluster_id))

    def touch(self, dag_id: str, cluster_id: int, now: int) -> None:
        self.entries[(dag_id, cluster_id)].last_used = now


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
    # Placement waits plus LOAD_INDICATION refusals. perfbench reads the key
    # by this name, so a rename waits for its revision (ROADMAP direction 7).
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
# Called with a thread being placed; returns its input tokens, one of each
# declared size, in the order of ``input_sizes``.
Synthesize = Callable[[ThreadDescriptor], list[Token]]
# Called with a finished thread's run and the output tokens it delivered.
ThreadCheck = Callable[["ThreadRun", list[Token]], None]


@dataclass
class ThreadRun:
    thread: ThreadDescriptor
    cluster_id: int
    fifo_region: int
    inputs: list[Token]  # region-tagged inputs, until admit_instance takes them
    instance: DagInstance | None = None
    completed_at: int | None = None


@dataclass
class TaskRun:
    run: ThreadRun
    task_id: str
    tile: TileState
    result: BodyResult
    indication_region: int
    output_regions: list[int] = field(default_factory=list)


class ClusterScheduler:
    """Task-level scheduler owning one cluster's run table."""

    def __init__(self, system: "System", cluster: ClusterState):
        # A weak back-reference keeps System free of reference cycles, so a
        # finished run's memory is released as soon as the caller drops it.
        self.system = weakref.proxy(system)
        self.cluster = cluster
        self.runs: dict[int, ThreadRun] = {}  # by thread id, in placement order
        self.stalled_retrievals: list[TaskRun] = []

    # -- admission ----------------------------------------------------------

    def slot_free(self) -> bool:
        return len(self.runs) < self.cluster.max_threads

    def runs_dag(self, dag_id: str) -> bool:
        """Some unfinished thread on the cluster uses the dag."""
        return any(run.thread.dag.dag_id == dag_id for run in self.runs.values())

    def admit_instance(self, run: ThreadRun) -> None:
        tid = run.thread.tid
        if self.runs.get(tid) is not run:
            raise RuntimeError(f"thread {tid} admitted to cluster "
                               f"{self.cluster.cluster_id} without a placement")
        if run.instance is not None:
            raise RuntimeError(f"thread {tid} admitted twice")
        instance = DagInstance(run.thread.dag)
        run.instance = instance
        # submit checked that the thread declares one input per edge.
        for edge_idx, token in zip(run.thread.dag.external_input_edges(), run.inputs):
            instance.push_token(edge_idx, token)
        run.inputs = []

    # -- scanning and dispatch ------------------------------------------------

    def select_tile(self, attribute: str) -> TileState | None:
        candidates = [t for t in self.cluster.idle_tiles()
                      if attribute in _TAKES[t.tile_class]]
        if not candidates:
            return None
        return min(candidates, key=lambda t: (t.since, t.tile_id))

    def _open_attributes(self) -> set[str]:
        """The task attributes that some idle tile of the cluster takes."""
        open_attrs: set[str] = set()
        for tile_class in {t.tile_class for t in self.cluster.idle_tiles()}:
            open_attrs |= _TAKES[tile_class]
        return open_attrs

    def scan(self, now: int) -> list[TaskRun]:
        """One pass over admitted instances; dispatches what fits right now.

        Only ready tasks whose attribute has an idle tile are touched, but
        each dispatch is charged as if the pass had walked every WAITING
        task of the earlier instances and of its own up to it (see the module
        docstring). A run whose bundle is in flight has no instance and
        costs nothing.
        """
        visit_cycles = self.system.machine.config.scan_visit_cycles
        dispatched = []
        # A dispatch only makes a tile busy, so an attribute that found no
        # idle tile finds none for the rest of the pass, which ends once every
        # attribute open at its start has found none.
        open_attrs = self._open_attributes()
        base = 0
        for run in self.runs.values():
            if not open_attrs:
                break
            instance = run.instance
            if instance is None:
                continue
            tasks = run.thread.dag.tasks
            pending = instance.pending_count
            for rank, task_id in instance.ready_ranks(open_attrs):
                attribute = tasks[task_id].attribute
                if attribute not in open_attrs:
                    continue
                tile = self.select_tile(attribute)
                if tile is None:
                    open_attrs.discard(attribute)
                    continue
                dispatch_time = now + (base + rank) * visit_cycles
                task_run = self._dispatch(run, task_id, tile, dispatch_time)
                if task_run is not None:
                    dispatched.append(task_run)
            base += pending
        if self.stalled_retrievals:
            self.retry_stalled(now)
        return dispatched

    def _dispatch(self, run: ThreadRun, task_id: str, tile: TileState,
                  now: int) -> TaskRun | None:
        instance = run.instance
        dag = run.thread.dag
        spec = dag.tasks[task_id]
        live_edges = instance.live_in_edges(task_id)
        in_bytes = sum(instance.fifos[idx].byte_size for idx in live_edges)
        if spec.code_bytes + in_bytes > tile.tspm_capacity:
            # Deployment failure: the task stays ready; every tile has the
            # same tspm, so no retry can succeed.
            self.system.metrics.deployment_failures += 1
            return None
        indication = self.cluster.sections["LOAD_INDICATION"]
        if not indication.would_fit(LOAD_INDICATION_BYTES):
            self.system.metrics.backpressure_events += 1
            return None
        ind_region = indication.alloc(LOAD_INDICATION_BYTES)
        tokens = instance.pop_inputs(task_id, live_edges)
        for token in tokens:
            self.cluster.sections["COMPUTE_DATA"].free_region(token.region)
        result = self.system.execute_body(spec, tokens, run.thread)
        cycles = self.system.cost_of(result, tile)
        instance.set_state(task_id, TaskState.DISPATCHED)
        task_run = TaskRun(run=run, task_id=task_id, tile=tile, result=result,
                           indication_region=ind_region)
        self.system.metrics.dispatched_tasks += 1
        self.system.machine.begin_deploy(
            self.cluster, tile, spec.code_bytes, in_bytes, cycles, now,
            ctx=task_run, thread=run.thread.tid, task=task_id)
        return task_run

    # -- completion ----------------------------------------------------------

    def start_retrieval(self, task_run: TaskRun, now: int) -> bool:
        compute = self.cluster.sections["COMPUTE_DATA"]
        sizes = [t.byte_size for t in task_run.result.returned_tokens()]
        if not compute.would_fit(*sizes):
            self.stalled_retrievals.append(task_run)
            return False
        task_run.output_regions = [compute.alloc(size) for size in sizes]
        self.system.machine.begin_retrieval(
            self.cluster, task_run.tile, sum(sizes), now)
        return True

    def retry_stalled(self, now: int) -> None:
        stalled, self.stalled_retrievals = self.stalled_retrievals, []
        for task_run in stalled:
            self.start_retrieval(task_run, now)

    def complete_task(self, task_run: TaskRun, now: int) -> None:
        """Free the tile, apply dismissal, and queue the retrieved tokens.

        A task completes once and pushes at most one token per out-edge, so
        each edge of an instance receives one token in its life; every push
        checks that its slot is empty.
        """
        run = task_run.run
        instance = run.instance
        dag = run.thread.dag
        task_id = task_run.task_id
        self.system.machine.release_tile(task_run.tile, now)
        self.cluster.sections["LOAD_INDICATION"].free_region(task_run.indication_region)
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
                if instance.states[dst] is not TaskState.DISMISSED:
                    raise RuntimeError(
                        f"{task_id} produced no token for live successor {dst}")
                continue
            token = Token(token.payload, token.byte_size, next(region_iter))
            if instance.states[dst] is TaskState.DISMISSED:
                # Successor pruned after this body was computed; drop the token.
                self.cluster.sections["COMPUTE_DATA"].free_region(token.region)
                continue
            instance.push_token(edge_idx, token)
        if task_run.result.thread_output is not None:
            output = task_run.result.thread_output
            token = Token(output.payload, output.byte_size, next(region_iter))
            instance.outputs[task_id] = token
        if instance.is_complete():
            self.finish_thread(run, now)
        self.scan(now)

    def finish_thread(self, run: ThreadRun, now: int) -> None:
        if self.runs.pop(run.thread.tid, None) is not run:
            raise RuntimeError(f"thread {run.thread.tid} finished twice")
        compute = self.cluster.sections["COMPUTE_DATA"]
        fifos = run.instance.fifos
        for idx, token in enumerate(fifos):
            if token is not None:
                compute.free_region(token.region)
                fifos[idx] = None
        outputs = list(run.instance.outputs.values())
        run.instance.outputs.clear()
        for token in outputs:
            compute.free_region(token.region)
        self.cluster.sections["FIFO_LISTS"].free_region(run.fifo_region)
        run.completed_at = now
        self.system.on_thread_done(run, outputs, now)


class MainScheduler:
    """Thread-level scheduler: residency lookup, admission inquiry, LRU."""

    def __init__(self, system: "System"):
        self.system = weakref.proxy(system)  # see ClusterScheduler
        self.table = DeploymentTable()
        self.pending: list[ThreadDescriptor] = []
        self.decisions: list[Decision] = []

    # -- public queries -------------------------------------------------------

    def code_deployed(self, thread: ThreadDescriptor) -> int | None:
        """Least-loaded resident cluster that can admit the thread's data now.

        Preferring the emptiest admitting holder keeps same-dag threads from
        piling onto one cluster; ties fall to the lowest cluster id.
        """
        admitting = []
        for entry in self.table.holders(thread.dag.dag_id):
            sched = self.system.cluster_scheds[entry.cluster_id]
            if sched.slot_free() and \
                    self._bundle_fits(sched.cluster, thread, ship_dag=False):
                admitting.append(entry.cluster_id)
        if not admitting:
            return None
        return min(admitting,
                   key=lambda cid: (len(self.system.cluster_scheds[cid].runs), cid))

    def thread_manager_query(self, cluster_id: int, thread: ThreadDescriptor) -> bool:
        """Slot plus scratchpad headroom for the full dag+data bundle."""
        sched = self.system.cluster_scheds[cluster_id]
        return sched.slot_free() and \
            self._bundle_fits(sched.cluster, thread, ship_dag=True)

    def get_cluster_lru(self) -> int | None:
        """Cluster of the least-recently-used evictable entry, or None.

        Evictable means no live thread uses the entry and the owning cluster
        has a free thread slot. Ties pick the lowest cluster id.
        """
        scheds = self.system.cluster_scheds
        candidates = [
            entry for entry in self.table.entries.values()
            if scheds[entry.cluster_id].slot_free()
            and not scheds[entry.cluster_id].runs_dag(entry.dag_id)
        ]
        if not candidates:
            return None
        best = min(candidates, key=lambda e: (e.last_used, e.cluster_id))
        return best.cluster_id

    # -- reservations -----------------------------------------------------------

    def _bundle_fits(self, cluster: ClusterState, thread: ThreadDescriptor,
                     ship_dag: bool) -> bool:
        """The sections have room for all that ``_place`` reserves: the
        packed dag when it is shipped, one FIFO record and every input."""
        sections = cluster.sections
        if ship_dag and \
                not sections["TASK_CODE_POOL"].would_fit(thread.dag.packed_bytes):
            return False
        return sections["FIFO_LISTS"].would_fit(_fifo_bytes(thread.dag)) and \
            sections["COMPUTE_DATA"].would_fit(*thread.input_sizes)

    # -- the thread-level scheduling pass ---------------------------------------

    def evaluate(self, now: int) -> None:
        """One pass over pending threads; unplaced ones stay pending."""
        eval_cycles = self.system.machine.config.thread_eval_cycles
        self.pending = [
            thread for evals, thread in enumerate(self.pending, start=1)
            if not self._try_place(thread, now, now + evals * eval_cycles)]

    def _place(self, thread: ThreadDescriptor, cluster_id: int, now: int,
               decision_time: int) -> None:
        """Build the thread's inputs, reserve what ``_bundle_fits`` found
        room for, enter the run with its inputs tagged with their data
        regions, and ship the bundle; the dag goes with it, and is
        registered, unless the cluster holds it.

        A built input whose size differs from the declared one raises, so
        the declaration is checked on every placement."""
        tokens = self.system.synthesize(thread)
        if len(tokens) != len(thread.input_sizes):
            raise RuntimeError(f"thread {thread.tid}: built {len(tokens)} inputs, "
                               f"declared {len(thread.input_sizes)}")
        for index, (token, size) in enumerate(zip(tokens, thread.input_sizes)):
            if token.byte_size != size:
                raise RuntimeError(f"thread {thread.tid}: input {index} is "
                                   f"{token.byte_size} bytes, declared {size}")
        sched = self.system.cluster_scheds[cluster_id]
        cluster = sched.cluster
        compute = cluster.sections["COMPUTE_DATA"]
        inputs = [Token(t.payload, t.byte_size, compute.alloc(t.byte_size))
                  for t in tokens]
        run = ThreadRun(thread=thread, cluster_id=cluster_id, inputs=inputs,
                        fifo_region=cluster.sections["FIFO_LISTS"].alloc(
                            _fifo_bytes(thread.dag)))
        transfer_bytes = sum(thread.input_sizes)
        if (thread.dag.dag_id, cluster_id) not in self.table.entries:
            dag_bytes = thread.dag.packed_bytes
            code_region = cluster.sections["TASK_CODE_POOL"].alloc(dag_bytes)
            transfer_bytes += dag_bytes
            self.system.metrics.dag_transfers += 1
            self.table.record(TableEntry(thread.dag.dag_id, cluster_id, now, code_region))
        else:
            self.table.touch(thread.dag.dag_id, cluster_id, now)
            self.system.metrics.residency_hits += 1
        self.system.metrics.data_transfers += 1
        sched.runs[thread.tid] = run
        self.system.machine.main_transfer(
            decision_time, transfer_bytes, cluster_id, thread.tid,
            ctx=run)

    def _try_place(self, thread: ThreadDescriptor, now: int,
                   decision_time: int) -> bool:
        # Every path needs a free slot, so with none anywhere the thread
        # waits (cluster -1) without a try.
        if not any(sched.slot_free() for sched in self.system.cluster_scheds):
            self.system.metrics.backpressure_events += 1
            self.decisions.append(Decision(now, thread.tid, "wait"))
            return False
        # (a) residency hit: ship data only. Here and below, _place reserves
        # what _bundle_fits found room for, so it cannot fail.
        cid = self.code_deployed(thread)
        if cid is not None:
            self._place(thread, cid, now, decision_time)
            self.decisions.append(Decision(now, thread.tid, "hit", cid))
            return True
        # (b) ask each cluster in ascending id order for admission. A holder
        # of the dag that passes the query was already taken in (a), so the
        # dag is shipped; the query checked every section _place reserves.
        for sched in self.system.cluster_scheds:
            cid = sched.cluster.cluster_id
            if self.thread_manager_query(cid, thread):
                self._place(thread, cid, now, decision_time)
                self.decisions.append(Decision(now, thread.tid, "admit", cid))
                return True
        # (c) evict least-recently-used idle dags and place there. Eviction
        # frees only code room, so it is tried only if the rest fits. (b) found
        # no code room, and (a) would have taken a holder of the dag, so a
        # placement here evicts at least one dag and ships this one.
        cid = self.get_cluster_lru()
        if cid is not None and self._bundle_fits(
                self.system.cluster_scheds[cid].cluster, thread, ship_dag=False):
            evicted = self._evict_until_fit(cid, thread)
            if evicted:
                self._place(thread, cid, now, decision_time)
                self.decisions.append(Decision(now, thread.tid, "evict", cid, evicted))
                return True
        self.system.metrics.backpressure_events += 1
        self.decisions.append(Decision(now, thread.tid, "wait",
                                       -1 if cid is None else cid))
        return False

    def _evict_until_fit(self, cluster_id: int, thread: ThreadDescriptor) -> tuple[str, ...]:
        """Evict the cluster's idle entries, least recently used first, until
        the packed dag fits; evict none if it would not fit with all gone."""
        sched = self.system.cluster_scheds[cluster_id]
        pool = sched.cluster.sections["TASK_CODE_POOL"]
        size = thread.dag.packed_bytes
        idle = sorted((e for e in self.table.entries.values()
                       if e.cluster_id == cluster_id and not sched.runs_dag(e.dag_id)),
                      key=lambda e: (e.last_used, e.dag_id))
        if not pool.would_fit(size, freed={e.code_region for e in idle}):
            return ()
        evicted = []
        for victim in idle:
            if pool.would_fit(size):
                break
            pool.free_region(victim.code_region)
            self.table.drop(victim.dag_id, cluster_id)
            self.system.metrics.evictions += 1
            evicted.append(victim.dag_id)
        return tuple(evicted)

    def on_thread_done(self, run: ThreadRun, now: int) -> None:
        sched = self.system.cluster_scheds[run.cluster_id]
        # An entry outlives its threads: eviction and eager deletion only
        # drop entries that no live thread uses.
        entry = self.table.entries[(run.thread.dag.dag_id, run.cluster_id)]
        if self.system.lazy_deletion:
            entry.last_used = now
        elif not sched.runs_dag(entry.dag_id):
            sched.cluster.sections["TASK_CODE_POOL"].free_region(entry.code_region)
            self.table.drop(entry.dag_id, entry.cluster_id)


class System:
    """Binds the machine, both scheduler levels, and the task bodies.

    ``synthesize`` builds a thread's input tokens when it is placed.
    ``check``, if given, is called once per finished thread with its run and
    the output tokens it delivered; the run keeps none of them. Neither may
    refer to the System, which the schedulers' weak references keep free of
    cycles.
    """

    def __init__(self, machine: Machine, cost_model: CostModel,
                 body_fn: TaskBody, synthesize: Synthesize,
                 check: ThreadCheck | None = None, lazy_deletion: bool = True):
        self.machine = machine
        self.cost_model = cost_model
        self.body_fn = body_fn
        self.synthesize = synthesize
        self.check = check
        self.lazy_deletion = lazy_deletion
        self.metrics = Metrics()
        self.main = MainScheduler(self)
        self.cluster_scheds = [ClusterScheduler(self, c) for c in machine.clusters]
        self.threads: dict[int, ThreadDescriptor] = {}
        self.finished_runs: dict[int, ThreadRun] = {}
        self.last_completion = 0

    # -- workload interface ----------------------------------------------------

    def submit(self, thread: ThreadDescriptor) -> None:
        if thread.tid in self.threads:
            raise ValueError(f"duplicate thread id {thread.tid}")
        # Every cluster is built from the one tile_mix, so one check covers all.
        missing = sorted({spec.attribute[0] for spec in thread.dag.tasks.values()
                          if spec.attribute != "ANY"} - set(self.machine.config.tile_mix))
        if missing:
            raise UncoveredDag(f"no cluster has tile class {missing}, which "
                               f"the dag of thread {thread.tid} requires")
        edges = len(thread.dag.external_input_edges())
        if len(thread.input_sizes) != edges:
            raise ValueError(f"thread {thread.tid} declares {len(thread.input_sizes)} "
                             f"inputs for the {edges} external input edges of its dag")
        self.threads[thread.tid] = thread
        self.machine.engine.post(Event(
            time=thread.arrival_time, kind=EventKind.THREAD_ARRIVAL,
            thread=thread.tid, ctx=thread))

    def run(self) -> None:
        try:
            self.machine.engine.run(self.handle)
        except SimulationStalled as exc:
            raise SimulationStalled(
                f"{exc}; stuck threads {self._live_tids()}") from None
        # Every wait resumes on an event, so a drained queue is a stall.
        live = self._live_tids()
        if live:
            raise SimulationStalled(
                f"scheduler made no progress; stuck threads {live}")

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

    def _live_tids(self) -> list[int]:
        return [tid for tid in self.threads if tid not in self.finished_runs]

    def handle(self, event: Event) -> None:
        now = event.time
        kind, subject = event.kind, event.ctx
        if kind is EventKind.THREAD_ARRIVAL:
            self.main.pending.append(subject)
            self.main.evaluate(now)
        elif kind is EventKind.DMA_DONE:
            self.metrics.dma_bytes += event.nbytes
            if isinstance(subject, ThreadRun):  # the thread's bundle
                sched = self.cluster_scheds[subject.cluster_id]
                sched.admit_instance(subject)
                # A zero-task dag has no edges, so its finish frees no
                # COMPUTE_DATA and needs no scan to retry a retrieval.
                if subject.instance.is_complete():
                    sched.finish_thread(subject, now)
                else:
                    sched.scan(now)
            elif subject.tile.run_state is RunState.LOADING:  # the deploy
                self.machine.finish_deploy(subject.tile)
            else:  # the retrieval
                self.cluster_scheds[subject.run.cluster_id].complete_task(
                    subject, now)
        elif kind is EventKind.TILE_DONE:
            self.machine.tile_finish(subject.tile)
        elif kind is EventKind.INTERRUPT:
            if not self.cluster_scheds[subject.run.cluster_id].start_retrieval(
                    subject, now):
                self.metrics.retrieval_stalls += 1
        else:
            raise RuntimeError(f"unhandled event kind {event.kind}")
        self.machine.check_invariants()
        for sched in self.cluster_scheds:
            if len(sched.runs) > sched.cluster.max_threads:
                raise RuntimeError(f"cluster {sched.cluster.cluster_id} over thread limit")

    def on_thread_done(self, run: ThreadRun, outputs: list[Token], now: int) -> None:
        if self.check is not None:
            self.check(run, outputs)
        self.main.on_thread_done(run, now)
        self.finished_runs[run.thread.tid] = run
        self.last_completion = max(self.last_completion, now)
        self.main.evaluate(now)
