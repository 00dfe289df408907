"""Thread-level scheduling (residency, admission, LRU) and task-level scans."""

import dataclasses
import functools
import gc
import weakref

import pytest

from conftest import input_token, linear_dag, make_passthrough_body
from wbpsim.costmodel import CostModel, CostParams
from wbpsim.dag import Dag, TaskSpec, TaskState, Token
from wbpsim.machine import (Event, EventKind, Machine, MachineConfig, RunState,
                            SimulationStalled, SpmSection)
from wbpsim.scheduler import (BodyResult, ClusterScheduler, Decision,
                              DeploymentTable, MainScheduler, Metrics, System,
                              TableEntry, ThreadDescriptor, ThreadRun)

# One law so synthetic task cost is predictable; ref lanes match the L tile
# so no lane scaling applies.
FLAT_COST = CostModel([], CostParams(laws={"assemble": (0.01, 2000.0)},
                                     ref_lanes=16))


def small_config(**kw):
    defaults = dict(
        clusters=3, tile_mix=("L",), max_threads=2,
        section_bytes={"TASK_CODE_POOL": 5000, "FIFO_LISTS": 4096,
                       "LOAD_INDICATION": 2048, "COMPUTE_DATA": 65536},
    )
    defaults.update(kw)
    return MachineConfig(**defaults)


def build_system(config=None, lazy_deletion=True, strict_algorithm=False,
                 cost=FLAT_COST):
    machine = Machine(config or small_config())
    return System(machine, cost, make_passthrough_body(),
                  lazy_deletion=lazy_deletion, strict_algorithm=strict_algorithm)


def thread(tid, dag, arrival=0, nbytes=64):
    return ThreadDescriptor(tid=tid, dag=dag, inputs=[input_token(nbytes)],
                            arrival_time=arrival)


def one_task_dag(code_bytes=4096, tag="job"):
    dag = Dag()
    dag.add_task(TaskSpec(task_id=f"{tag}0", kernel="assemble", attribute="ANY",
                          code_bytes=code_bytes))
    dag.add_edge("EXTERNAL", f"{tag}0")
    return dag.freeze()


def in_flight(system, cluster_id, tid, dag):
    """Enter a run of ``dag`` on the cluster whose bundle is still in flight;
    it takes a thread slot and has no instance yet."""
    run = ThreadRun(thread=thread(tid, dag), cluster_id=cluster_id,
                    fifo_region=-1, inputs=[])
    system.cluster_scheds[cluster_id].runs[tid] = run
    return run


# ---------------------------------------------------------------------------
# placement transfer size


def main_transfer_sizes(system) -> list[int]:
    """Byte counts of the main-DMA transfers that placements start, in order."""
    sizes = []
    transfer = system.machine.main_transfer

    def recording(now, nbytes, *args, **kwargs):
        sizes.append(nbytes)
        return transfer(now, nbytes, *args, **kwargs)

    system.machine.main_transfer = recording
    return sizes


def test_placement_ships_packed_dag_plus_input_bytes():
    system = build_system()
    sizes = main_transfer_sizes(system)
    dag = linear_dag(3, code_bytes=1000)
    assert dag.packed_bytes == 32 + 3 * 1000
    system.submit(ThreadDescriptor(tid=0, dag=dag, inputs=[input_token(96)],
                                   arrival_time=0))
    system.run()
    assert system.metrics.dag_transfers == 1
    assert sizes == [dag.packed_bytes + 96]


# ---------------------------------------------------------------------------
# deployment table primitives


def test_deployment_table_holders_and_touch():
    table = DeploymentTable()
    assert table.holders("d1") == []
    table.record(TableEntry("d1", 2, last_used=5, code_region=0))
    table.record(TableEntry("d1", 0, last_used=9, code_region=1))
    holders = table.holders("d1")
    assert [e.cluster_id for e in holders] == [0, 2]
    table.touch("d1", 2, 42)
    assert table.entries[("d1", 2)].last_used == 42
    table.drop("d1", 2)
    assert [e.cluster_id for e in table.holders("d1")] == [0]


def test_code_deployed_empty_then_hit_then_evicted():
    system = build_system()
    dag = one_task_dag()
    t = thread(0, dag)
    assert system.main.code_deployed(t) is None
    system.submit(t)
    system.run()
    assert system.main.code_deployed(thread(1, dag)) == 0
    entry = system.main.table.entries[(dag.dag_id, 0)]
    system.machine.clusters[0].sections["TASK_CODE_POOL"].free_region(
        entry.code_region)
    system.main.table.drop(dag.dag_id, 0)
    assert system.main.code_deployed(thread(2, dag)) is None


def test_thread_manager_query_slots_and_headroom():
    system = build_system()
    dag = one_task_dag()
    t = thread(0, dag)
    assert system.main.thread_manager_query(0, t)
    for tid in (100, 101):
        in_flight(system, 0, tid, dag)
    assert not system.main.thread_manager_query(0, t)
    system.cluster_scheds[0].runs.clear()
    # COMPUTE_DATA nearly full relative to the payload
    big = system.machine.clusters[1].sections["COMPUTE_DATA"]
    big.alloc(big.capacity - 16)
    assert not system.main.thread_manager_query(1, thread(1, dag, nbytes=64))
    assert system.main.thread_manager_query(1, thread(2, dag, nbytes=8))


def test_fit_queries_never_allocate(monkeypatch):
    # A section changes only on a real reservation, so asking whether a
    # bundle fits must not allocate, not even to free again.
    system = build_system()
    dag = one_task_dag()
    pool0 = system.machine.clusters[0].sections["TASK_CODE_POOL"]
    system.main.table.record(TableEntry(dag.dag_id, 0, last_used=0,
                                        code_region=pool0.alloc(dag.packed_bytes)))
    probe = ThreadDescriptor(tid=0, dag=dag, arrival_time=0,
                             inputs=[input_token(64), input_token(32)])

    def refuse(self, *args):
        raise AssertionError(f"{self.name} changed during a fit query")

    monkeypatch.setattr(SpmSection, "alloc", refuse)
    monkeypatch.setattr(SpmSection, "free_region", refuse)
    assert system.main.code_deployed(probe) == 0
    assert system.main.thread_manager_query(1, probe)
    assert system.main.thread_manager_query(2, probe)


def test_eviction_that_leaves_inputs_unfit_waits_without_leaks():
    # Path (c): the LRU dag could be evicted to make code room, but the
    # inputs find no data room, so the thread waits, evicts nothing and
    # reserves nothing.
    system = build_system(config=small_config(clusters=1))
    dag_a = one_task_dag(tag="a")
    dag_b = one_task_dag(tag="b")
    sections = system.machine.clusters[0].sections
    system.main.table.record(TableEntry(
        dag_a.dag_id, 0, last_used=0,
        code_region=sections["TASK_CODE_POOL"].alloc(dag_a.packed_bytes)))
    compute = sections["COMPUTE_DATA"]
    filler = compute.alloc(compute.capacity - 32)
    t = thread(0, dag_b, nbytes=64)
    system.threads[0] = t
    system.main.pending.append(t)
    system.main.evaluate(0)
    assert system.main.decisions == [Decision(0, 0, "wait", 0, ())]
    assert system.metrics.backpressure_events == 1
    assert system.metrics.evictions == 0
    assert system.main.pending == [t]
    entry = system.main.table.entries[(dag_a.dag_id, 0)]
    assert list(sections["TASK_CODE_POOL"].allocations) == [entry.code_region]
    assert sections["FIFO_LISTS"].allocations == {}
    assert list(compute.allocations) == [filler]
    assert system.cluster_scheds[0].runs == {}
    system.machine.check_invariants()


def test_get_cluster_lru_picks_oldest_with_tiebreak():
    system = build_system()
    pool0 = system.machine.clusters[0].sections["TASK_CODE_POOL"]
    pool1 = system.machine.clusters[1].sections["TASK_CODE_POOL"]
    dag_a, dag_b = one_task_dag(tag="a"), one_task_dag(tag="b")
    system.main.table.record(TableEntry(dag_a.dag_id, 1, last_used=9,
                                        code_region=pool1.alloc(100)))
    system.main.table.record(TableEntry(dag_b.dag_id, 0, last_used=5,
                                        code_region=pool0.alloc(100)))
    assert system.main.get_cluster_lru() == 0
    system.main.table.entries[(dag_b.dag_id, 0)].last_used = 9  # now a tie at 9
    assert system.main.get_cluster_lru() == 0
    in_flight(system, 0, 100, dag_b)  # busy entries are skipped
    assert system.main.get_cluster_lru() == 1


def test_evaluate_empty_pending_records_nothing():
    system = build_system()
    system.main.evaluate(0)
    assert system.main.decisions == []
    assert system.main.pending == []


def test_residency_hit_ships_data_only():
    # Seed residency on cluster 2 by hand, then schedule one thread.
    system = build_system()
    dag = one_task_dag()
    pool2 = system.machine.clusters[2].sections["TASK_CODE_POOL"]
    system.main.table.record(TableEntry(dag.dag_id, 2, last_used=0,
                                        code_region=pool2.alloc(dag.packed_bytes)))
    sizes = main_transfer_sizes(system)
    system.submit(thread(0, dag, nbytes=64))
    system.run()
    assert sizes == [64]
    assert system.metrics.dag_transfers == 0
    assert system.metrics.data_transfers == 1
    assert system.metrics.residency_hits == 1
    assert system.main.decisions[0].action == "hit"
    assert system.main.decisions[0].cluster == 2
    assert list(system.finished_runs) == [0]


def test_finished_system_is_freed_without_cycle_collection():
    # Repeated runs in one process must not hold every earlier run's state
    # until the cycle collector happens to run.
    system = build_system()
    system.submit(thread(0, one_task_dag()))
    system.run()
    ref = weakref.ref(system)
    gc.disable()
    try:
        del system
        assert ref() is None
    finally:
        gc.enable()


def test_thread_descriptor_is_read_only_after_a_run():
    # The run, not the workload's descriptor, holds the region-tagged inputs.
    system = build_system()
    t = thread(0, one_task_dag())
    system.submit(t)
    system.run()
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.inputs = []
    assert [token.region for token in t.inputs] == [None]
    assert system.finished_runs[0].inputs[0].region is not None


def test_over_full_run_table_fails_the_event():
    system = build_system()
    for tid in range(3):  # max_threads is 2
        in_flight(system, 1, tid, one_task_dag())
    arrival = thread(3, one_task_dag())
    with pytest.raises(RuntimeError, match="^cluster 1 over thread limit$"):
        system.handle(Event(time=0, kind=EventKind.THREAD_ARRIVAL, ctx=arrival))


def test_admitting_or_finishing_a_run_out_of_turn_fails():
    system = build_system()
    dag = one_task_dag()
    system.submit(thread(0, dag))
    system.run()
    done = system.finished_runs[0]
    sched = system.cluster_scheds[done.cluster_id]
    with pytest.raises(RuntimeError, match="finished twice"):
        sched.finish_thread(done, 0)
    with pytest.raises(RuntimeError, match="without a placement"):
        sched.admit_instance(done)
    live = resident(system, 1, dag)
    with pytest.raises(RuntimeError, match="admitted twice"):
        system.cluster_scheds[0].admit_instance(live)


# ---------------------------------------------------------------------------
# scripted multi-cluster scenario (default vs literal control flow)


def scripted_run(strict_algorithm):
    system = build_system(strict_algorithm=strict_algorithm)
    dag_x = one_task_dag(tag="x")
    dag_y = one_task_dag(tag="y")
    dag_z = one_task_dag(tag="z")
    arrivals = [(0, dag_x), (10, dag_x), (20, dag_x), (30, dag_y), (40, dag_z)]
    for tid, (at, dag) in enumerate(arrivals):
        system.submit(thread(tid, dag, arrival=at))
    system.run()
    return system, (dag_x, dag_y, dag_z)


def placements(system):
    """Final (action, cluster) per thread, in thread order."""
    final = {}
    for decision in system.main.decisions:
        if decision.action != "wait":
            final[decision.thread] = (decision.action, decision.cluster)
    return [final[tid] for tid in sorted(final)]


def test_scripted_scenario_default_mode():
    system, (dag_x, _, _) = scripted_run(strict_algorithm=False)
    assert placements(system) == [
        ("admit", 0),   # fresh system, first cluster admits
        ("hit", 0),     # same dag resident, multi-threading slot available
        ("admit", 1),   # cluster 0 full, next cluster admits and re-ships
        ("admit", 2),   # code pools 0/1 hold dag_x, cluster 2 takes dag_y
        ("evict", 1),   # no admitting cluster: evict the LRU idle dag
    ]
    evict = [d for d in system.main.decisions if d.action == "evict"]
    assert evict[0].evicted == (dag_x.dag_id,)
    assert any(d.action == "wait" for d in system.main.decisions)
    assert system.metrics.dag_transfers == 4
    assert system.metrics.residency_hits == 1
    assert system.metrics.evictions == 1


def test_scripted_scenario_strict_algorithm_mode():
    # The literal control flow skips registration on the admission path, so
    # residency lookups never hit and every placement re-ships the dag.
    system, _ = scripted_run(strict_algorithm=True)
    final = placements(system)
    assert [action for action, _ in final] == ["admit"] * 5
    assert [cluster for _, cluster in final] == [0, 1, 2, 0, 1]
    assert system.metrics.dag_transfers == 5
    assert system.metrics.residency_hits == 0
    assert system.metrics.evictions == 0
    assert len(system.main.table.entries) == 0


# ---------------------------------------------------------------------------
# lazy deletion accounting


def test_lazy_deletion_single_cluster_counts():
    for repeat in (1, 5, 20):
        system = build_system(config=small_config(clusters=1))
        dag = one_task_dag()
        for tid in range(repeat):
            system.submit(thread(tid, dag, arrival=tid * 5))
        system.run()
        assert system.metrics.dag_transfers == 1
        assert system.metrics.data_transfers == repeat
        assert system.metrics.residency_hits == repeat - 1


def test_lazy_deletion_off_reships_every_serial_thread():
    system = build_system(config=small_config(clusters=1, max_threads=1),
                          lazy_deletion=False)
    dag = one_task_dag()
    for tid in range(4):
        system.submit(thread(tid, dag, arrival=tid))
    system.run()
    assert system.metrics.dag_transfers == 4
    assert system.metrics.residency_hits == 0


def test_eager_deletion_keeps_code_until_the_last_overlapping_thread_ends():
    config = small_config(clusters=1, max_threads=2)
    system = build_system(config=config, lazy_deletion=False)
    dag = one_task_dag()
    pool = system.machine.clusters[0].sections["TASK_CODE_POOL"]
    system.submit(thread(0, dag, arrival=0))
    system.submit(thread(1, dag, arrival=1))
    step_until(system, lambda: system.finished_runs)
    assert list(system.finished_runs) == [0]
    assert list(system.cluster_scheds[0].runs) == [1]
    entry = system.main.table.entries[(dag.dag_id, 0)]
    assert list(pool.allocations) == [entry.code_region]
    system.machine.engine.run(system.handle)
    assert list(system.finished_runs) == [0, 1]
    assert system.main.table.entries == {}
    assert pool.allocations == {}
    assert [d.action for d in system.main.decisions] == ["admit", "hit"]


def test_forced_eviction_alternating_dags():
    # Code pool fits one dag; two dags alternate, so after the first two
    # placements every new thread evicts the other dag.
    system = build_system(config=small_config(clusters=1, max_threads=1))
    dag_a = one_task_dag(tag="a")
    dag_b = one_task_dag(tag="b")
    order = [dag_a, dag_b, dag_a, dag_b, dag_a, dag_b]
    for tid, dag in enumerate(order):
        system.submit(thread(tid, dag, arrival=tid))
    system.run()
    assert system.metrics.dag_transfers == len(order)
    assert system.metrics.evictions == len(order) - 1
    assert system.metrics.residency_hits == 0


def test_eviction_that_frees_too_little_waits_for_the_running_dag():
    # Pool 5000 holds B (1024, idle) and A (2048, running), so C (4096)
    # finds no hole even once B is evicted: it waits, with B evicted, and
    # is placed by evicting A once A's thread finishes.
    system = build_system(config=small_config(clusters=1, tile_mix=("L",)))
    dag_b = one_task_dag(code_bytes=1024 - 32, tag="b")
    dag_a = one_task_dag(code_bytes=2048 - 32, tag="a")
    dag_c = one_task_dag(code_bytes=4096 - 32, tag="c")
    assert [d.packed_bytes for d in (dag_b, dag_a, dag_c)] == [1024, 2048, 4096]
    system.submit(thread(0, dag_b))
    system.submit(thread(1, dag_a, arrival=10_000))
    system.submit(thread(2, dag_c, arrival=10_100))
    system.run()
    assert system.finished_runs.keys() == {0, 1, 2}
    decisions = [(d.thread, d.action, d.cluster, d.evicted)
                 for d in system.main.decisions]
    assert decisions == [(0, "admit", 0, ()), (1, "admit", 0, ()),
                         (2, "wait", 0, (dag_b.dag_id,)),
                         (2, "evict", 0, (dag_a.dag_id,))]
    assert system.metrics.evictions == 2


def late_dismissal_dag():
    # a feeds p and q, which join in x; p dismisses x when it completes.
    dag = Dag()
    for task_id in ("a", "p", "q", "x"):
        dag.add_task(TaskSpec(task_id=task_id, kernel="assemble", attribute="ANY",
                              code_bytes=512))
    dag.add_edge("EXTERNAL", "a")
    for src, dst in (("a", "p"), ("a", "q"), ("p", "x"), ("q", "x")):
        dag.add_edge(src, dst)
    dag.add_dismissal("p", ("x",))
    return dag.freeze()


@pytest.mark.parametrize("first", ["p", "q"])
def test_late_dismissal_frees_the_other_producers_token(first, monkeypatch):
    # p and q run side by side; the one with the smaller count finishes
    # first. If q does, its token waits on q->x until finish_thread frees
    # it; if p does, complete_task drops q's token as q completes.
    fast, slow = ("assemble", 64, 1), ("assemble", 64, 3)
    p_cost, others_cost = (fast, slow) if first == "p" else (slow, fast)
    passthrough = make_passthrough_body(cost_items=(others_cost,))

    def body(spec, payloads, thread):
        if spec.task_id == "p":  # it dismisses x, so it sends x no token
            return BodyResult([None], [p_cost], scalar_return=0)
        return passthrough(spec, payloads, thread)

    left_on = []
    finish_thread = ClusterScheduler.finish_thread

    def recording(self, run, now):
        dag = run.thread.dag
        left_on.extend(dag.edges[idx].src for idx, token in enumerate(run.instance.fifos)
                       if token is not None)
        return finish_thread(self, run, now)

    monkeypatch.setattr(ClusterScheduler, "finish_thread", recording)
    config = small_config(clusters=1, tile_mix=("L", "L"))
    system = System(Machine(config), FLAT_COST, body)
    system.submit(thread(0, late_dismissal_dag()))
    system.run()
    assert list(system.finished_runs) == [0]
    assert system.finished_runs[0].instance.states["x"] is TaskState.DISMISSED
    assert system.metrics.dismissed_tasks == 1
    assert left_on == ([] if first == "p" else ["q"])
    assert system.machine.clusters[0].sections["COMPUTE_DATA"].used == 0


def test_multithreading_bound_and_liveness():
    # 8 threads through one two-slot cluster; per-event invariant checks
    # enforce the bound, completion proves no deadlock under backpressure.
    system = build_system(config=small_config(clusters=1, max_threads=2))
    dag = one_task_dag()
    for tid in range(8):
        system.submit(thread(tid, dag, arrival=0))
    system.run()
    assert system.finished_runs.keys() == system.threads.keys()
    assert system.metrics.data_transfers == 8
    assert system.metrics.backpressure_events > 0  # some threads had to wait


def linear_threads_system(body, tiles, indication_bytes=2048, data_bytes=65536,
                          n_threads=4, check=None):
    """One cluster running ``n_threads`` threads of linear_dag(3), 64-byte
    inputs."""
    config = small_config(
        clusters=1, tile_mix=tiles, max_threads=4,
        section_bytes={"TASK_CODE_POOL": 65536, "FIFO_LISTS": 4096,
                       "LOAD_INDICATION": indication_bytes,
                       "COMPUTE_DATA": data_bytes})
    system = System(Machine(config), FLAT_COST, body, check)
    dag = linear_dag(3)
    for tid in range(n_threads):
        system.submit(thread(tid, dag))
    return system


def test_full_load_indication_backs_off_dispatch():
    # A 16-byte LOAD_INDICATION section holds one in-flight task, so the
    # second tile's dispatches back off until it frees; no placement waits.
    counts = []
    for indication_bytes in (16, 2048):
        delivered = {}  # a finished run keeps no outputs; the check gets them

        def check(run, outputs):
            delivered[run.thread.tid] = outputs

        system = linear_threads_system(make_passthrough_body(), ("L", "L"),
                                       indication_bytes=indication_bytes,
                                       check=check)
        system.run()
        assert system.finished_runs.keys() == system.threads.keys() == \
            delivered.keys()
        assert all([token.payload for token in outputs] == ["t2"]
                   for outputs in delivered.values())
        assert all(not run.instance.outputs
                   for run in system.finished_runs.values())
        assert not any(d.action == "wait" for d in system.main.decisions)
        counts.append(system.metrics.backpressure_events)
    assert counts[0] > counts[1] == 0


def test_retrieval_deadlock_is_reported_as_stall():
    # Three queued 64-byte inputs hold 192 of 256 data bytes, so the tile's
    # 128-byte output never fits and its retrieval stalls for good. No event
    # is left to free it, so the queue drains when the last tile job ends.
    # The budget keeps a scheduler that polls instead from running for
    # minutes.
    system = linear_threads_system(make_passthrough_body(token_bytes=128),
                                   ("L",), data_bytes=256, n_threads=6)
    engine = system.machine.engine
    engine.run = functools.partial(engine.run, max_events=50_000)
    with pytest.raises(SimulationStalled) as info:
        system.run()
    assert str(info.value) == ("scheduler made no progress; "
                               "stuck threads [0, 1, 2, 3, 4, 5]")
    assert engine.now == 2646
    assert system.metrics.retrieval_stalls == 1


def step_until(system, done):
    engine = system.machine.engine
    while not done():
        engine.run_until(engine._heap[0][0], system.handle)


def test_retrieval_that_fits_one_of_two_tokens_stalls_then_completes(monkeypatch):
    # Task a returns one 128-byte token per successor. Thread 2's 832-byte
    # input waits for the one S tile, which thread 1's long task holds, so
    # with 192 data bytes free the first token fits and the second does not:
    # the retrieval stalls and leaves the section as it was. Thread 1's
    # completion frees the S tile, thread 2's dispatch there frees its
    # input, and the scan of that same event resumes the retrieval.
    fan = Dag()
    for task_id in ("a", "b", "c"):
        fan.add_task(TaskSpec(task_id=task_id, kernel="assemble",
                              attribute="LARGE", code_bytes=512))
    fan.add_edge("EXTERNAL", "a")
    fan.add_edge("a", "b")
    fan.add_edge("a", "c")
    fan.freeze()
    small = {tag: linear_dag(1, kernel="assemble", attr="SMALL",
                             code_bytes=512, tag=tag) for tag in ("s", "f")}
    config = small_config(clusters=1, tile_mix=("L", "S"), max_threads=3,
                          section_bytes={"TASK_CODE_POOL": 8192,
                                         "FIFO_LISTS": 4096,
                                         "LOAD_INDICATION": 2048,
                                         "COMPUTE_DATA": 1024})
    passthrough = make_passthrough_body(token_bytes=128)

    def body(spec, payloads, thread):
        result = passthrough(spec, payloads, thread)
        if spec.task_id == "s0":  # thread 1 holds the S tile for long
            result.cost_items = [("assemble", 64, 10)]
        return result

    finished = {}  # thread id -> (event count, time) of its completion
    system = System(Machine(config), FLAT_COST, body,
                    lambda run, outputs: finished.setdefault(
                        run.thread.tid, (engine.dispatched, run.completed_at)))
    engine = system.machine.engine
    compute = system.machine.clusters[0].sections["COMPUTE_DATA"]
    calls = []  # task a's retrieval attempts
    original = ClusterScheduler.start_retrieval

    def recording(self, task_run, now):
        before = (dict(compute.allocations), list(compute._spans))
        started = original(self, task_run, now)
        if task_run.task_id == "a":
            calls.append((task_run, started, engine.dispatched, now, before,
                          (dict(compute.allocations), list(compute._spans))))
        return started

    monkeypatch.setattr(ClusterScheduler, "start_retrieval", recording)
    system.submit(thread(0, fan))
    system.submit(thread(1, small["s"]))
    system.submit(thread(2, small["f"], nbytes=832))
    system.run()
    assert len(calls) == 2
    _, started, _, stalled_at, before, after = calls[0]
    assert not started and after == before
    assert sorted(size for _, size in before[0].values()) == [832]
    task_run, started, event, now, _, _ = calls[1]
    assert started and len(set(task_run.output_regions)) == 2
    assert (event, now) == finished[1] and now > stalled_at
    run = system.finished_runs[0]
    assert run.completed_at > now
    assert system.metrics.retrieval_stalls == 1
    assert finished.keys() == {0, 1, 2}
    assert compute.allocations == {}


def test_placement_waiting_for_data_room_is_placed_by_the_completion_that_frees_it():
    # Thread 0's t0 hands back a 768-byte thread output, which stays in
    # COMPUTE_DATA until the thread finishes. Thread 1 arrives while t1 runs
    # and finds a free slot but no room for its 512-byte input, so it waits;
    # thread 0's completion frees the room and places it at that time.
    config = small_config(clusters=1, max_threads=2, section_bytes={
        "TASK_CODE_POOL": 16384, "FIFO_LISTS": 4096, "LOAD_INDICATION": 2048,
        "COMPUTE_DATA": 1024})
    passthrough = make_passthrough_body()

    def body(spec, payloads, thread):
        result = passthrough(spec, payloads, thread)
        if spec.task_id == "t0":
            result.thread_output = Token("out", 768)
        elif spec.task_id == "t1":  # long enough for thread 1 to arrive
            result.cost_items = [("assemble", 64, 10)]
        return result

    system = System(Machine(config), FLAT_COST, body)
    system.submit(thread(0, linear_dag(2)))
    system.submit(thread(1, one_task_dag(), arrival=10_000, nbytes=512))
    system.run()
    done = system.finished_runs[0].completed_at
    # The one wait is thread 1's only try before the completion: nothing
    # polls it in the thousands of cycles between.
    assert done > 15_000
    assert [(d.time, d.thread, d.action) for d in system.main.decisions] == [
        (0, 0, "admit"), (10_000, 1, "wait"), (done, 1, "admit")]
    assert system.finished_runs.keys() == {0, 1}


# ---------------------------------------------------------------------------
# tile selection and scanning


def two_class_system():
    config = small_config(clusters=1, tile_mix=("L", "S"))
    return build_system(config=config)


def test_select_tile_attribute_filter_and_rotation():
    system = two_class_system()
    sched = system.cluster_scheds[0]
    large, small = sched.cluster.tiles
    assert sched.select_tile("LARGE") is large
    assert sched.select_tile("SMALL") is small
    assert sched.select_tile("ANY") is large  # never used, lowest id wins
    large.since = 100
    assert sched.select_tile("ANY") is small  # least recently finished
    large.run_state = large.run_state.__class__.RUNNING
    assert sched.select_tile("LARGE") is None


def test_scan_respects_attributes_and_tile_supply():
    dag = Dag()
    dag.add_task(TaskSpec(task_id="big", kernel="assemble", attribute="LARGE",
                          code_bytes=512))
    dag.add_edge("EXTERNAL", "big")
    dag.freeze()
    config = small_config(clusters=1, tile_mix=("S",))
    system = build_system(config=config)
    t = thread(0, dag)
    system.threads[0] = t
    system.main.pending.append(t)
    system.main.evaluate(0)
    system.machine.engine.run_until(200, system.handle)
    sched = system.cluster_scheds[0]
    assert sched.scan(system.machine.engine.now) == []
    assert system.metrics.dispatched_tasks == 0


def test_scan_dispatches_at_most_available_tiles():
    # Two independent single-task dags, one matching tile: one dispatch per scan.
    config = small_config(clusters=1, tile_mix=("L",), max_threads=2)
    system = build_system(config=config)
    dag_a = one_task_dag(tag="p")
    dag_b = one_task_dag(tag="q")
    system.submit(thread(0, dag_a, arrival=0))
    system.submit(thread(1, dag_b, arrival=0))
    system.run()
    assert system.metrics.dispatched_tasks == 2
    assert system.finished_runs.keys() == system.threads.keys()


def test_busy_cycles_sum_the_cost_of_each_task_a_tile_ran(monkeypatch):
    charged = {}
    original = System.cost_of

    def cost_of(self, result, tile):
        cycles = original(self, result, tile)
        charged[tile.tile_id] = charged.get(tile.tile_id, 0) + cycles
        return cycles

    monkeypatch.setattr(System, "cost_of", cost_of)
    # L and S tiles charge the same task differently (lane scaling).
    system = build_system(config=small_config(clusters=2, tile_mix=("L", "S")))
    dag = linear_dag(3, code_bytes=1000)
    for tid in range(4):
        system.submit(thread(tid, dag, arrival=300 * tid))
    system.run()
    assert system.metrics.dispatched_tasks == 12
    assert len(set(charged.values())) > 1
    assert {t.tile_id: t.busy_cycles for t in system.machine.tiles.values()} == \
        {tid: charged.get(tid, 0) for tid in system.machine.tiles}


def test_scan_empty_when_nothing_ready():
    system = two_class_system()
    assert system.cluster_scheds[0].scan(0) == []


def resident(system, tid, dag):
    """Admit a thread of ``dag`` straight onto cluster 0, each external
    input in its own COMPUTE_DATA region as a placement leaves it."""
    compute = system.machine.clusters[0].sections["COMPUTE_DATA"]
    inputs = [Token(payload=b"in", byte_size=64, region=compute.alloc(64))
              for _ in dag.external_input_edges()]
    run = ThreadRun(thread=ThreadDescriptor(tid=tid, dag=dag, inputs=inputs,
                                            arrival_time=0),
                    cluster_id=0, fifo_region=0, inputs=inputs)
    system.cluster_scheds[0].runs[tid] = run
    system.cluster_scheds[0].admit_instance(run)
    return run


def walk_dispatch_time(sched, now, tid, task_id):
    """When a front-to-back walk over every WAITING task of every
    admitted run, whatever its attribute, reaches ``task_id`` of thread
    ``tid``."""
    visits = 0
    for run in sched.runs.values():
        if run.instance is None:  # bundle in flight: nothing to walk
            continue
        for task in run.thread.dag.topo_order:
            if run.instance.states[task] is TaskState.WAITING:
                visits += 1
                if (run.thread.tid, task) == (tid, task_id):
                    return now + visits * sched.system.machine.config.scan_visit_cycles
    raise AssertionError(f"thread {tid} has no pending task {task_id}")


def test_scan_without_an_idle_tile_changes_nothing():
    system = two_class_system()
    sched = system.cluster_scheds[0]
    run = resident(system, 0, linear_dag(3))
    for tile in sched.cluster.tiles:
        tile.run_state = RunState.RUNNING
    assert run.instance.ready_tasks() == {"t0"}
    states = dict(run.instance.states)
    assert sched.scan(0) == []
    assert run.instance.states == states
    assert system.metrics == Metrics()


def test_scan_charges_a_filtered_dispatch_as_the_full_walk():
    # With the L tile busy the scan skips every LARGE task, yet the SMALL
    # task of the later resident leaves when the walk past them would.
    system = two_class_system()
    sched = system.cluster_scheds[0]
    large, small = sched.cluster.tiles
    large.run_state = RunState.RUNNING
    resident(system, 0, linear_dag(3, attr="LARGE"))
    dag = Dag()
    for task_id, attribute in (("a0", "LARGE"), ("a1", "LARGE"), ("s", "SMALL")):
        dag.add_task(TaskSpec(task_id=task_id, kernel="assemble",
                              attribute=attribute, code_bytes=512))
    dag.add_edge("EXTERNAL", "a0")
    dag.add_edge("a0", "a1")
    dag.add_edge("EXTERNAL", "s")
    dag.freeze()
    assert dag.topo_order == ["a0", "s", "a1"]
    resident(system, 1, dag)
    expected = walk_dispatch_time(sched, 500, 1, "s")
    [task_run] = sched.scan(500)
    assert (task_run.run.thread.tid, task_run.task_id) == (1, "s")
    assert task_run.tile is small
    assert small.since == expected == 500 + (3 + 2) * 10


def test_scan_charges_nothing_for_a_run_in_flight():
    system = two_class_system()
    sched = system.cluster_scheds[0]
    in_flight(system, 0, 0, linear_dag(3))
    resident(system, 1, linear_dag(3))
    expected = walk_dispatch_time(sched, 500, 1, "t0")
    [task_run] = sched.scan(500)
    assert (task_run.run.thread.tid, task_run.task_id) == (1, "t0")
    assert task_run.tile.since == expected == 500 + 1 * 10


def test_dispatch_without_load_indication_room_leaves_the_tile_to_the_next_task(
        monkeypatch):
    system = two_class_system()
    sched = system.cluster_scheds[0]
    large, small = sched.cluster.tiles
    large.run_state = RunState.RUNNING
    first = resident(system, 0, linear_dag(2, attr="SMALL"))
    resident(system, 1, linear_dag(2, attr="SMALL"))
    indication = sched.cluster.sections["LOAD_INDICATION"]
    would_fit = SpmSection.would_fit
    refused = []

    def full_once(self, *sizes):  # the first dispatch finds the section full
        if self is indication and not refused:
            refused.append(sizes)
            return False
        return would_fit(self, *sizes)

    monkeypatch.setattr(SpmSection, "would_fit", full_once)
    expected = walk_dispatch_time(sched, 0, 1, "t0")
    [task_run] = sched.scan(0)
    assert refused and system.metrics.backpressure_events == 1
    assert first.instance.ready_tasks() == {"t0"}
    assert (task_run.run.thread.tid, task_run.task_id) == (1, "t0")
    assert task_run.tile is small and small.since == expected


def test_no_free_slot_waits_without_a_fit_query(monkeypatch):
    # Every placement path needs a free thread slot, so while no cluster has
    # one a pending thread waits as a full try would, without asking any
    # section for room.
    system = build_system()
    clusters = system.machine.clusters
    held = one_task_dag(tag="held")
    for cluster in clusters:
        for i in range(cluster.max_threads):
            in_flight(system, cluster.cluster_id,
                      100 + 10 * cluster.cluster_id + i, held)
    dag = one_task_dag()
    threads = [thread(tid, dag) for tid in range(4)]
    system.main.pending.extend(threads)
    queries, tries = [], []
    would_fit = SpmSection.would_fit
    code_deployed = MainScheduler.code_deployed

    def counted_fit(self, *sizes):
        queries.append(self.name)
        return would_fit(self, *sizes)

    def counted_try(self, probe):  # path (a), the first of every full try
        tries.append(probe.tid)
        return code_deployed(self, probe)

    monkeypatch.setattr(SpmSection, "would_fit", counted_fit)
    monkeypatch.setattr(MainScheduler, "code_deployed", counted_try)
    system.main.evaluate(7)
    assert system.main.decisions == [Decision(7, tid, "wait", -1, ())
                                     for tid in range(4)]
    assert system.metrics.backpressure_events == 4
    assert queries == [] and tries == []
    assert system.main.pending == threads

    # One free slot: the first thread takes it and the rest wait as before.
    del system.cluster_scheds[1].runs[110]
    system.main.evaluate(9)
    assert system.main.decisions[4:] == [Decision(9, 0, "admit", 1)] + [
        Decision(9, tid, "wait", -1, ()) for tid in (1, 2, 3)]
    assert system.metrics.backpressure_events == 7
    assert tries == [0]
    assert system.main.pending == threads[1:]
    assert 0 in system.cluster_scheds[1].runs
