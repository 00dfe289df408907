"""Thread-level scheduling (residency, admission, LRU) and task-level scans."""

import gc
import weakref

import pytest

from conftest import input_token, linear_dag, make_passthrough_body
from wbpsim.costmodel import CostModel, CostParams
from wbpsim.dag import Dag, TaskSpec, Token
from wbpsim.machine import Machine, MachineConfig
from wbpsim.scheduler import (DeploymentTable, System, TableEntry,
                              ThreadDescriptor, ThreadStatus, mem_pack,
                              mem_unpack)

# One law so synthetic task cost is predictable; ref lanes match the L tile
# so no lane scaling applies.
FLAT_COST = CostModel([], CostParams(laws={"assemble": (0.01, 2000.0)},
                                     ref_lanes=16))


def small_config(**kw):
    defaults = dict(
        clusters=3, tile_mix=("L",), max_threads=2,
        section_bytes={"TASK_CODE_POOL": 5000, "FIFO_LISTS": 4096,
                       "LOAD_INDICATION": 2048, "COMPUTE_DATA": 65536},
        sched_tick_cycles=1000,
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


# ---------------------------------------------------------------------------
# mem_pack


def test_mem_pack_empty_data_is_header_plus_code():
    dag = linear_dag(3, code_bytes=1000)
    payload = mem_pack([], dag)
    assert payload.byte_size == 32 + 3000
    assert payload.dag_bytes == payload.byte_size == dag.packed_bytes


def test_mem_pack_roundtrip_and_hand_summed_size():
    dag = linear_dag(6, code_bytes=1000)
    tokens = [Token(payload="a", byte_size=64), Token(payload="b", byte_size=32)]
    payload = mem_pack(tokens, dag)
    assert payload.byte_size == 32 + 6 * 1000 + 96
    dag_id, back = mem_unpack(payload)
    assert dag_id == dag.dag_id
    assert [t.byte_size for t in back] == [64, 32]
    assert [t.payload for t in back] == ["a", "b"]


# ---------------------------------------------------------------------------
# deployment table primitives


def test_deployment_table_holders_and_touch():
    table = DeploymentTable()
    assert table.holders("d1") == []
    table.record(TableEntry("d1", 2, last_used=5, code_region=0, code_bytes=10))
    table.record(TableEntry("d1", 0, last_used=9, code_region=1, code_bytes=10))
    holders = table.holders("d1")
    assert [e.cluster_id for e in holders] == [0, 2]
    table.touch("d1", 2, 42)
    assert table.lookup("d1", 2).last_used == 42
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
    entry = system.main.table.lookup(dag.dag_id, 0)
    system.machine.clusters[0].sections["TASK_CODE_POOL"].free_region(
        entry.code_region)
    system.main.table.drop(dag.dag_id, 0)
    assert system.main.code_deployed(thread(2, dag)) is None


def test_thread_manager_query_slots_and_headroom():
    system = build_system()
    dag = one_task_dag()
    t = thread(0, dag)
    assert system.main.thread_manager_query(0, t)
    system.machine.clusters[0].active_threads.update({100, 101})
    assert not system.main.thread_manager_query(0, t)
    system.machine.clusters[0].active_threads.clear()
    # COMPUTE_DATA nearly full relative to the payload
    big = system.machine.clusters[1].sections["COMPUTE_DATA"]
    big.alloc(big.capacity - 16)
    assert not system.main.thread_manager_query(1, thread(1, dag, nbytes=64))
    assert system.main.thread_manager_query(1, thread(2, dag, nbytes=8))


def test_get_cluster_lru_picks_oldest_with_tiebreak():
    system = build_system()
    pool0 = system.machine.clusters[0].sections["TASK_CODE_POOL"]
    pool1 = system.machine.clusters[1].sections["TASK_CODE_POOL"]
    system.main.table.record(TableEntry("dA", 1, last_used=9,
                                        code_region=pool1.alloc(100),
                                        code_bytes=100))
    system.main.table.record(TableEntry("dB", 0, last_used=5,
                                        code_region=pool0.alloc(100),
                                        code_bytes=100))
    probe = thread(9, one_task_dag())
    assert system.main.get_cluster_lru(probe) == 0
    system.main.table.lookup("dB", 0).last_used = 9  # now a tie at 9
    assert system.main.get_cluster_lru(probe) == 0
    system.main.active_dag_threads[("dB", 0)] = 1  # busy entries are skipped
    assert system.main.get_cluster_lru(probe) == 1


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
    payload = mem_pack([], dag)
    system.main.table.record(TableEntry(dag.dag_id, 2, last_used=0,
                                        code_region=pool2.alloc(payload.dag_bytes),
                                        code_bytes=payload.dag_bytes))
    t = thread(0, dag)
    system.submit(t)
    system.run()
    assert system.metrics.dag_transfers == 0
    assert system.metrics.data_transfers == 1
    assert system.metrics.residency_hits == 1
    assert system.main.decisions[0].action == "hit"
    assert system.main.decisions[0].cluster == 2
    assert t.status is ThreadStatus.DONE


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


def test_multithreading_bound_and_liveness():
    # 8 threads through one two-slot cluster; per-event invariant checks
    # enforce the bound, completion proves no deadlock under backpressure.
    system = build_system(config=small_config(clusters=1, max_threads=2))
    dag = one_task_dag()
    for tid in range(8):
        system.submit(thread(tid, dag, arrival=0))
    system.run()
    assert all(t.status is ThreadStatus.DONE for t in system.threads.values())
    assert system.metrics.data_transfers == 8
    assert system.metrics.backpressure_events > 0  # some threads had to wait


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
    large.last_finish = 100
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
    assert all(t.status is ThreadStatus.DONE for t in system.threads.values())


def test_scan_empty_when_nothing_ready():
    system = two_class_system()
    assert system.cluster_scheds[0].scan(0) == []
