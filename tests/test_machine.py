"""Event engine determinism, scratchpad allocation, DMA and protocol timing."""

import copy
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wbpsim.costmodel import DmaTiming
from wbpsim.machine import (AllocationFailure, DmaEngine, Event, EventEngine,
                            EventKind, Machine, MachineConfig, PortDirection,
                            ProtocolViolation, RunState, SpmSection)

TIMING = DmaTiming(setup_cycles=20, bytes_per_cycle=16, csr_write_cycles=4)


def bare(t, **kw):
    """An event that no handler here gives a meaning to."""
    return Event(time=t, kind=EventKind.DMA_DONE, **kw)


# -- event engine -------------------------------------------------------------


def test_events_dispatch_in_time_then_post_order():
    engine = EventEngine()
    seen = []
    engine.post(bare(5, cluster=1))
    engine.post(bare(3, cluster=2))
    engine.post(bare(5, cluster=3))
    engine.run(lambda e: seen.append((e.time, e.cluster)))
    assert seen == [(3, 2), (5, 1), (5, 3)]


def test_post_in_past_rejected():
    engine = EventEngine()
    engine.post(bare(10))
    engine.run(lambda e: None)
    with pytest.raises(RuntimeError):
        engine.post(bare(5))


def test_handler_posts_preserve_order():
    engine = EventEngine()
    seen = []

    def handler(event):
        seen.append((event.time, event.cluster))
        if event.cluster == 0:
            engine.post(bare(event.time, cluster=10))  # same time, later seq
            engine.post(bare(event.time + 2, cluster=11))

    engine.post(bare(1, cluster=0))
    engine.post(bare(2, cluster=1))
    engine.run(handler)
    assert seen == [(1, 0), (1, 10), (2, 1), (3, 11)]


def test_run_until_advances_clock_on_empty_queue():
    engine = EventEngine()
    engine.run_until(42, lambda e: None)
    assert engine.now == 42


def test_run_until_enforces_event_budget():
    engine = EventEngine()
    for t in (1, 2, 3):
        engine.post(bare(t))
    with pytest.raises(RuntimeError, match="event budget"):
        engine.run_until(10, lambda e: None, max_events=2)


def test_digest_reproducible_and_seed_sensitive():
    def stream(order):
        engine = EventEngine()
        for t, c in order:
            engine.post(bare(t, cluster=c))
        engine.run(lambda e: None)
        return engine.digest()

    a = stream([(1, 0), (2, 1)])
    b = stream([(1, 0), (2, 1)])
    c = stream([(1, 0), (2, 2)])
    assert a == b
    assert a != c
    assert len(a) == 64 and a == a.lower()


def test_trace_output_does_not_change_digest(tmp_path):
    def run(trace):
        engine = EventEngine(trace_path=str(tmp_path / "t.jsonl") if trace else None)
        engine.post(bare(1, cluster=0))
        engine.post(bare(4, cluster=1))
        engine.run(lambda e: None)
        return engine.digest()

    assert run(False) == run(True)
    lines = (tmp_path / "t.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2 and '"kind": "dma_done"' in lines[0]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=30))
def test_dispatch_times_never_decrease(times):
    engine = EventEngine()
    seen = []
    for t in times:
        engine.post(bare(t))
    engine.run(lambda e: seen.append(e.time))
    assert seen == sorted(times)


# -- scratchpad allocator ---------------------------------------------------------


def test_alloc_free_restores_capacity():
    spm = SpmSection("s", 100)
    region = spm.alloc(60)
    assert spm.used == 60
    spm.free_region(region)
    assert spm.used == 0
    assert spm.would_fit(100)


def test_exact_fill_then_fail():
    spm = SpmSection("s", 64)
    spm.alloc(64)
    with pytest.raises(AllocationFailure):
        spm.alloc(1)


def test_first_fit_reuses_freed_hole():
    spm = SpmSection("s", 90)
    a = spm.alloc(30)
    b = spm.alloc(30)
    c = spm.alloc(30)
    spm.free_region(b)
    d = spm.alloc(30)
    assert spm.offset_of(d) == 30  # the hole in the middle
    del a, c
    spm.check()


def test_coalesced_holes_fit_large_request():
    spm = SpmSection("s", 90)
    a = spm.alloc(30)
    b = spm.alloc(30)
    spm.alloc(30)
    spm.free_region(a)
    spm.free_region(b)
    big = spm.alloc(60)  # adjacent holes behave as one
    assert spm.offset_of(big) == 0
    spm.check()


def first_fit_oracle(spm, nbytes):
    """Lowest offset with ``nbytes`` free, from the unsorted allocation map."""
    cursor = 0
    for offset, size in sorted(spm.allocations.values()):
        if offset - cursor >= nbytes:
            return cursor
        cursor = offset + size
    return cursor if spm.capacity - cursor >= nbytes else None


@pytest.mark.parametrize("span,message", [((16, 8), "overlapping"),
                                          ((60, 8), "beyond capacity")])
def test_check_rejects_corrupt_spans(span, message):
    spm = SpmSection("s", 64)
    spm.alloc(32)
    spm.allocations[99] = span
    index = bisect_left(spm._spans, span)
    spm._spans.insert(index, span)
    spm._span_regions.insert(index, 99)
    with pytest.raises(RuntimeError, match=message):
        spm.check()


def test_check_rejects_span_index_drift():
    spm = SpmSection("s", 64)
    region = spm.alloc(32)
    spm.allocations[region] = (0, 16)  # the sorted index still says (0, 32)
    with pytest.raises(RuntimeError, match="span index"):
        spm.check()


def allocates_in_turn(spm, sizes, freed=()):
    """Whether allocating ``sizes`` one after another succeeds once the
    ``freed`` regions are gone, on a copy."""
    trial = copy.deepcopy(spm)
    for region in freed:
        trial.free_region(region)
    try:
        for size in sizes:
            trial.alloc(size)
    except AllocationFailure:
        return False
    return True


def allocator_state(spm):
    return (dict(spm.allocations), list(spm._spans), list(spm._span_regions),
            spm._next_region)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(1, 40),
                          st.lists(st.integers(1, 70), max_size=4)),
                max_size=40))
# The first size fits and the second does not: only a 64-byte hole is left.
@example([(True, 40, []), (True, 24, []), (False, 1, [60, 8])])
def test_allocator_invariants_under_random_ops(ops):
    spm = SpmSection("s", 128)
    live = []
    for is_alloc, size, query in ops:
        before = allocator_state(spm)
        assert spm.would_fit(*query) == allocates_in_turn(spm, query)
        freed = set(live[::2])
        assert spm.would_fit(*query, freed=freed) == \
            allocates_in_turn(spm, query, freed)
        assert allocator_state(spm) == before
        if is_alloc or not live:
            expected = first_fit_oracle(spm, size)
            try:
                live.append(spm.alloc(size))
            except AllocationFailure:
                assert expected is None
            else:
                assert spm.offset_of(live[-1]) == expected
        else:
            spm.free_region(live.pop(size % len(live)))
        spm.check()
        assert spm.used <= spm.capacity


# -- DMA engine ---------------------------------------------------------------


def test_dma_serializes_transfers():
    dma = DmaEngine("d", TIMING)
    completions = [dma.reserve(0, 160)[1] for _ in range(3)]
    assert completions == [30, 60, 90]


def test_dma_idle_gap_restarts_at_request_time():
    dma = DmaEngine("d", TIMING)
    assert dma.reserve(0, 0) == (0, 20)
    assert dma.reserve(100, 16) == (100, 121)


# -- machine protocol ------------------------------------------------------------


def test_every_cluster_has_the_config_tile_mix():
    # System.submit checks tile-class coverage against tile_mix once, which
    # holds for every cluster only because each is built from it.
    machine = Machine(MachineConfig(clusters=3, tile_mix=("S", "L", "L")))
    assert [tuple(t.tile_class for t in c.tiles) for c in machine.clusters] == \
        [("S", "L", "L")] * 3


def small_machine(**kw):
    cfg = MachineConfig(clusters=1, tile_mix=("L", "S"), **kw)
    return Machine(cfg)


def test_set_port_direction_rules():
    machine = small_machine()
    tile = machine.clusters[0].tiles[0]
    assert machine.set_port_direction(tile, PortDirection.BUS) == 4
    machine.set_port_direction(tile, PortDirection.CORE)
    machine.set_port_direction(tile, PortDirection.BUS)
    assert tile.port is PortDirection.BUS
    tile.run_state = RunState.RUNNING
    with pytest.raises(ProtocolViolation):
        machine.set_port_direction(tile, PortDirection.CORE)


def test_deploy_latency_arithmetic():
    # 1000 B at defaults: 3 CSR writes (12) plus DMA 20 + ceil(1000/16) = 95.
    machine = small_machine()
    cluster = machine.clusters[0]
    tile = cluster.tiles[0]
    event = machine.begin_deploy(cluster, tile, 600, 400, 100, now=0, ctx=None)
    assert event.time == 4 + 83
    assert tile.run_state is RunState.LOADING and tile.port is PortDirection.BUS
    machine.engine.run_until(event.time, lambda e: None)
    start = machine.finish_deploy(tile)
    assert start == event.time + 8
    assert start == 95
    assert tile.run_state is RunState.RUNNING and tile.port is PortDirection.CORE


def test_deploy_zero_bytes_latency():
    machine = small_machine()
    cluster = machine.clusters[0]
    tile = cluster.tiles[0]
    event = machine.begin_deploy(cluster, tile, 0, 0, 100, now=0, ctx=None)
    machine.engine.run_until(event.time, lambda e: None)
    assert machine.finish_deploy(tile) == 3 * 4 + 20


def test_deploy_oversized_payload_fails_tile_stays_idle():
    machine = small_machine(tspm_bytes=512)
    cluster = machine.clusters[0]
    tile = cluster.tiles[0]
    with pytest.raises(AllocationFailure):
        machine.begin_deploy(cluster, tile, 400, 200, 100, now=0, ctx=None)
    assert tile.run_state is RunState.IDLE


def test_completion_protocol_and_interrupt_time():
    # Every event of a tile job copies the deploy event's cluster, tile,
    # thread, task and ctx; RUNNING spans from reset release to TILE_DONE.
    machine = small_machine()
    cluster = machine.clusters[0]
    tile = cluster.tiles[1]
    subject = object()
    posted = []
    deploy = machine.begin_deploy(cluster, tile, 16, 16, 300, now=0,
                                  ctx=subject, thread=7, task="t")
    machine.engine.run_until(deploy.time, posted.append)
    start = machine.finish_deploy(tile)
    assert (tile.run_state, tile.since) == (RunState.RUNNING, start)
    machine.engine.run_until(start + 300, posted.append)
    assert [e.kind for e in posted] == [EventKind.DMA_DONE, EventKind.TILE_DONE]
    assert posted[1].time == start + 300
    interrupt_time = machine.tile_finish(tile)
    assert interrupt_time == start + 300 + 4
    assert tile.run_state is RunState.RETURNING and tile.port is PortDirection.BUS
    assert tile.busy_cycles == 300
    machine.engine.run_until(interrupt_time, posted.append)
    assert posted[2].kind is EventKind.INTERRUPT
    assert posted[2].time == interrupt_time
    event = machine.begin_retrieval(cluster, tile, 320, interrupt_time)
    assert event.time == interrupt_time + 20 + 20
    machine.engine.run_until(event.time, posted.append)
    assert posted[3] is event and event.kind is EventKind.DMA_DONE
    assert [e.nbytes for e in posted] == [32, 0, 0, 320]
    for e in posted:
        assert (e.cluster, e.tile, e.thread, e.task) == (0, tile.tile_id, 7, "t")
        assert e.ctx is subject
    machine.release_tile(tile, event.time)
    assert tile.run_state is RunState.IDLE
    assert tile.since == event.time
    assert tile.busy_cycles == 300
    assert not machine.engine._heap  # no event left posted


# Each protocol step and the state it needs; the step moves the tile to the
# next state in IDLE -> LOADING -> RUNNING -> RETURNING -> IDLE.
PROTOCOL_STEPS = {
    "begin_deploy": (RunState.IDLE, lambda m, c, t: m.begin_deploy(
        c, t, 8, 8, 100, now=m.engine.now, ctx=None)),
    "finish_deploy": (RunState.LOADING, lambda m, c, t: m.finish_deploy(t)),
    "tile_finish": (RunState.RUNNING, lambda m, c, t: m.tile_finish(t)),
    "release_tile": (RunState.RETURNING,
                     lambda m, c, t: m.release_tile(t, m.engine.now)),
}
STATES = list(RunState)
ILLEGAL_STEPS = [(step, state) for step, (needs, _) in PROTOCOL_STEPS.items()
                 for state in STATES if state is not needs]


def tile_in(state):
    """A machine whose first tile reached ``state`` through the protocol."""
    machine = small_machine()
    cluster = machine.clusters[0]
    tile = cluster.tiles[0]
    for _, step in list(PROTOCOL_STEPS.values())[:STATES.index(state)]:
        step(machine, cluster, tile)
    assert tile.run_state is state
    return machine, cluster, tile


@pytest.mark.parametrize("step,state", ILLEGAL_STEPS,
                         ids=[f"{s}-{t.value}" for s, t in ILLEGAL_STEPS])
def test_illegal_protocol_step_names_both_states(step, state):
    needs, call = PROTOCOL_STEPS[step]
    target = STATES[(STATES.index(needs) + 1) % len(STATES)]
    message = f"tile 0: {state.value} -> {target.value}"

    machine, cluster, tile = tile_in(state)
    with pytest.raises(ProtocolViolation) as raised:
        call(machine, cluster, tile)
    assert str(raised.value) == message
    assert tile.run_state is state


def test_main_transfer_single_csr_cost():
    machine = small_machine()
    event = machine.main_transfer(now=0, nbytes=160, cluster_id=0, thread=1,
                                  ctx=None)
    assert event.time == 4 + 30
    assert event.kind is EventKind.DMA_DONE


RETRIEVAL_FAULTS = [
    (RunState.IDLE, PortDirection.BUS, "retrieval while idle"),
    (RunState.LOADING, PortDirection.BUS, "retrieval while loading"),
    (RunState.RUNNING, PortDirection.BUS, "retrieval while running"),
    (RunState.RETURNING, PortDirection.CORE, "retrieval with port at core"),
]


@pytest.mark.parametrize("state,port,fault", RETRIEVAL_FAULTS,
                         ids=[f"{s.value}-{p.value}" for s, p, _ in RETRIEVAL_FAULTS])
def test_retrieval_needs_a_returning_tile_with_port_at_bus(state, port, fault):
    machine, cluster, tile = tile_in(state)
    tile.port = port
    before = len(machine.engine._heap), cluster.dma.busy_until
    with pytest.raises(ProtocolViolation) as raised:
        machine.begin_retrieval(cluster, tile, 64, machine.engine.now)
    assert str(raised.value) == f"tile 0: {fault}"
    assert (len(machine.engine._heap), cluster.dma.busy_until) == before


def test_check_invariants_catches_corruption():
    machine = small_machine()
    tile = machine.clusters[0].tiles[0]
    tile.run_state = RunState.RUNNING
    tile.port = PortDirection.BUS
    with pytest.raises(ProtocolViolation, match="^tile 0 running with port at bus$"):
        machine.check_invariants()
    tile.run_state = RunState.LOADING
    tile.port = PortDirection.CORE
    with pytest.raises(ProtocolViolation,
                       match="^tile 0 transferring with port at core$"):
        machine.check_invariants()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["alloc", "free", "query", "check"]),
                          st.integers(0, 7), st.integers(1, 600)),
                max_size=60))
@example([("alloc", 3, 100), ("check", 0, 1), ("free", 3, 1)])
def test_check_invariants_walks_only_changed_sections(ops):
    # The scoped check rests on this: only alloc and free_region change a
    # section and both set its flag, so a clear flag means the section is
    # as its last check left it.
    small = {"TASK_CODE_POOL": 2048, "FIFO_LISTS": 512,
             "LOAD_INDICATION": 256, "COMPUTE_DATA": 4096}
    machine = Machine(MachineConfig(clusters=2, section_bytes=small))
    sections = [s for c in machine.clusters for s in c.sections.values()]
    live = {s.name: [] for s in sections}
    machine.check_invariants()
    checked = {s.name: allocator_state(s) for s in sections}
    for op, index, size in ops:
        section = sections[index]
        if op == "alloc" and section.would_fit(size):
            live[section.name].append(section.alloc(size))
        elif op == "free" and live[section.name]:
            regions = live[section.name]
            section.free_region(regions.pop(size % len(regions)))
        elif op == "query":
            section.would_fit(size, size)
        elif op == "check":
            machine.check_invariants()
            assert not any(s.changed for s in sections)
            checked = {s.name: allocator_state(s) for s in sections}
        for s in sections:
            if not s.changed:
                assert allocator_state(s) == checked[s.name]


def test_scoped_check_catches_corruption_once_the_section_changes():
    machine = small_machine()
    section = machine.clusters[0].sections["COMPUTE_DATA"]
    machine.check_invariants()
    section.allocations[99] = (0, 16)  # a region the span index lacks
    section.alloc(32)
    with pytest.raises(RuntimeError, match="c0.COMPUTE_DATA: span index"):
        machine.check_invariants()
    # A failed check leaves the flag set, so the next check fails too.
    assert section.changed
    with pytest.raises(RuntimeError, match="c0.COMPUTE_DATA: span index"):
        machine.check_invariants()
