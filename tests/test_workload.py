"""Link dags, thread spawning, and end-to-end simulated experiments."""

import dataclasses
import gc
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from wbpsim import kernels
from wbpsim.config import load_config, parse_config
from wbpsim.dag import TaskSpec, TaskState
from wbpsim.kernels import OfdmConfig, PolarCode
from wbpsim.machine import MachineConfig
from wbpsim.workload import (LinkConfig, TddPattern, build_rx_dag, build_tx_dag,
                             channel_bundle, make_link_body, payload_bytes,
                             pilot_symbol_freq, slot_inputs, spawn_threads,
                             throughput_mbps, tx_frames, run_experiment)


def small_link(users=3, snr=None, n=64, k=32, subcarriers=32, cp=8, iters=12):
    return LinkConfig(polar=PolarCode.design(n, k), rate_match_e=n,
                      ofdm=OfdmConfig(subcarriers, cp), bp_iters=iters,
                      users_per_slot=users, snr_db=snr)


def small_machine(clusters=1, mix=("L", "S")):
    return MachineConfig(clusters=clusters, tile_mix=mix)


# ---------------------------------------------------------------------------
# dag construction


def test_tx_dag_single_user_shape():
    dag = build_tx_dag(small_link(users=1))
    assert len(dag.tasks) == 6  # five chain stages plus the assembly sink
    assert len(dag.edges) == 6
    assert dag.validate() == []


def test_tx_dag_two_users_parallel_chains():
    dag = build_tx_dag(small_link(users=2))
    assert len(dag.tasks) == 11
    assert len(dag.edges) == 12
    sink_inputs = dag.in_edges("tx_sink")
    assert len(sink_inputs) == 2


def test_tx_dag_rejects_zero_users():
    with pytest.raises(ValueError):
        build_tx_dag(small_link(users=0))


def test_rx_dag_worst_case_shape():
    dag = build_rx_dag(small_link(users=3))
    decoders = [t for t in dag.tasks if t.startswith("dec_u")]
    assert len(decoders) == 20
    assert len(dag.tasks) == 28
    assert dag.validate() == []
    assert dag.topo_order[0] == "rx_ofdm"
    rule = dag.dismissal_rule("rx_blind")
    assert rule is not None and rule.max_count == 20


def test_link_dag_topological_orders():
    # Scan order follows topo_order, so it must stay the sorted-batch Kahn
    # order: each released batch of successors is queued in sorted order.
    setup = parse_config("")
    stages = ("enc", "rm", "scr", "mod", "ofdm")
    assert build_tx_dag(setup.link).topo_order == \
        [f"{stage}_u{u:02d}" for stage in stages for u in range(5)] + ["tx_sink"]
    assert build_rx_dag(setup.link).topo_order == \
        ["rx_ofdm", "rx_ls", "rx_zf", "rx_demod", "rx_descr", "rx_recover",
         "rx_blind"] + [f"dec_u{u:02d}" for u in range(20)] + ["rx_sink"]


def test_rx_dag_id_changes_with_link_parameters():
    a = build_rx_dag(small_link(users=3))
    b = build_rx_dag(small_link(users=5))
    c = build_rx_dag(small_link(users=3, iters=20))
    assert a.dag_id != b.dag_id
    assert a.dag_id != c.dag_id


def test_attribute_assignment():
    link = small_link()
    tx = build_tx_dag(link)
    rx = build_rx_dag(link)
    assert all(tx.tasks[f"ofdm_u{u:02d}"].attribute == "LARGE"
               for u in range(link.users_per_slot))
    assert tx.tasks["scr_u00"].attribute == "SMALL"
    assert rx.tasks["rx_ofdm"].attribute == "LARGE"
    assert all(rx.tasks[f"dec_u{u:02d}"].attribute == "LARGE" for u in range(20))
    assert rx.tasks["rx_ls"].attribute == "ANY"
    assert rx.tasks["rx_zf"].attribute == "ANY"
    assert rx.tasks["rx_demod"].attribute == "SMALL"


def test_link_body_rejects_unknown_role():
    body = make_link_body(small_link())
    spec = TaskSpec(task_id="t", kernel="assemble", params={"role": "rx_bogus"})
    with pytest.raises(ValueError, match="unknown task role 'rx_bogus'"):
        body(spec, [], None)


RX_CHAIN = ("rx_ofdm", "rx_ls", "rx_zf", "rx_demod", "rx_descr", "rx_recover")


def _blind_outputs(body, link, seed, dag, thread):
    """Run a receive thread's chain through rx_blind; return its result."""
    payload = slot_inputs(link, seed, thread, pilot_symbol_freq(link))[0].payload
    for task in RX_CHAIN:
        payload = body(dag.tasks[task], [payload], thread).edge_outputs[0].payload
    return body(dag.tasks["rx_blind"], [payload], thread)


@pytest.mark.parametrize("users", [0, 1, 10, 20])
def test_link_body_decoders_match_single_frame_decodes(users, monkeypatch):
    # Two receive threads' decoders run interleaved in a mixed order. Each
    # must return the single-frame decode of its own row, and once a
    # thread's last decoder has run nothing the decoders kept of that
    # thread may stay reachable: neither its LLR rows nor any array handed
    # to a kernel decoder.
    link = small_link(users=users, snr=1.0)
    dag = build_rx_dag(link)
    body = make_link_body(link)
    threads = spawn_threads(TddPattern(("U",), 8000), 2, link, 11, None, dag)
    seen = {thread.tid: [] for thread in threads}
    current = []

    def recording(decode):
        def wrapper(llr, *args, **kwargs):
            seen[current[0]].append(weakref.ref(llr))
            return decode(llr, *args, **kwargs)
        return wrapper

    rows, expected = {}, {}
    for thread in threads:
        blind = _blind_outputs(body, link, 11, dag, thread)
        assert blind.scalar_return == users
        assert blind.cost_items == [("blind_detect", 20, 1)]
        outputs = blind.edge_outputs
        assert len(outputs) == 20
        assert all(token is None for token in outputs[users:])  # dismissed
        for user in range(users):
            key = thread.tid, user
            assert outputs[user].byte_size == 4 * link.polar.N
            rows[key] = outputs[user].payload
            expected[key] = kernels.bp_decode(rows[key], link.polar, link.bp_iters)
            seen[thread.tid].append(weakref.ref(rows[key]))
        del blind, outputs
    monkeypatch.setattr(kernels, "bp_decode", recording(kernels.bp_decode))
    monkeypatch.setattr(kernels, "bp_decode_many",
                        recording(kernels.bp_decode_many))

    keys = list(rows)
    order = [keys[i] for i in np.random.default_rng(users).permutation(len(keys))]
    assert users < 2 or sum(a[0] != b[0] for a, b in zip(order, order[1:])) >= 2
    by_tid = {thread.tid: thread for thread in threads}
    for tid, user in order:
        current[:] = [tid]
        result = body(dag.tasks[f"dec_u{user:02d}"], [rows.pop((tid, user))],
                      by_tid[tid])
        assert result.cost_items == [("bp", link.polar.N, 1)]
        assert result.thread_output is None and len(result.edge_outputs) == 1
        bits = result.edge_outputs[0].payload
        assert bits.dtype == np.int8 and bits.flags.owndata
        assert result.edge_outputs[0].byte_size == link.polar.K
        np.testing.assert_array_equal(bits, expected[tid, user])
        del result, bits
        if not any(key[0] == tid for key in rows):
            assert all(ref() is None for ref in seen[tid]), \
                f"thread {tid}: decode batch still reachable after its last decoder"


def test_link_body_decoder_rejects_a_foreign_payload():
    link = small_link(users=2, snr=1.0)
    dag = build_rx_dag(link)
    body = make_link_body(link)
    first, second, third = spawn_threads(TddPattern(("U",), 8000), 3, link, 11,
                                         None, dag)
    rows = {thread.tid: [token.payload for token in
                         _blind_outputs(body, link, 11, dag, thread).edge_outputs[:2]]
            for thread in (first, second)}
    own = rows[first.tid][0]
    cases = [("dec_u00", rows[second.tid][0], first),  # another thread's row
             ("dec_u00", rows[first.tid][1], first),  # another user's row
             ("dec_u00", own.copy(), first),  # equal values, not the row
             ("dec_u02", own, first),  # a decoder blind detection dismissed
             ("dec_u00", own, third)]  # a thread with no batch yet
    for task, payload, thread in cases:
        with pytest.raises(ValueError, match="decode batch"):
            body(dag.tasks[task], [payload], thread)
    # A rejected call uses up nothing: the thread's decoders still run.
    for user in range(2):
        bits = body(dag.tasks[f"dec_u{user:02d}"], [rows[first.tid][user]],
                    first).edge_outputs[0].payload
        np.testing.assert_array_equal(
            bits, kernels.bp_decode(rows[first.tid][user], link.polar, link.bp_iters))


def test_link_config_validation():
    with pytest.raises(ValueError):
        small_link(users=21)
    with pytest.raises(ValueError):
        LinkConfig(polar=PolarCode.design(64, 32), rate_match_e=100,
                   ofdm=OfdmConfig(32, 8))  # 50 symbols do not fill OFDM blocks


# ---------------------------------------------------------------------------
# payload sizing and spawning


def test_payload_bytes_rules():
    assert payload_bytes(np.zeros(8, dtype=np.int8)) == 8
    assert payload_bytes(np.zeros(8, dtype=np.float64)) == 32
    assert payload_bytes(np.zeros(8, dtype=np.complex128)) == 64
    assert payload_bytes(3) == 4
    assert payload_bytes((np.zeros(4, dtype=np.int8),)) == 16 + 4


def test_spawn_threads_pattern_and_arrivals():
    link = small_link(users=2)
    pattern = TddPattern(("D", "U"), 5000)
    threads = spawn_threads(pattern, 4, link, seed=3,
                            tx_dag=build_tx_dag(link), rx_dag=build_rx_dag(link))
    assert [t.meta["kind"] for t in threads] == ["tx", "rx", "tx", "rx"]
    assert [t.arrival_time for t in threads] == [0, 5000, 10000, 15000]
    # uplink slot reuses the preceding downlink's info bits
    np.testing.assert_array_equal(threads[1].meta["truth_bits"],
                                  threads[0].meta["truth_bits"])


def test_spawn_threads_deterministic_per_seed():
    link = small_link(users=2)
    pattern = TddPattern(("D", "U"), 1000)
    a = spawn_threads(pattern, 2, link, 7, build_tx_dag(link), build_rx_dag(link))
    b = spawn_threads(pattern, 2, link, 7, build_tx_dag(link), build_rx_dag(link))
    np.testing.assert_array_equal(a[0].meta["truth_bits"], b[0].meta["truth_bits"])
    c = spawn_threads(pattern, 2, link, 8, build_tx_dag(link), build_rx_dag(link))
    assert not np.array_equal(a[0].meta["truth_bits"], c[0].meta["truth_bits"])


def test_uplink_only_pattern_needs_no_tx_dag():
    link = small_link(users=2)
    pattern = TddPattern(("U",), 1000)
    threads = spawn_threads(pattern, 2, link, 1, None, build_rx_dag(link))
    assert all(t.meta["kind"] == "rx" for t in threads)


def test_functional_chain_reference_consistency():
    link = small_link(users=2)
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, (2, link.polar.K), dtype=np.int8)
    frames = tx_frames(link, bits, pilot_symbol_freq(link))
    slot = frames.reshape(-1)
    assert slot.size == 2 * link.symbols_per_user * link.ofdm.symbol_len
    bundle = channel_bundle(link, frames, rng)
    assert bundle.user_count == 2
    np.testing.assert_array_equal(np.concatenate(
        [s for per_user in bundle.per_user for s in per_user]), slot)


def reference_frame(link, user, bits):
    """One user's frame, one 1-D kernel call per stage and OFDM symbol."""
    n_sub = link.ofdm.n_subcarriers
    coded = kernels.polar_encode(bits, link.polar)
    matched = kernels.rate_match_rv0(coded, link.rate_match_e)
    scrambled = kernels.scramble(matched, (link.c_init + user) % 2**31)
    blocks = kernels.qpsk_mod(scrambled).reshape(-1, n_sub)
    pilot = kernels.qpsk_mod(kernels.gold_sequence(7, 2 * n_sub))
    return [kernels.ofdm_modulate(block, link.ofdm) for block in [pilot, *blocks]]


def reference_payloads(pattern, n_slots, link, seed):
    """Per slot: (kind, truth bits, input payload arrays, expected samples,
    noise variance). An uplink slot re-transmits the last downlink slot's
    bits, or draws its own before any downlink slot."""
    out, last = [], None
    for slot in range(n_slots):
        kind = pattern.slots[slot % len(pattern.slots)]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                           spawn_key=(slot,)))
        if kind == "D" or last is None:
            bits = rng.integers(0, 2, size=(link.users_per_slot, link.polar.K),
                                dtype=np.int8)
        else:
            bits = last
        syms = [s for u, row in enumerate(bits) for s in reference_frame(link, u, row)]
        flat = np.concatenate(syms) if syms else np.zeros(0, dtype=np.complex128)
        if kind == "D":
            last = bits
            out.append(("tx", bits, list(bits), flat, None))
            continue
        snr = math.inf if link.snr_db is None else link.snr_db
        received = kernels.awgn_channel(flat, snr, rng)
        noise_var = 1.0 if link.snr_db is None else max(
            (np.mean(np.abs(flat) ** 2) if flat.size else 1.0) / 10 ** (snr / 10), 1e-12)
        sym_len = link.ofdm.symbol_len
        out.append(("rx", bits, [received[i:i + sym_len]
                                 for i in range(0, received.size, sym_len)],
                    None, noise_var))
    return out


@pytest.mark.parametrize("pattern", ["DU", "UDDUU"])
@pytest.mark.parametrize("snr", [None, 5.0])
@pytest.mark.parametrize("users", [0, 1, 20])
def test_spawn_threads_payloads_match_per_user_reference(users, snr, pattern):
    link = LinkConfig(polar=PolarCode.design(64, 32), rate_match_e=128,
                      ofdm=OfdmConfig(32, 8), users_per_slot=users, snr_db=snr)
    tdd = TddPattern.parse(pattern, 1000)
    tx_dag = build_tx_dag(dataclasses.replace(link, users_per_slot=max(1, users)))
    threads = spawn_threads(tdd, 7, link, 3, tx_dag, build_rx_dag(link))
    pilot = pilot_symbol_freq(link)
    for thread, (kind, bits, inputs, expected, noise_var) in zip(
            threads, reference_payloads(tdd, 7, link, 3), strict=True):
        assert thread.meta["kind"] == kind
        assert thread.meta["truth_bits"].tobytes() == bits.tobytes()
        tokens = slot_inputs(link, 3, thread, pilot)
        if kind == "tx":
            payloads = [token.payload for token in tokens]
            # A transmit slot is checked against frames derived from its bits.
            assert tx_frames(link, thread.meta["truth_bits"], pilot).tobytes() \
                == expected.tobytes()
        else:
            (token,) = tokens
            bundle = token.payload
            assert (bundle.user_count, bundle.noise_var) == (users, noise_var)
            payloads = [sym for frame in bundle.per_user for sym in frame]
            assert [len(frame) for frame in bundle.per_user] == \
                [link.symbols_per_user] * users
        assert [p.tobytes() for p in payloads] == [p.tobytes() for p in inputs]
        assert [p.dtype for p in payloads] == [p.dtype for p in inputs]
        assert [t.byte_size for t in tokens] == \
            [payload_bytes(t.payload) for t in tokens] == list(thread.input_sizes)


@pytest.mark.parametrize("pattern,calls", [("DU", 3), ("UD", 3)])
def test_spawn_threads_encodes_each_slot_once(pattern, calls, monkeypatch):
    # Set-up encodes nothing. Each uplink slot's inputs are built with one
    # batched encode of its paired bits; an uplink slot 0 encodes its own
    # bits, and a downlink slot's inputs are its bits, so it encodes none.
    link = small_link(users=4)
    tx_dag, rx_dag = build_tx_dag(link), build_rx_dag(link)
    shapes = []
    encode = kernels.polar_encode

    def counting(info, code):
        shapes.append(np.shape(info))
        return encode(info, code)

    monkeypatch.setattr(kernels, "polar_encode", counting)
    threads = spawn_threads(TddPattern.parse(pattern, 1000), 6, link, 1,
                            tx_dag, rx_dag)
    assert shapes == []
    pilot = pilot_symbol_freq(link)
    for thread in threads:
        before = len(shapes)
        slot_inputs(link, 1, thread, pilot)
        assert len(shapes) - before == (thread.meta["kind"] == "rx")
    assert shapes == [(4, link.polar.K)] * calls


# ---------------------------------------------------------------------------
# simulated experiments


def run_small(users=3, n_slots=4, pattern=("D", "U"), seed=1, **flags):
    link = small_link(users=users)
    return run_experiment(small_machine(), link, TddPattern(pattern, 8000),
                          n_slots, seed, **flags)


def test_run_experiment_bit_exact_and_deterministic():
    a = run_small()
    b = run_small()
    assert a.fidelity_failures == 0
    assert a.digest == b.digest
    assert a.simulated_cycles == b.simulated_cycles
    assert a.throughput_mbps == pytest.approx(b.throughput_mbps)
    c = run_small(seed=2)
    assert c.digest != a.digest


def test_run_experiment_single_slot_info_bits():
    link = small_link(users=3)
    report = run_experiment(small_machine(), link, TddPattern(("D", "U"), 8000),
                            1, 1)
    assert report.threads_completed == 1
    assert report.info_bits == link.polar.K * 3


def test_dismissal_counts_and_cycle_ordering():
    cycles = {}
    for users in (0, 3, 20):
        report = run_experiment(small_machine(), small_link(users=users),
                                TddPattern(("U",), 8000), 2, 1)
        assert report.fidelity_failures == 0
        assert report.metrics["dismissed_tasks"] == 2 * (20 - users)
        cycles[users] = report.simulated_cycles
    assert cycles[0] < cycles[3] < cycles[20]


def test_executed_decoders_match_detected_users(monkeypatch):
    link = small_link(users=4)
    machine = small_machine()
    # run once and inspect the finished instances directly
    from wbpsim.costmodel import CostModel
    from wbpsim.dag import DagInstance
    from wbpsim.machine import Machine
    from wbpsim.scheduler import System
    from wbpsim.workload import make_link_body, slot_inputs, spawn_threads

    # Every state change of the run, as a path per (instance, task).
    paths = {}
    set_state = DagInstance.set_state

    def recording(instance, task_id, new):
        paths.setdefault((id(instance), task_id), []).append(new)
        set_state(instance, task_id, new)

    monkeypatch.setattr(DagInstance, "set_state", recording)
    pilot = pilot_symbol_freq(link)
    system = System(Machine(machine), CostModel.default(), make_link_body(link),
                    lambda t: slot_inputs(link, 5, t, pilot))
    for t in spawn_threads(TddPattern(("U",), 8000), 2, link, 5, None,
                           build_rx_dag(link)):
        system.submit(t)
    system.run()
    executed = [TaskState.DISPATCHED, TaskState.DONE]
    assert len(system.finished_runs) == 2
    for run in system.finished_runs.values():
        states = run.instance.states
        done_decoders = [t for t in states
                         if t.startswith("dec_u") and states[t] is TaskState.DONE]
        assert len(done_decoders) == 4
        for task in states:
            assert paths.pop((id(run.instance), task)) in (executed,
                                                           [TaskState.DISMISSED])
    assert paths == {}


def test_noisy_run_counts_failures_without_raising():
    report = run_small(users=2, n_slots=2, pattern=("U",),
                       **{})  # noiseless baseline first
    assert report.fidelity_failures == 0
    link = small_link(users=2, snr=-2.0)  # heavy noise: decoding may fail
    noisy = run_experiment(small_machine(), link, TddPattern(("U",), 8000), 2, 1)
    assert noisy.threads_completed == 2  # failures recorded, run completes
    assert noisy.fidelity_failures >= 0


def test_run_experiment_leaves_no_cycle():
    # The callbacks that run_experiment hands its System must not refer to
    # the System: then the run's state is freed without the cycle collector.
    refs = []
    gc.disable()
    try:
        report = run_experiment(small_machine(), small_link(),
                                TddPattern(("D", "U"), 8000), 4, 1,
                                fault_hook=lambda m: refs.append(weakref.ref(m)))
        assert report.threads_completed == 4 and report.fidelity_failures == 0
        assert refs[0]() is None
    finally:
        gc.enable()


PERFBENCH_CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"


def slot_frame_bytes(link) -> int:
    """Bytes of one slot's transmitted frames, all users'."""
    return tx_frames(link, np.zeros((link.users_per_slot, link.polar.K), dtype=np.int8),
                     pilot_symbol_freq(link)).nbytes


def traced_peak_growth(setup, small: int, large: int) -> int:
    """How much higher the traced peak heap of a ``large``-slot run of
    ``setup`` is than that of a ``small``-slot run."""

    def traced_peak(n_slots):
        tracemalloc.start()
        try:
            report = run_experiment(
                setup.machine, setup.link, setup.pattern, n_slots, setup.seed,
                multithreading=setup.multithreading,
                lazy_deletion=setup.lazy_deletion)
            assert report.threads_completed == n_slots
            assert report.fidelity_failures == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_experiment(setup.machine, setup.link, setup.pattern, 2, setup.seed)  # warm-up
    return traced_peak(large) - traced_peak(small)


def test_memory_does_not_grow_with_slots_delivered():
    # flat-downlink delivers one transmit slot per slot. Were a run to keep
    # each slot's delivered frames, or frames built at set-up to check them
    # against, its traced peak would grow by one slot's frame bytes per slot
    # (keeping both, by two). The bound is half of that, so keeping either
    # fails it; what a slot does keep (its info bits, its run record, its
    # decision-log entries) grows the peak by about a fifth of it.
    flat = load_config(PERFBENCH_CONFIGS / "flat-downlink.cfg")
    assert traced_peak_growth(flat, 10, 40) < 30 * slot_frame_bytes(flat.link) / 2
    # sweep-5x9's machine and link at 24,000-cycle slots, where threads do
    # not queue; every other slot is an uplink slot. Were a run to build
    # each uplink slot's received samples at set-up, or keep them once its
    # thread is admitted, its traced peak would grow by about one slot's
    # frame bytes per uplink slot, 30 of them here. The bound is half of that.
    sweep = load_config(PERFBENCH_CONFIGS / "sweep-5x9.cfg")
    sweep = dataclasses.replace(sweep, pattern=dataclasses.replace(
        sweep.pattern, slot_duration_cycles=24_000))
    assert sweep.pattern.slots == ("D", "U")
    assert traced_peak_growth(sweep, 20, 80) < 30 * slot_frame_bytes(sweep.link) / 2


def test_multithreading_and_lazy_deletion_improve_throughput():
    base = run_small(n_slots=8, multithreading=False, lazy_deletion=False)
    with_mt = run_small(n_slots=8, multithreading=True, lazy_deletion=False)
    full = run_small(n_slots=8, multithreading=True, lazy_deletion=True)
    assert base.throughput_mbps < with_mt.throughput_mbps < full.throughput_mbps


def test_lazy_deletion_metric_shape_in_experiment():
    report = run_small(n_slots=6, pattern=("U",))
    # one rx dag on one cluster: a single code shipment, data per thread
    assert report.metrics["dag_transfers"] == 1
    assert report.metrics["data_transfers"] == 6


def test_utilization_bounds_and_throughput_formula():
    report = run_small(n_slots=4)
    assert all(0.0 <= u <= 1.0 for u in report.tile_utilization)
    assert report.throughput_mbps == pytest.approx(
        throughput_mbps(report.info_bits, report.simulated_cycles,
                        report.clock_hz))
    with pytest.raises(ValueError):
        throughput_mbps(100, 0, 5e8)


def test_throughput_arithmetic_examples():
    assert throughput_mbps(10**6, 10**6, 500e6) == pytest.approx(500.0)
    assert throughput_mbps(10**6, 2 * 10**6, 500e6) == pytest.approx(250.0)


def test_trace_emission_does_not_perturb_digest(tmp_path):
    plain = run_small()
    traced = run_experiment(small_machine(), small_link(),
                            TddPattern(("D", "U"), 8000), 4, 1,
                            trace_path=str(tmp_path / "events.jsonl"))
    assert plain.digest == traced.digest
    assert (tmp_path / "events.jsonl").exists()
