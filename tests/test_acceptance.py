"""Acceptance criteria for the simulator, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion; every tolerance is asserted at its stated value.
"""

import hashlib
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from wbpsim import kernels as K
from wbpsim.costmodel import CostModel, TileTiming, bp_anchor_from_throughput
from wbpsim.machine import Machine, MachineConfig
from wbpsim.scheduler import System
from wbpsim.workload import (LinkConfig, TddPattern, build_rx_dag, build_tx_dag,
                             make_link_body, run_experiment, spawn_threads)
from wbpsim.cli import sweep_mix

from test_kernels import LfsrOracle, dft_oracle, polar_encode_oracle, loopback
from test_scheduler import placements, scripted_run


@contextmanager
def criterion(number: int, title: str):
    detail = {}
    try:
        yield detail
    except Exception:
        print(f"AC{number} FAIL: {title} {detail.get('note', '')}")
        raise
    print(f"AC{number} PASS: {title} {detail.get('note', '')}")


def default_link(users=5, n=512, k=256, iters=30, snr=None):
    subcarriers = min(128, n // 2)
    return LinkConfig(polar=K.PolarCode.design(n, k), rate_match_e=n,
                      ofdm=K.OfdmConfig(subcarriers, subcarriers // 4),
                      bp_iters=iters, users_per_slot=users, snr_db=snr)


def test_ac1_kernel_oracle_equivalence():
    with criterion(1, "kernel oracle equivalence") as detail:
        started = time.monotonic()
        rng = np.random.default_rng(101)
        for n in (8, 16, 32, 64, 128, 256, 512, 1024, 2048):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            err = np.max(np.abs(K.fft(x) - dft_oracle(x)))
            assert err < 1e-9, f"fft N={n} error {err}"
        for n in (2, 4, 8, 16, 32, 64):
            code = K.PolarCode.design(n, n // 2)
            for _ in range(20):
                info = rng.integers(0, 2, code.K, dtype=np.int8)
                np.testing.assert_array_equal(
                    K.polar_encode(info, code), polar_encode_oracle(info, code))
        for c_init in (0, 1, 0x12345678):
            np.testing.assert_array_equal(
                K.gold_sequence(c_init, 10**4), LfsrOracle(c_init).sequence(10**4))
        elapsed = time.monotonic() - started
        detail["note"] = f"({elapsed:.1f}s)"
        assert elapsed < 10.0


def test_ac2_end_to_end_fidelity():
    with criterion(2, "end-to-end fidelity") as detail:
        started = time.monotonic()
        code = K.PolarCode.design(512, 256)
        cfg = K.OfdmConfig(128, 32)
        rng = np.random.default_rng(202)
        for _ in range(100):
            info = rng.integers(0, 2, 256, dtype=np.int8)
            np.testing.assert_array_equal(loopback(info, code, 512, 31, cfg), info)
        bers = {}
        for ebn0 in (0.0, 4.0):
            frames = 2000
            info = rng.integers(0, 2, (frames, 256), dtype=np.int8)
            coded = K.polar_encode(info, code)
            noise_var = 1.0 / 10.0 ** (ebn0 / 10.0)  # Es/N0 = Eb/N0 at rate 1/2
            sigma = math.sqrt(noise_var / 2.0)
            y = ((1.0 - 2.0 * coded[:, 0::2]) +
                 1j * (1.0 - 2.0 * coded[:, 1::2])) / math.sqrt(2.0)
            y = y + sigma * (rng.normal(size=y.shape) + 1j * rng.normal(size=y.shape))
            llr = np.empty((frames, 512))
            scale = 2.0 * math.sqrt(2.0) / noise_var
            llr[:, 0::2] = scale * y.real
            llr[:, 1::2] = scale * y.imag
            decoded = K.bp_decode_many(llr, code, max_iters=30)
            bers[ebn0] = float(np.mean(decoded != info))
        elapsed = time.monotonic() - started
        detail["note"] = (f"(loopback exact, BER {bers[0.0]:.4f} @0dB -> "
                          f"{bers[4.0]:.5f} @4dB, {elapsed:.1f}s)")
        assert bers[4.0] < bers[0.0]
        assert elapsed < 120.0


def test_ac3_cost_model_calibration():
    with criterion(3, "cost-model calibration") as detail:
        model = CostModel.default()
        ref = TileTiming(lanes=64, vrf_count=32)
        for size, cycles in ((128, 251), (512, 1122), (2048, 5073)):
            assert model.kernel_cycles("fft", size, ref) == cycles
        for thrpt, size in ((0.54, 512), (0.53, 1024)):
            derived = bp_anchor_from_throughput(thrpt, size, 64)
            formula = size * 1e3 / (thrpt * 64)
            assert abs(derived.cycles - formula) <= 1.0
            assert model.kernel_cycles("bp", size, ref) == derived.cycles
        detail["note"] = "(fft anchors exact, bp derivation within 1 cycle)"


def ablation_ladder():
    link = default_link(users=2)
    pattern = TddPattern(("D", "U"), 4000)
    hier = MachineConfig(clusters=3, tile_mix=("L", "L", "S", "S"))
    flat = MachineConfig(clusters=1, tile_mix=("L", "L", "S", "S") * 3)
    out = {}
    for name, sys_cfg in (("flat", flat), ("hier", hier)):
        for mt, ld in ((False, False), (True, False), (True, True)):
            report = run_experiment(sys_cfg, link, pattern, 24, 1,
                                    multithreading=mt, lazy_deletion=ld)
            assert report.fidelity_failures == 0
            out[(name, mt, ld)] = report.throughput_mbps
    return out


def test_ac4_ablation_trend():
    with criterion(4, "feature-ablation ordering") as detail:
        started = time.monotonic()
        mbps = ablation_ladder()
        for name in ("flat", "hier"):
            base = mbps[(name, False, False)]
            with_mt = mbps[(name, True, False)]
            full = mbps[(name, True, True)]
            assert base < with_mt < full, f"{name}: {base}, {with_mt}, {full}"
        ratio = mbps[("hier", True, True)] / mbps[("flat", True, True)]
        elapsed = time.monotonic() - started
        detail["note"] = (f"(flat {mbps[('flat', False, False)]:.1f}<"
                          f"{mbps[('flat', True, False)]:.1f}<"
                          f"{mbps[('flat', True, True)]:.1f}, hier "
                          f"{mbps[('hier', False, False)]:.1f}<"
                          f"{mbps[('hier', True, False)]:.1f}<"
                          f"{mbps[('hier', True, True)]:.1f}, "
                          f"hier/flat {ratio:.2f}, {elapsed:.0f}s)")
        assert ratio >= 1.3
        assert elapsed < 300.0


def test_ac5_scaling_trend():
    with criterion(5, "cluster/tile scaling trend") as detail:
        link = default_link(users=10)
        pattern = TddPattern(("D", "U"), 1000)
        results = {}
        for clusters in (4, 5):
            for tiles in range(3, 10):
                sys_cfg = MachineConfig(clusters=clusters,
                                        tile_mix=sweep_mix(tiles), max_threads=8)
                report = run_experiment(sys_cfg, link, pattern, 60, 1)
                assert report.fidelity_failures == 0
                results[(clusters, tiles)] = report.throughput_mbps
        for clusters in (4, 5):
            for tiles in range(3, 9):
                assert results[(clusters, tiles)] <= results[(clusters, tiles + 1)], \
                    f"{clusters}C: tiles {tiles}->{tiles + 1} decreased"
        for tiles in range(3, 10):
            assert results[(4, tiles)] <= results[(5, tiles)], \
                f"tiles={tiles}: 5-cluster below 4-cluster"
        mean4 = np.mean([results[(4, t)] for t in range(3, 10)])
        mean5 = np.mean([results[(5, t)] for t in range(3, 10)])
        ratio = mean5 / mean4
        peak = results[(5, 9)]
        band = "inside" if 288.0 * 0.7 <= peak <= 288.0 * 1.3 else "OUTSIDE"
        deviation = (peak - 288.0) / 288.0 * 100.0
        detail["note"] = (f"(monotone, ratio {ratio:.3f}, peak {peak:.1f} Mbps "
                          f"{band} the 288 Mbps +/-30% band, deviation "
                          f"{deviation:+.0f}%)")
        assert 1.05 <= ratio <= 1.45


def test_ac6_lazy_deletion_property():
    with criterion(6, "lazy-deletion transfer accounting") as detail:
        link = default_link(users=2, n=64, k=32, iters=8)
        pattern = TddPattern(("U",), 3000)
        sys_cfg = MachineConfig(clusters=1, tile_mix=("L", "L", "S", "S"))
        for repeats in (1, 5, 20):
            report = run_experiment(sys_cfg, link, pattern, repeats, 1)
            assert report.metrics["dag_transfers"] == 1, repeats
            assert report.metrics["data_transfers"] == repeats
            assert report.metrics["evictions"] == 0
        # Forced eviction: the code pool holds either dag alone, never both,
        # and one-at-a-time threads alternate kinds. The first placement
        # ships without eviction; each of the remaining n-1 evicts the other
        # dag, so dag_transfers = n and evictions = n - 1.
        n_slots = 6
        tight = MachineConfig(
            clusters=1, tile_mix=("L", "L", "S", "S"), max_threads=1,
            section_bytes={"TASK_CODE_POOL": 192512, "FIFO_LISTS": 65536,
                           "LOAD_INDICATION": 16384, "COMPUTE_DATA": 1048576})
        report = run_experiment(tight, link, TddPattern(("D", "U"), 3000),
                                n_slots, 1)
        assert report.metrics["dag_transfers"] == n_slots
        assert report.metrics["evictions"] == n_slots - 1
        assert report.metrics["residency_hits"] == 0
        detail["note"] = (f"(hits ship data only; forced eviction run moved "
                          f"the dag {n_slots} times)")


def test_ac7_dismissal_property():
    with criterion(7, "runtime dismissal") as detail:
        cycles = {}
        for users in (0, 3, 20):
            link = default_link(users=users, n=64, k=32, iters=8)
            system = System(Machine(MachineConfig(clusters=1,
                                                  tile_mix=("L", "L", "S", "S")),
                                    digest_salt="ac7"),
                            CostModel.default(), make_link_body(link))
            threads = spawn_threads(TddPattern(("U",), 3000), 2, link, 7,
                                    None, build_rx_dag(link))
            for thread in threads:
                system.submit(thread)
            system.run()
            from wbpsim.dag import TaskState
            for run in system.finished_runs.values():
                states = run.instance.states
                executed = sum(1 for tid, st in states.items()
                               if tid.startswith("dec_u") and st is TaskState.DONE)
                dismissed = sum(1 for tid, st in states.items()
                                if tid.startswith("dec_u")
                                and st is TaskState.DISMISSED)
                assert executed == users
                assert dismissed == 20 - users
            assert system.metrics.dismissed_tasks == 2 * (20 - users)
            cycles[users] = system.last_completion
        assert cycles[0] < cycles[3] < cycles[20]
        detail["note"] = (f"(cycles {cycles[0]} < {cycles[3]} < {cycles[20]} "
                          f"for 0/3/20 users)")


def _fuzz_config(gen: random.Random):
    users = gen.randint(0, 2)
    n = gen.choice((32, 64))
    link = LinkConfig(polar=K.PolarCode.design(n, n // 2), rate_match_e=n,
                      ofdm=K.OfdmConfig(16, gen.choice((0, 4))),
                      bp_iters=gen.randint(2, 4), users_per_slot=users,
                      snr_db=None)
    tiles = ["L", "S"]
    for _ in range(gen.randint(0, 2)):
        tiles.append(gen.choice(("L", "S")))
    sys_cfg = MachineConfig(
        clusters=gen.randint(1, 2), tile_mix=tuple(tiles),
        max_threads=gen.randint(1, 2),
        section_bytes={"TASK_CODE_POOL": gen.choice((196608, 262144)),
                       "FIFO_LISTS": 16384, "LOAD_INDICATION": 4096,
                       "COMPUTE_DATA": 131072})
    gen.choice((500, 1000))  # a retired draw, kept so later fields draw as before
    pattern = TddPattern(("U",) if users == 0 else gen.choice((("U",), ("D", "U"))),
                         gen.choice((1500, 3000)))
    n_slots = gen.randint(1, 3)
    seed = gen.randint(0, 2**31 - 1)
    return sys_cfg, link, pattern, n_slots, seed


# SHA-256 over every fuzz config's digest and metrics, in config order. It
# pins the whole corpus's event streams: a pure speed-up leaves it unchanged.
AC8_CORPUS_SHA256 = (
    "048267abf56cfab48e6aba433b5b2fadadcfea447650d48f86bcc27fa3990e30")


def test_ac8_protocol_invariant_fuzz():
    with criterion(8, "protocol invariant fuzz") as detail:
        started = time.monotonic()
        gen = random.Random(0xC0FFEE)
        corpus = hashlib.sha256()
        runs = 1000
        for index in range(runs):
            sys_cfg, link, pattern, n_slots, seed = _fuzz_config(gen)
            first = run_experiment(sys_cfg, link, pattern, n_slots, seed)
            second = run_experiment(sys_cfg, link, pattern, n_slots, seed)
            assert first.digest == second.digest, f"config {index} not reproducible"
            assert first.metrics["protocol_violations"] == 0
            assert first.threads_completed == n_slots
            corpus.update(f"{first.digest} {sorted(first.metrics.items())}\n"
                          .encode())
        elapsed = time.monotonic() - started
        detail["note"] = (f"({runs} configs x2 runs, corpus "
                          f"{corpus.hexdigest()[:12]}, {elapsed:.0f}s)")
        assert corpus.hexdigest() == AC8_CORPUS_SHA256


def test_ac9_thread_scheduler_conformance():
    with criterion(9, "thread-level scheduling conformance") as detail:
        system, (dag_x, _, _) = scripted_run(strict_algorithm=False)
        assert placements(system) == [
            ("admit", 0), ("hit", 0), ("admit", 1), ("admit", 2), ("evict", 1)]
        evictions = [d for d in system.main.decisions if d.action == "evict"]
        assert evictions[0].evicted == (dag_x.dag_id,)
        assert system.metrics.dag_transfers == 4
        assert system.metrics.residency_hits == 1

        strict, _ = scripted_run(strict_algorithm=True)
        final = placements(strict)
        assert [a for a, _ in final] == ["admit"] * 5
        assert [c for _, c in final] == [0, 1, 2, 0, 1]
        assert strict.metrics.dag_transfers == 5
        assert strict.metrics.residency_hits == 0
        detail["note"] = ("(default: admit/hit/admit/admit/evict; literal "
                          "control flow re-ships every time)")
