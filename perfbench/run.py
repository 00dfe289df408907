"""Host-speed and model benchmark of wbpsim, with a traced per-layer split.

Run from the repository root, one workload at a time:

    python3 perfbench/run.py --workload sweep-4x3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all   # each workload in turn

``--trace 0`` repeats the workload until ``--seconds`` have passed (at least
twice) and reports the end-to-end metrics of BENCHMARK.json as medians over
the repeats. ``--trace 1`` runs the workload once untraced and once with the
per-layer tracer of ``tracing.py`` and reports the per-layer metrics. The last
line of standard output is one JSON object; the lines before it give every
metric with its unit, each workload's digest and ``report_row`` CSV row, and
the model's error against the paper where a reference exists.

Every run is gated: no fidelity failure, no protocol violation, every thread
completed, and the same digest and CSV row on every repeat. The reference
workloads ``configs/example.cfg`` and ``configs/3c4t.cfg`` are gated the
same way at seed 1, untimed, before the timed repeats. A repeat that raises
``ProtocolViolation`` or a stall or event-budget ``RuntimeError`` is recorded
with its exception text and counts all its threads as failed.

End-to-end metrics (host time unless the name says cycles): ``wall_s`` from
config load to the verified report; ``setup_s`` from config load to the start
of the event loop (the repeats plus set-up-only passes); ``events_per_s`` and
``sim_cycles_per_s`` over the event loop; ``peak_rss_mb``, the process peak
after the timed repeats; ``sim_mbps`` and the p50/p90 thread latency (arrival
to completion), which are exact for a (config, seed); ``completed_frac``, one
minus failed over attempted threads.

Workloads (configs under ``perfbench/configs``, 100 slots each so that the
p90 thread latency has at least ten threads beyond it):

- ``sweep-5x9``: most tiles and the smallest backlog, so task bodies (BP
  decode above all) and the per-event invariant check over 5 clusters take
  their largest share. The paper reports 288 Mbps at this point.
- ``sweep-4x3``: a deep backlog; cluster scan and readiness bookkeeping
  dominate the event loop. This is the workload for an incremental scan.
- ``flat-downlink``: the ablation baseline (one flat cluster, multithreading
  and lazy deletion off) with a downlink-only pattern. No BP decode, every
  thread re-ships its dag, failed placements make ``MainScheduler.evaluate``
  costly; the only workload that exercises dag deletion.

Left out on purpose: ``example.cfg`` and ``3c4t.cfg`` take 0.2-0.4 s, so
start-up noise would dominate their timings (they are gated, not timed); the
tier-1 test suite takes minutes, too long for the number of runs a check
makes.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import wbpsim  # noqa: E402
from wbpsim import cli, config  # noqa: E402
from wbpsim.scheduler import System  # noqa: E402

from tracing import Tracer  # noqa: E402

WORKLOADS = ("sweep-5x9", "sweep-4x3", "flat-downlink")
REFERENCE_CONFIGS = ("example.cfg", "3c4t.cfg")
# The paper's measured throughput, where it has one for a workload.
PAPER_MBPS = {"sweep-5x9": 288.0}
MIN_REPEATS = 2
SETUP_PASSES = 5

# Per-layer self times that, with trace.unattributed_s, add up to trace.wall_s.
PARTITION = (
    "config.load_config.s", "workload.build_dag.s", "workload.spawn_threads.s",
    "machine.engine.self_s", "scheduler.handle.self_s",
    "scheduler.main.evaluate.self_s", "scheduler.cluster.scan.self_s",
    "scheduler.cluster.complete_task.self_s", "scheduler.cluster.retrieval.s",
    "kernels.bp_decode.s", "kernels.fft.s", "kernels.other.s",
    "costmodel.kernel_cycles.s", "machine.check_invariants.s", "machine.spm.s",
    "machine.dma.reserve.s", "dag.is_ready.s", "dag.other.s",
    "workload.report.s", "trace.unattributed_s",
)

clock = time.perf_counter_ns


def declared_metrics() -> dict:
    """BENCHMARK.json's metric declarations, keyed by trace mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {0: spec["end_to_end"], 1: spec["per_layer"]}


class _SetupDone(Exception):
    """Stops a set-up-only pass where the event loop would start."""


class LoopProbe:
    """Wraps ``System.run`` to time the event loop and keep its System."""

    def __init__(self, setup_only: bool = False, tracer: Tracer | None = None):
        self.setup_only = setup_only
        self.tracer = tracer
        self.system: System | None = None
        self.loop_start = self.loop_end = None
        self.root_ns_at_end = 0

    def __enter__(self) -> "LoopProbe":
        self._original = vars(System)["run"]
        probe = self

        def run(system):
            probe.system = system
            probe.loop_start = clock()
            if probe.setup_only:
                raise _SetupDone
            try:
                return probe._original(system)
            finally:
                probe.loop_end = clock()
                if probe.tracer is not None:
                    probe.root_ns_at_end = probe.tracer.root_ns()

        System.run = run
        return self

    def __exit__(self, *exc) -> None:
        System.run = self._original


@dataclasses.dataclass
class Sample:
    """One timed repeat of a workload (nanosecond timestamps)."""

    threads: int
    error: str | None = None
    t0: int = 0
    loop_start: int = 0
    loop_end: int = 0
    t_end: int = 0
    report_ns: int = 0
    events: int = 0
    system: System | None = None  # kept for traced repeats only
    report: object = None
    row: str = ""
    latencies: list = dataclasses.field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return (self.t_end - self.t0) / 1e9

    @property
    def setup_s(self) -> float:
        return (self.loop_start - self.t0) / 1e9

    @property
    def loop_s(self) -> float:
        return (self.loop_end - self.loop_start) / 1e9

    def problems(self) -> list[str]:
        if self.error is not None:
            return [self.error]
        out = []
        if self.report.fidelity_failures:
            out.append(f"{self.report.fidelity_failures} fidelity failures")
        if self.report.metrics["protocol_violations"]:
            out.append(f"{self.report.metrics['protocol_violations']} protocol violations")
        if self.report.threads_completed != self.threads:
            out.append(f"{self.report.threads_completed}/{self.threads} threads completed")
        return out

    @property
    def failed_threads(self) -> int:
        if self.error is not None or self.report.fidelity_failures \
                or self.report.metrics["protocol_violations"]:
            return self.threads
        return self.threads - self.report.threads_completed


def workload_setup(path, seed: int, slots: int | None = None):
    setup = config.apply_overrides(config.load_config(path), seed=seed)
    if slots is not None:
        values = dict(setup.values)
        values[("run", "n_slots")] = slots
        setup = dataclasses.replace(setup, n_slots=slots, values=values)
    return setup


def csv_row(setup, report) -> str:
    buffer = io.StringIO()
    cli.emit_csv([cli.report_row(setup, report)], buffer)
    return buffer.getvalue().split("\r\n", 1)[1]


def nearest_rank(sorted_values: list, p: float):
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def measure(path, seed: int, slots: int | None = None,
            tracer: Tracer | None = None) -> Sample:
    """One repeat: config load, set-up, event loop, verified report."""
    t0 = clock()
    setup = workload_setup(path, seed, slots)
    sample = Sample(threads=setup.n_slots, t0=t0)
    with LoopProbe(tracer=tracer) as probe:
        try:
            report = cli.execute(setup)
        except RuntimeError as exc:  # ProtocolViolation, stall, event budget
            report = None
            sample.error = f"{type(exc).__name__}: {exc}"
    if report is not None:
        sample.row = csv_row(setup, report)
    sample.t_end = clock()
    if probe.system is not None:
        sample.threads = len(probe.system.threads)
        sample.events = probe.system.machine.engine.dispatched
        sample.loop_start, sample.loop_end = probe.loop_start, probe.loop_end
    if tracer is not None:
        sample.system = probe.system
    if report is not None:
        # Drop the decision log so that repeats do not pile up in memory.
        sample.report = dataclasses.replace(report, decisions=())
        sample.latencies = sorted(run.completed_at - run.thread.arrival_time
                                  for run in probe.system.finished_runs.values())
        nested = tracer.root_ns() - probe.root_ns_at_end if tracer else 0
        sample.report_ns = sample.t_end - sample.loop_end - nested
    return sample


def setup_only(path, seed: int, slots: int | None = None) -> float:
    """Seconds from config load to the start of the event loop."""
    t0 = clock()
    setup = workload_setup(path, seed, slots)
    with LoopProbe(setup_only=True) as probe:
        try:
            cli.execute(setup)
        except _SetupDone:
            pass
    return (probe.loop_start - t0) / 1e9


def check_references(out) -> list[str]:
    """Gate the reference workloads at seed 1 (untimed); return problems."""
    problems = []
    for name in REFERENCE_CONFIGS:
        path = ROOT / "configs" / name
        first, second = measure(path, 1), measure(path, 1)
        problems += [f"{name}: {p}" for p in gate([first, second])]
        if first.report is not None:
            out.write(f"reference {name} digest {first.report.digest}\n")
            out.write(f"reference {name} csv {first.row}")
    return problems


def gate(samples: list[Sample]) -> list[str]:
    problems = [p for s in samples for p in s.problems()]
    outcomes = {(s.report.digest, s.row) for s in samples if s.report is not None}
    if len(outcomes) > 1:
        problems.append("digest or CSV row differs between repeats")
    return problems


def end_to_end(samples: list[Sample], setups: list[float], rss_mb: float) -> dict:
    ok = [s for s in samples if not s.problems()]
    if not ok:
        return {}
    first = ok[0]
    attempted = sum(s.threads for s in samples)
    failed = sum(s.failed_threads for s in samples)
    return {
        "wall_s": statistics.median(s.wall_s for s in ok),
        "setup_s": statistics.median(setups),
        "events_per_s": statistics.median(
            s.events / s.loop_s for s in ok),
        "sim_cycles_per_s": statistics.median(
            s.report.simulated_cycles / s.loop_s for s in ok),
        "peak_rss_mb": rss_mb,
        "sim_mbps": first.report.throughput_mbps,
        "thread_latency_p50_cycles": nearest_rank(first.latencies, 0.5),
        "thread_latency_p90_cycles": nearest_rank(first.latencies, 0.9),
        "completed_frac": 1.0 - failed / attempted,
    }


def per_layer(tracer: Tracer, traced: Sample, untraced: Sample) -> dict:
    stats = tracer.stats()

    def self_s(*keys):
        return sum(stats[k][1] for k in keys) / 1e9

    def calls(key):
        return stats[key][0]

    spm = [k for k in stats if k.startswith("machine.spm.")]
    dag_other = [k for k in stats if k.startswith("dag.") and k != "dag.is_ready"]
    report, system = traced.report, traced.system
    sim = report.simulated_cycles
    decisions = [d.action for d in system.main.decisions]
    placed = sum(1 for a in decisions if a != "wait")
    util = {"L": [], "S": []}
    tiles = sorted(system.machine.tiles.values(), key=lambda t: t.tile_id)
    for tile, u in zip(tiles, report.tile_utilization):
        util[tile.tile_class].append(u)
    cluster_dma = [tracer.dma_busy[c.dma.name] / sim for c in system.machine.clusters]
    m = {
        "config.load_config.s": self_s("config.load_config"),
        "workload.build_dag.s": self_s("workload.build_dag"),
        "workload.spawn_threads.s": self_s("workload.spawn_threads"),
        "workload.report.s": traced.report_ns / 1e9,
        "machine.engine.self_s": self_s("machine.engine"),
        "machine.engine.events": traced.events,
        "scheduler.handle.self_s": self_s("scheduler.handle"),
        "scheduler.main.evaluate.calls": calls("scheduler.main.evaluate"),
        "scheduler.main.evaluate.self_s": self_s("scheduler.main.evaluate"),
        "scheduler.cluster.scan.calls": calls("scheduler.cluster.scan"),
        "scheduler.cluster.scan.self_s": self_s("scheduler.cluster.scan"),
        "scheduler.cluster.complete_task.self_s": self_s("scheduler.cluster.complete_task"),
        "scheduler.cluster.retrieval.s": self_s("scheduler.cluster.start_retrieval",
                                                "scheduler.cluster.retry_stalled"),
        "kernels.bodies.calls": calls("kernels.bodies"),
        "kernels.bodies.s": self_s("kernels.bodies", "kernels.bp_decode", "kernels.fft"),
        "kernels.bp_decode.calls": calls("kernels.bp_decode"),
        "kernels.bp_decode.s": self_s("kernels.bp_decode"),
        "kernels.fft.calls": calls("kernels.fft"),
        "kernels.fft.s": self_s("kernels.fft"),
        "kernels.other.s": self_s("kernels.bodies"),
        "costmodel.kernel_cycles.s": self_s("costmodel.kernel_cycles"),
        "machine.check_invariants.calls": calls("machine.check_invariants"),
        "machine.check_invariants.s": self_s("machine.check_invariants"),
        "machine.spm.s": self_s(*spm),
        "machine.spm.alloc.calls": calls("machine.spm.alloc"),
        "machine.spm.alloc_fail.calls": stats["machine.spm.alloc"][2],
        "machine.spm.would_fit.calls": calls("machine.spm.would_fit"),
        "machine.dma.reserve.s": self_s("machine.dma.reserve"),
        "dag.is_ready.calls": calls("dag.is_ready"),
        "dag.is_ready.s": self_s("dag.is_ready"),
        "dag.push_token.calls": calls("dag.push_token"),
        "dag.pop_inputs.calls": calls("dag.pop_inputs"),
        "dag.other.s": self_s(*dag_other),
        "scheduler.main.decisions.hit": decisions.count("hit"),
        "scheduler.main.decisions.admit": decisions.count("admit"),
        "scheduler.main.decisions.evict": decisions.count("evict"),
        "scheduler.main.decisions.wait": decisions.count("wait"),
        "scheduler.main.place_ratio": placed / len(decisions),
        "machine.dma.main.busy_frac": tracer.dma_busy[system.machine.main_dma.name] / sim,
        "machine.dma.cluster.busy_frac_max": max(cluster_dma),
        "machine.tile.L.util_mean": statistics.fmean(util["L"]) if util["L"] else 0.0,
        "machine.tile.S.util_mean": statistics.fmean(util["S"]) if util["S"] else 0.0,
        "trace.wall_s": traced.wall_s,
        "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
    }
    for key in ("backpressure_events", "retrieval_stalls", "deployment_failures",
                "dispatched_tasks", "dismissed_tasks", "dag_transfers",
                "residency_hits", "evictions"):
        m[f"scheduler.{key}"] = report.metrics[key]
    attributed = sum(s[1] for s in stats.values()) + traced.report_ns
    m["trace.unattributed_s"] = (traced.t_end - traced.t0 - attributed) / 1e9
    return m


def slowest_events(tracer: Tracer, count: int = 3) -> list[tuple[int, float]]:
    """(event seq, traced milliseconds) of the costliest handled events."""
    spans = tracer.spans("scheduler.handle")
    spans.sort(key=lambda s: s[3] - s[2], reverse=True)
    return [(seq, (end - start) / 1e6) for seq, _, start, end in spans[:count]]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 slots: int | None = None, out=sys.stdout) -> dict:
    """Measure one workload; returns the result object printed last."""
    path = BENCH_DIR / "configs" / f"{name}.cfg"
    problems = check_references(out)
    if trace:
        untraced = measure(path, seed, slots)
        with Tracer() as tracer:
            traced = measure(path, seed, slots, tracer=tracer)
        samples = [untraced, traced]
        problems += gate(samples)
        metrics = {}
        if not (untraced.problems() or traced.problems()):
            metrics = per_layer(tracer, traced, untraced)
            for seq, ms in slowest_events(tracer):
                out.write(f"slow event seq {seq}: {ms:.3f} ms traced\n")
    else:
        samples = []
        start = clock()
        while len(samples) < MIN_REPEATS or clock() - start < seconds * 1e9:
            samples.append(measure(path, seed, slots))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups = [s.setup_s for s in samples if s.error is None]
        setups += [setup_only(path, seed, slots)
                   for _ in range(max(0, SETUP_PASSES - len(setups)))]
        problems += gate(samples)
        metrics = end_to_end(samples, setups, rss_mb)
    for i, s in enumerate(samples):
        if s.error is not None:
            out.write(f"error: {name}: {s.error}\n")
        elif s.loop_end:
            out.write(f"repeat {i} wall_s {s.wall_s:.4f} setup_s {s.setup_s:.4f} "
                      f"loop_s {s.loop_s:.4f}\n")
    for p in problems:
        out.write(f"gate failed: {name}: {p}\n")
    ok = [s for s in samples if s.report is not None]
    out.write(f"workload {name} seed {seed} repeats {len(samples)}"
              f"{' traced' if trace else ''}\n")
    if ok:
        out.write(f"digest {ok[0].report.digest}\n")
        out.write(f"csv {ok[0].row}")
        mbps = ok[0].report.throughput_mbps
        ref = PAPER_MBPS.get(name)
        if ref is None:
            out.write(f"model sim_mbps {mbps:.3f} Mbps; no paper reference\n")
        else:
            out.write(f"model sim_mbps {mbps:.3f} Mbps; paper {ref:g} Mbps; "
                      f"error {(mbps - ref) / ref:+.1%}\n")
    result_metrics = {}
    if metrics:
        for decl in declared_metrics()[int(trace)]:
            value = metrics[decl["name"]]
            out.write(f"metric {decl['name']} {value} {decl['unit']}\n")
            result_metrics[decl["name"]] = {"value": value, "unit": decl["unit"]}
    return {
        "correct": not problems,
        "attempted": sum(s.threads for s in samples),
        "failed": sum(s.failed_threads for s in samples),
        "metrics": result_metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(wbpsim.__file__).resolve().parent != SRC / "wbpsim":
        print(f"wbpsim imported from {wbpsim.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    os.environ["WBPSIM_WORKERS"] = "1"
    if args.workload == "all":
        # One process per workload, so that each reports its own peak memory.
        status = 0
        for name in WORKLOADS:
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
        return status
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
