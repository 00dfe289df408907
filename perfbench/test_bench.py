"""Self-test of the benchmark on shortened runs of each workload.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import io
import json

import pytest

import run
from tracing import Tracer
from wbpsim import scheduler
from wbpsim.cli import flat_mix, sweep_mix
from wbpsim.config import apply_overrides, load_config, with_system
from wbpsim.costmodel import CostModel
from wbpsim.machine import AllocationFailure, Machine, PortDirection, SpmSection
from wbpsim.workload import run_experiment

SLOTS = 8


def declared_names(trace: int) -> set[str]:
    return {m["name"] for m in run.declared_metrics()[trace]}


def printed(text: str) -> dict[str, str]:
    return {line.split()[1]: line.split()[3]
            for line in text.splitlines() if line.startswith("metric ")}


def workload_path(name):
    return run.BENCH_DIR / "configs" / f"{name}.cfg"


def test_benchmark_json_matches_workloads():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert set(run.PARTITION) <= declared_names(1)


def test_workload_configs_are_sweep_cfg_points():
    sweep = load_config(run.ROOT / "configs" / "sweep.cfg")
    expected = {
        "sweep-5x9": with_system(sweep, 5, sweep_mix(9)),
        "sweep-4x3": with_system(sweep, 4, sweep_mix(3)),
        "flat-downlink": apply_overrides(with_system(sweep, 1, flat_mix(sweep)),
                                         multithreading=False, lazy_deletion=False),
    }
    for name, want in expected.items():
        got = load_config(workload_path(name)).values
        differing = {key for key in got if got[key] != want.values[key]}
        allowed = {("run", "n_slots")}
        if name == "flat-downlink":
            allowed.add(("tdd", "pattern"))
        assert differing == allowed, name


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_untraced_and_direct_runs_agree(name):
    untraced = run.measure(workload_path(name), 3, SLOTS)
    with Tracer() as tracer:
        traced = run.measure(workload_path(name), 3, SLOTS, tracer=tracer)
    assert not untraced.problems() and not traced.problems()
    assert traced.report.digest == untraced.report.digest
    assert traced.row == untraced.row

    setup = run.workload_setup(workload_path(name), 3, SLOTS)
    direct = run_experiment(
        setup.machine, setup.link, setup.pattern, setup.n_slots, setup.seed,
        multithreading=setup.multithreading, lazy_deletion=setup.lazy_deletion,
        cost_model=CostModel.default(setup.cost_params))
    assert untraced.report.digest == direct.digest

    layers = run.per_layer(tracer, traced, untraced)
    assert set(layers) == declared_names(1)
    assert sum(layers[k] for k in run.PARTITION) == pytest.approx(
        layers["trace.wall_s"], rel=1e-9)
    assert layers["trace.unattributed_s"] >= 0
    # Recorded spans nest inside their parents.
    for key in ("scheduler.cluster.scan", "machine.check_invariants"):
        for seq, parent, start, end in tracer.spans(key):
            assert parent >= 0 and start <= end
            assert tracer.span_start[parent] <= start
            assert end <= tracer.span_end[parent]


def test_tracer_reraises_counts_errors_and_restores():
    original = vars(SpmSection)["alloc"]
    section = SpmSection("s", 16)
    with Tracer() as tracer:
        assert vars(SpmSection)["alloc"] is not original
        with pytest.raises(AllocationFailure):
            section.alloc(32)
        section.alloc(8)
    assert vars(SpmSection)["alloc"] is original
    calls, self_ns, errors = tracer.stats()["machine.spm.alloc"]
    assert (calls, errors) == (2, 1) and self_ns > 0
    assert tracer.root_ns() == sum(s[1] for s in tracer.stats().values())


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_declared_ones(trace):
    out = io.StringIO()
    result = run.run_workload("flat-downlink", 2, 0, bool(trace), slots=SLOTS, out=out)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * SLOTS
    names = declared_names(trace)
    assert set(printed(out.getvalue())) == names == set(result["metrics"])
    if not trace:
        assert result["metrics"]["completed_frac"]["value"] == 1.0


def test_stall_counts_every_thread_failed(monkeypatch):
    # A scan that never dispatches leaves live threads and no progress.
    monkeypatch.setattr(scheduler.ClusterScheduler, "scan", lambda self, now: [])
    out = io.StringIO()
    result = run.run_workload("sweep-4x3", 1, 0, False, slots=SLOTS, out=out)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2 * SLOTS
    assert "made no progress" in out.getvalue()
    assert result["metrics"] == {}


def test_protocol_violation_counts_every_thread_failed(monkeypatch):
    original = Machine.finish_deploy

    def broken(self, tile):
        tile.port = PortDirection.CORE
        return original(self, tile)

    monkeypatch.setattr(Machine, "finish_deploy", broken)
    out = io.StringIO()
    result = run.run_workload("flat-downlink", 1, 0, True, slots=SLOTS, out=out)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2 * SLOTS
    assert "ProtocolViolation" in out.getvalue()
