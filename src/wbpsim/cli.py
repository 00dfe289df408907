"""Command-line harness: single runs, scaling sweeps, feature ablations.

Every invocation echoes its fully resolved configuration and writes CSV
that is byte-identical across repeated runs of the same config and seed
(no timestamps on purpose).
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from multiprocessing import Pool

from .config import ConfigError, RunSetup, apply_overrides, load_config, \
    render_config, with_system
from .costmodel import (CostModel, InsufficientAnchorsError, fit_scaling,
                        load_anchor_file)
from .dag import dump_dag
from .machine import PortDirection, ProtocolViolation, SimulationStalled
from .workload import ThroughputReport, build_rx_dag, build_tx_dag, run_experiment

RUN_CSV_HEADER = [
    "config_id", "clusters", "tiles", "l_tiles", "s_tiles", "slots", "seed",
    "mt", "ld", "throughput_mbps", "tile_util", "dma_bytes", "dag_transfers",
    "evictions", "residency_hits", "dismissed_tasks", "digest",
]

ABLATION_CSV_HEADER = ["variant", "flat_throughput_mbps", "hier_throughput_mbps"]

SWEEP_CLUSTERS = (4, 5)
SWEEP_TILES = tuple(range(3, 10))


def emit_csv(rows: list[list], path, header: list[str] | None = None) -> None:
    """RFC-4180 CSV with a fixed header; deterministic byte-for-byte."""
    header = RUN_CSV_HEADER if header is None else header
    own = isinstance(path, (str, os.PathLike))
    fh = open(path, "w", encoding="utf-8", newline="") if own else path
    try:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            if len(row) != len(header):
                raise ValueError("row width does not match header")
            writer.writerow(row)
    finally:
        if own:
            fh.close()


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def report_row(setup: RunSetup, report: ThroughputReport) -> list:
    mix = setup.machine.tile_mix
    return [
        setup.config_id(),
        setup.machine.clusters,
        len(mix),
        sum(1 for c in mix if c == "L"),
        sum(1 for c in mix if c == "S"),
        setup.n_slots,
        setup.seed,
        int(setup.multithreading),
        int(setup.lazy_deletion),
        f"{report.throughput_mbps:.6f}",
        f"{_mean(report.tile_utilization):.6f}",
        report.metrics["dma_bytes"],
        report.metrics["dag_transfers"],
        report.metrics["evictions"],
        report.metrics["residency_hits"],
        report.metrics["dismissed_tasks"],
        report.digest,
    ]


def _cost_model(setup: RunSetup) -> CostModel:
    if not setup.anchors_file:
        return CostModel.default(setup.cost_params)
    try:
        return CostModel.from_anchor_file(setup.anchors_file, setup.cost_params)
    except ValueError as exc:
        raise ConfigError(f"cost.anchors_file {setup.anchors_file}: {exc}") from None


def execute(setup: RunSetup, trace_path: str | None = None,
            fault_hook=None) -> ThroughputReport:
    return run_experiment(
        setup.machine, setup.link, setup.pattern, setup.n_slots, setup.seed,
        multithreading=setup.multithreading, lazy_deletion=setup.lazy_deletion,
        cost_model=_cost_model(setup), trace_path=trace_path,
        fault_hook=fault_hook)


def echo_config(setup: RunSetup, out=None) -> None:
    out = out if out is not None else sys.stdout
    out.write(render_config(setup))
    model = _cost_model(setup)
    for kernel in sorted(model.laws):
        a, b = model.laws[kernel]
        tag = " estimated" if kernel in model.estimated else ""
        out.write(f"# cost law {kernel}: a={a:.6g} b={b:.6g}{tag}\n")


def _install_port_fault(machine) -> None:
    """Test hook: force a port-exclusivity violation on the first deploy."""
    original = machine.finish_deploy

    def broken(tile):
        tile.port = PortDirection.CORE
        machine.finish_deploy = original
        return original(tile)

    machine.finish_deploy = broken


def cmd_run(args) -> int:
    setup = load_config(args.config)
    setup = apply_overrides(
        setup, seed=args.seed,
        multithreading=False if args.no_multithreading else None,
        lazy_deletion=False if args.no_lazy_deletion else None,
        strict=args.strict)
    echo_config(setup)
    fault_hook = None
    if os.environ.get("WBPSIM_INJECT_FAULT") == "port":
        fault_hook = _install_port_fault
    if args.dump_dags:
        os.makedirs(args.dump_dags, exist_ok=True)
        if setup.link.users_per_slot >= 1:
            with open(os.path.join(args.dump_dags, "tx.dag"), "w") as fh:
                fh.write(dump_dag(build_tx_dag(setup.link)))
        with open(os.path.join(args.dump_dags, "rx.dag"), "w") as fh:
            fh.write(dump_dag(build_rx_dag(setup.link)))
    try:
        report = execute(setup, trace_path=args.trace, fault_hook=fault_hook)
    except ProtocolViolation as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return 2
    row = report_row(setup, report)
    buffer = io.StringIO()
    emit_csv([row], buffer)
    sys.stdout.write(buffer.getvalue())
    if args.out:
        emit_csv([row], args.out)
    for message in report.violations:
        print(f"protocol violation: {message}", file=sys.stderr)
    if report.violations:
        return 2
    if setup.link.snr_db is None and report.fidelity_failures:
        print(f"fidelity failures: {report.fidelity_failures}", file=sys.stderr)
        return 1
    return 0


def _parse_grid(text: str) -> list[tuple[int, int]]:
    points = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        c, _, t = part.partition("x")
        try:
            points.append((int(c), int(t)))
        except ValueError:
            raise ConfigError(f"--grid point {part!r} is not CxT, e.g. 4x3") from None
    if not points:
        raise ConfigError("empty sweep grid")
    return points


def sweep_mix(tiles: int) -> tuple[str, ...]:
    """Per-cluster mix for sweeps: one small tile, the rest large.

    Keeps decoder capacity strictly increasing with the tile count while
    retaining a small tile for the bit-level stages.
    """
    if tiles < 2:
        return ("L",) * tiles
    return ("L",) * (tiles - 1) + ("S",)


def _sweep_point(payload) -> list:
    setup, clusters, tiles = payload
    point = with_system(setup, clusters, sweep_mix(tiles))
    report = execute(point)
    return report_row(point, report)


def cmd_sweep(args) -> int:
    setup = load_config(args.config)
    setup = apply_overrides(setup, seed=args.seed)
    grid = _parse_grid(args.grid) if args.grid else \
        [(c, t) for c in SWEEP_CLUSTERS for t in SWEEP_TILES]
    jobs = [(setup, c, t) for c, t in grid]
    try:
        workers = int(os.environ.get("WBPSIM_WORKERS", "1"))
    except ValueError:
        raise ConfigError("WBPSIM_WORKERS must be an integer, got "
                          f"{os.environ['WBPSIM_WORKERS']!r}") from None
    if workers > 1:
        with Pool(min(workers, len(jobs))) as pool:
            rows = pool.map(_sweep_point, jobs)
    else:
        rows = [_sweep_point(job) for job in jobs]
    emit_csv(rows, args.out or sys.stdout)
    by_clusters: dict[int, list[float]] = {}
    for (c, _), row in zip(grid, rows):
        by_clusters.setdefault(c, []).append(float(row[9]))
    if 4 in by_clusters and 5 in by_clusters:
        ratio = _mean(by_clusters[5]) / _mean(by_clusters[4])
        print(f"# mean(5-cluster)/mean(4-cluster) = {ratio:.4f}")
    peak = max(float(row[9]) for row in rows)
    print(f"# peak throughput {peak:.3f} Mbps")
    return 0


def flat_mix(setup: RunSetup) -> tuple[str, ...]:
    return setup.machine.tile_mix * setup.machine.clusters


def cmd_ablation(args) -> int:
    """Feature ladder on a flat single-cluster system vs the configured one."""
    setup = load_config(args.config)
    setup = apply_overrides(setup, seed=args.seed)
    variants = [
        ("baseline", False, False),
        ("+multithreading", True, False),
        ("+multithreading+lazy_deletion", True, True),
    ]
    flat = with_system(setup, 1, flat_mix(setup))
    rows = []
    results = {}
    for name, mt, ld in variants:
        flat_setup = apply_overrides(flat, multithreading=mt, lazy_deletion=ld)
        hier_setup = apply_overrides(setup, multithreading=mt, lazy_deletion=ld)
        flat_mbps = execute(flat_setup).throughput_mbps
        hier_mbps = execute(hier_setup).throughput_mbps
        results[name] = (flat_mbps, hier_mbps)
        rows.append([name, f"{flat_mbps:.6f}", f"{hier_mbps:.6f}"])
    emit_csv(rows, args.out or sys.stdout, header=ABLATION_CSV_HEADER)
    full_flat, full_hier = results["+multithreading+lazy_deletion"]
    if full_flat > 0:
        print(f"# hierarchical/flat with all features: {full_hier / full_flat:.3f}")
    return 0


def cmd_calibrate(args) -> int:
    try:
        anchors = load_anchor_file(args.anchors)
    except ValueError as exc:
        raise ConfigError(f"{args.anchors}: {exc}") from None
    per_kernel: dict[str, list] = {}
    for anchor in anchors:
        per_kernel.setdefault(anchor.kernel, []).append(anchor)
    fits = []  # all fits first, so a bad kernel prints nothing
    for kernel in sorted(per_kernel):
        group = sorted(per_kernel[kernel], key=lambda a: a.size)
        try:
            fits.append((kernel, group, fit_scaling(group)))
        except InsufficientAnchorsError as exc:
            raise ConfigError(f"{args.anchors}: {kernel}: {exc}") from None
    for kernel, group, (a, b, residuals) in fits:
        print(f"{kernel}: a={a:.6f} b={b:.3f}")
        for anchor, res in zip(group, residuals):
            print(f"  size={anchor.size} cycles={anchor.cycles} "
                  f"ref_lanes={anchor.ref_lanes} residual={res * 100:+.2f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wbpsim",
        description="Discrete-event simulator of a hierarchical dataflow "
                    "manycore for baseband processing")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="path to a sectioned key=value config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="CSV output path")

    run = sub.add_parser("run", help="execute one experiment")
    common(run)
    run.add_argument("--trace", default=None, help="write a JSONL event trace")
    strictness = run.add_mutually_exclusive_group()
    strictness.add_argument("--strict", dest="strict", action="store_true",
                            default=None, help="abort on protocol violations")
    strictness.add_argument("--lenient", dest="strict", action="store_false",
                            help="finish the run, then report protocol "
                                 "violations and exit 2")
    run.add_argument("--no-multithreading", action="store_true")
    run.add_argument("--no-lazy-deletion", action="store_true")
    run.add_argument("--dump-dags", default=None,
                     help="directory for dag description files")

    sweep = sub.add_parser("sweep", help="run the cluster/tile scaling grid")
    common(sweep)
    sweep.add_argument("--grid", default=None,
                       help="comma list of CxT points, e.g. 4x3,5x9")

    ablation = sub.add_parser("ablation", help="feature ladder, flat vs hierarchical")
    common(ablation)

    calibrate = sub.add_parser("calibrate", help="fit scaling laws to an anchor file")
    calibrate.add_argument("anchors", help="anchor file (kernel,size,cycles,ref_lanes)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "ablation":
            return cmd_ablation(args)
        if args.command == "calibrate":
            return cmd_calibrate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimulationStalled as exc:
        print(f"stalled: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
