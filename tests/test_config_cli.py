"""Config parsing, effective-config echo, CSV emission, CLI exit codes."""

import csv
import io
import os
import subprocess
import sys

import pytest

from wbpsim.cli import (ABLATION_CSV_HEADER, RUN_CSV_HEADER, emit_csv, main,
                        sweep_mix)
from wbpsim.config import (ConfigError, apply_overrides, parse_config,
                           render_config, with_system)

MINIMAL = """
[system]
clusters = 1
tiles_per_cluster = 2
tile_mix = L,S
[link]
polar_n = 64
polar_k = 32
rate_match_e = 64
subcarriers = 32
cp_len = 8
bp_iters = 8
users_per_slot = 2
[tdd]
slot_cycles = 8000
[run]
n_slots = 2
seed = 3
"""


def small_config_text(**overrides):
    text = MINIMAL
    for key, value in overrides.items():
        text += f"{key} = {value}\n"
    return text


# ---------------------------------------------------------------------------
# parsing


def test_minimal_config_fills_defaults():
    setup = parse_config(MINIMAL)
    assert setup.machine.clusters == 1
    assert setup.machine.tile_mix == ("L", "S")
    assert setup.machine.max_threads == 2  # default
    assert setup.link.bp_iters == 8
    assert setup.pattern.slots == ("D", "U")
    assert setup.seed == 3
    assert setup.multithreading and setup.lazy_deletion


def test_unknown_key_reports_line_number():
    bad = "[system]\nclusters = 1\nbogus_key = 7\n"
    with pytest.raises(ConfigError, match=r"line 3.*bogus_key"):
        parse_config(bad)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"line 1.*unknown section"):
        parse_config("[nonsense]\n")


def test_invariant_violation_names_key():
    with pytest.raises(ConfigError, match="clusters"):
        parse_config("[system]\nclusters = 0\n")
    with pytest.raises(ConfigError, match="tile_mix"):
        parse_config("[system]\nclusters = 1\ntiles_per_cluster = 2\ntile_mix = L\n")


def test_type_error_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[system]\nclusters = many\n")


def test_3c4t_config_matches_expected_shape():
    setup = parse_config(open("configs/3c4t.cfg").read())
    assert setup.machine.clusters == 3
    assert setup.machine.tile_mix == ("L", "L", "S", "S")


def test_render_config_echoes_every_key_and_roundtrips():
    setup = parse_config(MINIMAL)
    text = render_config(setup)
    for key in ("clusters", "tile_mix", "polar_n", "snr_db", "sched_tick_cycles",
                "multithreading", "slot_cycles"):
        assert key in text
    again = parse_config(text)
    assert render_config(again) == text
    assert again.config_id() == setup.config_id()


DEFAULTS_TEXT = """[system]
clock_mhz = 500.0
clusters = 1
code_pool_bytes = 393216
compute_bytes = 1048576
fifo_bytes = 65536
load_indication_bytes = 16384
max_threads = 2
tile_mix = L,L,S,S
tiles_per_cluster = 4
tspm_bytes = 131072

[link]
bp_iters = 30
c_init = 1
cp_len = 32
polar_k = 256
polar_n = 512
rate_match_e = 512
snr_db = inf
subcarriers = 128
users_per_slot = 5

[tdd]
pattern = DU
slot_cycles = 20000

[cost]
anchors_file =\x20
csr_write_cycles = 4
dma_bytes_per_cycle = 16
dma_setup_cycles = 20
ref_lanes = 64
scan_visit_cycles = 10
sched_tick_cycles = 1000
serial_fraction = 0.2
thread_eval_cycles = 50

[run]
lazy_deletion = true
multithreading = true
n_slots = 20
seed = 1
strict = true
"""


def test_render_config_of_empty_text_is_every_default():
    assert render_config(parse_config("")) == DEFAULTS_TEXT


def test_overrides_and_with_system():
    setup = parse_config(MINIMAL)
    changed = apply_overrides(setup, seed=99, multithreading=False)
    assert changed.seed == 99 and not changed.multithreading
    assert setup.seed == 3  # original untouched
    grown = with_system(setup, 4, ("L", "L", "S"))
    assert grown.machine.clusters == 4
    assert grown.machine.tile_mix == ("L", "L", "S")


def test_sweep_mix_rule():
    assert sweep_mix(1) == ("L",)
    assert sweep_mix(4) == ("L", "L", "L", "S")
    larges = [sweep_mix(t).count("L") for t in range(3, 10)]
    assert larges == sorted(larges) and len(set(larges)) == len(larges)


# ---------------------------------------------------------------------------
# CSV


def test_emit_csv_header_only_and_rewrite_identical(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv([], path)
    first = path.read_bytes()
    assert first.decode().strip() == ",".join(RUN_CSV_HEADER)
    emit_csv([], path)
    assert path.read_bytes() == first


def test_emit_csv_roundtrips_through_reader(tmp_path):
    row = ["abc", 1, 4, 3, 1, 8, 7, 1, 1, "12.500000", "0.250000",
           4096, 2, 0, 6, 34, "ff00"]
    path = tmp_path / "out.csv"
    emit_csv([row], path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == RUN_CSV_HEADER
    assert rows[1] == [str(v) for v in row]


def test_emit_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([[1, 2]], tmp_path / "x.csv")


# ---------------------------------------------------------------------------
# CLI commands


def write_config(tmp_path, text=MINIMAL):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_cmd_run_writes_row_and_echoes_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_csv = tmp_path / "row.csv"
    assert main(["run", cfg, "--out", str(out_csv)]) == 0
    captured = capsys.readouterr().out
    assert "[system]" in captured and "clusters = 1" in captured
    assert "# cost law scramble" in captured and "estimated" in captured
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == RUN_CSV_HEADER
    assert float(rows[1][RUN_CSV_HEADER.index("throughput_mbps")]) > 0


def test_cmd_run_reproducible_csv(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", cfg, "--out", str(a)])
    main(["run", cfg, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cmd_run_trace_flag_does_not_change_digest(tmp_path):
    cfg = write_config(tmp_path)
    plain, traced = tmp_path / "p.csv", tmp_path / "t.csv"
    main(["run", cfg, "--out", str(plain)])
    main(["run", cfg, "--out", str(traced), "--trace",
          str(tmp_path / "ev.jsonl")])
    digest_col = RUN_CSV_HEADER.index("digest")
    with open(plain, newline="") as fh:
        a = list(csv.reader(fh))[1][digest_col]
    with open(traced, newline="") as fh:
        b = list(csv.reader(fh))[1][digest_col]
    assert a == b
    assert (tmp_path / "ev.jsonl").read_text().count("\n") > 10


def test_cmd_run_fault_injection_nonzero_exit(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("WBPSIM_INJECT_FAULT", "port")
    assert main(["run", cfg]) == 2


def test_cmd_run_lenient_reports_violations(tmp_path, monkeypatch, capsys):
    # A lenient run finishes and writes its row, then names each violation.
    cfg = write_config(tmp_path)
    out_csv = tmp_path / "row.csv"
    monkeypatch.setenv("WBPSIM_INJECT_FAULT", "port")
    assert main(["run", cfg, "--lenient", "--out", str(out_csv)]) == 2
    assert capsys.readouterr().err == \
        "protocol violation: tile 1: DMA finished with port at core\n"
    with open(out_csv, newline="") as fh:
        assert len(list(csv.reader(fh))) == 2


def test_cmd_run_stall_exits_3_and_names_stuck_threads(tmp_path, capsys):
    # No task fits a 2000-byte tile scratchpad, so nothing is ever dispatched.
    text = open("configs/example.cfg").read().replace(
        "[system]\n", "[system]\ntspm_bytes = 2000\n")
    assert main(["run", write_config(tmp_path, text)]) == 3
    assert capsys.readouterr().err == (
        "stalled: scheduler made no progress for 10 ticks; "
        "stuck threads [0, 1, 2, 3, 4, 5, 6, 7]\n")


def test_cmd_run_dump_dags(tmp_path):
    cfg = write_config(tmp_path)
    dag_dir = tmp_path / "dags"
    assert main(["run", cfg, "--dump-dags", str(dag_dir)]) == 0
    tx = (dag_dir / "tx.dag").read_text()
    rx = (dag_dir / "rx.dag").read_text()
    assert tx.count("task") >= 6
    assert rx.count("dec_u") > 20  # task records plus edges
    assert "dismiss rx_blind 20" in rx


def test_cmd_run_bad_config_exit(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[system]\nclusters = 0\n")
    assert main(["run", str(path)]) == 2


def test_cmd_sweep_single_point_grid(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", cfg, "--grid", "1x2", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2  # header + one point
    assert rows[1][RUN_CSV_HEADER.index("clusters")] == "1"
    assert rows[1][RUN_CSV_HEADER.index("tiles")] == "2"


def test_cmd_sweep_grid_row_count(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", cfg, "--grid", "1x2,1x3,2x2", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        assert len(list(csv.reader(fh))) == 4


def test_cmd_ablation_table_shape(tmp_path):
    cfg = write_config(tmp_path, small_config_text())
    out = tmp_path / "ablation.csv"
    assert main(["ablation", cfg, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ABLATION_CSV_HEADER
    assert len(rows) == 4  # header plus one row per feature variant
    assert [r[0] for r in rows[1:]] == [
        "baseline", "+multithreading", "+multithreading+lazy_deletion"]


def test_cmd_calibrate_prints_fit(capsys):
    import wbpsim
    anchors = os.path.join(os.path.dirname(wbpsim.__file__), "data", "anchors.txt")
    assert main(["calibrate", anchors]) == 0
    out = capsys.readouterr().out
    assert "fft: a=" in out and "bp: a=" in out
    assert "residual" in out


# ---------------------------------------------------------------------------
# bad outside input exits 2 with a config error, not a traceback


def test_cmd_sweep_bad_grid_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", cfg, "--grid", "4y3"]) == 2
    assert capsys.readouterr().err == \
        "config error: --grid point '4y3' is not CxT, e.g. 4x3\n"


def test_cmd_sweep_bad_worker_count_is_config_error(tmp_path, monkeypatch,
                                                    capsys):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("WBPSIM_WORKERS", "x")
    assert main(["sweep", cfg, "--grid", "1x2"]) == 2
    assert capsys.readouterr().err == \
        "config error: WBPSIM_WORKERS must be an integer, got 'x'\n"


def test_cmd_calibrate_malformed_anchor_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "anchors.txt"
    path.write_text("fft,64,100,16\nfft,128,lots,16\n")
    assert main(["calibrate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: anchor line 2: ")


def test_cmd_calibrate_single_anchor_kernel_is_config_error(tmp_path, capsys):
    # bp fits, fft has one anchor: nothing is printed before the error.
    path = tmp_path / "anchors.txt"
    path.write_text("bp,64,100,16\nbp,128,250,16\nfft,64,100,16\n")
    assert main(["calibrate", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"config error: {path}: fft: need at least two anchors to fit\n")


def test_cmd_run_malformed_anchors_file_is_config_error(tmp_path, capsys):
    anchors = tmp_path / "anchors.txt"
    anchors.write_text("fft,64,100\n")
    text = MINIMAL + f"[cost]\nanchors_file = {anchors}\n"
    assert main(["run", write_config(tmp_path, text)]) == 2
    assert capsys.readouterr().err == (
        f"config error: cost.anchors_file {anchors}: "
        "anchor line 1: expected 4 fields, got 3\n")


def test_cli_entrypoint_subprocess(tmp_path):
    cfg = write_config(tmp_path)
    result = subprocess.run(
        [sys.executable, "-m", "wbpsim.cli", "run", cfg],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0
    assert "config_id" in result.stdout
