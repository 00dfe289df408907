"""Golden corpus: the exact digest, CSV row and decision log of reference runs.

A pure speed-up of the simulator must leave every event stream and report
byte-identical. These runs pin the ``report_row`` CSV row (its last field is
the trace digest) and a SHA-256 of the main scheduler's decision log of the
reference configs and of a short deep-backlog point of the scaling sweep,
all at seed 1. A change to the model must update the pins and say why.
"""

import dataclasses
import hashlib
import io
from pathlib import Path

import pytest

from wbpsim.cli import emit_csv, execute, report_row, sweep_mix
from wbpsim.config import load_config, with_system

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def csv_row(setup, report) -> str:
    buffer = io.StringIO()
    emit_csv([report_row(setup, report)], buffer)
    return buffer.getvalue().splitlines()[1]


def decision_log_sha256(report) -> str:
    """SHA-256 of the log as (time, thread, action, cluster, evicted) tuples,
    so it changes if a wait is dropped, merged, reordered or re-timed."""
    log = [(d.time, d.thread, d.action, d.cluster, d.evicted)
           for d in report.decisions]
    return hashlib.sha256(repr(log).encode()).hexdigest()


def with_slots(setup, n_slots):
    values = dict(setup.values)
    values[("run", "n_slots")] = n_slots
    return dataclasses.replace(setup, n_slots=n_slots, values=values)


@pytest.mark.parametrize("name,row", [
    ("example.cfg",
     "7cc506e6b182,1,4,2,2,8,1,1,1,7.157002,0.414801,1205120,2,0,6,68,"
     "8232f41f1d18d12d614c3f8b3e0505c0629c857b77def24976b559f7c1583f84"),
    ("3c4t.cfg",
     "fae28055f4b8,3,4,2,2,24,1,1,1,20.501048,0.396099,2651904,6,0,18,216,"
     "0e06ee2af79b3c9b07cdf2a47364ac22dc172ef0bb8d8880ac0d9056d04c56fb"),
])
def test_reference_config_golden_row(name, row):
    setup = load_config(CONFIGS / name)
    report = execute(setup)
    assert csv_row(setup, report) == row
    assert decision_log_sha256(report) == REFERENCE_DECISION_LOGS[name]


# 491 of example.cfg's 499 decisions and 1250 of 3c4t.cfg's 1274 are waits.
REFERENCE_DECISION_LOGS = {
    "example.cfg":
        "b0fa978fae7441a3ee56f3b51c5fddc7a28aaec69be9fc9769f32e92f7ff6055",
    "3c4t.cfg":
        "2f26f019caf7b642cbb9df89586017daa957110da400944dfd6843263f96359e",
}


def test_sweep_4x3_deep_backlog_golden_row():
    # The 4-cluster, 3-tile sweep point builds a deep task backlog, so the
    # cluster scan runs over many resident instances; 20 slots keep it short.
    # Its 32 thread slots take all 20 threads, so its log holds no wait.
    setup = with_system(with_slots(load_config(CONFIGS / "sweep.cfg"), 20),
                        4, sweep_mix(3))
    report = execute(setup)
    assert csv_row(setup, report) == (
        "bf3fe2b626b9,4,3,2,1,20,1,1,1,20.776034,0.401118,8768672,6,0,14,100,"
        "facabff8d4f123a28766130581046b104b0f29bcbb206df8589210bec31b0ad7")
    assert decision_log_sha256(report) == (
        "8677c08a26625a8472461d65a51b239994e08ed1cea4590b6673c4e9c6f668a0")
