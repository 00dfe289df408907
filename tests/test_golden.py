"""Golden corpus: the exact digest, CSV row and decision log of reference runs.

A pure speed-up of the simulator must leave every event stream and report
byte-identical. These runs pin the ``report_row`` CSV row (its last field is
the trace digest) and a SHA-256 of the main scheduler's decision log of the
reference configs and of a short deep-backlog point of the scaling sweep,
all at seed 1. A change to the model must update the pins and say why.
Payload pins hash the thread inputs that ``slot_inputs`` builds for the
threads the perfbench configs spawn.
"""

import dataclasses
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from wbpsim.cli import emit_csv, execute, report_row, sweep_mix
from wbpsim.config import load_config, with_system
from wbpsim.workload import (RxBundle, TddPattern, build_rx_dag, build_tx_dag,
                             pilot_symbol_freq, slot_inputs, spawn_threads)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PERFBENCH_CONFIGS = CONFIGS.parent / "perfbench" / "configs"


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
     "3dba6ef953fd,1,4,2,2,8,1,1,1,7.157002,0.414801,1205120,2,0,6,68,"
     "dec1db3e066dbbc5567305372081ef40a890f2ed1595f6df500debaccaf7f6b8"),
    ("3c4t.cfg",
     "4ce3ac0e4b39,3,4,2,2,24,1,1,1,20.501048,0.396099,2651904,6,0,18,216,"
     "420891ff63b73d39e7b09b71988fb41f319ec6a51af097a1887087882bea1834"),
])
def test_reference_config_golden_row(name, row):
    setup = load_config(CONFIGS / name)
    report = execute(setup)
    assert csv_row(setup, report) == row
    assert decision_log_sha256(report) == REFERENCE_DECISION_LOGS[name]


# 16 of example.cfg's 24 decisions and 179 of 3c4t.cfg's 203 are waits.
REFERENCE_DECISION_LOGS = {
    "example.cfg":
        "22ad15b72e35b28dac2607a2c14203b223b628e2b916744677988d3e96108ed7",
    "3c4t.cfg":
        "53aa77f7c9ce5f3972a8b758ee5019e3090342ac0c717960f6717115a9f3c64e",
}


def test_sweep_4x3_deep_backlog_golden_row():
    # The 4-cluster, 3-tile sweep point builds a deep task backlog, so the
    # cluster scan runs over many resident instances; 20 slots keep it short.
    # Its 32 thread slots take all 20 threads, so its log holds no wait.
    setup = with_system(with_slots(load_config(CONFIGS / "sweep.cfg"), 20),
                        4, sweep_mix(3))
    report = execute(setup)
    assert csv_row(setup, report) == (
        "33386d717c54,4,3,2,1,20,1,1,1,20.776034,0.401118,8768672,6,0,14,100,"
        "45ad344d94b231fcdf223c1f96d2b87f2248302ecbdd3de94fa34277d6548fcc")
    assert decision_log_sha256(report) == (
        "8677c08a26625a8472461d65a51b239994e08ed1cea4590b6673c4e9c6f668a0")


def _feed(sha, value) -> None:
    """Hash a payload with its structure: dtype and shape of every array,
    the length of every tuple and an RxBundle's scalars."""
    if isinstance(value, np.ndarray):
        sha.update(f"{value.dtype.str}{value.shape}".encode())
        sha.update(value.tobytes())
    elif isinstance(value, RxBundle):
        sha.update(repr((value.user_count, value.noise_var)).encode())
        _feed(sha, value.per_user)
    elif isinstance(value, tuple):
        sha.update(f"({len(value)}".encode())
        for item in value:
            _feed(sha, item)
    else:
        raise TypeError(f"unexpected payload type {type(value).__name__}")


def payload_sha256(setup) -> str:
    """SHA-256 of every spawned thread's input payloads and byte sizes, and
    of its ``truth_bits`` meta entry, in thread order."""
    link = setup.link
    threads = spawn_threads(setup.pattern, setup.n_slots, link, setup.seed,
                            build_tx_dag(link), build_rx_dag(link))
    pilot = pilot_symbol_freq(link)
    sha = hashlib.sha256()
    for thread in threads:
        tokens = slot_inputs(link, setup.seed, thread, pilot)
        sha.update(repr((thread.tid, thread.arrival_time, thread.meta["kind"],
                         [token.byte_size for token in tokens])).encode())
        for token in tokens:
            _feed(sha, token.payload)
        _feed(sha, thread.meta["truth_bits"])
    return sha.hexdigest()


# The trace digest never sees payload contents, so these pin them: a
# synthesis change that still decodes cleanly (reordered noise draws, a
# wrong pilot) changes them. The two sweep points share link, pattern and
# seed, so their payloads agree. The last case runs sweep-5x9's link at
# 5 dB over 20 slots of a pattern that opens with an uplink slot and has
# two uplink slots in a row, so it pins the order of the random draws.
@pytest.mark.parametrize("name,pattern,snr_db,n_slots,sha", [
    ("sweep-5x9", None, None, None,
     "cd4eef8d29b6ef8b983beb103c7536fe5e653bfff9e28f5a7c2160da448b8753"),
    ("sweep-4x3", None, None, None,
     "cd4eef8d29b6ef8b983beb103c7536fe5e653bfff9e28f5a7c2160da448b8753"),
    ("flat-downlink", None, None, None,
     "c6fcf05ae0343c53727a2336a56de2ef3b785db85a9adaf6634ae1b5d0e6c060"),
    ("sweep-5x9", "UDDUU", 5.0, 20,
     "159ef472413d4ebaa48cfda7642088a16c1c4b87e3d524cd2ebe92bada922656"),
])
def test_perfbench_thread_payloads_golden(name, pattern, snr_db, n_slots, sha):
    setup = load_config(PERFBENCH_CONFIGS / f"{name}.cfg")
    assert setup.seed == 1
    if n_slots is not None:
        setup = with_slots(setup, n_slots)
    if pattern is not None:
        setup = dataclasses.replace(setup, pattern=TddPattern.parse(
            pattern, setup.pattern.slot_duration_cycles))
    if snr_db is not None:
        setup = dataclasses.replace(
            setup, link=dataclasses.replace(setup.link, snr_db=snr_db))
    assert payload_sha256(setup) == sha
