"""Event-stream pins of the reference runs and two fuzz corpora.

Every wait of the scheduler resumes on an event that frees it, so no event
is posted to poll. These pins hash the event stream, each event as (time,
kind, cluster, tile, thread, task, bytes). They leave out ``seq`` and the
trace digest, and over a fuzz corpus hash every metric except
``backpressure_events``, as they did while the scheduler still posted
periodic retry events (which moved those three), so their values carry
over from then.

The tight-section corpus draws scratchpad sections small enough for
placements and dispatches to wait on them.
"""

import dataclasses
import hashlib
import random
from pathlib import Path

import pytest

from wbpsim.cli import execute
from wbpsim.config import load_config
from wbpsim.machine import SimulationStalled
from wbpsim.workload import TddPattern, run_experiment

from test_acceptance import _fuzz_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PERFBENCH_CONFIGS = CONFIGS.parent / "perfbench" / "configs"


class StreamCapture:
    """A ``fault_hook`` that hashes a run's events, ``seq`` left out."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def __call__(self, machine) -> None:
        record = machine.engine._record

        def capture(event):
            self.sha.update(repr((
                event.time, event.kind.value, event.cluster, event.tile,
                event.thread, event.task, event.nbytes)).encode())
            record(event)

        machine.engine._record = capture


REFERENCE_RUNS = {
    "example.cfg": CONFIGS / "example.cfg",
    "3c4t.cfg": CONFIGS / "3c4t.cfg",
    "sweep-5x9": PERFBENCH_CONFIGS / "sweep-5x9.cfg",
    "sweep-4x3": PERFBENCH_CONFIGS / "sweep-4x3.cfg",
    "flat-downlink": PERFBENCH_CONFIGS / "flat-downlink.cfg",
}


@pytest.fixture(scope="module")
def reference_runs():
    """Each reference config run once at its seed, 1, with its capture."""
    runs = {}
    for name, path in REFERENCE_RUNS.items():
        setup = load_config(path)
        assert setup.seed == 1
        capture = StreamCapture()
        report = execute(setup, fault_hook=capture)
        assert report.threads_completed == setup.n_slots
        runs[name] = capture
    return runs


NON_TICK_STREAMS = {
    "example.cfg":
        "cc085d1cfd6c3f4abfb357d2bb53b7c0fe900e6197687797a52a50ec2421469f",
    "3c4t.cfg":
        "58a8f4763d72a3eaef601fe2216229667d5d590bde678725ee5ddbe9c1193c1d",
    "sweep-5x9":
        "62cd608b88029887db4fb783f70dda9b2dc546dcdaec175dcd2096d8e34b4cfb",
    "sweep-4x3":
        "0b8fa2353ffaf9d88182f95867eebde7809902e7ad145a29c723702a1783c9d1",
    "flat-downlink":
        "d801f3237c8e9c993ca12fb043401b3ecae92f6c40dafabd632f22687b29b224",
}


@pytest.mark.parametrize("name", list(REFERENCE_RUNS))
def test_reference_non_tick_stream(reference_runs, name):
    assert reference_runs[name].sha.hexdigest() == NON_TICK_STREAMS[name]


@pytest.mark.parametrize("name", ["example.cfg", "sweep-4x3"])
def test_event_stream_does_not_depend_on_the_seed(tmp_path, name):
    """The seed draws only payloads. User detection is an oracle, so the
    dismissals follow the config, and every cost depends only on the config;
    so the whole stream, ``seq`` included, is the same at every seed. Only
    the trace digest, which is salted with the seed, differs."""
    setup = load_config(REFERENCE_RUNS[name])
    setup = dataclasses.replace(setup, n_slots=min(setup.n_slots, 10))
    traces, digests = set(), set()
    for seed in (1, 2, 7):
        trace = tmp_path / f"seed{seed}.jsonl"
        report = execute(dataclasses.replace(setup, seed=seed),
                         trace_path=str(trace))
        assert report.threads_completed == setup.n_slots
        traces.add(trace.read_text())
        digests.add(report.digest)
    assert len(traces) == 1 and len(digests) == 3


def run_corpus(draw, runs: int) -> str:
    """SHA-256 over each drawn config's event stream and its metrics but
    ``backpressure_events`` (or its stall message), in draw order."""
    gen = random.Random(0xC0FFEE)
    corpus = hashlib.sha256()
    for _ in range(runs):
        sys_cfg, link, pattern, n_slots, seed = draw(gen)
        capture = StreamCapture()
        try:
            report = run_experiment(sys_cfg, link, pattern, n_slots, seed,
                                    fault_hook=capture)
        except SimulationStalled as exc:
            outcome = f"stalled: {exc}"
        else:
            assert report.metrics["protocol_violations"] == 0
            outcome = sorted((key, value) for key, value in report.metrics.items()
                             if key != "backpressure_events")
            outcome.append(("simulated_cycles", report.simulated_cycles))
        corpus.update(f"{capture.sha.hexdigest()} {outcome}\n".encode())
    return corpus.hexdigest()


AC8_NON_TICK_CORPUS_SHA256 = (
    "e59608fc72611add15c7949e262c9d107b36de1d884f7d81fc856525dc36cfbd")


def test_ac8_corpus_non_tick_streams():
    assert run_corpus(_fuzz_config, 1000) == AC8_NON_TICK_CORPUS_SHA256


def _tight_section_config(gen: random.Random):
    """AC8's draw with scratchpad sections, thread slots and slot lengths
    tight enough that placements wait for section room and dispatches back
    off on a full LOAD_INDICATION section, until a completion frees it."""
    sys_cfg, link, pattern, _, seed = _fuzz_config(gen)
    sections = {"TASK_CODE_POOL": 196608, "FIFO_LISTS": 16384,
                "LOAD_INDICATION": gen.choice((16, 32, 4096)),
                "COMPUTE_DATA": gen.choice((2500, 4000, 6000, 131072))}
    sys_cfg = dataclasses.replace(sys_cfg, max_threads=gen.randint(1, 3),
                                  section_bytes=sections)
    pattern = TddPattern(pattern.slots, gen.choice((300, 1500)))
    return sys_cfg, link, pattern, gen.randint(2, 5), seed


TIGHT_NON_TICK_CORPUS_SHA256 = (
    "e17d04eeaa482cd2ded06dbf067f15e4391df1722eb84761396726181304ce5f")


def test_tight_section_corpus_non_tick_streams():
    assert run_corpus(_tight_section_config, 300) == TIGHT_NON_TICK_CORPUS_SHA256
