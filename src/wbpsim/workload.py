"""Link-chain workload: transmit/receive dags, TDD arrivals, experiments.

The transmit chain per user is encode -> rate-match -> scramble -> QPSK ->
OFDM, merged into one slot-assembly sink. The receive chain is a single
worst-case dag: OFDM demod -> channel estimation -> equalization -> soft
demod -> descramble -> rate recovery -> blind detection, fanning out to the
maximum of 20 channel decoders whose unused tail is dismissed at runtime
once the detected user count is known.

Thread payloads are synthesized up front from a seeded generator, so
simulation order cannot perturb the data. A slot's frames are built for all
its users together, in one batched kernel call per chain stage, and only
where an uplink slot needs them: it passes its paired downlink slot's frames
through the modeled channel. A transmit slot keeps only its info bits; its
delivered frames are checked against frames derived from them when its
thread finishes.

A receive thread's decoders share one batched decode on the host, as a
software polar decoder amortises its per-call overhead over sibling frames.
``rx_blind`` registers the detected users' LLR rows, the very payloads it
hands the decoders, under the thread's id in a table that belongs to one
``make_link_body`` call, so to one run and one process. The first decoder
to run decodes all rows with ``bp_decode_many``, each decoder returns its
own user's bits, and the last one removes the entry. The model is unchanged:
each decoder is still a task that is charged one frame. The host work is
not: ``bp_decode_soft`` stops once an iteration leaves its messages
bit-for-bit unchanged, with the bits that all ``bp_iters`` iterations would
give. Noiseless N=512 frames get there in the fifth iteration, and the
decoder stops in the sixth.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .costmodel import CostModel
from .dag import Dag, TaskSpec, Token
from .machine import Machine, MachineConfig
from .scheduler import BodyResult, System, ThreadDescriptor

MAX_USERS = kernels.MAX_USERS_PER_SLOT
PILOT_C_INIT = 7

BYTES_PER_BIT = 1
BYTES_PER_LLR = 4
BYTES_PER_SAMPLE = 8
BUNDLE_OVERHEAD = 16

CODE_BYTES = {
    "fft": 4096,
    "bp": 8192,
    "polar_encode": 2048,
    "rate_match": 1024,
    "rate_recover": 1024,
    "scramble": 1024,
    "descramble": 1024,
    "qpsk_mod": 1024,
    "qpsk_demod": 2048,
    "ls_estimate": 2048,
    "zf_equalize": 2048,
    "blind_detect": 1024,
    "assemble": 1024,
}


@dataclass(frozen=True)
class LinkConfig:
    polar: kernels.PolarCode
    rate_match_e: int
    c_init: int = 1
    ofdm: kernels.OfdmConfig = field(default_factory=kernels.OfdmConfig)
    bp_iters: int = 30
    users_per_slot: int = 5
    snr_db: float | None = None  # None means a noiseless channel

    def __post_init__(self):
        # Messages start "<field>: ", as MachineConfig's do.
        if not 0 <= self.users_per_slot <= MAX_USERS:
            raise ValueError(f"users_per_slot: must be in 0..{MAX_USERS}")
        if self.bp_iters < 1:
            raise ValueError("bp_iters: must be >= 1")
        if self.rate_match_e < 2 or self.rate_match_e % 2:
            raise ValueError("rate_match_e: must be even and positive")
        if (self.rate_match_e // 2) % self.ofdm.n_subcarriers:
            raise ValueError("rate_match_e: half of it must fill whole OFDM symbols")

    @property
    def data_symbols_per_user(self) -> int:
        return self.rate_match_e // 2 // self.ofdm.n_subcarriers

    @property
    def symbols_per_user(self) -> int:
        return self.data_symbols_per_user + 1  # leading pilot symbol

    def signature(self) -> list:
        snr = "inf" if self.snr_db is None else self.snr_db
        return [self.polar.N, self.polar.K, self.rate_match_e, self.c_init,
                self.ofdm.n_subcarriers, self.ofdm.cp_len, self.bp_iters,
                self.users_per_slot, snr]


@dataclass(frozen=True)
class TddPattern:
    slots: tuple[str, ...] = ("D", "U")
    slot_duration_cycles: int = 20000

    def __post_init__(self):
        if not self.slots or any(s not in ("D", "U") for s in self.slots):
            raise ValueError("pattern must be a non-empty string of D/U slots")
        if self.slot_duration_cycles <= 0:
            raise ValueError("slot duration must be positive")

    @classmethod
    def parse(cls, text: str, slot_duration_cycles: int) -> "TddPattern":
        return cls(tuple(text.upper()), slot_duration_cycles)


@dataclass(frozen=True)
class RxBundle:
    """Per-user payload plus slot-level context flowing down the receive chain."""

    per_user: tuple
    user_count: int
    noise_var: float


def payload_bytes(payload) -> int:
    """Modeled scratchpad footprint of a token payload."""
    if isinstance(payload, np.ndarray):
        if payload.dtype == np.complex128:
            return max(1, BYTES_PER_SAMPLE * payload.size)
        if payload.dtype == np.float64:
            return max(1, BYTES_PER_LLR * payload.size)
        return max(1, BYTES_PER_BIT * payload.size)
    if isinstance(payload, RxBundle):
        return BUNDLE_OVERHEAD + sum(payload_bytes(p) for p in payload.per_user)
    if isinstance(payload, (tuple, list)):
        return BUNDLE_OVERHEAD + sum(payload_bytes(p) for p in payload)
    return 4  # scalar


def make_token(payload) -> Token:
    return Token(payload=payload, byte_size=payload_bytes(payload))


def pilot_symbol_freq(link: LinkConfig) -> np.ndarray:
    bits = kernels.gold_sequence(PILOT_C_INIT, 2 * link.ofdm.n_subcarriers)
    return kernels.qpsk_mod(bits)


def user_c_init(link: LinkConfig, user: int) -> int:
    return (link.c_init + user) % (2**31)


# ---------------------------------------------------------------------------
# functional reference chain (also used to synthesize receive-side inputs)


def tx_frames(link: LinkConfig, bits: np.ndarray, pilot: np.ndarray) -> np.ndarray:
    """Transmit every user's frame (one row of ``bits`` each) in one batched
    call per kernel stage; returns samples shaped (users, symbols_per_user,
    symbol_len), each frame led by the ``pilot_symbol_freq`` symbol."""
    users = bits.shape[0]
    coded = kernels.polar_encode(bits, link.polar)
    matched = kernels.rate_match_rv0(coded, link.rate_match_e)
    scrambled = kernels.scramble(matched, [user_c_init(link, u) for u in range(users)])
    freq = np.empty((users, link.symbols_per_user, link.ofdm.n_subcarriers),
                    dtype=np.complex128)
    freq[:, 0] = pilot
    freq[:, 1:] = kernels.qpsk_mod(scrambled).reshape(
        users, link.data_symbols_per_user, link.ofdm.n_subcarriers)
    return kernels.ofdm_modulate(freq, link.ofdm)


def channel_bundle(link: LinkConfig, frames: np.ndarray,
                   rng: np.random.Generator) -> RxBundle:
    """Receive payload of ``tx_frames`` output passed through the channel."""
    flat = frames.reshape(-1)
    received = kernels.awgn_channel(flat, math.inf if link.snr_db is None
                                    else link.snr_db, rng)
    if link.snr_db is None:
        noise_var = 1.0
    else:
        power = float(np.mean(np.abs(flat) ** 2)) if flat.size else 1.0
        noise_var = max(power / (10.0 ** (link.snr_db / 10.0)), 1e-12)
    per_user = tuple(tuple(frame) for frame in received.reshape(frames.shape))
    return RxBundle(per_user=per_user, user_count=frames.shape[0],
                    noise_var=noise_var)


# ---------------------------------------------------------------------------
# dag construction


def _task(dag: Dag, task_id: str, kernel: str, attribute: str,
          link: LinkConfig, **params) -> str:
    params["cfg"] = link.signature()
    return dag.add_task(TaskSpec(task_id=task_id, kernel=kernel,
                                 attribute=attribute,
                                 code_bytes=CODE_BYTES[kernel], params=params))


def build_tx_dag(link: LinkConfig) -> Dag:
    if link.users_per_slot < 1:
        raise ValueError("transmit dag needs at least one user per slot")
    dag = Dag()
    _task(dag, "tx_sink", "assemble", "ANY", link, role="tx_assemble")
    for user in range(link.users_per_slot):
        enc = _task(dag, f"enc_u{user:02d}", "polar_encode", "SMALL", link,
                    role="tx_encode", user=user)
        rm = _task(dag, f"rm_u{user:02d}", "rate_match", "SMALL", link,
                   role="tx_rate_match", user=user)
        scr = _task(dag, f"scr_u{user:02d}", "scramble", "SMALL", link,
                    role="tx_scramble", user=user)
        mod = _task(dag, f"mod_u{user:02d}", "qpsk_mod", "SMALL", link,
                    role="tx_qpsk", user=user)
        ofdm = _task(dag, f"ofdm_u{user:02d}", "fft", "LARGE", link,
                     role="tx_ofdm", user=user)
        dag.add_edge("EXTERNAL", enc)
        dag.add_edge(enc, rm)
        dag.add_edge(rm, scr)
        dag.add_edge(scr, mod)
        dag.add_edge(mod, ofdm)
        dag.add_edge(ofdm, "tx_sink")
    return dag.freeze()


def build_rx_dag(link: LinkConfig) -> Dag:
    dag = Dag()
    ofdm = _task(dag, "rx_ofdm", "fft", "LARGE", link, role="rx_ofdm")
    ls = _task(dag, "rx_ls", "ls_estimate", "ANY", link, role="rx_ls")
    zf = _task(dag, "rx_zf", "zf_equalize", "ANY", link, role="rx_zf")
    demod = _task(dag, "rx_demod", "qpsk_demod", "SMALL", link, role="rx_demod")
    descr = _task(dag, "rx_descr", "descramble", "SMALL", link,
                  role="rx_descramble")
    recover = _task(dag, "rx_recover", "rate_recover", "SMALL", link,
                    role="rx_rate_recover")
    blind = _task(dag, "rx_blind", "blind_detect", "ANY", link, role="rx_blind")
    sink = _task(dag, "rx_sink", "assemble", "ANY", link, role="rx_assemble")
    dag.add_edge("EXTERNAL", ofdm)
    for src, dst in ((ofdm, ls), (ls, zf), (zf, demod), (demod, descr),
                     (descr, recover), (recover, blind)):
        dag.add_edge(src, dst)
    decoders = []
    for user in range(MAX_USERS):
        dec = _task(dag, f"dec_u{user:02d}", "bp", "LARGE", link,
                    role="rx_decode", user=user)
        dag.add_edge(blind, dec)
        dag.add_edge(dec, sink)
        decoders.append(dec)
    dag.add_dismissal(blind, decoders)
    return dag.freeze()


# ---------------------------------------------------------------------------
# task bodies


class _DecodeBatch:
    """One receive thread's detected users' LLR rows, decoded in one call."""

    __slots__ = ("rows", "bits", "left")

    def __init__(self, rows: tuple):
        self.rows = rows  # the payloads rx_blind hands the decoders, by user
        self.bits: np.ndarray | None = None  # (users, K), set by the first decoder
        self.left = len(rows)  # decoders still to run


def make_link_body(link: LinkConfig):
    """Returns the body function executing one task's kernel work."""
    n_sub = link.ofdm.n_subcarriers
    pilot_freq = pilot_symbol_freq(link)
    pilot_time = kernels.ofdm_modulate(pilot_freq, link.ofdm)
    batches: dict[int, _DecodeBatch] = {}  # by thread id, while decoders remain

    def tx_encode(spec, payloads, thread):
        coded = kernels.polar_encode(payloads[0], link.polar)
        return BodyResult([make_token(coded)], [("polar_encode", link.polar.N, 1)])

    def tx_rate_match(spec, payloads, thread):
        out = kernels.rate_match_rv0(payloads[0], link.rate_match_e)
        return BodyResult([make_token(out)], [("rate_match", link.rate_match_e, 1)])

    def tx_scramble(spec, payloads, thread):
        out = kernels.scramble(payloads[0], user_c_init(link, spec.params["user"]))
        return BodyResult([make_token(out)], [("scramble", link.rate_match_e, 1)])

    def tx_qpsk(spec, payloads, thread):
        out = kernels.qpsk_mod(payloads[0])
        return BodyResult([make_token(out)], [("qpsk_mod", link.rate_match_e, 1)])

    def tx_ofdm(spec, payloads, thread):
        syms = payloads[0].reshape(link.data_symbols_per_user, n_sub)
        out = np.concatenate(
            [pilot_time, kernels.ofdm_modulate(syms, link.ofdm).reshape(-1)])
        return BodyResult([make_token(out)], [("fft", n_sub, link.symbols_per_user)])

    def tx_assemble(spec, payloads, thread):
        slot = np.concatenate(payloads) if payloads else \
            np.zeros(0, dtype=np.complex128)
        return BodyResult([], [("assemble", max(1, slot.size), 1)],
                          thread_output=make_token(slot))

    def rx_ofdm(spec, payloads, thread):
        bundle: RxBundle = payloads[0]
        per_user = tuple(tuple(kernels.ofdm_demodulate(np.stack(syms), link.ofdm))
                         for syms in bundle.per_user)
        count = sum(len(s) for s in bundle.per_user)
        return BodyResult(
            [make_token(dataclasses.replace(bundle, per_user=per_user))],
            [("fft", n_sub, count)])

    def rx_ls(spec, payloads, thread):
        bundle = payloads[0]
        per_user = tuple(
            (kernels.ls_estimate(freqs[0], pilot_freq), tuple(freqs[1:]))
            for freqs in bundle.per_user)
        return BodyResult(
            [make_token(dataclasses.replace(bundle, per_user=per_user))],
            [("ls_estimate", n_sub, bundle.user_count)])

    def rx_zf(spec, payloads, thread):
        bundle = payloads[0]
        per_user = tuple(
            tuple(kernels.zf_equalize(sym, channel)[0] for sym in data)
            for channel, data in bundle.per_user)
        return BodyResult(
            [make_token(dataclasses.replace(bundle, per_user=per_user))],
            [("zf_equalize", n_sub, bundle.user_count * link.data_symbols_per_user)])

    def rx_demod(spec, payloads, thread):
        bundle = payloads[0]
        per_user = tuple(
            kernels.qpsk_soft_demod(np.concatenate(syms), bundle.noise_var)
            for syms in bundle.per_user)
        return BodyResult(
            [make_token(dataclasses.replace(bundle, per_user=per_user))],
            [("qpsk_demod", link.rate_match_e, bundle.user_count)])

    def rx_descramble(spec, payloads, thread):
        bundle = payloads[0]
        per_user = tuple(
            kernels.descramble_llr(llr, user_c_init(link, user))
            for user, llr in enumerate(bundle.per_user))
        return BodyResult(
            [make_token(dataclasses.replace(bundle, per_user=per_user))],
            [("descramble", link.rate_match_e, bundle.user_count)])

    def rx_rate_recover(spec, payloads, thread):
        bundle = payloads[0]
        per_user = tuple(kernels.rate_recover_rv0(llr, link.polar.N)
                         for llr in bundle.per_user)
        return BodyResult(
            [make_token(dataclasses.replace(bundle, per_user=per_user))],
            [("rate_recover", link.rate_match_e, bundle.user_count)])

    def rx_blind(spec, payloads, thread):
        bundle = payloads[0]
        detected = kernels.blind_detect(bundle.user_count)
        rows = bundle.per_user[:detected]
        if rows:
            batches[thread.tid] = _DecodeBatch(rows)
        outputs: list[Token | None] = [make_token(row) for row in rows]
        outputs.extend([None] * (MAX_USERS - detected))
        return BodyResult(outputs, [("blind_detect", MAX_USERS, 1)],
                          scalar_return=detected)

    def rx_decode(spec, payloads, thread):
        # The thread's first decoder to run decodes the whole batch; each
        # returns a copy of its own user's bits, so no token keeps the batch
        # alive, and the last one frees it. A payload that is not this
        # user's row raises rather than decode something else.
        user = spec.params["user"]
        batch = batches.get(thread.tid)
        if batch is None or user >= len(batch.rows) \
                or payloads[0] is not batch.rows[user]:
            raise ValueError(f"thread {thread.tid}: {spec.task_id} was not handed "
                             f"its row of the thread's decode batch")
        if batch.bits is None:
            batch.bits = kernels.bp_decode_many(np.stack(batch.rows), link.polar,
                                                link.bp_iters)
        batch.left -= 1
        if not batch.left:
            del batches[thread.tid]
        return BodyResult([make_token(batch.bits[user].copy())],
                          [("bp", link.polar.N, 1)])

    def rx_assemble(spec, payloads, thread):
        decoded = tuple(payloads)
        size = max(1, sum(p.size for p in decoded))
        return BodyResult([], [("assemble", size, 1)],
                          thread_output=make_token(decoded))

    roles = {
        "tx_encode": tx_encode, "tx_rate_match": tx_rate_match,
        "tx_scramble": tx_scramble, "tx_qpsk": tx_qpsk, "tx_ofdm": tx_ofdm,
        "tx_assemble": tx_assemble, "rx_ofdm": rx_ofdm, "rx_ls": rx_ls,
        "rx_zf": rx_zf, "rx_demod": rx_demod, "rx_descramble": rx_descramble,
        "rx_rate_recover": rx_rate_recover, "rx_blind": rx_blind,
        "rx_decode": rx_decode, "rx_assemble": rx_assemble,
    }

    def body(spec: TaskSpec, payloads: list, thread: ThreadDescriptor) -> BodyResult:
        role = spec.params["role"]
        run = roles.get(role)
        if run is None:
            raise ValueError(f"unknown task role {role!r}")
        return run(spec, payloads, thread)

    return body


# ---------------------------------------------------------------------------
# thread spawning


def _slot_rng(seed: int, slot: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(slot,)))


def spawn_threads(pattern: TddPattern, n_slots: int, link: LinkConfig,
                  seed: int, tx_dag: Dag | None, rx_dag: Dag) -> list[ThreadDescriptor]:
    """One thread per slot: downlink slots transmit, uplink slots receive.

    Each downlink slot draws its users' info bits; its inputs and its
    ``truth_bits`` are those bits. An uplink slot reuses the bits of the
    closest preceding downlink slot (its paired transmitter) and adds the
    modeled channel to their frames. Those frames are built once, in one
    batched call per kernel stage, and only for a downlink slot that an
    uplink slot uses. An uplink slot with no downlink slot before it draws
    and builds its own.
    """
    if n_slots < 1:
        raise ValueError("need at least one slot")
    pilot = pilot_symbol_freq(link)
    threads = []
    downlink: np.ndarray | None = None  # the last downlink slot's bits
    frames: np.ndarray | None = None  # the current bits' frames, once built
    for slot in range(n_slots):
        kind = pattern.slots[slot % len(pattern.slots)]
        rng = _slot_rng(seed, slot)
        arrival = slot * pattern.slot_duration_cycles
        if kind == "D" and tx_dag is None:
            raise ValueError("pattern has downlink slots but no transmit dag")
        if kind == "D" or downlink is None:
            bits = rng.integers(0, 2, size=(link.users_per_slot, link.polar.K),
                                dtype=np.int8)
            frames = None
        else:
            bits = downlink
        if kind == "D":
            downlink = bits
            inputs = [make_token(row) for row in bits]
            meta = {"kind": "tx", "slot": slot, "truth_bits": bits}
        else:
            if frames is None:
                frames = tx_frames(link, bits, pilot)
            inputs = [make_token(channel_bundle(link, frames, rng))]
            meta = {"kind": "rx", "slot": slot, "truth_bits": bits}
        threads.append(ThreadDescriptor(
            tid=slot, dag=tx_dag if kind == "D" else rx_dag, inputs=inputs,
            arrival_time=arrival, meta=meta))
    return threads


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class ThroughputReport:
    info_bits: int
    simulated_cycles: int
    clock_hz: float
    throughput_mbps: float
    tile_utilization: tuple[float, ...]
    metrics: dict[str, int]
    digest: str
    fidelity_failures: int
    failed_threads: tuple[int, ...]  # sorted ids of the threads that failed the check
    threads_completed: int
    decisions: tuple


def throughput_mbps(info_bits: int, simulated_cycles: int, clock_hz: float) -> float:
    if simulated_cycles <= 0:
        raise ValueError("simulated cycle count must be positive")
    return info_bits * (clock_hz / simulated_cycles) / 1e6


def _verify_thread(thread: ThreadDescriptor, outputs: list[Token],
                   link: LinkConfig, pilot: np.ndarray) -> int:
    """Returns the number of delivered payloads that mismatch ground truth.

    Called as the thread finishes, with the outputs it delivered. A transmit
    slot is compared with ``tx_frames`` of its ``truth_bits``, derived here
    rather than kept from set-up; ``pilot`` is ``pilot_symbol_freq(link)``.
    """
    failures = 0
    if thread.meta["kind"] == "tx":
        slot = outputs[0].payload if outputs else None
        if slot is None or not np.array_equal(
                slot, tx_frames(link, thread.meta["truth_bits"], pilot).reshape(-1)):
            failures += 1
    else:
        decoded = outputs[0].payload if outputs else ()
        truth = thread.meta["truth_bits"]
        if len(decoded) != min(link.users_per_slot, truth.shape[0]):
            failures += 1
        else:
            for user, bits in enumerate(decoded):
                if not np.array_equal(bits, truth[user]):
                    failures += 1
    return failures


def run_experiment(machine_cfg: MachineConfig, link: LinkConfig,
                   pattern: TddPattern, n_slots: int, seed: int, *,
                   multithreading: bool = True, lazy_deletion: bool = True,
                   cost_model: CostModel | None = None,
                   trace_path: str | None = None,
                   fault_hook=None) -> ThroughputReport:
    """Wire the machine, schedulers and workload together and run to completion.

    Each thread's delivered outputs are checked against ground truth derived
    from its ``truth_bits`` as it finishes, and then let go.
    """
    effective = dataclasses.replace(
        machine_cfg, max_threads=machine_cfg.max_threads if multithreading else 1)
    machine = Machine(effective, trace_path=trace_path,
                      digest_salt=f"seed:{seed}")
    model = cost_model or CostModel.default()
    pilot = pilot_symbol_freq(link)
    failures: dict[int, int] = {}  # mismatching payloads, by failed thread id

    def check(run, outputs):
        # Holds no reference to the System, which must stay free of cycles.
        count = _verify_thread(run.thread, outputs, link, pilot)
        if count:
            failures[run.thread.tid] = count

    system = System(machine, model, make_link_body(link), check,
                    lazy_deletion=lazy_deletion)
    if fault_hook is not None:
        fault_hook(machine)
    needs_tx = any(pattern.slots[s % len(pattern.slots)] == "D"
                   for s in range(n_slots))
    tx_dag = build_tx_dag(link) if needs_tx else None
    rx_dag = build_rx_dag(link)
    for thread in spawn_threads(pattern, n_slots, link, seed, tx_dag, rx_dag):
        system.submit(thread)
    system.run()

    simulated = max(1, system.last_completion)
    info_bits = link.polar.K * link.users_per_slot * len(system.finished_runs)
    utilization = tuple(
        min(1.0, tile.busy_cycles / simulated)
        for tile in sorted(machine.tiles.values(), key=lambda t: t.tile_id))
    metrics = system.metrics.snapshot()
    metrics["protocol_violations"] = 0  # a violation raises; perfbench's gate reads the key
    return ThroughputReport(
        info_bits=info_bits,
        simulated_cycles=simulated,
        clock_hz=effective.clock_hz,
        throughput_mbps=throughput_mbps(info_bits, simulated, effective.clock_hz),
        tile_utilization=utilization,
        metrics=metrics,
        digest=machine.engine.digest(),
        fidelity_failures=sum(failures.values()),
        failed_threads=tuple(sorted(failures)),
        threads_completed=len(system.finished_runs),
        decisions=tuple(system.main.decisions),
    )
