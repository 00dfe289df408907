"""Sectioned key=value experiment configuration.

Five sections — [system], [link], [tdd], [cost], [run] — hold every knob
that affects a run. Unknown keys are rejected with their line number, and
the fully resolved configuration (defaults included) is echoed into the
run output so an experiment record is always reproducible from its log.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field

from .costmodel import CostParams, DmaTiming
from .kernels import OfdmConfig, PolarCode
from .machine import MachineConfig
from .workload import LinkConfig, TddPattern


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_snr(text: str) -> float | None:
    low = text.strip().lower()
    if low in ("inf", "none", "noiseless"):
        return None
    return float(text)


# Each default is read from the dataclass that declares it. No dataclass
# declares the polar code, the rate-match length, the anchors file or the
# [run] keys, so those are written here.
_MACHINE, _COST, _OFDM, _TDD = MachineConfig(), CostParams(), OfdmConfig(), TddPattern()
_LINK = {f.name: f.default for f in dataclasses.fields(LinkConfig)}
# Config key of each scratchpad section's size.
_SECTION_KEYS = {"TASK_CODE_POOL": "code_pool_bytes", "FIFO_LISTS": "fifo_bytes",
                 "LOAD_INDICATION": "load_indication_bytes",
                 "COMPUTE_DATA": "compute_bytes"}

# (section, key) -> (converter, default)
_SCHEMA: dict[tuple[str, str], tuple] = {
    ("system", "clusters"): (int, _MACHINE.clusters),
    ("system", "tiles_per_cluster"): (int, len(_MACHINE.tile_mix)),
    ("system", "tile_mix"): (str, ",".join(_MACHINE.tile_mix)),
    ("system", "tspm_bytes"): (int, _MACHINE.tspm_bytes),
    **{("system", key): (int, _MACHINE.section_bytes[name])
       for name, key in _SECTION_KEYS.items()},
    ("system", "max_threads"): (int, _MACHINE.max_threads),
    ("system", "clock_mhz"): (float, _MACHINE.clock_hz / 1e6),
    ("link", "polar_n"): (int, 512),
    ("link", "polar_k"): (int, 256),
    ("link", "rate_match_e"): (int, 512),
    ("link", "c_init"): (int, _LINK["c_init"]),
    ("link", "subcarriers"): (int, _OFDM.n_subcarriers),
    ("link", "cp_len"): (int, _OFDM.cp_len),
    ("link", "bp_iters"): (int, _LINK["bp_iters"]),
    ("link", "users_per_slot"): (int, _LINK["users_per_slot"]),
    ("link", "snr_db"): (_parse_snr, _LINK["snr_db"]),
    ("tdd", "pattern"): (str, "".join(_TDD.slots)),
    ("tdd", "slot_cycles"): (int, _TDD.slot_duration_cycles),
    ("cost", "anchors_file"): (str, ""),
    ("cost", "serial_fraction"): (float, _COST.serial_fraction),
    ("cost", "ref_lanes"): (int, _COST.ref_lanes),
    ("cost", "dma_setup_cycles"): (int, _MACHINE.dma.setup_cycles),
    ("cost", "dma_bytes_per_cycle"): (int, _MACHINE.dma.bytes_per_cycle),
    ("cost", "csr_write_cycles"): (int, _MACHINE.dma.csr_write_cycles),
    ("cost", "thread_eval_cycles"): (int, _MACHINE.thread_eval_cycles),
    ("cost", "scan_visit_cycles"): (int, _MACHINE.scan_visit_cycles),
    ("run", "n_slots"): (int, 20),
    ("run", "seed"): (int, 1),
    ("run", "multithreading"): (_parse_bool, True),
    ("run", "lazy_deletion"): (_parse_bool, True),
}

_SECTIONS = ("system", "link", "tdd", "cost", "run")


@dataclass
class RunSetup:
    """Everything required to execute one experiment."""

    machine: MachineConfig
    link: LinkConfig
    pattern: TddPattern
    n_slots: int
    seed: int
    multithreading: bool
    lazy_deletion: bool
    anchors_file: str
    cost_params: CostParams
    values: dict[tuple[str, str], object] = field(default_factory=dict)

    def config_id(self) -> str:
        return hashlib.sha256(render_config(self).encode()).hexdigest()[:12]


def _build_setup(values: dict[tuple[str, str], object]) -> RunSetup:
    def get(section, key):
        return values[(section, key)]

    def invariant(cond: bool, key: str, message: str) -> None:
        if not cond:
            raise ConfigError(f"{key}: {message}")

    # Checks that MachineConfig, LinkConfig and CostParams do not make; their
    # own errors are mapped to config keys where they are built, below.
    tiles = get("system", "tiles_per_cluster")
    invariant(tiles >= 1, "tiles_per_cluster", "must be >= 1")
    mix = tuple(p.strip().upper() for p in str(get("system", "tile_mix")).split(",")
                if p.strip())
    invariant(len(mix) == tiles, "tile_mix",
              f"must list exactly {tiles} tile classes")
    invariant(get("system", "tspm_bytes") > 0, "tspm_bytes", "must be positive")
    invariant(get("system", "max_threads") >= 1, "max_threads", "must be >= 1")
    invariant(get("system", "clock_mhz") > 0, "clock_mhz", "must be positive")

    n = get("link", "polar_n")
    k = get("link", "polar_k")
    invariant(n >= 2 and n & (n - 1) == 0, "polar_n", "must be a power of two")
    invariant(0 < k <= n, "polar_k", "must be in 1..polar_n")
    try:
        pattern = TddPattern.parse(get("tdd", "pattern"), get("tdd", "slot_cycles"))
    except ValueError as exc:
        raise ConfigError(f"pattern: {exc}") from None

    invariant(get("run", "n_slots") >= 1, "n_slots", "must be >= 1")
    invariant(get("link", "users_per_slot") >= 1
              or "D" not in pattern.slots[:get("run", "n_slots")],
              "users_per_slot", "must be >= 1 when a downlink slot runs")
    for key in ("dma_setup_cycles", "dma_bytes_per_cycle", "csr_write_cycles",
                "thread_eval_cycles", "scan_visit_cycles"):
        invariant(get("cost", key) > 0, key, "must be positive")
    invariant(get("cost", "ref_lanes") >= 1, "ref_lanes", "must be >= 1")

    try:
        ofdm = OfdmConfig(n_subcarriers=get("link", "subcarriers"),
                          cp_len=get("link", "cp_len"))
        link = LinkConfig(polar=PolarCode.design(n, k),
                          rate_match_e=get("link", "rate_match_e"),
                          c_init=get("link", "c_init"), ofdm=ofdm,
                          bp_iters=get("link", "bp_iters"),
                          users_per_slot=get("link", "users_per_slot"),
                          snr_db=get("link", "snr_db"))
        machine = MachineConfig(
            clusters=get("system", "clusters"),
            tile_mix=mix,
            tspm_bytes=get("system", "tspm_bytes"),
            section_bytes={name: get("system", key)
                           for name, key in _SECTION_KEYS.items()},
            dma=DmaTiming(setup_cycles=get("cost", "dma_setup_cycles"),
                          bytes_per_cycle=get("cost", "dma_bytes_per_cycle"),
                          csr_write_cycles=get("cost", "csr_write_cycles")),
            max_threads=get("system", "max_threads"),
            clock_hz=get("system", "clock_mhz") * 1e6,
            thread_eval_cycles=get("cost", "thread_eval_cycles"),
            scan_visit_cycles=get("cost", "scan_visit_cycles"),
        )
        cost_params = CostParams(serial_fraction=get("cost", "serial_fraction"),
                                 ref_lanes=get("cost", "ref_lanes"))
    except ValueError as exc:
        # MachineConfig, LinkConfig and CostParams start each message with
        # the field at fault, which is its config key, or a section's name.
        field, _, message = str(exc).partition(": ")
        if field in _SECTION_KEYS:
            raise ConfigError(f"{_SECTION_KEYS[field]}: {message}") from None
        raise ConfigError(str(exc)) from None
    return RunSetup(
        machine=machine, link=link, pattern=pattern,
        n_slots=get("run", "n_slots"), seed=get("run", "seed"),
        multithreading=get("run", "multithreading"),
        lazy_deletion=get("run", "lazy_deletion"),
        anchors_file=get("cost", "anchors_file"),
        cost_params=cost_params, values=values,
    )


def parse_config(text: str) -> RunSetup:
    values = {key: default for key, (_, default) in _SCHEMA.items()}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        converter, _ = _SCHEMA[(section, key)]
        try:
            values[(section, key)] = converter(value.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    return _build_setup(values)


def load_config(path) -> RunSetup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def render_config(setup: RunSetup) -> str:
    """Render the fully resolved configuration, defaults included."""
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        for (sec, key), _ in sorted(_SCHEMA.items()):
            if sec != section:
                continue
            value = setup.values[(sec, key)]
            if value is None:
                value = "inf" if key == "snr_db" else ""
            elif isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def apply_overrides(setup: RunSetup, *, seed: int | None = None,
                    multithreading: bool | None = None,
                    lazy_deletion: bool | None = None) -> RunSetup:
    values = dict(setup.values)
    if seed is not None:
        values[("run", "seed")] = seed
    if multithreading is not None:
        values[("run", "multithreading")] = multithreading
    if lazy_deletion is not None:
        values[("run", "lazy_deletion")] = lazy_deletion
    return _build_setup(values)


def with_system(setup: RunSetup, clusters: int, tile_mix: tuple[str, ...]) -> RunSetup:
    """Derived setup with a different cluster count and per-cluster mix."""
    values = dict(setup.values)
    values[("system", "clusters")] = clusters
    values[("system", "tiles_per_cluster")] = len(tile_mix)
    values[("system", "tile_mix")] = ",".join(tile_mix)
    return _build_setup(values)
