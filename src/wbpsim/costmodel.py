"""Cycle-cost model: anchor-exact lookup plus fitted scaling laws.

Kernel costs come from single-tile cycle measurements ("anchors"); between
anchors a least-squares fit of cycles = a * N * log2(N) + b interpolates.
Anchors are attributed to a reference lane count; other tiles scale by an
Amdahl-style factor with a configurable serial fraction. DMA transfers are
setup + ceil(bytes / bandwidth) burst cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

# Kernel kinds the model prices. FFT and BP carry measured anchors; the rest
# use documented estimate laws (flagged in reports).
KERNEL_KINDS = (
    "fft",
    "bp",
    "polar_encode",
    "rate_match",
    "rate_recover",
    "scramble",
    "descramble",
    "qpsk_mod",
    "qpsk_demod",
    "ls_estimate",
    "zf_equalize",
    "blind_detect",
    "assemble",
)

# Estimate coefficients (a, b) for kernels without measurements, in
# reference-lane cycles. Bit-level kernels are an order of magnitude lighter
# than the measured transforms; estimates are flagged as such in reports.
DEFAULT_LAWS: dict[str, tuple[float, float]] = {
    "polar_encode": (0.03, 20.0),
    "rate_match": (0.005, 10.0),
    "rate_recover": (0.008, 10.0),
    "scramble": (0.005, 10.0),
    "descramble": (0.005, 10.0),
    "qpsk_mod": (0.008, 10.0),
    "qpsk_demod": (0.01, 10.0),
    "ls_estimate": (0.02, 15.0),
    "zf_equalize": (0.02, 15.0),
    "blind_detect": (0.01, 50.0),
    "assemble": (0.01, 20.0),
}


class InsufficientAnchorsError(ValueError):
    """A per-kernel fit needs at least two anchors."""


@dataclass(frozen=True)
class TileTiming:
    lanes: int = 16

    def __post_init__(self):
        if self.lanes < 1 or self.lanes & (self.lanes - 1):
            raise ValueError("lane count must be a power of two")


@dataclass(frozen=True)
class CycleAnchor:
    kernel: str
    size: int
    cycles: int
    ref_lanes: int

    def __post_init__(self):
        if self.cycles <= 0 or self.size <= 0:
            raise ValueError("anchor size and cycles must be positive")


@dataclass(frozen=True)
class DmaTiming:
    setup_cycles: int = 20
    bytes_per_cycle: int = 16
    csr_write_cycles: int = 4

    def __post_init__(self):
        if min(self.setup_cycles, self.bytes_per_cycle, self.csr_write_cycles) <= 0:
            raise ValueError("DMA timing constants must be positive")


@dataclass
class CostParams:
    """Lane-scaling knobs."""

    serial_fraction: float = 0.2
    ref_lanes: int = 64

    def __post_init__(self):
        if not 0.0 <= self.serial_fraction <= 1.0:
            raise ValueError("serial_fraction: must lie in [0, 1]")


def dma_cycles(nbytes: int, timing: DmaTiming) -> int:
    """Burst transfer latency: fixed setup plus bandwidth-limited payload."""
    if nbytes < 0:
        raise ValueError("byte count must be >= 0")
    return timing.setup_cycles + -(-nbytes // timing.bytes_per_cycle)


def bp_anchor_from_throughput(norm_thrpt: float, N: int, lanes: int) -> CycleAnchor:
    """Convert a normalized decoder throughput measurement into a cycle anchor.

    ``norm_thrpt`` is Mbps per lane per GHz over coded bits, so a full block
    takes N * 1e3 / (norm_thrpt * lanes) cycles.
    """
    if norm_thrpt <= 0:
        raise ValueError("throughput must be positive")
    cycles = N * 1e3 / (norm_thrpt * lanes)
    return CycleAnchor(kernel="bp", size=N, cycles=round(cycles), ref_lanes=lanes)


def fit_scaling(anchors: list[CycleAnchor]) -> tuple[float, float, list[float]]:
    """Least-squares (a, b) for cycles = a N log2 N + b over one kernel's anchors.

    Returns the coefficients and the relative residual at each anchor.
    """
    if len(anchors) < 2:
        raise InsufficientAnchorsError("need at least two anchors to fit")
    xs = [a.size * math.log2(a.size) for a in anchors]
    ys = [float(a.cycles) for a in anchors]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0:
        raise InsufficientAnchorsError("anchors must span distinct sizes")
    a = sxy / sxx
    b = my - a * mx
    residuals = [(a * x + b - y) / y for x, y in zip(xs, ys)]
    return a, b, residuals


def lane_scale_factor(lanes: int, ref_lanes: int, serial_fraction: float) -> float:
    return serial_fraction + (1.0 - serial_fraction) * ref_lanes / lanes


class CostModel:
    """Maps (kernel, size, tile) to cycles: anchors exact, fitted law between."""

    def __init__(self, anchors: list[CycleAnchor], params: CostParams):
        self.params = params
        self.anchors: dict[tuple[str, int], CycleAnchor] = {}
        per_kernel: dict[str, list[CycleAnchor]] = {}
        for anchor in anchors:
            if anchor.kernel not in KERNEL_KINDS:
                raise ValueError(f"unknown kernel kind {anchor.kernel!r}")
            key = (anchor.kernel, anchor.size)
            if key in self.anchors:
                raise ValueError(f"duplicate anchor for {key}")
            self.anchors[key] = anchor
            per_kernel.setdefault(anchor.kernel, []).append(anchor)
        # Fitted laws replace the estimates of the kernels that have anchors.
        self.laws: dict[str, tuple[float, float]] = dict(DEFAULT_LAWS)
        for kernel, kernel_anchors in per_kernel.items():
            if len(kernel_anchors) >= 2:
                a, b = fit_scaling(kernel_anchors)[:2]
            else:
                # One measurement: slope through the point, no intercept.
                only = kernel_anchors[0]
                a, b = only.cycles / (only.size * math.log2(only.size)), 0.0
            self.laws[kernel] = (a, b)
        self.estimated = frozenset(DEFAULT_LAWS.keys() - per_kernel.keys())

    def kernel_cycles(self, kernel: str, size: int, tile: TileTiming) -> int:
        if kernel not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {kernel!r}")
        if size <= 0:
            raise ValueError("problem size must be positive")
        anchor = self.anchors.get((kernel, size))
        if anchor is not None:
            base = float(anchor.cycles)
            ref = anchor.ref_lanes
            if tile.lanes == ref:
                return anchor.cycles
        else:
            a, b = self.laws[kernel]
            base = a * size * math.log2(max(size, 2)) + b
            ref = self.params.ref_lanes
        scaled = base * lane_scale_factor(tile.lanes, ref, self.params.serial_fraction)
        return max(1, round(scaled))

    @classmethod
    def from_anchor_file(cls, path, params: CostParams | None = None) -> "CostModel":
        anchors = load_anchor_file(path)
        return cls(anchors, params or CostParams())

    @classmethod
    def default(cls, params: CostParams | None = None) -> "CostModel":
        text = resources.files("wbpsim").joinpath("data/anchors.txt").read_text()
        return cls(parse_anchor_text(text), params or CostParams())


def parse_anchor_text(text: str) -> list[CycleAnchor]:
    """Parse `kernel,size,cycles,ref_lanes` lines; '#' starts a comment."""
    anchors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ValueError(f"anchor line {lineno}: expected 4 fields, got {len(parts)}")
        kernel = parts[0]
        try:
            size, cycles, ref_lanes = (int(p) for p in parts[1:])
        except ValueError as exc:
            raise ValueError(f"anchor line {lineno}: {exc}") from None
        anchors.append(CycleAnchor(kernel=kernel, size=size, cycles=cycles,
                                   ref_lanes=ref_lanes))
    return anchors


def load_anchor_file(path) -> list[CycleAnchor]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_anchor_text(fh.read())
