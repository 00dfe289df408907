"""Functional signal-processing kernels for the baseband link chain.

Every kernel is a pure function over numpy arrays: bits are int8 vectors of
{0, 1}, soft values are float64 log-likelihood ratios (positive means bit 0
is more likely), and samples are complex128. The simulator uses these as
task bodies; the tests use them as ground truth, so they must stay bit-exact
and deterministic (randomness only enters through an explicit generator).

The host only has to compute the right values: what a kernel costs on a
tile comes from the cost model, not from how it is written here. So the
transforms use numpy's FFT, and the polar encoder is an in-place
butterfly transform.

Host speed still matters where a kernel dominates the simulator's own run
time, and polar BP decoding does: an iteration costs about 160 numpy calls,
whatever the batch, so per-call overhead sets its speed. ``bp_decode_soft``
therefore stops once an iteration leaves its messages bit-for-bit unchanged,
as every later one would repeat it, and keeps each message level of the
whole batch in one flat array, in a constant-geometry address order with
the row as a digit between the position bits (see its docstring). Every
stage then reads and writes contiguous halves and stride-2 views of 1-D
arrays allocated once per call, in place, and the left messages of level
0, which no stage reads, are computed in the last iteration only. The
layout moves values, not arithmetic: the soft outputs equal those of the
natural-order loop that the tests keep as the reference, bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# Offset applied to both shift-register streams before the first output bit.
GOLD_SEQUENCE_OFFSET = 1600

# Prior magnitude used to pin frozen positions during decoding. Large enough
# to dominate any channel LLR, small enough to stay well inside float64.
FROZEN_LLR = 1e9

# Below this magnitude a pilot or channel coefficient is treated as zero.
DEGENERATE_EPS = 1e-12

MAX_USERS_PER_SLOT = 20

# Rows that ``bp_decode_many`` hands ``bp_decode_soft`` at a time. Past a few
# dozen rows the message arrays outgrow the caches and each row decodes more
# slowly: on a 2-core Xeon with numpy 2.4.6, 2,000 noisy N=512 rows took
# 1.7-2.0 s at 32 rows per call and 4.1-4.4 s at 256, with equal bits.
BP_CHUNK_ROWS = 32


class DegeneratePilotError(ValueError):
    """Raised when a transmitted pilot is too close to zero to divide by."""


# ---------------------------------------------------------------------------
# array coercion helpers


def as_bits(bits) -> np.ndarray:
    out = np.asarray(bits, dtype=np.int8)
    if out.size and (out.min() < 0 or out.max() > 1):
        raise ValueError("bit vector entries must be 0 or 1")
    return out


def as_complex(x) -> np.ndarray:
    return np.asarray(x, dtype=np.complex128)


def as_llr(llr) -> np.ndarray:
    return np.asarray(llr, dtype=np.float64)


def _require_pow2(n: int, what: str) -> int:
    if n < 2 or n & (n - 1):
        raise ValueError(f"{what} must be a power of two >= 2, got {n}")
    return int(math.log2(n))


# ---------------------------------------------------------------------------
# FFT


def fft(x, inverse: bool = False) -> np.ndarray:
    """Discrete Fourier transform along the last axis, computed by numpy.

    Forward: X[k] = sum_n x[n] exp(-2i pi k n / N). The inverse additionally
    scales by 1/N so that fft(fft(x), inverse=True) == x. N must be a power
    of two, as for the radix-2 transform that a tile runs and the cost model
    prices.
    """
    x = as_complex(x)
    _require_pow2(x.shape[-1], "transform length")
    return np.fft.ifft(x) if inverse else np.fft.fft(x)


# ---------------------------------------------------------------------------
# polar code


def bhattacharyya_frozen_mask(n: int, k: int, design_snr_db: float = 0.0) -> np.ndarray:
    """Frozen mask (1 = frozen) for a length-2^n code with k info bits.

    Channel reliabilities follow the classic parameter recursion seeded with
    z = exp(-10^(snr/10)); index order matches the natural (non-bit-reversed)
    encoder below. Ties freeze the lower index first.
    """
    size = 1 << n
    if not 0 <= k <= size:
        raise ValueError(f"need 0 <= K <= {size}, got {k}")
    z = np.array([math.exp(-(10.0 ** (design_snr_db / 10.0)))])
    for _ in range(n):
        nxt = np.empty(2 * z.size)
        nxt[0::2] = 2.0 * z - z * z
        nxt[1::2] = z * z
        z = nxt
    order = sorted(range(size), key=lambda i: (-z[i], i))
    mask = np.zeros(size, dtype=np.int8)
    mask[order[: size - k]] = 1
    return mask


@dataclass(frozen=True)
class PolarCode:
    """Block code of length N = 2^n with K unfrozen input positions."""

    n: int
    K: int
    frozen_mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.frozen_mask.shape != (self.N,):
            raise ValueError("frozen mask length must equal N")
        if int(self.frozen_mask.sum()) != self.N - self.K:
            raise ValueError("frozen mask popcount must equal N - K")

    @property
    def N(self) -> int:
        return 1 << self.n

    @functools.cached_property
    def info_positions(self) -> np.ndarray:
        """Ascending unfrozen positions, computed once; read-only."""
        positions = np.flatnonzero(self.frozen_mask == 0)
        positions.setflags(write=False)
        return positions

    @classmethod
    def design(cls, N: int, K: int, design_snr_db: float = 0.0) -> "PolarCode":
        n = _require_pow2(N, "block length")
        return cls(n=n, K=K, frozen_mask=bhattacharyya_frozen_mask(n, K, design_snr_db))

    @classmethod
    def from_frozen_set(cls, N: int, frozen: set[int]) -> "PolarCode":
        n = _require_pow2(N, "block length")
        mask = np.zeros(N, dtype=np.int8)
        mask[sorted(frozen)] = 1
        return cls(n=n, K=N - len(frozen), frozen_mask=mask)


def polar_encode(info, code: PolarCode) -> np.ndarray:
    """Encode info bits: u places them at unfrozen positions, x = u F^(x)n.

    Natural (non-bit-reversed) output order. Accepts a batch as rows; the
    butterflies run in place on u.
    """
    info = as_bits(info)
    if info.shape[-1] != code.K:
        raise ValueError(f"expected {code.K} info bits, got {info.shape[-1]}")
    lead = info.shape[:-1]
    u = np.zeros(lead + (code.N,), dtype=np.int8)
    u[..., code.info_positions] = info
    step = 1
    while step < code.N:
        view = u.reshape(lead + (code.N // (2 * step), 2, step))
        view[..., 0, :] ^= view[..., 1, :]
        step *= 2
    return u


@functools.lru_cache(maxsize=32)
def _bit_reversal(n: int) -> np.ndarray:
    """Read-only permutation of 0..2^n-1 reversing n index bits; an involution."""
    perm = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        perm = np.concatenate([2 * perm, 2 * perm + 1])
    perm.setflags(write=False)
    return perm


def _minsum_into(x: np.ndarray, y: np.ndarray, out: np.ndarray,
                 mn: np.ndarray, mx: np.ndarray) -> None:
    """out = sign(x) sign(y) min(|x|, |y|) up to the sign of a zero, computed
    as max(min(x, y), -max(x, y)): exact, with no product. ``mn`` and ``mx``
    are scratch of the operands' shape."""
    np.minimum(x, y, out=mn)
    np.maximum(x, y, out=mx)
    np.negative(mx, out=mx)
    np.maximum(mn, mx, out=out)


def _llr_rows(llr) -> np.ndarray:
    """LLRs as a (batch, N) array; one vector is a batch of one row."""
    llr = as_llr(llr)
    if llr.ndim > 2:
        raise ValueError("expected one LLR vector or a (batch, N) array of them, "
                         f"got shape {llr.shape}")
    return np.atleast_2d(llr)


def bp_decode_soft(llr: np.ndarray, code: PolarCode, max_iters: int = 30) -> np.ndarray:
    """Min-sum belief propagation over the encoder factor graph.

    ``llr`` has shape (batch, N); returns post-decoding LLRs of the input
    (u-domain) positions with the same shape. Messages flow left (toward u)
    and right (toward the channel) through the n butterfly stages; frozen
    positions carry a +FROZEN_LLR prior. Each iteration is a right sweep over
    stages 0..n-2, then a left sweep back. There are right levels 0..n-1
    only: stage n-1 would write the right messages of level n, which no
    stage reads.

    The left messages of levels 1..n-1 are the only state that one iteration
    hands the next: the right sweep recomputes every right level from the
    frozen prior and them, and the left sweep recomputes them, and level 0,
    from the right levels and the channel. So once an iteration leaves them
    bit-for-bit unchanged, every later iteration would repeat it exactly,
    and the decoder may stop before ``max_iters`` with the output that all
    ``max_iters`` iterations give, byte for byte. The test reads
    the values as int64, which tells -0.0 from +0.0, and stays cheap on
    batches that never settle: each iteration only sums level 1's integers,
    a wrapping sum that an unchanged level must repeat. While that sum
    repeats, levels 1..n-1 are copied, and an iteration that leaves them
    equal to the copy ends the decode, at most one iteration after the
    first that changed nothing. Copying every level each iteration, or
    keeping a second set of left messages to compare with, made 1 dB
    batches of 32 rows measurably slower.

    Layout (constant geometry, after Pease 1968): message level s is one flat
    array of batch * N values. Its address holds the digits, from the most
    significant down, i[s], i[s+1], ..., i[n-1], r, i[0], ..., i[s-1], where
    i is the natural position and r, one radix-batch digit, the row. Stage s
    pairs the addresses that differ in bit i[s] only. That bit is the top
    digit of level s and the bottom digit of level s+1, and the other digits
    keep one order in both, so stage s reads level s as two contiguous halves
    ([:batch*N/2], [batch*N/2:]) and level s+1 as its even and odd elements
    ([0::2], [1::2]). Every ufunc operand is a 1-D array, which numpy runs
    faster than a (batch, N/2) view of the same size, let alone the 4-D
    views that natural order needs. Level n is the channel LLRs as (row,
    bit-reversed position), and level 0 is (bit-reversed position, row), so
    the frozen prior enters repeated once per row, and the result leaves
    through ``.reshape(N, batch).T[:, perm]`` (the bit reversal ``perm`` is
    its own inverse). No stage reads the left messages of level 0, only the
    result does, so stage 0 of the left sweep runs in the last iteration
    only. The message arrays, three half-size scratch arrays and the
    per-stage views are built once per call, and every update is written in
    place.
    """
    llr = _llr_rows(llr)
    batch, size = llr.shape
    if size != code.N:
        raise ValueError(f"expected {code.N} channel LLRs, got {size}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    stages = code.n
    half = batch * size // 2
    perm = _bit_reversal(stages)
    left = np.zeros((stages + 1, 2 * half))
    right = np.zeros((stages, 2 * half))
    left[stages] = llr[:, perm].ravel()
    right[0] = np.repeat(np.where(code.frozen_mask[perm] == 1, FROZEN_LLR, 0.0), batch)
    t, mn, mx = np.empty((3, half))
    right_views = [(right[s][:half], right[s][half:],
                    right[s + 1][0::2], right[s + 1][1::2],
                    left[s + 1][0::2], left[s + 1][1::2])
                   for s in range(stages - 1)]
    views = [(right[s][:half], right[s][half:],
              left[s][:half], left[s][half:],
              left[s + 1][0::2], left[s + 1][1::2])
             for s in range(stages)]
    # The left sweep's stage 0 feeds no stage; it runs apart.
    left_views = views[:0:-1]
    bits = left.view(np.int64)
    # After the last iteration: the sum of level 1's bits (that of +0.0 is
    # 0) and, while that sum repeats, a copy of levels 1..n-1.
    checksum, snapshot = 0, None

    def left_step(a, b, l_out_lo, l_out_hi, l_lo, l_hi):
        np.add(l_hi, b, out=t)
        _minsum_into(l_lo, t, l_out_lo, mn, mx)
        _minsum_into(a, l_lo, t, mn, mx)
        np.add(t, l_hi, out=l_out_hi)

    for it in range(max_iters):
        for a, b, r_lo, r_hi, l_lo, l_hi in right_views:
            np.add(l_hi, b, out=t)
            _minsum_into(a, t, r_lo, mn, mx)
            _minsum_into(a, l_lo, t, mn, mx)
            np.add(t, b, out=r_hi)
        for stage in left_views:
            left_step(*stage)
        total = bits[1].sum()
        settled = (total == checksum and snapshot is not None
                   and np.array_equal(bits[1:stages], snapshot))
        snapshot = bits[1:stages].copy() if total == checksum else None
        checksum = total
        if settled or it == max_iters - 1:
            left_step(*views[0])
            break
    return (left[0] + right[0]).reshape(size, batch).T[:, perm]


def bp_decode(llr, code: PolarCode, max_iters: int = 30) -> np.ndarray:
    """Decode one LLR vector back to the K info bits (ascending position)."""
    llr = as_llr(llr)
    if llr.ndim != 1:
        raise ValueError("bp_decode takes a single LLR vector; see bp_decode_many")
    soft = bp_decode_soft(llr[None, :], code, max_iters)
    return (soft[0, code.info_positions] < 0).astype(np.int8)


def bp_decode_many(llrs: np.ndarray, code: PolarCode, max_iters: int = 30) -> np.ndarray:
    """Batched hard-decision decode; rows of ``llrs`` are independent frames,
    decoded ``BP_CHUNK_ROWS`` at a time."""
    llrs = _llr_rows(llrs)
    out = np.empty((llrs.shape[0], code.K), dtype=np.int8)
    for start in range(0, llrs.shape[0], BP_CHUNK_ROWS):
        soft = bp_decode_soft(llrs[start:start + BP_CHUNK_ROWS], code, max_iters)
        out[start:start + BP_CHUNK_ROWS] = (soft[:, code.info_positions] < 0)
    return out


# ---------------------------------------------------------------------------
# rate matching


def rate_match_rv0(coded, E: int) -> np.ndarray:
    """Cyclic offset-0 bit selection: out[i] = coded[i mod N] for i < E.

    Accepts a batch as rows (N along the last axis).
    """
    coded = as_bits(coded)
    if coded.shape[-1] < 1:
        raise ValueError("coded block must be non-empty")
    if E < 1:
        raise ValueError("target length must be >= 1")
    return coded[..., np.arange(E) % coded.shape[-1]]


def rate_recover_rv0(llr, N: int) -> np.ndarray:
    """Adjoint of rate_match_rv0: sum repeats, zero never-sent positions."""
    llr = as_llr(llr)
    if N < 1:
        raise ValueError("coded length must be >= 1")
    out = np.zeros(N)
    np.add.at(out, np.arange(llr.size) % N, llr)
    return out


# ---------------------------------------------------------------------------
# scrambling


@functools.lru_cache(maxsize=512)
def _gold_bytes(c_init: int, length: int) -> bytes:
    total = GOLD_SEQUENCE_OFFSET + length
    x1 = np.zeros(total + 31, dtype=np.int8)
    x2 = np.zeros(total + 31, dtype=np.int8)
    x1[0] = 1
    for i in range(31):
        x2[i] = (c_init >> i) & 1
    for i in range(total):
        x1[i + 31] = x1[i + 3] ^ x1[i]
        x2[i + 31] = x2[i + 3] ^ x2[i + 2] ^ x2[i + 1] ^ x2[i]
    seq = x1[GOLD_SEQUENCE_OFFSET:total] ^ x2[GOLD_SEQUENCE_OFFSET:total]
    return seq.tobytes()


def gold_sequence(c_init: int, length: int) -> np.ndarray:
    """Length-31 Gold sequence: x1^31+x^3+1 (fixed init x1(0)=1) xor
    x2^31+x^3+x^2+x+1 (init from c_init), both discarded for the first
    GOLD_SEQUENCE_OFFSET outputs."""
    if not 0 <= c_init < 2**31:
        raise ValueError("c_init must fit in 31 bits")
    if length < 0:
        raise ValueError("length must be >= 0")
    return np.frombuffer(_gold_bytes(int(c_init), int(length)), dtype=np.int8).copy()


def scramble(bits, c_init) -> np.ndarray:
    """XOR with the Gold sequence of ``c_init``.

    Accepts a batch as rows; ``c_init`` is then one int for every row or a
    sequence of ints, one per row.
    """
    bits = as_bits(bits)
    length = bits.shape[-1]
    if np.ndim(c_init) == 0:
        return bits ^ gold_sequence(c_init, length)
    masks = np.array([gold_sequence(c, length) for c in c_init], dtype=np.int8)
    return bits ^ masks.reshape(-1, length)


def descramble_llr(llr, c_init: int) -> np.ndarray:
    """Soft-domain inverse of scramble: flip LLR sign where the mask bit is 1."""
    llr = as_llr(llr)
    signs = 1.0 - 2.0 * gold_sequence(c_init, llr.size)
    return llr * signs


# ---------------------------------------------------------------------------
# modulation


def qpsk_mod(bits) -> np.ndarray:
    """Gray-mapped QPSK: pair (b0, b1) -> ((1-2 b0) + j (1-2 b1)) / sqrt(2).

    Accepts a batch as rows; bits pair up along the last axis.
    """
    bits = as_bits(bits)
    if bits.shape[-1] % 2:
        raise ValueError("QPSK needs an even number of bits")
    i = 1.0 - 2.0 * bits[..., 0::2]
    q = 1.0 - 2.0 * bits[..., 1::2]
    return (i + 1j * q) / math.sqrt(2.0)


def qpsk_soft_demod(y, noise_var: float) -> np.ndarray:
    """Per-bit LLRs for QPSK under complex AWGN of variance ``noise_var``."""
    if noise_var <= 0:
        raise ValueError("noise variance must be positive")
    y = as_complex(y)
    scale = 2.0 * math.sqrt(2.0) / noise_var
    out = np.empty(2 * y.size)
    out[0::2] = scale * y.real
    out[1::2] = scale * y.imag
    return out


# ---------------------------------------------------------------------------
# OFDM


@dataclass(frozen=True)
class OfdmConfig:
    n_subcarriers: int = 128
    cp_len: int = 32

    def __post_init__(self):
        _require_pow2(self.n_subcarriers, "subcarrier count")
        if not 0 <= self.cp_len < self.n_subcarriers:
            raise ValueError("cyclic prefix must satisfy 0 <= cp < N")

    @property
    def symbol_len(self) -> int:
        return self.n_subcarriers + self.cp_len


def ofdm_modulate(freq, cfg: OfdmConfig) -> np.ndarray:
    """Inverse transform plus cyclic prefix (last cp_len samples prepended).

    Accepts a batch of symbols along the leading axes, subcarriers last.
    """
    freq = as_complex(freq)
    if freq.shape[-1] != cfg.n_subcarriers:
        raise ValueError(f"expected {cfg.n_subcarriers} subcarriers, got {freq.shape[-1]}")
    time = fft(freq, inverse=True)
    return np.concatenate([time[..., cfg.n_subcarriers - cfg.cp_len:], time], axis=-1)


def ofdm_demodulate(time, cfg: OfdmConfig) -> np.ndarray:
    """Strip the cyclic prefix and transform back to subcarriers.

    Accepts a batch of symbols along the leading axes, samples last.
    """
    time = as_complex(time)
    if time.shape[-1] != cfg.symbol_len:
        raise ValueError(f"expected {cfg.symbol_len} samples, got {time.shape[-1]}")
    return fft(time[..., cfg.cp_len:])


# ---------------------------------------------------------------------------
# channel estimation / equalization / channel


def ls_estimate(rx_pilots, tx_pilots) -> np.ndarray:
    """Least-squares channel estimate H[k] = rx[k] / tx[k]."""
    rx = as_complex(rx_pilots)
    tx = as_complex(tx_pilots)
    if rx.shape != tx.shape:
        raise ValueError("pilot vectors must have equal length")
    if np.any(np.abs(tx) <= DEGENERATE_EPS):
        raise DegeneratePilotError("transmitted pilot magnitude below threshold")
    return rx / tx


def zf_equalize(y, H) -> tuple[np.ndarray, int]:
    """Zero-forcing x_hat = y / H; near-zero taps are zeroed, not fatal.

    Returns (equalized, degenerate_subcarrier_count).
    """
    y = as_complex(y)
    H = as_complex(H)
    if y.shape != H.shape:
        raise ValueError("signal and channel vectors must have equal length")
    bad = np.abs(H) < DEGENERATE_EPS
    out = np.zeros_like(y)
    good = ~bad
    out[good] = y[good] / H[good]
    return out, int(bad.sum())


def awgn_channel(x, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Add circular complex Gaussian noise at the given SNR.

    ``snr_db=inf`` (or None) passes the signal through untouched. Noise power
    is mean |x|^2 / 10^(snr/10), split evenly between I and Q.
    """
    x = as_complex(x)
    if snr_db is None or math.isinf(snr_db):
        return x.copy()
    power = float(np.mean(np.abs(x) ** 2)) if x.size else 0.0
    var = power / (10.0 ** (snr_db / 10.0))
    if var == 0.0:
        return x.copy()
    sigma = math.sqrt(var / 2.0)
    noise = rng.normal(0.0, sigma, x.size) + 1j * rng.normal(0.0, sigma, x.size)
    return x + noise.reshape(x.shape)


def blind_detect(slot_truth: int) -> int:
    """Detection is modeled as oracle-correct; the value drives DAG pruning."""
    if not 0 <= slot_truth <= MAX_USERS_PER_SLOT:
        raise ValueError(f"user count must be in 0..{MAX_USERS_PER_SLOT}")
    return int(slot_truth)
