"""Kernel correctness against independent oracles and stated contracts."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wbpsim import kernels as K


# ---------------------------------------------------------------------------
# oracles


def dft_oracle(x, inverse=False):
    """Direct O(N^2) summation definition of the transform."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    sign = 2j if inverse else -2j
    grid = np.outer(np.arange(n), np.arange(n))
    mat = np.exp(sign * np.pi * grid / n)
    out = mat @ x
    return out / n if inverse else out


def dense_generator(n_stages: int) -> np.ndarray:
    """F^(x)n built by explicit Kronecker products."""
    f = np.array([[1, 0], [1, 1]], dtype=np.int64)
    g = np.array([[1]], dtype=np.int64)
    for _ in range(n_stages):
        g = np.kron(g, f)
    return g


def polar_encode_oracle(info, code: K.PolarCode) -> np.ndarray:
    u = np.zeros(code.N, dtype=np.int64)
    u[code.info_positions] = info
    return ((u @ dense_generator(code.n)) % 2).astype(np.int8)


class LfsrOracle:
    """Bit-serial shift registers stepped one output at a time."""

    def __init__(self, c_init: int):
        self.x1 = [1] + [0] * 30
        self.x2 = [(c_init >> i) & 1 for i in range(31)]

    def step_x1(self) -> int:
        out = self.x1[0]
        new = self.x1[3] ^ self.x1[0]
        self.x1 = self.x1[1:] + [new]
        return out

    def step_x2(self) -> int:
        out = self.x2[0]
        new = self.x2[3] ^ self.x2[2] ^ self.x2[1] ^ self.x2[0]
        self.x2 = self.x2[1:] + [new]
        return out

    def sequence(self, length: int) -> np.ndarray:
        out = []
        for n in range(K.GOLD_SEQUENCE_OFFSET + length):
            bit = self.step_x1() ^ self.step_x2()
            if n >= K.GOLD_SEQUENCE_OFFSET:
                out.append(bit)
        return np.array(out, dtype=np.int8)


# ---------------------------------------------------------------------------
# FFT


def test_fft_impulse_flat_spectrum():
    np.testing.assert_allclose(K.fft([1, 0, 0, 0]), np.ones(4))


def test_fft_matches_dft_oracle(rng):
    x = rng.normal(size=128) + 1j * rng.normal(size=128)
    np.testing.assert_allclose(K.fft(x), dft_oracle(x), atol=1e-9)
    np.testing.assert_allclose(K.fft(x, inverse=True), dft_oracle(x, inverse=True),
                               atol=1e-9)


def test_fft_roundtrip_all_sizes(rng):
    for n in (2, 4, 8, 64, 128, 512, 2048):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        back = K.fft(K.fft(x), inverse=True)
        assert np.max(np.abs(back - x)) < 1e-12 * max(1.0, np.max(np.abs(x)))


def test_fft_batch_rows_match_single(rng):
    x = rng.normal(size=(3, 64)) + 1j * rng.normal(size=(3, 64))
    batched = K.fft(x)
    for row in range(3):
        np.testing.assert_allclose(batched[row], K.fft(x[row]), atol=1e-12)


def test_fft_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        K.fft(np.ones(12, dtype=complex))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_fft_roundtrip_property(log_n, seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=1 << log_n) + 1j * gen.normal(size=1 << log_n)
    np.testing.assert_allclose(K.fft(K.fft(x), inverse=True), x, atol=1e-10)


# ---------------------------------------------------------------------------
# polar code


def test_polar_design_matches_known_frozen_set():
    code = K.PolarCode.design(8, 4)
    assert set(np.flatnonzero(code.frozen_mask)) == {0, 1, 2, 4}


def test_polar_info_positions_are_computed_once_and_read_only():
    code = K.PolarCode.design(8, 4)
    assert code.info_positions is code.info_positions
    np.testing.assert_array_equal(code.info_positions, [3, 5, 6, 7])
    with pytest.raises(ValueError):
        code.info_positions[0] = 0


def test_polar_encode_n2_identity_case():
    code = K.PolarCode.from_frozen_set(2, set())
    np.testing.assert_array_equal(K.polar_encode([1, 0], code), [1, 0])
    np.testing.assert_array_equal(K.polar_encode([1, 1], code), [0, 1])


def test_polar_encode_all_zero():
    code = K.PolarCode.design(16, 8)
    np.testing.assert_array_equal(K.polar_encode(np.zeros(8, dtype=np.int8), code),
                                  np.zeros(16, dtype=np.int8))


def test_polar_encode_matches_generator_matrix(rng):
    code = K.PolarCode.from_frozen_set(8, {0, 1, 2, 4})
    for _ in range(20):
        info = rng.integers(0, 2, 4, dtype=np.int8)
        np.testing.assert_array_equal(K.polar_encode(info, code),
                                      polar_encode_oracle(info, code))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_polar_encode_gf2_linear(a_bits, b_bits):
    code = K.PolarCode.design(32, 16)
    a = np.array([(a_bits >> i) & 1 for i in range(16)], dtype=np.int8)
    b = np.array([(b_bits >> i) & 1 for i in range(16)], dtype=np.int8)
    lhs = K.polar_encode(a ^ b, code)
    rhs = K.polar_encode(a, code) ^ K.polar_encode(b, code)
    np.testing.assert_array_equal(lhs, rhs)


def test_polar_encode_rejects_wrong_length():
    code = K.PolarCode.design(16, 8)
    with pytest.raises(ValueError):
        K.polar_encode(np.zeros(7, dtype=np.int8), code)


def test_bp_decode_noiseless_roundtrip(rng):
    code = K.PolarCode.design(64, 32)
    info = rng.integers(0, 2, (50, 32), dtype=np.int8)
    llr = 30.0 * (1.0 - 2.0 * K.polar_encode(info, code))
    np.testing.assert_array_equal(K.bp_decode_many(llr, code), info)


def test_bp_decode_all_frozen_empty_output():
    code = K.PolarCode.design(8, 0)
    out = K.bp_decode(np.ones(8), code, max_iters=2)
    assert out.size == 0


@pytest.mark.parametrize("decode", [K.bp_decode_soft, K.bp_decode_many])
def test_bp_decode_rejects_more_than_two_dimensions(decode):
    code = K.PolarCode.design(8, 4)
    with pytest.raises(ValueError) as err:
        decode(np.zeros((2, 4, 8)), code)
    assert str(err.value) == ("expected one LLR vector or a (batch, N) array of "
                              "them, got shape (2, 4, 8)")


def test_bp_decode_zero_rows():
    code = K.PolarCode.design(64, 32)
    llr = np.zeros((0, code.N))
    assert K.bp_decode_soft(llr, code, 30).shape == (0, code.N)
    assert K.bp_decode_many(llr, code).shape == (0, code.K)


def _qpsk_awgn_llrs(code, frames, ebn0_db, rng, rate):
    info = rng.integers(0, 2, (frames, code.K), dtype=np.int8)
    coded = K.polar_encode(info, code)
    # QPSK carries 2 coded bits per symbol at unit symbol energy.
    esn0 = ebn0_db + 10.0 * math.log10(2.0 * rate)
    noise_var = 1.0 / (10.0 ** (esn0 / 10.0))
    sigma = math.sqrt(noise_var / 2.0)
    i = 1.0 - 2.0 * coded[:, 0::2]
    q = 1.0 - 2.0 * coded[:, 1::2]
    y = (i + 1j * q) / math.sqrt(2.0)
    y = y + sigma * (rng.normal(size=y.shape) + 1j * rng.normal(size=y.shape))
    llr = np.empty((frames, code.N))
    scale = 2.0 * math.sqrt(2.0) / noise_var
    llr[:, 0::2] = scale * y.real
    llr[:, 1::2] = scale * y.imag
    return info, llr


def test_bp_decode_ber_non_increasing_with_snr(rng):
    code = K.PolarCode.design(512, 256)
    frames = 2000
    bers = []
    for ebn0 in (0.0, 2.0, 4.0, 6.0):
        info, llr = _qpsk_awgn_llrs(code, frames, ebn0, rng, rate=0.5)
        decoded = K.bp_decode_many(llr, code, max_iters=30)
        bers.append(np.mean(decoded != info))
    for lo, hi in zip(bers[1:], bers[:-1]):
        assert lo <= hi, f"BER curve not monotone: {bers}"
    assert bers[0] > bers[-1]


def test_bp_decode_many_matches_single_frame_decodes(rng):
    # 300 rows cross chunk boundaries of the batched path and end in a
    # partial chunk.
    assert 300 > K.BP_CHUNK_ROWS and 300 % K.BP_CHUNK_ROWS
    code = K.PolarCode.design(512, 256)
    _, llr = _qpsk_awgn_llrs(code, 300, 2.0, rng, rate=0.5)
    single = np.stack([K.bp_decode(row, code) for row in llr])
    np.testing.assert_array_equal(K.bp_decode_many(llr, code), single)


# ---------------------------------------------------------------------------
# BP decoder against the natural-layout reference loop


def _minsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def _butterfly(arr: np.ndarray, step: int) -> np.ndarray:
    """View of (batch, N) grouped as (batch, blocks, {lo, hi}, step)."""
    batch, size = arr.shape
    return arr.reshape(batch, size // (2 * step), 2, step)


def _reference_bp_decode_soft(llr: np.ndarray, code: K.PolarCode,
                              max_iters: int = 30) -> np.ndarray:
    """Min-sum BP with messages in natural index order: the same schedule and
    per-element arithmetic as the kernel, one stage at a time through 4-D
    butterfly views."""
    llr = np.atleast_2d(K.as_llr(llr))
    batch, size = llr.shape
    stages = code.n

    left = np.zeros((stages + 1, batch, size))
    right = np.zeros((stages + 1, batch, size))
    left[stages] = llr
    right[0][:, code.frozen_mask == 1] = K.FROZEN_LLR

    for _ in range(max_iters):
        for s in range(stages):
            r_in = _butterfly(right[s], 1 << s)
            l_in = _butterfly(left[s + 1], 1 << s)
            r_out = _butterfly(right[s + 1], 1 << s)
            a, b = r_in[:, :, 0], r_in[:, :, 1]
            l_lo, l_hi = l_in[:, :, 0], l_in[:, :, 1]
            r_out[:, :, 0] = _minsum(a, l_hi + b)
            r_out[:, :, 1] = _minsum(a, l_lo) + b
        for s in range(stages - 1, -1, -1):
            r_in = _butterfly(right[s], 1 << s)
            l_in = _butterfly(left[s + 1], 1 << s)
            l_out = _butterfly(left[s], 1 << s)
            a, b = r_in[:, :, 0], r_in[:, :, 1]
            l_lo, l_hi = l_in[:, :, 0], l_in[:, :, 1]
            l_out[:, :, 0] = _minsum(l_lo, l_hi + b)
            l_out[:, :, 1] = _minsum(a, l_lo) + l_hi
    return left[0] + right[0]


def _assert_matches_reference(llr, code, max_iters):
    got = K.bp_decode_soft(llr, code, max_iters)
    want = _reference_bp_decode_soft(llr, code, max_iters)
    # array_equal treats -0.0 == 0.0: min-sum may differ in the sign of a zero.
    assert np.array_equal(got, want)
    np.testing.assert_array_equal(got < 0, want < 0)


_LLR_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 2.0, -2.0]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 9), st.integers(1, 20), st.integers(1, 6))
def test_bp_decode_soft_matches_reference(data, n, batch, max_iters):
    size = 1 << n
    mask = data.draw(hnp.arrays(np.int8, size, elements=st.integers(0, 1)),
                     label="frozen_mask")
    code = K.PolarCode(n=n, K=size - int(mask.sum()), frozen_mask=mask)
    llr = data.draw(hnp.arrays(np.float64, (batch, size), elements=_LLR_VALUES),
                    label="llr")
    _assert_matches_reference(llr, code, max_iters)


def test_bp_decode_soft_matches_reference_on_workload_frames(rng):
    code = K.PolarCode.design(512, 256)
    info = rng.integers(0, 2, (3, code.K), dtype=np.int8)
    _assert_matches_reference(2.0 * (1.0 - 2.0 * K.polar_encode(info, code)),
                              code, 30)
    _, noisy = _qpsk_awgn_llrs(code, 4, 1.0, rng, rate=0.5)
    _assert_matches_reference(noisy, code, 30)


@pytest.mark.parametrize("max_iters", range(1, 9))
def test_bp_decode_soft_matches_reference_around_the_fixed_point(max_iters):
    # The noiseless frames' messages stop changing in iteration 5 and the
    # decoder stops in iteration 6, so max_iters 1-8 put the stop after, on
    # and before the last iteration.
    code, llr = _noiseless_frames()
    _assert_matches_reference(llr, code, max_iters)


def test_bp_decode_soft_stops_early_only_on_frames_that_settle(monkeypatch):
    calls = []
    minsum = K._minsum_into

    def counting(*args):
        calls.append(None)
        minsum(*args)

    monkeypatch.setattr(K, "_minsum_into", counting)
    # 30 iterations of 8 right and 8 left stages at 2 min-sums each, plus
    # the left stage 0 that only the last iteration runs.
    full = 30 * 32 + 2
    code, clean = _noiseless_frames()
    K.bp_decode_soft(clean, code, 30)
    assert len(calls) <= full // 3
    # At 1 dB the messages still change in the 30th iteration.
    _, noisy = _qpsk_awgn_llrs(code, 10, 1.0, np.random.default_rng(1), rate=0.5)
    calls.clear()
    K.bp_decode_soft(noisy, code, 30)
    assert len(calls) == full


# Frames whose messages repeat in part or return to an earlier state, with
# no fixed point: on the first, level 1 repeats from one iteration to the
# next while deeper levels still change; the second cycles through four
# states from the first iteration on. A stop on either would return other
# values than 30 iterations do.
@pytest.mark.parametrize("frozen,llr", [
    ({0, 3, 4, 5, 7, 8, 12, 13, 14},
     [0.5, -2.0, 3e-8, 3e-8, 0.5, -1e6, 0.0, -1e6,
      -1e-9, 1e6, -1e9, -2.0, 1e9, 2.0, -1e9, -0.0]),
    ({0, 2, 7, 9, 13},
     [1e-9, 0.0, -0.0, 0.5, 0.0, 2.0, -1e-9, -1e-9,
      -1e6, 1e9, 0.0, -1e9, 3e-8, 1e9, 1e9, -1e-9]),
], ids=["level-1-repeats", "cycle"])
def test_bp_decode_soft_does_not_stop_short_of_a_fixed_point(frozen, llr):
    code = K.PolarCode.from_frozen_set(16, frozen)
    _assert_matches_reference(np.array([llr]), code, 30)


def _workload_frames():
    # Ten users' frames at 3 dB, where some rows converge before others.
    code = K.PolarCode.design(512, 256)
    _, llr = _qpsk_awgn_llrs(code, 10, 3.0, np.random.default_rng(1), rate=0.5)
    return code, llr


def _noiseless_frames():
    # Ten users' noiseless frames, the input of every perfbench and
    # acceptance run: the LLRs are +-2, as a unit-variance QPSK demod gives.
    code = K.PolarCode.design(512, 256)
    info = np.random.default_rng(1).integers(0, 2, (10, code.K), dtype=np.int8)
    return code, 2.0 * (1.0 - 2.0 * K.polar_encode(info, code))


def _noisy_short_frames():
    rng = np.random.default_rng(1)
    code = K.PolarCode.design(64, 32)
    info = rng.integers(0, 2, (3, code.K), dtype=np.int8)
    llr = 2.0 * (1.0 - 2.0 * K.polar_encode(info, code)) + rng.normal(0, 1.0, (3, 64))
    llr[:, ::32] = 0.0
    llr[1, 4] = -0.0
    return code, llr


# SHA-256 of the soft outputs' bytes: unlike the reference comparison, this
# also fixes the sign of every zero.
@pytest.mark.parametrize("frames,sha", [
    (_workload_frames,
     "62349eece0fbafe2c7a4bab1e53544e1279f831f39e7e0a42e932fb5f85a8cf9"),
    (_noiseless_frames,
     "9c60bdf2e37a783709b59777e4c2fcdd5cb60da2db5e39fce057873403c0261d"),
    (_noisy_short_frames,
     "7f942359a0bc8fa7dcc5d5f3c111308357e32f1519429d4e0c9d2fa7d8ad210c"),
])
def test_bp_decode_soft_bytes_golden(frames, sha):
    code, llr = frames()
    soft = K.bp_decode_soft(llr, code, 30)
    assert soft.shape == llr.shape and soft.dtype == np.float64
    assert hashlib.sha256(soft.tobytes()).hexdigest() == sha


# ---------------------------------------------------------------------------
# rate matching


def test_rate_match_identity_and_puncture():
    coded = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.int8)
    np.testing.assert_array_equal(K.rate_match_rv0(coded, 8), coded)
    np.testing.assert_array_equal(K.rate_match_rv0(coded, 4), coded[:4])


def test_rate_match_cyclic_repetition():
    coded = np.array([1, 0, 1, 1], dtype=np.int8)
    np.testing.assert_array_equal(K.rate_match_rv0(coded, 6), [1, 0, 1, 1, 1, 0])


def test_rate_match_rejects_zero_target():
    with pytest.raises(ValueError):
        K.rate_match_rv0(np.ones(4, dtype=np.int8), 0)


def test_rate_recover_identity_and_puncture_fill():
    llr = np.arange(1.0, 5.0)
    np.testing.assert_array_equal(K.rate_recover_rv0(llr, 4), llr)
    out = K.rate_recover_rv0(llr, 8)
    np.testing.assert_array_equal(out[:4], llr)
    np.testing.assert_array_equal(out[4:], np.zeros(4))


def test_rate_recover_sums_repeats():
    np.testing.assert_array_equal(K.rate_recover_rv0(np.ones(6), 4), [2, 2, 1, 1])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 32), st.integers(1, 80))
def test_rate_recover_conserves_llr_mass(n, e):
    llr = np.arange(1.0, e + 1.0)
    assert K.rate_recover_rv0(llr, n).sum() == pytest.approx(llr.sum())


# ---------------------------------------------------------------------------
# scrambling


def test_gold_sequence_zero_seed_is_pure_x1():
    lone = LfsrOracle(0)
    np.testing.assert_array_equal(K.gold_sequence(0, 128), lone.sequence(128))


def test_gold_sequence_matches_lfsr_oracle():
    np.testing.assert_array_equal(K.gold_sequence(1, 64), LfsrOracle(1).sequence(64))


def test_gold_sequence_componentwise_for_any_seed():
    for c_init in (3, 12345, 2**31 - 1):
        np.testing.assert_array_equal(K.gold_sequence(c_init, 100),
                                      LfsrOracle(c_init).sequence(100))


def test_scramble_is_involution(rng):
    bits = rng.integers(0, 2, 256, dtype=np.int8)
    np.testing.assert_array_equal(K.scramble(K.scramble(bits, 77), 77), bits)


def test_scramble_zero_input_reveals_sequence():
    zeros = np.zeros(64, dtype=np.int8)
    np.testing.assert_array_equal(K.scramble(zeros, 9), K.gold_sequence(9, 64))


def test_scramble_matches_xor_oracle(rng):
    bits = rng.integers(0, 2, 256, dtype=np.int8)
    seq = K.gold_sequence(41, 256)
    np.testing.assert_array_equal(K.scramble(bits, 41),
                                  np.bitwise_xor(bits, seq))


def test_descramble_llr_involution_and_sign_rule(rng):
    llr = rng.normal(size=100)
    seq = K.gold_sequence(5, 100)
    once = K.descramble_llr(llr, 5)
    np.testing.assert_array_equal(once[seq == 0], llr[seq == 0])
    np.testing.assert_allclose(K.descramble_llr(once, 5), llr)


# ---------------------------------------------------------------------------
# QPSK


def test_qpsk_constellation_points():
    s = 1 / math.sqrt(2)
    np.testing.assert_allclose(K.qpsk_mod([0, 0]), [complex(s, s)])
    np.testing.assert_allclose(K.qpsk_mod([1, 1]), [complex(-s, -s)])
    for bits in ([0, 0], [0, 1], [1, 0], [1, 1]):
        assert abs(K.qpsk_mod(bits)[0]) == pytest.approx(1.0)


def test_qpsk_rejects_odd_length():
    with pytest.raises(ValueError):
        K.qpsk_mod([1, 0, 1])


def test_qpsk_demod_signs_and_roundtrip():
    for bits in ([0, 0], [0, 1], [1, 0], [1, 1]):
        llr = K.qpsk_soft_demod(K.qpsk_mod(bits), noise_var=0.5)
        hard = (llr < 0).astype(np.int8)
        np.testing.assert_array_equal(hard, bits)
    llr = K.qpsk_soft_demod(K.qpsk_mod([0, 0]), noise_var=1.0)
    assert np.all(llr > 0)


def test_qpsk_demod_llr_scales_inversely_with_noise_var(rng):
    y = rng.normal(size=8) + 1j * rng.normal(size=8)
    np.testing.assert_allclose(K.qpsk_soft_demod(y, 0.5),
                               2.0 * K.qpsk_soft_demod(y, 1.0))


def test_qpsk_demod_rejects_bad_noise_var():
    with pytest.raises(ValueError):
        K.qpsk_soft_demod(np.ones(2, dtype=complex), 0.0)


# ---------------------------------------------------------------------------
# OFDM


def test_ofdm_cyclic_prefix_structure(rng):
    cfg = K.OfdmConfig(n_subcarriers=64, cp_len=16)
    freq = rng.normal(size=64) + 1j * rng.normal(size=64)
    out = K.ofdm_modulate(freq, cfg)
    assert out.size == 80
    np.testing.assert_allclose(out[:16], out[64:])


def test_ofdm_roundtrip(rng):
    cfg = K.OfdmConfig(n_subcarriers=128, cp_len=32)
    freq = rng.normal(size=128) + 1j * rng.normal(size=128)
    back = K.ofdm_demodulate(K.ofdm_modulate(freq, cfg), cfg)
    assert np.max(np.abs(back - freq)) < 1e-12


def test_ofdm_single_subcarrier_closed_form():
    cfg = K.OfdmConfig(n_subcarriers=32, cp_len=8)
    for k in (0, 3, 17):
        freq = np.zeros(32, dtype=complex)
        freq[k] = 1.0
        body = K.ofdm_modulate(freq, cfg)[8:]
        expected = np.exp(2j * np.pi * k * np.arange(32) / 32) / 32
        np.testing.assert_allclose(body, expected, atol=1e-12)


def test_ofdm_cyclic_shift_is_phase_rotation(rng):
    # Shift theorem: delaying the body rotates subcarrier k by exp(-2i pi k s / N).
    cfg = K.OfdmConfig(n_subcarriers=64, cp_len=16)
    freq = rng.normal(size=64) + 1j * rng.normal(size=64)
    time = K.ofdm_modulate(freq, cfg)
    body = time[16:]
    for shift in (1, 5):
        rolled = np.roll(body, shift)
        shifted = np.concatenate([rolled[-16:], rolled])
        got = K.ofdm_demodulate(shifted, cfg)
        expected = freq * np.exp(-2j * np.pi * np.arange(64) * shift / 64)
        np.testing.assert_allclose(got, expected, atol=1e-10)


def test_ofdm_flat_channel_scales_spectrum(rng):
    cfg = K.OfdmConfig(n_subcarriers=32, cp_len=8)
    freq = rng.normal(size=32) + 1j * rng.normal(size=32)
    scaled = K.ofdm_demodulate(2.5 * K.ofdm_modulate(freq, cfg), cfg)
    np.testing.assert_allclose(scaled, 2.5 * freq, atol=1e-12)


def test_ofdm_length_validation():
    cfg = K.OfdmConfig(n_subcarriers=32, cp_len=8)
    with pytest.raises(ValueError):
        K.ofdm_modulate(np.ones(16, dtype=complex), cfg)
    with pytest.raises(ValueError):
        K.ofdm_demodulate(np.ones(32, dtype=complex), cfg)


# ---------------------------------------------------------------------------
# estimation / equalization / channel


def test_ls_estimate_identity_and_inversion(rng):
    tx = K.qpsk_mod(rng.integers(0, 2, 64, dtype=np.int8))
    np.testing.assert_allclose(K.ls_estimate(tx, tx), np.ones(32))
    h = rng.normal(size=32) + 1j * rng.normal(size=32)
    np.testing.assert_allclose(K.ls_estimate(h * tx, tx), h)


def test_ls_estimate_rejects_degenerate_pilot():
    with pytest.raises(K.DegeneratePilotError):
        K.ls_estimate(np.ones(4, dtype=complex), np.array([1, 1, 0, 1], dtype=complex))


def test_ls_estimate_awgn_error_bound(rng):
    # At 30 dB pilot SNR the LS error power stays ~30 dB below the channel.
    n_sub, trials = 64, 100
    errs, refs = [], []
    for _ in range(trials):
        tx = K.qpsk_mod(rng.integers(0, 2, 2 * n_sub, dtype=np.int8))
        h = rng.normal(size=n_sub) + 1j * rng.normal(size=n_sub)
        rx = K.awgn_channel(h * tx, 30.0, rng)
        est = K.ls_estimate(rx, tx)
        errs.append(np.mean(np.abs(est - h) ** 2))
        refs.append(np.mean(np.abs(h) ** 2))
    assert np.mean(errs) < 1e-3 * np.mean(refs) * 10  # margin over 10^-3
    assert np.mean(errs) < np.mean(refs) * 5e-3


def test_zf_equalize_identity_and_inversion(rng):
    y = rng.normal(size=16) + 1j * rng.normal(size=16)
    out, bad = K.zf_equalize(y, np.ones(16))
    np.testing.assert_allclose(out, y)
    assert bad == 0
    h = rng.normal(size=16) + 1j * rng.normal(size=16)
    out, _ = K.zf_equalize(h * y, h)
    np.testing.assert_allclose(out, y)


def test_zf_equalize_zeroes_degenerate_taps():
    h = np.ones(4, dtype=complex)
    h[2] = 0.0
    out, bad = K.zf_equalize(np.ones(4, dtype=complex), h)
    assert bad == 1
    assert out[2] == 0.0


def test_awgn_channel_contracts(rng):
    x = K.qpsk_mod(rng.integers(0, 2, 2 * 10**5, dtype=np.int8))
    y = K.awgn_channel(x, 10.0, np.random.default_rng(7))
    measured = np.mean(np.abs(y - x) ** 2)
    expected = np.mean(np.abs(x) ** 2) / 10.0
    assert abs(measured - expected) < 0.05 * expected
    np.testing.assert_array_equal(K.awgn_channel(x, math.inf, rng), x)
    a = K.awgn_channel(x, 5.0, np.random.default_rng(3))
    b = K.awgn_channel(x, 5.0, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)


def test_blind_detect_is_oracle_passthrough():
    assert K.blind_detect(20) == 20
    assert K.blind_detect(0) == 0
    assert K.blind_detect(3) == 3
    with pytest.raises(ValueError):
        K.blind_detect(21)


# ---------------------------------------------------------------------------
# end-to-end functional chain


def loopback(info, code, e, c_init, cfg, bp_iters=30):
    coded = K.polar_encode(info, code)
    matched = K.rate_match_rv0(coded, e)
    scrambled = K.scramble(matched, c_init)
    syms = K.qpsk_mod(scrambled)
    blocks = syms.reshape(-1, cfg.n_subcarriers)
    rx_llr = []
    h_ref = np.ones(cfg.n_subcarriers, dtype=complex)
    for block in blocks:
        time = K.ofdm_modulate(block, cfg)
        freq = K.ofdm_demodulate(time, cfg)
        est = K.ls_estimate(h_ref, h_ref)  # flat unit channel
        eq, _ = K.zf_equalize(freq, est)
        rx_llr.append(K.qpsk_soft_demod(eq, noise_var=1.0))
    llr = K.descramble_llr(np.concatenate(rx_llr), c_init)
    recovered = K.rate_recover_rv0(llr, code.N)
    return K.bp_decode(recovered, code, max_iters=bp_iters)


def test_noiseless_loopback_small():
    code = K.PolarCode.design(64, 32)
    cfg = K.OfdmConfig(n_subcarriers=32, cp_len=8)
    gen = np.random.default_rng(11)
    for _ in range(10):
        info = gen.integers(0, 2, 32, dtype=np.int8)
        np.testing.assert_array_equal(loopback(info, code, 64, 19, cfg), info)


def test_descramble_after_demod_consistent_with_bits(rng):
    bits = rng.integers(0, 2, 64, dtype=np.int8)
    scrambled = K.scramble(bits, 23)
    llr = K.qpsk_soft_demod(K.qpsk_mod(scrambled), noise_var=1.0)
    descrambled = K.descramble_llr(llr, 23)
    np.testing.assert_array_equal((descrambled < 0).astype(np.int8), bits)


# ---------------------------------------------------------------------------
# batch axis of the transmit-chain kernels: a batched call equals the same
# kernel called row by row, byte for byte


def test_rate_match_batch_equals_rows(rng):
    for shape, E in (((3, 8), 12), ((2, 4, 16), 10), ((0, 8), 8)):
        coded = rng.integers(0, 2, shape, dtype=np.int8)
        rows = coded.reshape(-1, shape[-1])
        out = K.rate_match_rv0(coded, E)
        assert out.shape == shape[:-1] + (E,)
        expected = [K.rate_match_rv0(row, E) for row in rows]
        assert out.reshape(-1, E).tobytes() == b"".join(r.tobytes() for r in expected)


def test_scramble_batch_equals_rows(rng):
    bits = rng.integers(0, 2, (4, 40), dtype=np.int8)
    seeds = [5, 6, 2**31 - 1, 0]
    out = K.scramble(bits, seeds)
    assert out.dtype == np.int8
    assert out.tobytes() == b"".join(K.scramble(row, c).tobytes()
                                     for row, c in zip(bits, seeds))
    shared = K.scramble(bits, 9)  # one seed for every row
    assert shared.tobytes() == b"".join(K.scramble(row, 9).tobytes() for row in bits)
    assert K.scramble(np.zeros((0, 40), dtype=np.int8), []).shape == (0, 40)


def test_qpsk_batch_equals_rows(rng):
    bits = rng.integers(0, 2, (3, 2, 64), dtype=np.int8)
    out = K.qpsk_mod(bits)
    assert out.shape == (3, 2, 32)
    assert out.tobytes() == b"".join(K.qpsk_mod(row).tobytes()
                                     for row in bits.reshape(-1, 64))


def test_ofdm_modulate_batch_equals_rows(rng):
    cfg = K.OfdmConfig(n_subcarriers=32, cp_len=8)
    freq = rng.normal(size=(5, 3, 32)) + 1j * rng.normal(size=(5, 3, 32))
    out = K.ofdm_modulate(freq, cfg)
    assert out.shape == (5, 3, 40)
    assert out.tobytes() == b"".join(K.ofdm_modulate(row, cfg).tobytes()
                                     for row in freq.reshape(-1, 32))
    assert K.ofdm_modulate(np.zeros((0, 3, 32)), cfg).shape == (0, 3, 40)


def test_ofdm_demodulate_batch_equals_rows(rng):
    cfg = K.OfdmConfig(n_subcarriers=32, cp_len=8)
    time = rng.normal(size=(5, 3, 40)) + 1j * rng.normal(size=(5, 3, 40))
    out = K.ofdm_demodulate(time, cfg)
    assert out.shape == (5, 3, 32)
    assert out.tobytes() == b"".join(K.ofdm_demodulate(row, cfg).tobytes()
                                     for row in time.reshape(-1, 40))
    assert K.ofdm_demodulate(np.zeros((0, 40)), cfg).shape == (0, 32)
    with pytest.raises(ValueError, match="^expected 40 samples, got 32$"):
        K.ofdm_demodulate(np.ones((2, 32)), cfg)


@pytest.mark.parametrize("call,message", [
    (lambda: K.rate_match_rv0(np.zeros(0, dtype=np.int8), 4),
     "coded block must be non-empty"),
    (lambda: K.rate_match_rv0(np.ones(4, dtype=np.int8), 0),
     "target length must be >= 1"),
    (lambda: K.rate_match_rv0([0, 2], 4), "bit vector entries must be 0 or 1"),
    (lambda: K.scramble([0, 1], 2**31), "c_init must fit in 31 bits"),
    (lambda: K.scramble([0, 3], 1), "bit vector entries must be 0 or 1"),
    (lambda: K.qpsk_mod([1, 0, 1]), "QPSK needs an even number of bits"),
    (lambda: K.qpsk_mod(np.zeros((2, 3), dtype=np.int8)),
     "QPSK needs an even number of bits"),
    (lambda: K.ofdm_modulate(np.ones(16), K.OfdmConfig(32, 8)),
     "expected 32 subcarriers, got 16"),
    (lambda: K.ofdm_modulate(np.ones((2, 16)), K.OfdmConfig(32, 8)),
     "expected 32 subcarriers, got 16"),
])
def test_transmit_kernel_errors(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
