"""Cost model: anchor exactness, fitted interpolation, lane scaling, DMA."""

import math

import pytest

from wbpsim.costmodel import (CostModel, CostParams, CycleAnchor, DmaTiming,
                              InsufficientAnchorsError, TileTiming,
                              bp_anchor_from_throughput, dma_cycles,
                              fit_scaling, lane_scale_factor, parse_anchor_text)

REF_TILE = TileTiming(lanes=64)
L_TILE = TileTiming(lanes=16)
S_TILE = TileTiming(lanes=8)

FFT_ANCHORS = [
    CycleAnchor("fft", 128, 251, 64),
    CycleAnchor("fft", 512, 1122, 64),
    CycleAnchor("fft", 2048, 5073, 64),
]


def default_model() -> CostModel:
    return CostModel.default()


def test_fft_anchor_points_exact():
    model = default_model()
    assert model.kernel_cycles("fft", 128, REF_TILE) == 251
    assert model.kernel_cycles("fft", 512, REF_TILE) == 1122
    assert model.kernel_cycles("fft", 2048, REF_TILE) == 5073


def test_fft_interpolated_size_follows_fitted_law():
    model = default_model()
    a, b, _ = fit_scaling(FFT_ANCHORS)
    expected = round(a * 256 * math.log2(256) + b)
    assert model.kernel_cycles("fft", 256, REF_TILE) == expected
    assert 251 < model.kernel_cycles("fft", 256, REF_TILE) < 1122


def test_fit_residuals_small_at_anchors():
    _, _, residuals = fit_scaling(FFT_ANCHORS)
    assert all(abs(r) < 0.10 for r in residuals)


def test_fit_exact_line_zero_residual():
    anchors = [CycleAnchor("fft", n, int(2 * n * math.log2(n) + 10), 64)
               for n in (64, 256, 1024)]
    a, b, residuals = fit_scaling(anchors)
    assert a == pytest.approx(2.0, rel=1e-6)
    assert all(abs(r) < 1e-6 for r in residuals)


def test_fit_requires_two_anchors():
    with pytest.raises(InsufficientAnchorsError):
        fit_scaling([CycleAnchor("fft", 128, 251, 64)])


def test_bp_anchor_derivation():
    a512 = bp_anchor_from_throughput(0.54, 512, 64)
    a1024 = bp_anchor_from_throughput(0.53, 1024, 64)
    assert abs(a512.cycles - 512e3 / (0.54 * 64)) <= 1
    assert abs(a1024.cycles - 1024e3 / (0.53 * 64)) <= 1
    assert a512.cycles == 14815
    assert a1024.cycles == 30189


def test_bp_anchor_lane_halving():
    base = bp_anchor_from_throughput(0.5, 1024, 32)
    doubled = bp_anchor_from_throughput(0.5, 1024, 64)
    assert base.cycles == 2 * doubled.cycles


def test_lane_scaling_direction_and_floor():
    model = default_model()
    ref = model.kernel_cycles("fft", 128, REF_TILE)
    large = model.kernel_cycles("fft", 128, L_TILE)
    small = model.kernel_cycles("fft", 128, S_TILE)
    assert ref < large < small
    sf = model.params.serial_fraction
    assert large == round(251 * (sf + (1 - sf) * 64 / 16))
    # cycles never drop below the serial fraction of the base
    huge = TileTiming(lanes=4096)
    assert model.kernel_cycles("fft", 128, huge) >= round(sf * 251)


def test_lane_scale_factor_identity_at_ref():
    assert lane_scale_factor(64, 64, 0.2) == pytest.approx(1.0)


def test_monotone_in_size_across_anchor_and_fit():
    model = default_model()
    for tile in (REF_TILE, L_TILE, S_TILE):
        sizes = (64, 128, 256, 512, 1024, 2048, 4096)
        cycles = [model.kernel_cycles("fft", n, tile) for n in sizes]
        assert all(lo < hi for lo, hi in zip(cycles, cycles[1:])), cycles


def test_unanchored_kernels_use_estimate_laws():
    model = default_model()
    assert "scramble" in model.estimated
    assert "fft" not in model.estimated
    assert "bp" not in model.estimated
    assert model.kernel_cycles("scramble", 512, L_TILE) >= 1


def test_unknown_kernel_and_bad_size_rejected():
    model = default_model()
    with pytest.raises(ValueError):
        model.kernel_cycles("nonsense", 64, L_TILE)
    with pytest.raises(ValueError):
        model.kernel_cycles("fft", 0, L_TILE)


def test_dma_cycles_contract():
    timing = DmaTiming(setup_cycles=20, bytes_per_cycle=16, csr_write_cycles=4)
    assert dma_cycles(0, timing) == 20
    assert dma_cycles(16, timing) == 21
    assert dma_cycles(1000, timing) == 83  # 20 + ceil(62.5)
    with pytest.raises(ValueError):
        dma_cycles(-1, timing)


def test_anchor_file_parsing_roundtrip(tmp_path):
    text = "# comment\nfft,128,251,64\nbp,512,14815,64  # inline\n"
    anchors = parse_anchor_text(text)
    assert len(anchors) == 2
    assert anchors[0] == CycleAnchor("fft", 128, 251, 64)
    path = tmp_path / "anchors.txt"
    path.write_text(text)
    model = CostModel.from_anchor_file(path, CostParams())
    assert model.anchors[("fft", 128)].cycles == 251


def test_anchor_file_errors():
    with pytest.raises(ValueError):
        parse_anchor_text("fft,128,251\n")
    with pytest.raises(ValueError):
        parse_anchor_text("fft,abc,251,64\n")
    with pytest.raises(ValueError):
        CostModel(parse_anchor_text("junk,1,1,1\n"), CostParams())
