import numpy as np
import pytest

from unscodec.config import CodecConfig
from unscodec.transforms import (WindowSpec, frame_count, frame_signal, imdct, make_window, mdct,
                                 overlap_add, sine_window)

SPEC = CodecConfig().window_spec
SPECS = (SPEC, WindowSpec(512, 128, SPEC.edge), WindowSpec(1024, 256, edge=0.0),
         WindowSpec(256, 128, edge=0.3))


def test_window_spec_rejects_oversized_overlap():
    with pytest.raises(ValueError):
        WindowSpec(frame_len=1024, overlap_len=513, edge=SPEC.edge)


def test_window_center_is_one():
    w = make_window(SPEC)
    assert w[512] == 1.0
    assert np.all(w[256:768] == 1.0)


def test_window_taper_midpoint_near_half():
    w = make_window(SPEC)
    assert abs(w[128] - 0.5) < 5e-3


def test_window_complementarity():
    for spec in SPECS:
        w = make_window(spec)
        hop = spec.hop
        ov = spec.overlap_len
        s = w[:ov] + w[hop:hop + ov]
        assert np.max(np.abs(s - 1.0)) < 1e-12


def test_window_has_no_zero_sides():
    w = make_window(SPEC)
    assert w[0] > 0.0
    assert w[-1] > 0.0


def test_frame_counts_and_starts():
    spec = SPEC
    frames = frame_signal(np.ones(2048), spec)
    assert frames.shape == (3, spec.frame_len)
    # last frame covers 1536..2559, zero padded beyond 2048
    w = make_window(spec)
    assert np.allclose(frames[2][512:], 0.0)
    assert np.allclose(frames[2][:512], w[:512])


def test_constant_input_frames_equal_window():
    spec = SPEC
    frames = frame_signal(np.ones(4096), spec)
    w = make_window(spec)
    assert np.allclose(frames[1], w)


def test_empty_input_gives_no_frames():
    assert frame_signal(np.zeros(0), SPEC).shape == (0, SPEC.frame_len)


def loop_frames(pcm, spec):
    """The frames as the per-frame loop the stacked framing replaced cut them."""
    n, w, frames = spec.frame_len, make_window(spec), []
    for k in range(frame_count(pcm.size, spec)):
        chunk = pcm[k * spec.hop:k * spec.hop + n]
        if chunk.size < n:
            chunk = np.concatenate([chunk, np.zeros(n - chunk.size)])
        frames.append(chunk * w)
    return frames


def loop_overlap_add(frames, spec, length):
    """Overlap-add as the per-frame loop the stacked one replaced summed it."""
    out = np.zeros((len(frames) - 1) * spec.hop + spec.frame_len if frames else 0)
    for k, frame in enumerate(frames):
        out[k * spec.hop:k * spec.hop + spec.frame_len] += frame
    return out[:length]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.frame_len}-{s.overlap_len}-{s.edge}")
def test_stacked_framing_equals_the_frame_loop_bit_for_bit(spec):
    rng = np.random.default_rng(6)
    for n in (0, 1, spec.hop - 1, spec.frame_len, spec.frame_len + 1, 3 * spec.hop + 5):
        pcm = rng.standard_normal(n)
        pcm[::7] = -0.0  # signed zeros must come out as the loop leaves them
        frames, want = frame_signal(pcm, spec), loop_frames(pcm, spec)
        assert frames.shape == (len(want), spec.frame_len)
        assert [row.tobytes() for row in frames] == [row.tobytes() for row in want]
        rec = overlap_add(frames, spec)[:n]
        assert rec.tobytes() == loop_overlap_add(want, spec, n).tobytes()


def test_frame_ola_roundtrip_white_noise():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10000)
    spec = SPEC
    frames = frame_signal(x, spec)
    rec = overlap_add(frames, spec)[:x.size]
    seg = slice(spec.frame_len // 2, -(spec.frame_len // 2))
    rel = np.sqrt(np.sum((x[seg] - rec[seg]) ** 2) / np.sum(x[seg] ** 2))
    assert rel < 1e-10


def test_dft_of_unit_impulse():
    x = np.zeros(1024)
    x[0] = 1.0
    bins = np.fft.rfft(x)
    assert bins.size == 513
    assert np.allclose(bins, 1.0 + 0.0j, atol=1e-12)


def test_dft_of_bin_centered_cosine():
    n = np.arange(1024)
    x = np.cos(2.0 * np.pi * 4.0 * n / 1024.0)
    bins = np.fft.rfft(x)
    assert abs(abs(bins[4]) - 512.0) < 1e-8
    others = np.delete(np.abs(bins), 4)
    assert others.max() < 1e-8


def test_dft_parseval():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(1024)
    bins = np.fft.rfft(x)
    lhs = np.sum(x ** 2)
    rhs = (abs(bins[0]) ** 2 + abs(bins[512]) ** 2
           + 2.0 * np.sum(np.abs(bins[1:512]) ** 2)) / 1024.0
    assert abs(lhs - rhs) / lhs < 1e-9


def test_dft_linearity():
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal(1024), rng.standard_normal(1024)
    bx = np.fft.rfft(x)
    by = np.fft.rfft(y)
    bxy = np.fft.rfft(2.0 * x - 3.0 * y)
    assert np.allclose(bxy, 2.0 * bx - 3.0 * by, rtol=1e-9, atol=1e-9)


def test_idft_inverts_dft():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(1024)
    rec = np.fft.irfft(np.fft.rfft(x), n=x.size)
    assert np.sqrt(np.mean((rec - x) ** 2)) < 1e-10


def test_mdct_zero_input():
    assert np.allclose(mdct(np.zeros(1024)), 0.0)


def test_mdct_rejects_odd_length():
    with pytest.raises(ValueError):
        mdct(np.zeros(1023))


def test_mdct_tdac_roundtrip():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(8192)
    n = 1024
    hop = n // 2
    win = sine_window(n)
    rec = np.zeros(x.size)
    for k in range((x.size - n) // hop + 1):
        chunk = x[k * hop:k * hop + n]
        rec[k * hop:k * hop + n] += imdct(mdct(chunk * win)) * win
    seg = slice(hop, -hop)
    assert np.sqrt(np.mean((x[seg] - rec[seg]) ** 2)) < 1e-10


def test_single_frame_mdct_has_aliasing():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(1024)
    win = sine_window(1024)
    rec = imdct(mdct(x * win)) * win
    err = np.sqrt(np.mean((x - rec) ** 2)) / np.sqrt(np.mean(x ** 2))
    assert err > 0.1
