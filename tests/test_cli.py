import csv
import os
import re
import struct
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from unscodec import cli, codec, signals
from unscodec.config import CodecConfig, load_config, save_config
from unscodec.entropy_bitstream import StreamHeader
from unscodec.polar_quant import EcupqTable
from unscodec.resample import resample_to_core
from unscodec.transforms import frame_count
from unscodec.wavio import WavFormatError, read_wav, write_wav


def write_pcm16(path, samples, rate):
    body = (np.clip(samples, -1, 1) * 32767.0).astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, rate, rate * 2, 2, 16)
    chunks = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(body)) + body
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", len(chunks)) + chunks)


def test_wav_float_roundtrip_bit_identical(tmp_path):
    path = str(tmp_path / "x.wav")
    x = np.random.default_rng(0).standard_normal(5000).astype(np.float32)
    write_wav(path, x, 12800)
    out, rate = read_wav(path)
    assert rate == 12800
    assert np.array_equal(out.astype(np.float32), x)


def test_wav_pcm16_normalization(tmp_path):
    path = str(tmp_path / "p.wav")
    body = np.array([-32768, 0, 32767], dtype="<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    chunks = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(body)) + body
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", len(chunks)) + chunks)
    out, rate = read_wav(path)
    assert out[0] == -1.0
    assert out[1] == 0.0
    assert abs(out[2] - 32767.0 / 32768.0) < 1e-12


def test_wav_stereo_downmix(tmp_path):
    path = str(tmp_path / "s.wav")
    inter = np.empty(200, dtype=np.float32)
    inter[0::2] = 0.5
    inter[1::2] = -0.25
    fmt = struct.pack("<HHIIHH", 3, 2, 12800, 12800 * 8, 8, 32)
    body = inter.tobytes()
    chunks = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(body)) + body
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", len(chunks)) + chunks)
    out, _ = read_wav(path)
    assert np.allclose(out, 0.125)


def test_wav_truncated_header_names_missing_chunk(tmp_path):
    path = str(tmp_path / "t.wav")
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", 4) + b"WAVE")
    with pytest.raises(WavFormatError, match="fmt"):
        read_wav(path)


@pytest.mark.parametrize("channels, payload", [(1, b"\0" * 3), (2, b"\0" * 6)])
def test_wav_ragged_data_chunk_raises_format_error(tmp_path, channels, payload):
    # 16-bit data that does not end on a whole sample frame
    path = str(tmp_path / "r.wav")
    fmt = struct.pack("<HHIIHH", 1, channels, 8000, 16000 * channels, 2 * channels, 16)
    chunks = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", len(chunks)) + chunks)
    with pytest.raises(WavFormatError, match="whole number"):
        read_wav(path)


def riff(chunks, form=b"WAVE"):
    """A RIFF file of the given (id, body) chunks."""
    body = form + b"".join(cid + struct.pack("<I", len(data)) + data for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("data, message", [
    (b"RIFF\0\0", "missing RIFF chunk"),
    (riff([], form=b"AVI "), "not a RIFF/WAVE file"),
    (riff([(b"fmt ", b"\1\0\1\0")]), "fmt chunk too short"),
    (riff([(b"fmt ", struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16))])[:28],
     "fmt chunk too short"),  # declares 16 bytes, holds 8
    (riff([(b"fmt ", struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16))]), "missing data chunk"),
    (riff([(b"fmt ", struct.pack("<HHIIHH", 1, 3, 8000, 48000, 6, 16)), (b"data", b"\0" * 6)]),
     "unsupported channel count 3"),
    (riff([(b"fmt ", struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)), (b"data", b"\0" * 1000)])
     [:-994], "data chunk declares 1000 bytes but holds 6"),  # was read as 3 samples
    (riff([(b"fmt ", struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)), (b"data", b"\0" * 1000)])
     [:-995], "data chunk declares 1000 bytes but holds 5"),
], ids=["short", "not-wave", "short-fmt", "cut-fmt", "no-data", "3-channel", "cut-data",
        "cut-data-odd"])
def test_wav_rejects_malformed_files(tmp_path, data, message):
    path = str(tmp_path / "m.wav")
    with open(path, "wb") as f:
        f.write(data)
    with pytest.raises(WavFormatError, match=message):
        read_wav(path)


def test_wav_rejects_unsupported_codec(tmp_path):
    path = str(tmp_path / "u.wav")
    fmt = struct.pack("<HHIIHH", 7, 1, 8000, 8000, 1, 8)  # mu-law tag
    chunks = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", 0)
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", len(chunks)) + chunks)
    with pytest.raises(WavFormatError, match="tag"):
        read_wav(path)


def test_resample_passthrough():
    x = np.sin(np.arange(1000) * 0.1)
    y = resample_to_core(x, 12800)
    assert np.array_equal(x, y)


def test_resample_dc_gain():
    y = resample_to_core(np.ones(48000), 48000)
    assert np.max(np.abs(y[200:-200] - 1.0)) < 1e-4


def test_resample_sinusoid_snr():
    t = np.arange(48000) / 48000.0
    x = np.sin(2 * np.pi * 1000.0 * t)
    y = resample_to_core(x, 48000)
    ty = np.arange(y.size) / 12800.0
    ideal = np.sin(2 * np.pi * 1000.0 * ty)
    seg = slice(500, y.size - 500)
    snr = 10 * np.log10(np.sum(ideal[seg] ** 2) / np.sum((y[seg] - ideal[seg]) ** 2))
    assert snr > 60.0


def test_resample_rejects_unsupported_rate():
    with pytest.raises(ValueError):
        resample_to_core(np.zeros(100), 4000)


@pytest.mark.parametrize("rate", [8000, 16000, 32000, 44100])
def test_resample_common_rates(rate):
    t = np.arange(rate) / rate
    x = np.sin(2 * np.pi * 997.0 * t)
    y = resample_to_core(x, rate)
    assert abs(y.size - 12800) <= 1
    ty = np.arange(y.size) / 12800.0
    ideal = np.sin(2 * np.pi * 997.0 * ty)
    seg = slice(500, y.size - 500)
    snr = 10 * np.log10(np.sum(ideal[seg] ** 2) / np.sum((y[seg] - ideal[seg]) ** 2))
    assert snr > 60.0


# (file text, key the error must name); each was accepted or failed without
# naming its file, line and key before the loader was derived from the fields
BAD_CONFIGS = [
    ("no_such_parameter = 5\n", "no_such_parameter"),
    ("[ecupq]\nlevels = 0, 1, 2, 3, 4, 5, 6, 7\n", "thresholds"),
    ("[foo]\nx = 1\n", "foo"),
    ("[ecupq]\nno_such_parameter = 1\n", "no_such_parameter"),
    ("ctns_enabled = maybe\n", "ctns_enabled"),
    ("lpc_order = abc\n", "lpc_order"),
    ("[ecupq]\nthresholds = 0.1, 0.6, 5.056\nlevels = 0, 1, 2, 3, 4, 5, 6, 7\n", "8 thresholds"),
    ("[ecupq]\nthresholds = 0.1, 0.6, 1, 1.4, 1.9, 2.3, 2.9, 5.056\n"
     "levels = 0.2, 1, 2, 3, 4, 5, 6, 7\n", "deadzone level"),
    ("[ecupq]\nthresholds = 0.1, 0.6, 0.5, 1.4, 1.9, 2.3, 2.9, 5.056\n"
     "levels = 0, 1, 2, 3, 4, 5, 6, 7\n", "strictly increasing"),
]


def test_config_rejects_unknown_key(tmp_path):
    # one test over every case, so the test keeps its name in the suite
    from unscodec.config import ConfigError
    path = str(tmp_path / "bad.cfg")
    for text, key in BAD_CONFIGS:
        with open(path, "w") as f:
            f.write(text)
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert f"{path}:" in str(exc.value), text
        assert key in str(exc.value), text


def test_config_rejects_wrong_table_lengths(tmp_path):
    # a budget per band and a phase-cell count per index1 class 0..7, checked
    # where the config is made rather than deep inside encode_stream
    from unscodec.config import ConfigError
    for key, value in (("bits_12k", (45, 34, 30)), ("bits_16k", (67,) * 9),
                       ("phase_cells_high", (1, 8, 16)), ("phase_cells_low", (1,) * 9)):
        with pytest.raises(ConfigError, match=key):
            CodecConfig(**{key: value})
    path = str(tmp_path / "short.cfg")
    with open(path, "w") as f:
        f.write("bits_12k = 45, 34, 30\n")
    with pytest.raises(ConfigError, match=f"{path}: bits_12k"):
        load_config(path)
    cfg = CodecConfig(band_edges=(100, 512), bits_12k=(30, 40), bits_16k=(40, 50))
    assert cfg.budget == (30, 40)


def test_config_rejects_bad_values_at_construction(tmp_path):
    # each was accepted and then corrupted the stream, or failed only at
    # encode or decode time, before the config checked it
    from unscodec.config import ConfigError
    cells = (1, 8, 16, 16, 32, 32, 64, 64)
    for kwargs in (dict(phase_cells_high=(1, 12) + cells[2:]),
                   dict(phase_cells_low=(0,) + cells[1:]),
                   dict(clpc_phase_cells=48),
                   dict(band_edges=(90, 40, 512), bits_12k=(9,) * 3, bits_16k=(9,) * 3),
                   dict(band_edges=(40, 40, 512), bits_12k=(9,) * 3, bits_16k=(9,) * 3),
                   dict(band_edges=(0, 90, 512), bits_12k=(9,) * 3, bits_16k=(9,) * 3),
                   dict(bits_12k=(45, 34, 30, 23, 19, 16, 16, 0)),
                   dict(bits_16k=(67, 50, 45, -34, 29, 23, 23, 23)),
                   dict(lpc_order=15), dict(lpc_order=0), dict(lpc_order=-2),
                   dict(lpc_order=256),  # the header field is one byte
                   dict(lsf_step=0.0), dict(clpc_mag_step_db=0.0), dict(clpc_mag_step_db=-0.5),
                   dict(ctns_start_bin=-5),
                   dict(fdns_weight=1.5), dict(fdns_weight=0.0), dict(ctns_weight=0.0),
                   dict(ctns_weight=float("nan")),
                   dict(sample_rate=16000),  # input is always resampled to 12.8 kHz
                   dict(clpc_mag_floor_db=30.0), dict(clpc_mag_ceil_db=-70.0),
                   dict(window_edge=2.0), dict(overlap_len=600),
                   dict(mode="8k"),
                   dict(band_edges=(40, 90, 500), bits_12k=(9,) * 3, bits_16k=(9,) * 3),
                   # CTNS filters bins ctns_start_bin .. frame_len / 2 - 1 only
                   dict(ctns_start_bin=512), dict(ctns_start_bin=600), dict(ctns_start_bin=5000),
                   # NaN fails every threshold test: CTNS never engages, every
                   # band is low-contrast, or the LSFs turn NaN at encode
                   dict(ctns_threshold_db=float("nan")), dict(fer_threshold=float("nan")),
                   dict(lsf_min_gap=float("nan")),
                   # order + 1 gaps must fit below pi, or the gap repair pushes
                   # the LSFs past it and the decoded model is not minimum phase
                   dict(lsf_min_gap=0.5), dict(lsf_min_gap=0.0), dict(lsf_min_gap=-0.1),
                   dict(lsf_min_gap=np.pi / 3 + 1e-9, lpc_order=2),
                   # a band's FER share lies in [0, 1]: outside it every band has
                   # one contrast and the phase resolution silently changes
                   dict(fer_threshold=1.5), dict(fer_threshold=1.0),
                   dict(fer_threshold=-1.0)):
        with pytest.raises(ConfigError):
            CodecConfig(**kwargs)
    for name, kwargs in (
            # an empty band list raised a bare IndexError
            ("band_edges", dict(band_edges=(), bits_12k=(), bits_16k=())),
            # the last rfft bin of an odd frame is complex, yet it is coded as a real
            # Nyquist bin and its imaginary part dropped
            ("frame_len", dict(frame_len=1025)),
            # the CTNS fit runs over frame_len / 2 bins, so the first encode raised
            # "max_lag 16 must be below signal length 16"
            ("lpc_order", dict(frame_len=32, overlap_len=8, band_edges=(16,), bits_12k=(9,),
                               bits_16k=(9,), lpc_order=16, ctns_start_bin=2)),
            # a flat prior of MODEL_LIMIT symbols or more fills its bank, so every coded
            # symbol halves the bank: 1e-5 made a 0.5 s encode take over 5 s
            ("lsf_step", dict(lsf_step=1e-5)),
            ("clpc_mag_step_db", dict(clpc_mag_step_db=1e-3))):
        with pytest.raises(ConfigError, match=name):
            CodecConfig(**kwargs)
    CodecConfig(lsf_min_gap=np.pi / 3, lpc_order=2)  # the largest gap that fits
    CodecConfig(fer_threshold=0.0)
    path = str(tmp_path / "cells.cfg")
    with open(path, "w") as f:
        f.write("clpc_phase_cells = 48\n")
    with pytest.raises(ConfigError, match=f"{path}: .*powers of two"):
        load_config(path)


def test_config_refuses_frame_geometry_the_header_cannot_hold():
    # frame_len and overlap_len are u16 header fields: a larger one was accepted and then
    # failed encode_stream with a bare struct.error from StreamHeader.pack
    from unscodec.config import ConfigError
    edges = (40, 90, 140, 200, 260, 330, 410)
    for overlap in (256, 65536):
        with pytest.raises(ConfigError, match="frame_len must be at most 65535, not 131072"):
            CodecConfig(frame_len=131072, overlap_len=overlap, band_edges=edges + (65536,))
    cfg = CodecConfig(frame_len=65534, overlap_len=32767, band_edges=edges + (32767,))
    header = codec.stream_header(cfg, 1)
    assert StreamHeader.unpack(header.pack()) == header


def test_config_rejects_a_clpc_grid_whose_table_overflows():
    # the dequantizer's cell table covers the largest magnitude and phase index,
    # padded to 256 cells; an infinite cell in it made the stability guard raise
    # LinAlgError, so the last grid that keeps it finite must decode its top cell
    from unscodec import lp
    from unscodec.config import ConfigError
    for kwargs in (dict(clpc_mag_ceil_db=6084.0), dict(clpc_mag_ceil_db=7000.0),
                   dict(clpc_phase_cells=16384), dict(clpc_mag_step_db=float("inf")),
                   dict(clpc_mag_floor_db=-float("inf")), dict(clpc_mag_ceil_db=float("inf"))):
        with pytest.raises(ConfigError):
            CodecConfig(**kwargs)
    for cfg in (CodecConfig(clpc_mag_ceil_db=6083.5), CodecConfig(clpc_phase_cells=8192)):
        top = lp.clpc_mag_index_max(cfg.clpc_mag_step_db, cfg.clpc_mag_floor_db,
                                    cfg.clpc_mag_ceil_db)
        idx = np.zeros((2, cfg.lpc_order, 2), dtype=int)
        idx[0, 0], idx[1, :, 1] = (top, 0), cfg.clpc_phase_cells - 1
        assert np.isfinite(codec.derive_clpc(idx, cfg)).all()


@st.composite
def drawn_configs(draw):
    """Keyword arguments of a CodecConfig over the frame, band, LP and quantizer-grid settings,
    legal or not."""
    frame_len = draw(st.integers(16, 64) | st.integers(16, 4096))  # short frames bound lpc_order
    half = frame_len // 2
    edges = sorted(draw(st.sets(st.integers(1, half - 1), max_size=6)))  # then 0 or 1 more
    last = ((half,), (half,), (half,), (), (draw(st.integers(1, half)),))
    edges = (*edges, *draw(st.sampled_from(last)))
    bits = tuple(draw(st.integers(1, 60)) for _ in edges)
    return dict(frame_len=frame_len, overlap_len=draw(st.integers(1, half)),
                band_edges=edges, bits_12k=bits, bits_16k=bits,
                lpc_order=draw(st.integers(2, 16)),
                lsf_step=draw(st.floats(1e-7, 2.0)),
                clpc_mag_step_db=draw(st.floats(1e-3, 10.0)),
                clpc_phase_cells=draw(st.sampled_from((1, 2, 64, 1024))),
                ctns_start_bin=draw(st.integers(-1, half + 1)))


@given(kwargs=drawn_configs())
def test_drawn_configs_are_refused_or_code(kwargs):
    # a config is refused when built, or it codes: a flat prior below the range coder's
    # bank limit, and a noise round trip of three frames that comes back whole and finite
    from unscodec.config import ConfigError
    from unscodec.entropy_bitstream import MODEL_LIMIT
    try:
        cfg = CodecConfig(**kwargs)
    except ConfigError:
        return
    assert cfg.layout.lsf_alphabet < MODEL_LIMIT
    assert len(cfg.layout.clpc_mag_model[1]) < MODEL_LIMIT
    pcm = 0.3 * np.random.default_rng(1).standard_normal(cfg.frame_len + 2 * cfg.window_spec.hop)
    decoded = codec.decode_stream(codec.encode_stream(pcm, cfg)[0], cfg)[0]
    assert decoded.shape == pcm.shape and np.isfinite(decoded).all()


def test_built_configs_and_headers_are_frozen():
    # each assignment let encode_stream write a stream that decode_stream then
    # refused, or failed partway through encoding; a config comes only from its
    # constructor, dataclasses.replace or with_mode, and each runs every check
    from unscodec.config import ConfigError
    cfg = CodecConfig()
    for name, value in (("phase_cells_high", (1, 3, 16, 16, 32, 32, 64, 64)),
                        ("lsf_min_gap", 0.5), ("fer_threshold", float("nan")),
                        ("mode", "24k"), ("bits_12k", (45, 34, 30)), ("lpc_order", 15)):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, value)
        with pytest.raises(ConfigError):
            replace(cfg, **{name: value})
    assert cfg == CodecConfig()
    header = codec.stream_header(cfg, 12800)
    with pytest.raises(FrozenInstanceError):
        header.original_length = 1
    assert cfg.with_mode("16k").budget == cfg.bits_16k


# save_config(CodecConfig()) as written before the frame layout and the wire
# alphabets were derived from the config in one place
SAVED_DEFAULT = """\
# unscodec configuration

sample_rate = 12800
frame_len = 1024
overlap_len = 256
window_edge = 0.15
band_edges = 40, 90, 140, 200, 260, 330, 410, 512
bits_12k = 45, 34, 30, 23, 19, 16, 16, 16
bits_16k = 67, 50, 45, 34, 29, 23, 23, 23
lpc_order = 16
fdns_weight = 0.98
ctns_weight = 0.9
ctns_threshold_db = -4.5
ctns_start_bin = 25
ctns_enabled = true
fer_threshold = 0.125
phase_cells_high = 1, 8, 16, 16, 32, 32, 64, 64
phase_cells_low = 1, 4, 8, 8, 16, 16, 32, 32
lsf_step = 0.031415926535897934
lsf_min_gap = 0.001
clpc_mag_step_db = 0.5
clpc_mag_floor_db = -60.0
clpc_mag_ceil_db = 20.0
clpc_phase_cells = 64
mode = 12k

[ecupq]
thresholds = 0.10002145347689399, 0.5923245576004721, 1.0158351089207314, \
1.4368262547623647, 1.8717702824906262, 2.3459899013972203, 2.932406802980782, 5.056
levels = 0.0, 0.39826938550745106, 0.8108674703325153, 1.220461352915259, \
1.638045806040988, 2.078908076238058, 2.5771120398735383, 3.2425708120290717
design_rate = 2.495
version = rayleigh-2.495-v1
"""


def test_config_schema_is_pinned(tmp_path):
    # the file format is the dataclass fields: its keys, in order, with the
    # [ecupq] section last; a file saved by the earlier code loads unchanged
    path = str(tmp_path / "default.cfg")
    save_config(CodecConfig(), path)
    with open(path) as f:
        text = f.read()
    keys = [line.split("=")[0].strip() if "=" in line else line
            for line in text.splitlines() if line and not line.startswith("#")]
    assert keys == [
        "sample_rate", "frame_len", "overlap_len", "window_edge", "band_edges", "bits_12k",
        "bits_16k", "lpc_order", "fdns_weight", "ctns_weight", "ctns_threshold_db",
        "ctns_start_bin", "ctns_enabled", "fer_threshold", "phase_cells_high",
        "phase_cells_low", "lsf_step", "lsf_min_gap", "clpc_mag_step_db", "clpc_mag_floor_db",
        "clpc_mag_ceil_db", "clpc_phase_cells", "mode",
        "[ecupq]", "thresholds", "levels", "design_rate", "version"]
    assert text == SAVED_DEFAULT
    saved = str(tmp_path / "saved.cfg")
    with open(saved, "w") as f:
        f.write(SAVED_DEFAULT)
    assert load_config(saved) == CodecConfig()


def test_table_version_must_fit_the_stream_header(tmp_path):
    # the header holds 24 ASCII bytes: a longer tag was cut short, so its own
    # decoder refused the stream, and a non-ASCII one failed to encode
    from unscodec.config import ConfigError
    table = CodecConfig().ecupq
    for version in ("rayleigh-2.495-retrained-2026", "rayleigh-2.495-\u00e9"):
        with pytest.raises(ValueError, match="24 ASCII"):
            replace(table, version=version)
    cfg = CodecConfig(ecupq=replace(table, version="rayleigh-2.495-retrained"))
    blob, _ = codec.encode_stream(signals.tone(500.0, 0.2), cfg)
    assert codec.decode_stream(blob, cfg)[1].table_version == cfg.ecupq.version
    path = str(tmp_path / "long.cfg")
    with open(path, "w") as f:
        f.write(SAVED_DEFAULT.replace("rayleigh-2.495-v1", "rayleigh-2.495-retrained-2026"))
    with pytest.raises(ConfigError, match=re.escape(f"{path}:27: [ecupq]: version")):
        load_config(path)


def test_config_rejects_malformed_line(tmp_path):
    from unscodec.config import ConfigError
    path = str(tmp_path / "bad2.cfg")
    with open(path, "w") as f:
        f.write("just some words\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_file_roundtrip(tmp_path):
    path = str(tmp_path / "c.cfg")
    custom_table = EcupqTable(thresholds=(0.1, 0.6, 1.0, 1.4, 1.9, 2.3, 2.9, 5.056),
                              levels=(0.0, 0.4, 0.8, 1.2, 1.6, 2.1, 2.6, 3.2),
                              design_rate=2.0, version="hand-made")
    custom = CodecConfig(lpc_order=12, fdns_weight=0.95, ctns_enabled=False,
                         lsf_step=0.02, bits_12k=(40, 30, 30, 20, 20, 15, 15, 15),
                         phase_cells_low=(1, 2, 4, 8, 8, 16, 16, 16), mode="16k",
                         ecupq=custom_table)
    for cfg in (CodecConfig(), CodecConfig(mode="16k"), custom):
        save_config(cfg, path)
        out = load_config(path)
        assert out == cfg
        assert out.band_edges == cfg.band_edges
        assert out.bits_12k == cfg.bits_12k
        assert out.bits_16k == cfg.bits_16k
        assert out.lpc_order == cfg.lpc_order
        assert abs(out.lsf_step - cfg.lsf_step) < 1e-15
        assert np.allclose(out.ecupq.thresholds, cfg.ecupq.thresholds)
        assert np.allclose(out.ecupq.levels, cfg.ecupq.levels)
        assert out.ecupq.version == cfg.ecupq.version


def test_cli_encode_decode_analyze(tmp_path):
    wav_in = str(tmp_path / "in.wav")
    stream = str(tmp_path / "a.uns")
    wav_out = str(tmp_path / "out.wav")
    pcm = signals.harmonic_tone(220.0, 1.0)
    write_wav(wav_in, pcm, 12800)

    assert cli.main(["encode", wav_in, stream, "--mode", "12k"]) == 0
    assert os.path.exists(stream)
    assert cli.main(["decode", stream, wav_out]) == 0
    out, rate = read_wav(wav_out)
    assert rate == 12800
    assert out.size == pcm.size
    assert cli.main(["analyze", wav_in, wav_out,
                     "--report-dir", str(tmp_path)]) == 0
    assert os.path.exists(tmp_path / "segsnr.csv")


def test_cli_encode_report_has_one_row_per_frame(tmp_path):
    wav_in = str(tmp_path / "in.wav")
    stream = str(tmp_path / "a.uns")
    write_wav(wav_in, signals.speechish(1.0), 12800)
    assert cli.main(["encode", wav_in, stream, "--mode", "12k",
                     "--report-dir", str(tmp_path / "rep")]) == 0
    with open(tmp_path / "rep" / "frame_diagnostics.csv") as f:
        rows = f.read().strip().splitlines()
    assert rows[0].startswith("frame,gain_db,ctns_flag")
    frames = frame_count(12800, CodecConfig().window_spec)  # 17 frames at 768-sample hops
    assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(frames))


def test_cli_reports_share_one_csv_dialect(tmp_path):
    wav_in, stream, wav_out = (str(tmp_path / n) for n in ("in.wav", "a.uns", "out.wav"))
    write_wav(wav_in, signals.click_train(1.2)[0], 12800)
    rep = str(tmp_path / "rep")
    assert cli.main(["encode", wav_in, stream, "--mode", "12k", "--report-dir", rep]) == 0
    assert cli.main(["decode", stream, wav_out]) == 0
    assert cli.main(["analyze", wav_in, wav_out, "--report-dir", rep]) == 0
    assert cli.main(["tns-compare", wav_in, "--report-dir", rep]) == 0
    endings = set()
    for name in ("frame_diagnostics.csv", "segsnr.csv", "tns_compare.csv"):
        with open(os.path.join(rep, name), "rb") as f:
            lines = f.read().splitlines(keepends=True)
        endings |= {line[len(line.rstrip(b"\r\n")):] for line in lines}
        with open(os.path.join(rep, name), newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) > 1 and {len(r) for r in rows} == {len(rows[0])}, name
    assert endings == {b"\r\n"}


def test_cli_summary_lines_show_mode_and_rate(tmp_path, capsys):
    wav_in, stream, wav_out = (str(tmp_path / n) for n in ("in.wav", "a.uns", "out.wav"))
    write_wav(wav_in, signals.speechish(1.0), 12800)
    assert cli.main(["encode", wav_in, stream, "--mode", "16k"]) == 0
    assert cli.main(["decode", stream, wav_out]) == 0
    kbps = 8.0 * os.path.getsize(stream) / 1000.0  # one second of audio
    enc, dec = capsys.readouterr().out.splitlines()
    assert enc == (f"encoded 17 frames in 16k mode, {os.path.getsize(stream)} bytes "
                   f"({kbps:.2f} kbit/s) -> {stream}")
    # decode takes no mode: the header's is shown
    assert dec == f"decoded 12800 samples at 12800 Hz in 16k mode ({kbps:.2f} kbit/s) -> {wav_out}"


def test_cli_analyze_resamples_a_16k_decoded_file(tmp_path, capsys):
    # the same tone written at 12.8 and at 16 kHz: only resampling lines them up
    ref, dec = str(tmp_path / "ref.wav"), str(tmp_path / "dec16.wav")
    write_wav(ref, 0.5 * np.sin(2 * np.pi * 440.0 * np.arange(12800) / 12800), 12800)
    write_wav(dec, 0.5 * np.sin(2 * np.pi * 440.0 * np.arange(16000) / 16000), 16000)
    assert cli.main(["analyze", ref, dec]) == 0
    mean = float(re.search(r"segSNR mean: (\S+) dB over 50 segments", capsys.readouterr().out)[1])
    assert mean > 25.0


def test_cli_analyze_identical_files_hits_clamp(tmp_path, capsys):
    wav = str(tmp_path / "ref.wav")
    write_wav(wav, signals.harmonic_tone(220.0, 0.5), 12800)
    assert cli.main(["analyze", wav, wav]) == 0
    out = capsys.readouterr().out
    assert "segSNR mean: 35.00 dB" in out


def test_cli_encode_resamples_other_rates(tmp_path):
    wav_in = str(tmp_path / "in48.wav")
    stream = str(tmp_path / "b.uns")
    t = np.arange(48000) / 48000.0
    write_pcm16(wav_in, 0.5 * np.sin(2 * np.pi * 440 * t), 48000)
    assert cli.main(["encode", wav_in, stream, "--mode", "16k"]) == 0
    with open(stream, "rb") as f:
        from unscodec.entropy_bitstream import StreamHeader
        header = StreamHeader.unpack(f.read())
    assert header.sample_rate_hz == 12800
    assert header.original_length == 12800


def test_cli_16k_stream_larger_than_12k(tmp_path):
    wav_in = str(tmp_path / "in.wav")
    pcm = signals.speechish(1.5)
    write_wav(wav_in, pcm, 12800)
    s12 = str(tmp_path / "s12.uns")
    s16 = str(tmp_path / "s16.uns")
    assert cli.main(["encode", wav_in, s12, "--mode", "12k"]) == 0
    assert cli.main(["encode", wav_in, s16, "--mode", "16k"]) == 0
    assert os.path.getsize(s16) > os.path.getsize(s12)


def test_cli_determinism(tmp_path):
    wav_in = str(tmp_path / "in.wav")
    pcm = signals.speechish(1.0)
    write_wav(wav_in, pcm, 12800)
    a = str(tmp_path / "a.uns")
    b = str(tmp_path / "b.uns")
    assert cli.main(["encode", wav_in, a, "--mode", "12k"]) == 0
    assert cli.main(["encode", wav_in, b, "--mode", "12k"]) == 0
    with open(a, "rb") as f:
        da = f.read()
    with open(b, "rb") as f:
        db = f.read()
    assert da == db


def test_cli_debug_bypass_writes_reconstruction(tmp_path):
    wav_in = str(tmp_path / "in.wav")
    wav_out = str(tmp_path / "bypass.wav")
    pcm = signals.harmonic_tone(220.0, 1.0)
    write_wav(wav_in, pcm, 12800)
    assert cli.main(["encode", wav_in, wav_out, "--mode", "12k",
                     "--debug-bypass"]) == 0
    out, _ = read_wav(wav_out)
    seg = slice(1024, -1024)
    err = out[seg] - pcm[seg]
    assert np.sqrt(np.mean(err ** 2)) < 1e-6  # float32 file rounding


def test_cli_tns_compare_synthetic(tmp_path):
    report_dir = str(tmp_path / "rep")
    assert cli.main(["tns-compare", "--report-dir", report_dir]) == 0
    assert os.path.exists(os.path.join(report_dir, "tns_compare.csv"))


def test_cli_tns_compare_wav_input(tmp_path, capsys):
    wav_in = str(tmp_path / "clicks.wav")
    write_wav(wav_in, signals.click_train(1.2)[0], 12800)
    report_dir = str(tmp_path / "rep")
    assert cli.main(["tns-compare", wav_in, "--report-dir", report_dir]) == 0
    with open(os.path.join(report_dir, "tns_compare.csv")) as f:
        rows = f.read().strip().splitlines()
    assert len(rows) == 1 + 15360 // 512  # one row per half-frame hop
    assert "transient-region" not in capsys.readouterr().out  # no attack list for a file


def test_cli_design_ecupq(tmp_path):
    out = str(tmp_path / "table.cfg")
    assert cli.main(["design-ecupq", out]) == 0
    cfg = load_config(out)
    assert abs(cfg.ecupq.thresholds[-1] - 5.056) < 1e-12


def test_cli_designed_table_codes_and_is_named_in_the_header(tmp_path):
    from unscodec.entropy_bitstream import StreamError
    out = str(tmp_path / "rate2.cfg")
    assert cli.main(["design-ecupq", out, "--rate", "2.0"]) == 0
    cfg = load_config(out)
    pcm = signals.speechish(0.5)
    blob, _ = codec.encode_stream(pcm, cfg)
    decoded, header, _ = codec.decode_stream(blob, cfg)
    assert header.table_version == "rayleigh-2-v1"
    assert decoded.shape == pcm.shape and np.isfinite(decoded).all()
    with pytest.raises(StreamError, match="table_version"):
        codec.decode_stream(blob, CodecConfig())


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["encode", "only_one_arg"])
    assert exc.value.code == 1


def test_cli_processing_error_exit_code(tmp_path):
    missing = str(tmp_path / "missing.wav")
    assert cli.main(["encode", missing, str(tmp_path / "o.uns"),
                     "--mode", "12k"]) == 2


def test_cli_decode_rejects_garbage(tmp_path):
    bad = str(tmp_path / "bad.uns")
    with open(bad, "wb") as f:
        f.write(b"not a stream at all")
    assert cli.main(["decode", bad, str(tmp_path / "o.wav")]) == 2
