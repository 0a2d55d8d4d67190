"""Minimal RIFF/WAVE reader and writer.

Reads 16-bit PCM and 32-bit float files (mono or stereo, stereo downmixed by
averaging); writes 32-bit float mono, which round-trips samples exactly.
"""

from __future__ import annotations

import struct

import numpy as np


class WavFormatError(Exception):
    """Malformed or unsupported WAVE file."""


def read_wav(path: str):
    """Returns (samples in [-1, 1] as float64 mono, sample_rate)."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 12:
        raise WavFormatError("missing RIFF chunk")
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError("not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (size,) = struct.unpack("<I", data[pos + 4:pos + 8])
        body = data[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            if len(body) < 16:  # declared short, or cut short by the end of the file
                raise WavFormatError("fmt chunk too short")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"data":
            payload = body
        pos += 8 + size + (size & 1)

    if fmt is None:
        raise WavFormatError("missing fmt chunk")
    if payload is None:
        raise WavFormatError("missing data chunk")

    tag, channels, rate, _, _, bits = fmt
    if channels not in (1, 2):
        raise WavFormatError(f"unsupported channel count {channels}")
    if (tag, bits) not in ((1, 16), (3, 32)):
        raise WavFormatError(f"unsupported codec tag {tag} at {bits} bits")
    if len(payload) % (channels * bits // 8):
        raise WavFormatError(f"data chunk of {len(payload)} bytes is not a whole number of "
                             f"{channels}-channel {bits}-bit sample frames")
    if tag == 1:
        samples = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
    else:
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    return samples, rate


def write_wav(path: str, pcm: np.ndarray, rate: int):
    """Write mono 32-bit float WAVE."""
    samples = np.asarray(pcm, dtype=np.float32)
    body = samples.tobytes()
    fmt = struct.pack("<HHIIHH", 3, 1, rate, rate * 4, 4, 32)
    chunks = b"WAVE"
    chunks += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(body)) + body
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", len(chunks)) + chunks)
