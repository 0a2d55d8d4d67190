"""Codec configuration: every tunable with its default, plus a flat
key-value config file format with an embedded quantizer table section.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property

import numpy as np

from . import lp
from .entropy_bitstream import MODEL_LIMIT, PackContext
from .polar_quant import DEFAULT_ECUPQ_TABLE, EcupqTable
from .resample import CORE_RATE
from .transforms import WindowSpec


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class CodecConfig:
    """Every codec constant. Frozen, so a config in use has passed the checks in
    ``__post_init__``; derive others with ``with_mode`` or ``dataclasses.replace``."""

    sample_rate: int = CORE_RATE        # core-band rate in Hz; input is resampled to it
    frame_len: int = 1024               # analysis frame length
    overlap_len: int = 256              # taper length of the window
    window_edge: float = 0.15           # window height at the frame ends
    band_edges: tuple = (40, 90, 140, 200, 260, 330, 410, 512)  # sub-band upper bin edges
    bits_12k: tuple = (45, 34, 30, 23, 19, 16, 16, 16)  # per-band bit targets, 12 kbps
    bits_16k: tuple = (67, 50, 45, 34, 29, 23, 23, 23)  # per-band bit targets, 16 kbps
    lpc_order: int = 16                 # prediction order, both analyses
    fdns_weight: float = 0.98           # bandwidth expansion, spectral model
    ctns_weight: float = 0.9            # bandwidth expansion, temporal model
    ctns_threshold_db: float = -4.5     # prediction-gain switch threshold
    ctns_start_bin: int = 25            # first filtered bin (above 312 Hz)
    ctns_enabled: bool = True
    fer_threshold: float = 0.125        # phase-contrast switch threshold
    phase_cells_high: tuple = (1, 8, 16, 16, 32, 32, 64, 64)  # by min(index1, 7)
    phase_cells_low: tuple = (1, 4, 8, 8, 16, 16, 32, 32)
    lsf_step: float = 0.01 * np.pi      # LSF quantizer step in radians
    lsf_min_gap: float = 1e-3
    clpc_mag_step_db: float = 0.5
    clpc_mag_floor_db: float = -60.0
    clpc_mag_ceil_db: float = 20.0
    clpc_phase_cells: int = 64
    mode: str = "12k"
    ecupq: EcupqTable = field(default_factory=lambda: DEFAULT_ECUPQ_TABLE)  # [ecupq] section

    def __post_init__(self):
        if self.mode not in ("12k", "16k"):
            raise ConfigError(f"mode must be 12k or 16k, not {self.mode!r}")
        if self.sample_rate != CORE_RATE:
            raise ConfigError(f"sample_rate must be the {CORE_RATE} Hz core rate, "
                              f"not {self.sample_rate}")
        for name in ("frame_len", "overlap_len"):  # each is a u16 field of the stream header
            if getattr(self, name) > 0xFFFF:
                raise ConfigError(f"{name} must be at most 65535, not {getattr(self, name)}")
        if self.frame_len % 2:  # else the last rfft bin, coded as a real Nyquist bin, is complex
            raise ConfigError(f"frame_len must be even, not {self.frame_len}")
        if not self.band_edges or self.band_edges[0] <= 0 or np.any(np.diff(self.band_edges) <= 0):
            raise ConfigError("band_edges must be non-empty, strictly increasing and positive")
        if self.band_edges[-1] != self.frame_len // 2:
            raise ConfigError("last band edge must equal frame_len / 2")
        try:
            WindowSpec(self.frame_len, self.overlap_len, self.window_edge)  # validates geometry
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        top = min(255, self.frame_len // 2 - 1)  # a u8 header field, below the CTNS fit's bins
        if self.lpc_order % 2 or not 2 <= self.lpc_order <= top:
            raise ConfigError(f"lpc_order must be even (LSFs come in pairs) and in 2..{top}, "
                              f"not {self.lpc_order}")
        for name, top in (("lsf_step", np.inf), ("clpc_mag_step_db", np.inf),
                          ("fdns_weight", 1.0), ("ctns_weight", 1.0),
                          ("lsf_min_gap", np.pi / (self.lpc_order + 1))):  # order + 1 gaps below pi
            if not 0.0 < getattr(self, name) <= top:  # a quantizer step, a gamma or a gap; not NaN
                raise ConfigError(f"{name} must be in (0, {top}], not {getattr(self, name)}")
        if not 0.0 <= self.fer_threshold < 1.0:  # a band's FER share lies in [0, 1]
            raise ConfigError(f"fer_threshold must be in [0, 1), not {self.fer_threshold}")
        if not -np.inf < self.clpc_mag_floor_db < self.clpc_mag_ceil_db < np.inf:  # else no grid
            raise ConfigError(f"clpc_mag_floor_db {self.clpc_mag_floor_db} must be below "
                              f"clpc_mag_ceil_db {self.clpc_mag_ceil_db}, both finite")
        if not 0 <= self.ctns_start_bin < self.frame_len // 2:  # else CTNS filters no bin
            raise ConfigError(f"ctns_start_bin must be in 0..{self.frame_len // 2 - 1}, "
                              f"not {self.ctns_start_bin}")
        if np.isnan(self.ctns_threshold_db):  # every comparison with NaN is false
            raise ConfigError("ctns_threshold_db must be a number, not nan")
        for name, size in (("bits_12k", len(self.band_edges)), ("bits_16k", len(self.band_edges)),
                           ("phase_cells_high", 8), ("phase_cells_low", 8)):
            if len(getattr(self, name)) != size:
                raise ConfigError(f"{name} needs {size} entries, not {len(getattr(self, name))}")
        if any(bits <= 0 for bits in (*self.bits_12k, *self.bits_16k)):
            raise ConfigError("every band bit budget must be positive")
        for cells in (*self.phase_cells_high, *self.phase_cells_low, self.clpc_phase_cells):
            if cells < 1 or cells & (cells - 1):  # a phase field is log2(cells) bits
                raise ConfigError(f"phase-cell counts must be powers of two, not {cells}")
        grid = self.clpc_mag_step_db, self.clpc_mag_floor_db
        top = lp.clpc_table_size(max(lp.clpc_mag_index_max(*grid, self.clpc_mag_ceil_db),
                                     self.clpc_phase_cells - 1)) - 1
        with np.errstate(over="ignore"):  # the last cell of the largest table a stream can ask for
            if not np.isfinite(lp.clpc_magnitude(*grid, np.float64(top))):
                raise ConfigError(f"CLPC magnitude cell {top} of the grid's table is not finite")
        mag_cells = lp.clpc_mag_index_max(*grid, self.clpc_mag_ceil_db) + 2  # as PackContext counts
        for name, symbols in (("lsf_step", lp.lsf_index_max(self.lsf_step) + 1),
                              ("clpc_mag_step_db", mag_cells)):
            if symbols >= MODEL_LIMIT:  # a flat prior that fills its bank halves it at every symbol
                raise ConfigError(f"{name} makes a {symbols}-symbol alphabet; the range coder's "
                                  f"flat models take at most {MODEL_LIMIT - 1}")

    def __getstate__(self):  # the fields alone: a copy rebuilds its read-only layout on first use
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def window_spec(self) -> WindowSpec:
        return WindowSpec(self.frame_len, self.overlap_len, self.window_edge)

    @cached_property
    def layout(self) -> PackContext:
        """The config's frame layout and wire alphabets, derived once and shared by both ends."""
        return PackContext(self)

    @property
    def budget(self) -> tuple:
        return self.bits_12k if self.mode == "12k" else self.bits_16k

    @property
    def n_bins(self) -> int:
        return self.frame_len // 2 + 1

    @cached_property
    def _modes(self) -> dict:  # with_mode's configs of the other mode, each built once
        return {m: replace(self, mode=m) for m in ("12k", "16k") if m != self.mode}

    def with_mode(self, mode: str) -> "CodecConfig":
        return self if mode == self.mode else self._modes.get(mode) or replace(self, mode=mode)


# The file format follows the dataclasses: one ``key = value`` line per field
# of CodecConfig, then an ``[ecupq]`` section with the fields of EcupqTable.
# Each value is parsed by the type of the field's value in the defaults.
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _fields(obj) -> dict:
    """Field name -> value for every plain (non-section) field of a dataclass."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)
            if not is_dataclass(getattr(obj, f.name))}


def _format(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(map(_format, value))
    return str(value)


def _parser(default):
    """Text-to-value parser for a key whose default is ``default``."""
    if isinstance(default, bool):
        return lambda text: _BOOLS[text.lower()]
    if isinstance(default, tuple):
        return lambda text: tuple(type(default[0])(v) for v in text.split(","))
    return type(default)


def save_config(cfg: CodecConfig, path: str):
    """Write a config file; every codec constant appears exactly once."""
    lines = ["# unscodec configuration", ""]
    lines += [f"{k} = {_format(v)}" for k, v in _fields(cfg).items()]
    lines += ["", "[ecupq]"]
    lines += [f"{k} = {_format(v)}" for k, v in _fields(cfg.ecupq).items()]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_config(path: str) -> CodecConfig:
    """Read a config file; an unknown section or key, or a value its field
    cannot take, raises ConfigError naming the file, line and key."""
    parsers = {None: {k: _parser(v) for k, v in _fields(CodecConfig()).items()},
               "ecupq": {k: _parser(v) for k, v in _fields(DEFAULT_ECUPQ_TABLE).items()}}
    values = {None: {}, "ecupq": {}}
    section, table_line = None, None
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            where = f"{path}:{lineno}"
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in parsers:
                    raise ConfigError(f"{where}: unknown section [{section}]")
                table_line = where
                continue
            if "=" not in line:
                raise ConfigError(f"{where}: expected key = value")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in parsers[section]:
                raise ConfigError(f"{where}: unknown config key {key!r}")
            try:
                values[section][key] = parsers[section][key](value)
            except (KeyError, ValueError):
                raise ConfigError(f"{where}: {key}: cannot parse {value!r}") from None

    kwargs = values[None]
    if table_line is not None:
        try:
            kwargs["ecupq"] = EcupqTable(**{"version": "custom", **values["ecupq"]})
        except (TypeError, ValueError) as exc:  # a missing key, or a bad table
            raise ConfigError(f"{table_line}: [ecupq]: {exc}") from None
    try:
        return CodecConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
