"""Run configuration: sectioned key/value files that round-trip exactly.

Configs are experiment artifacts: the parser is strict (unknown keys are
errors, physical constants must be positive) and the serializer is
canonical, so parse -> serialize -> parse is the identity and a config's
hash identifies the run.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import typing
from dataclasses import dataclass, replace


class ConfigError(Exception):
    pass


# the most grid nodes (nx * ny on the strip, ny on the interval) a run or a
# snapshot may have.  A semi-implicit run peaks at about 64 MB plus 0.6 kB
# per node (99 MB at 256x256, 149 MB at 384x384), so 2^20 nodes (1024x1024)
# need about 0.7 GB before the sparse LDL^T factors of the spectrum add fill.
MAX_NODES = 2**20


def node_count(mode, nx, ny):
    """The node count of a grid: nx * ny on the strip, ny on the interval."""
    return ny if mode == "interval1d" else nx * ny


@dataclass(frozen=True)
class RunConfig:
    # grid
    mode: str = "strip2d"
    Lx: float = 1.0
    Ly: float = 1.0
    nx: int = 32
    ny: int = 32
    # potential
    potential_kind: str = "double_well"
    potential_coeffs: tuple = ()
    # constants
    b: float = 1.0
    c: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0
    # stepper
    scheme: str = "semi_implicit"
    dt: float = 1e-3
    t_end: float = 1.0
    stabilization_S: float | None = None
    dt_min: float = 1e-8
    # initial data
    initial_kind: str = "random_fourier"
    initial_amplitude: float = 0.1
    initial_mean: float = 0.0
    initial_modes: int = 3
    initial_path: str = ""
    # io
    output_dir: str = "run_out"
    series_stride: int = 1
    snapshot_stride: int = 0
    plots: bool = True
    # analysis
    probe_window: float = 0.5
    kernel_tol: float = 1e-8
    rate_fit_t_min: float | None = None
    fit_tol: float = 0.1
    # reference equilibrium (prefix of saved .csv/.meta pair)
    reference_path: str = ""
    # run
    seed: int = 0


_LAYOUT = {
    "grid": ("mode", "Lx", "Ly", "nx", "ny"),
    "potential": ("potential_kind", "potential_coeffs"),
    "constants": ("b", "c", "alpha", "beta"),
    "stepper": ("scheme", "dt", "t_end", "stabilization_S", "dt_min"),
    "initial": ("initial_kind", "initial_amplitude", "initial_mean",
                "initial_modes", "initial_path"),
    "io": ("output_dir", "series_stride", "snapshot_stride", "plots"),
    "analysis": ("probe_window", "kernel_tol", "rate_fit_t_min", "fit_tol"),
    "reference": ("reference_path",),
    "run": ("seed",),
}

_FILE_KEYS = {
    "potential_kind": "kind",
    "potential_coeffs": "coeffs",
    "initial_kind": "kind",
    "initial_amplitude": "amplitude",
    "initial_mean": "mean",
    "initial_modes": "modes",
    "initial_path": "path",
    "reference_path": "psi_path",
}

_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _to_text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(f"{v:.17g}" for v in value)
    return str(value)


def _from_text(name, text):
    ftype = _FIELD_TYPES[name]
    text = text.strip()
    members = typing.get_args(ftype)
    if type(None) in members:  # optional: "none" or empty, else the other member
        if text.lower() in ("none", ""):
            return None
        (ftype,) = [m for m in members if m is not type(None)]
    try:
        if ftype is bool:
            if text.lower() in ("true", "1", "yes", "on"):
                return True
            if text.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if ftype is tuple:
            if not text:
                return ()
            return tuple(float(p) for p in text.split(","))
        return ftype(text)  # str, int or float
    except ValueError as exc:
        raise ConfigError(f"field {name}: {exc}")


def parse_config(path):
    # no interpolation: a "%" in a path is a character like any other
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (Lx vs lx)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}")
    values = {}
    for section in parser.sections():
        if section not in _LAYOUT:
            raise ConfigError(f"unknown config section [{section}]")
        known = {_FILE_KEYS.get(name, name): name for name in _LAYOUT[section]}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name = known[key]
            values[name] = _from_text(name, raw)
    cfg = replace(RunConfig(), **values)
    validate_config(cfg)
    return cfg


_FINITE = {
    "grid": ("Lx", "Ly"),
    "constants": ("b", "c", "alpha", "beta"),
    "stepper": ("dt", "t_end", "dt_min"),
    "initial": ("initial_amplitude", "initial_mean"),
    "analysis": ("probe_window", "kernel_tol", "rate_fit_t_min", "fit_tol"),
}


def _reads_back(text):
    """True when a value written as ``key = text`` parses back to text.

    The parser strips surrounding whitespace, ends a value at a line break
    and cuts it at an inline comment: a "#" or ";" that starts the value or
    follows whitespace.
    """
    return (text == text.strip() and "\n" not in text and "\r" not in text
            and not any(ch in "#;" and (i == 0 or text[i - 1].isspace())
                        for i, ch in enumerate(text)))


def validate_config(cfg):
    for section, names in _LAYOUT.items():
        for name in names:
            val = getattr(cfg, name)
            if isinstance(val, str) and not _reads_back(val):
                raise ConfigError(
                    f"{section}.{_FILE_KEYS.get(name, name)} = {val!r}: a config "
                    "file cannot hold surrounding whitespace, a line break, or "
                    "a '#' or ';' at the start or after whitespace"
                )
    for section, names in _FINITE.items():
        for name in names:
            val = getattr(cfg, name)
            if val is not None and not math.isfinite(val):
                raise ConfigError(f"{section}.{name} = {val}: must be finite")
    if not all(math.isfinite(v) for v in cfg.potential_coeffs):
        raise ConfigError(f"potential.coeffs = {cfg.potential_coeffs}: must be finite")
    S = cfg.stabilization_S
    if S is not None and not (math.isfinite(S) and S >= 0):
        raise ConfigError(
            f"stepper.stabilization_S = {S}: must be finite and non-negative"
        )
    for name in ("b", "c", "alpha", "beta"):
        val = getattr(cfg, name)
        if val <= 0:
            raise ConfigError(
                f"constants.{name} = {val}: physical constants must be "
                "strictly positive"
            )
    if cfg.mode not in ("strip2d", "interval1d"):
        raise ConfigError(f"grid.mode must be strip2d or interval1d, got {cfg.mode!r}")
    if cfg.Ly <= 0 or (cfg.mode == "strip2d" and cfg.Lx <= 0):
        raise ConfigError("grid lengths must be positive")
    if cfg.ny < 4 or (cfg.mode == "strip2d" and cfg.nx < 4):
        raise ConfigError("grid.nx and grid.ny must be at least 4")
    if node_count(cfg.mode, cfg.nx, cfg.ny) > MAX_NODES:
        raise ConfigError(
            f"grid of {node_count(cfg.mode, cfg.nx, cfg.ny)} nodes: at most "
            f"{MAX_NODES} nodes are allowed"
        )
    if cfg.dt <= 0 or cfg.t_end <= 0 or cfg.dt_min <= 0:
        raise ConfigError("stepper.dt, stepper.t_end and stepper.dt_min must be positive")
    if cfg.scheme not in ("semi_implicit", "newton"):
        raise ConfigError(f"stepper.scheme must be semi_implicit or newton, got {cfg.scheme!r}")
    if cfg.potential_kind not in ("double_well", "polynomial_custom"):
        raise ConfigError(f"potential.kind unknown: {cfg.potential_kind!r}")
    if cfg.potential_kind == "polynomial_custom" and not cfg.potential_coeffs:
        raise ConfigError("potential.coeffs required for polynomial_custom")
    if cfg.initial_kind not in ("constant", "cosine", "random_fourier", "file"):
        raise ConfigError(f"initial.kind unknown: {cfg.initial_kind!r}")
    if cfg.initial_kind == "file" and not cfg.initial_path:
        raise ConfigError("initial.path required for initial.kind = file")
    if cfg.initial_modes < 1:
        raise ConfigError(f"initial.modes = {cfg.initial_modes}: must be >= 1")
    if cfg.seed < 0:
        raise ConfigError(f"run.seed = {cfg.seed}: must be >= 0")
    if cfg.series_stride < 1 or cfg.snapshot_stride < 0:
        raise ConfigError("io.series_stride must be >= 1 and io.snapshot_stride >= 0")
    if cfg.probe_window <= 0 or cfg.kernel_tol <= 0:
        raise ConfigError("analysis.probe_window and analysis.kernel_tol must be positive")


def serialize_config(cfg):
    """The canonical text of a config, which parse_config reads back unchanged.

    Raises ConfigError for a config that ``validate_config`` refuses; that
    includes every string value the parser would cut or change.
    """
    validate_config(cfg)
    out = io.StringIO()
    for section, names in _LAYOUT.items():
        out.write(f"[{section}]\n")
        for name in names:
            key = _FILE_KEYS.get(name, name)
            out.write(f"{key} = {_to_text(getattr(cfg, name))}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(cfg):
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()
