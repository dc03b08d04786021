"""Run configuration: sectioned key/value files that round-trip exactly.

Configs are experiment artifacts: the parser is strict (an unknown key or
a value no run can use is an error, reported as ``section.key = value: must
be ...``) and the serializer is canonical, so parse -> serialize -> parse is
the identity and a config's hash identifies the run.  Each key is declared
once, by ``_key`` on its ``RunConfig`` field: its section, its file name and
its admissible values, which parsing, validation and serialization all read.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import typing
from dataclasses import dataclass, field, fields, replace
from itertools import groupby


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


def _key(section, default, key=None, *, choices=(), positive=False, minimum=None):
    """A RunConfig field, written as ``key`` (its name when None) under
    ``[section]``; a section's fields are declared together.  Its value must
    be one of ``choices`` if any, > 0 when ``positive``, and >= ``minimum``
    unless either is None."""
    return field(default=default, metadata=dict(
        section=section, key=key, choices=choices, positive=positive, minimum=minimum))


@dataclass(frozen=True)
class RunConfig:
    # grid; Lx > 0 and nx >= 4 hold on the strip only (validate_config)
    mode: str = _key("grid", "strip2d", choices=("strip2d", "interval1d"))
    Lx: float = _key("grid", 1.0)
    Ly: float = _key("grid", 1.0, positive=True)
    nx: int = _key("grid", 32)
    ny: int = _key("grid", 32, minimum=4)
    potential_kind: str = _key("potential", "double_well", "kind",
                               choices=("double_well", "polynomial_custom"))
    potential_coeffs: tuple = _key("potential", (), "coeffs")
    b: float = _key("constants", 1.0, positive=True)
    c: float = _key("constants", 1.0, positive=True)
    alpha: float = _key("constants", 1.0, positive=True)
    beta: float = _key("constants", 1.0, positive=True)
    scheme: str = _key("stepper", "semi_implicit", choices=("semi_implicit", "newton"))
    dt: float = _key("stepper", 1e-3, positive=True)
    t_end: float = _key("stepper", 1.0, positive=True)
    stabilization_S: float | None = _key("stepper", None, minimum=0)
    dt_min: float = _key("stepper", 1e-8, positive=True)
    initial_kind: str = _key("initial", "random_fourier", "kind",
                             choices=("constant", "cosine", "random_fourier", "file"))
    initial_amplitude: float = _key("initial", 0.1, "amplitude")
    initial_mean: float = _key("initial", 0.0, "mean")
    initial_modes: int = _key("initial", 3, "modes", minimum=1)
    initial_path: str = _key("initial", "", "path")
    output_dir: str = _key("io", "run_out")
    series_stride: int = _key("io", 1, minimum=1)
    snapshot_stride: int = _key("io", 0, minimum=0)
    plots: bool = _key("io", True)
    probe_window: float = _key("analysis", 0.5, positive=True)
    kernel_tol: float = _key("analysis", 1e-8, positive=True)
    rate_fit_t_min: float | None = _key("analysis", None)
    fit_tol: float = _key("analysis", 0.1)
    # prefix of a saved reference equilibrium's .csv/.meta pair
    reference_path: str = _key("reference", "", "psi_path")
    seed: int = _key("run", 0, minimum=0)


def _declared(types):
    """{(section, file key): (field name, type, declared rules)}, in file order."""
    return {(f.metadata["section"], f.metadata["key"] or f.name):
            (f.name, types[f.name], f.metadata) for f in fields(RunConfig)}


_KEYS = _declared(typing.get_type_hints(RunConfig))


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


def _from_text(where, ftype, text):
    """The value of the key ``where`` (section.key) of type ftype, read from text."""
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
            raise ValueError("not a boolean")
        if ftype is tuple:
            if not text:
                return ()
            return tuple(float(p) for p in text.split(","))
        return ftype(text)  # str, int or float
    except ValueError as exc:
        raise ConfigError(f"{where} = {text!r}: {exc}")


def parse_config(path):
    # no interpolation: "%" is a character like any other; no default section:
    # "[]" is no header, so [DEFAULT] is an unknown section, not inherited keys
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None, default_section="")
    parser.optionxform = str  # keys are case-sensitive (Lx vs lx)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}")
    sections = {section for section, _ in _KEYS}
    values = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name, ftype, _ = _KEYS[section, key]
            values[name] = _from_text(f"{section}.{key}", ftype, raw)
    cfg = replace(RunConfig(), **values)
    validate_config(cfg)
    return cfg


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
    """Refuse (ConfigError) a config with a value that no run can use."""
    for (section, key), (name, _, rules) in _KEYS.items():
        val = getattr(cfg, name)
        if isinstance(val, str) and not _reads_back(val):
            rule = ("free of what a config file cannot hold: surrounding whitespace, "
                    "a line break, or a '#' or ';' at the start or after whitespace")
        elif isinstance(val, float) and not math.isfinite(val):
            rule = "finite"
        elif rules["choices"] and val not in rules["choices"]:
            rule = "one of " + ", ".join(rules["choices"])
        elif rules["positive"] and not val > 0:
            rule = "positive"
        elif None not in (val, rules["minimum"]) and val < rules["minimum"]:
            rule = f">= {rules['minimum']}"
        else:
            continue
        raise ConfigError(f"{section}.{key} = {val!r}: must be {rule}")
    if not all(math.isfinite(v) for v in cfg.potential_coeffs):
        raise ConfigError(f"potential.coeffs = {cfg.potential_coeffs!r}: must be finite")
    if cfg.mode == "strip2d" and not cfg.Lx > 0:
        raise ConfigError(f"grid.Lx = {cfg.Lx!r}: must be positive on the strip")
    if cfg.mode == "strip2d" and cfg.nx < 4:
        raise ConfigError(f"grid.nx = {cfg.nx!r}: must be >= 4 on the strip")
    if (nodes := node_count(cfg.mode, cfg.nx, cfg.ny)) > MAX_NODES:
        raise ConfigError(f"grid of {nodes} nodes: at most {MAX_NODES} nodes are allowed")
    if cfg.potential_kind == "polynomial_custom" and not cfg.potential_coeffs:
        raise ConfigError("potential.coeffs = (): must be set for kind = polynomial_custom")
    if cfg.initial_kind == "file" and not cfg.initial_path:
        raise ConfigError("initial.path = '': must be set for initial.kind = file")


def serialize_config(cfg):
    """The canonical text of a config, which parse_config reads back unchanged.

    Raises ConfigError for a config that ``validate_config`` refuses; that
    includes every string value the parser would cut or change.
    """
    validate_config(cfg)
    out = io.StringIO()
    for section, entries in groupby(_KEYS.items(), key=lambda entry: entry[0][0]):
        out.write(f"[{section}]\n")
        for (_, key), (name, _, _) in entries:
            out.write(f"{key} = {_to_text(getattr(cfg, name))}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(cfg):
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()
