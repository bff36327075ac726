"""Run configuration: flat dotted-key files plus --key=value overrides.

The file format is one `section.key = value` assignment per line, with
`#` comments and blank lines ignored.  Every key is also overridable on
the command line as `--section.key=value`.  Initial data is described by
small constructor expressions such as

    initial.u   = gaussian(center=pi, width=0.3, amplitude=0.1)
    initial.rho = constant(1.0)

Numeric arguments accept arithmetic on literals and `pi` (for example
`3*pi/2`).  Unknown keys, malformed lines and bad values raise
ConfigError with the offending location.
"""

import ast
import math
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import (
    ModelParams,
    constant_field,
    cosine_mode,
    gaussian_bump,
    sine_mode,
)
from .spectral import Field, SpectralGrid
from .timestepper import StepControl, check_run_options


class ConfigError(ValueError):
    pass


_QUOTED = 48  # the most characters of a value that an error message echoes


def quoted(value) -> str:
    """repr(str(value)) for an error message, its middle elided past _QUOTED characters."""
    text = str(value)
    if len(text) > _QUOTED:
        text = f"{text[: _QUOTED - 16]}...{text[-13:]}"
    return repr(text)


DEFAULTS = {
    "params.a": "2.0",
    "params.alpha": "0.0",
    "params.kappa": "1.0",
    "grid.n": "256",
    "initial.u": "cosine(mode=1, amplitude=0.05)",
    "initial.rho": "constant(1.0)",
    "run.T": "1.0",
    "run.formulation": "eulerian",
    "run.stepper": "rk4",
    "run.snapshot_every": "0.1",
    "run.track_flowmap": "false",
    "run.output_dir": "out",
    "control.dt": "1e-3",
    "control.abs_tol": "1e-8",
    "control.rel_tol": "1e-8",
    "control.dt_min": "1e-12",
    "control.max_ux": "1e6",
    "compare.threshold": "1e-6",
}

_LINE = re.compile(r"^([A-Za-z_][A-Za-z0-9_.]*)\s*=\s*(.*)$")
_COMMENT = re.compile(r"(?:^|\s)#.*")  # a '#' inside a value, as in res#2, is kept


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse assignments into a flat {key: raw string} mapping."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw, count=1).strip()
        if not line:
            continue
        match = _LINE.match(line)
        if match is None:
            raise ConfigError(f"{source}:{lineno}: cannot parse {quoted(raw.strip())}")
        key, value = match.group(1), match.group(2).strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{source}:{lineno}: unknown key {quoted(key)}")
        out[key] = value
    return out


def apply_overrides(mapping: dict, overrides) -> dict:
    """Fold `key=value` strings (already stripped of --) into the mapping."""
    merged = dict(mapping)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {quoted(item)} is not of the form key=value")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"override names unknown key {quoted(key)}")
        merged[key] = value.strip()
    return merged


@dataclass
class RunConfig:
    """Typed view of a full flat configuration."""

    params: ModelParams
    grid: SpectralGrid
    initial_u: str
    initial_rho: str
    T: float
    formulation: str
    stepper: str
    snapshot_every: float
    track_flowmap: bool
    output_dir: str
    control: StepControl
    compare_threshold: float
    raw: dict = field(default_factory=dict)

    def run_options(self) -> dict:
        """integrate()'s keyword arguments for this run, each a field of the same name."""
        names = ("T", "control", "formulation", "snapshot_every", "stepper", "track_flowmap")
        return {name: getattr(self, name) for name in names}


def _to_float(key, text):
    try:
        return safe_number(text)
    except ConfigError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None


def _whole(value: float, what: str, text: str) -> int:
    """value as an int; a fractional part is a ConfigError naming `what`."""
    if value != int(value):
        raise ConfigError(f"{what}: expected an integer, got {quoted(text)}")
    return int(value)


def _to_int(key, text):
    return _whole(_to_float(key, text), f"key {key!r}", text)


def _to_bool(key, text):
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {quoted(text)}")


def build_config(mapping: dict) -> RunConfig:
    """Typed configuration from a flat mapping (defaults filled in)."""
    unknown = sorted(set(mapping) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown keys {unknown}")
    flat = dict(DEFAULTS)
    flat.update(mapping)
    n = _to_int("grid.n", flat["grid.n"])
    try:
        grid = SpectralGrid(n)  # the grid owns the size rule, numpy the allocation limit
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"key 'grid.n': cannot build a {n:.6g}-point grid: {exc}") from None
    try:
        cfg = RunConfig(
            params=ModelParams(
                a=_to_float("params.a", flat["params.a"]),
                alpha=_to_float("params.alpha", flat["params.alpha"]),
                kappa=_to_float("params.kappa", flat["params.kappa"]),
            ),
            grid=grid,
            initial_u=flat["initial.u"],
            initial_rho=flat["initial.rho"],
            T=_to_float("run.T", flat["run.T"]),
            formulation=flat["run.formulation"],
            stepper=flat["run.stepper"],
            snapshot_every=_to_float("run.snapshot_every", flat["run.snapshot_every"]),
            track_flowmap=_to_bool("run.track_flowmap", flat["run.track_flowmap"]),
            output_dir=flat["run.output_dir"],
            control=StepControl(
                dt=_to_float("control.dt", flat["control.dt"]),
                abs_tol=_to_float("control.abs_tol", flat["control.abs_tol"]),
                rel_tol=_to_float("control.rel_tol", flat["control.rel_tol"]),
                dt_min=_to_float("control.dt_min", flat["control.dt_min"]),
                max_ux=_to_float("control.max_ux", flat["control.max_ux"]),
            ),
            compare_threshold=_to_float("compare.threshold", flat["compare.threshold"]),
            raw=flat,
        )
        check_run_options(**cfg.run_options())
    except ValueError as exc:
        raise ConfigError(str(exc))
    return cfg


def load_config(path=None, overrides=()) -> RunConfig:
    mapping = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {quoted(path)}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"cannot read config file {quoted(path)}: not UTF-8 text") from None
        mapping = parse_config_text(text, source=str(path))
    return build_config(apply_overrides(mapping, overrides))


def config_echo(cfg: RunConfig) -> dict:
    """The flat mapping that rebuilds this configuration exactly."""
    return dict(cfg.raw)


# ---------------------------------------------------------------------------
# numeric literals and initial-data descriptors

# allowed operators; the node kind (UnaryOp or BinOp) fixes each one's arity
_OPERATORS = {
    ast.UAdd: operator.pos,
    ast.USub: operator.neg,
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


def safe_number(text: str) -> float:
    """Evaluate arithmetic over numeric literals and `pi` to a finite float."""

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.UnaryOp) and type(node.op) in _OPERATORS:
            return _OPERATORS[type(node.op)](walk(node.operand))
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            return _OPERATORS[type(node.op)](walk(node.left), walk(node.right))
        raise ConfigError(f"disallowed expression in number {quoted(text)}")

    try:
        value = walk(ast.parse(text.strip(), mode="eval"))
    except SyntaxError:
        raise ConfigError(f"cannot parse number {quoted(text)}")
    except (RecursionError, MemoryError):  # the parser's or the walk's nesting limit
        raise ConfigError(f"number {quoted(text)} is nested too deeply")
    except ArithmeticError as exc:
        raise ConfigError(f"cannot evaluate number {quoted(text)}: {exc}")
    if not (isinstance(value, float) and math.isfinite(value)):
        raise ConfigError(f"number {quoted(text)} is not a finite real")
    return value


_DESCRIPTOR = re.compile(r"^\s*([a-z_]+)\s*(?:\((.*)\))?\s*$", re.DOTALL)

# kind: (its constructor, taking these names; the positional order; those required)
_KINDS = {
    "zero": (constant_field, (), ()),
    "constant": (constant_field, ("value",), ("value",)),
    "cosine": (cosine_mode, ("mode", "amplitude"), ("mode",)),
    "sine": (sine_mode, ("mode", "amplitude"), ("mode",)),
    "gaussian": (gaussian_bump, ("center", "width", "amplitude"), ("center", "width")),
    "samples": (None, ("path",), ("path",)),
}


def parse_descriptor(text: str):
    """Split `name(arg=value, ...)` into (name, {arg: raw string})."""
    match = _DESCRIPTOR.match(text)
    if match is None:
        raise ConfigError(f"cannot parse initial-data descriptor {quoted(text)}")
    name, body = match.group(1), match.group(2)
    if name not in _KINDS:
        raise ConfigError(
            f"unknown initial-data kind {quoted(name)}; known: {sorted(_KINDS)}"
        )
    _, order, required = _KINDS[name]
    args = {}
    if body and body.strip():
        pieces = [body] if name == "samples" else body.split(",")  # a path may hold commas
        for position, piece in enumerate(pieces):
            piece = piece.strip()
            if "=" in piece:
                key, value = piece.split("=", 1)
                key = key.strip()
            else:
                if position >= len(order):
                    raise ConfigError(f"too many arguments in {quoted(text)}")
                key, value = order[position], piece
            if key not in order:
                raise ConfigError(f"unknown argument {quoted(key)} in {quoted(text)}")
            args[key] = value.strip()
    missing = [key for key in required if key not in args]
    if missing:
        raise ConfigError(f"descriptor {quoted(text)} is missing {missing}")
    return name, args


def build_initial_field(descriptor: str, grid: SpectralGrid) -> Field:
    """Realize an initial-data descriptor on the grid."""
    name, args = parse_descriptor(descriptor)
    build = _KINDS[name][0]
    try:
        if build is not None:
            values = {key: safe_number(text) for key, text in args.items()}
            if "mode" in values:
                what = f"descriptor {quoted(descriptor)} mode"
                values["mode"] = _whole(values["mode"], what, args["mode"])
            return build(grid, **values)
        samples = np.loadtxt(args["path"], dtype=float)
        if samples.ndim != 1 or samples.size != grid.n:
            raise ConfigError(
                f"sample file {quoted(args['path'])} must hold exactly {grid.n} values"
            )
        if not np.all(np.isfinite(samples)):
            raise ConfigError(f"sample file {quoted(args['path'])} holds a value that is not finite")
        return Field(grid, samples)
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(f"descriptor {quoted(descriptor)}: {exc}")
