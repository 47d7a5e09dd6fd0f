"""Run configuration: flat key-value sections, validated at load time.

A run's keys are set from an INI-style file or from command-line flags, two
ways to set the same keys: ``_KEYS`` names each key's section, parser and
flag, and ``set_values`` parses a value from either source.  Unknown sections
or keys are rejected with the offending line number, as are values violating
the module preconditions (dimension, cutoff, grid parity, nonlinearity
exponent ranges, sweep shapes).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, asdict

import numpy as np

from .nonlinearity import NonlinearityError, make_nonlinearity
from .testspinor import DEFAULT_EPS_SWEEP


class ConfigError(ValueError):
    """Malformed configuration; carries a line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass
class RunConfig:
    command: str = "solve"
    out_dir: str = "runs"
    seed: int = 0
    dim: int = 2
    cutoff: int = 16
    n_grid: int | None = None
    lam: float | None = None
    lambda_grid: list = field(default_factory=list)
    Lambda: float | None = None
    nl_kind: str = "bnd"
    alpha: float | None = None
    p: float | None = None
    q: float | None = None
    eps_sweep: tuple = DEFAULT_EPS_SWEEP
    delta: float = float(np.pi / 4.0)
    dual_lambda: float = 0.5
    second_near: int | None = None
    second_offsets: tuple = (0.05, 0.02, 0.01)
    suite: str = "all"

    def nonlinearity(self):
        try:
            return make_nonlinearity(self.nl_kind, self.dim, alpha=self.alpha, p=self.p, q=self.q)
        except NonlinearityError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self):
        return asdict(self)


def _line_of(path, section, key=None):
    """Best-effort line number of a section or key within a section."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError:
        return None
    in_section = False
    for i, raw in enumerate(lines, start=1):
        text = raw.strip()
        if text.startswith("[") and text.endswith("]"):
            name = text[1:-1].strip()
            if name == section:
                if key is None:
                    return i
                in_section = True
            else:
                in_section = False
        elif in_section and key is not None:
            head = text.split("=")[0].split(":")[0].strip()
            if head == key:
                return i
    return None


def _real(spec):
    """A finite float: nan and +-inf are malformed, as no key has a use for them."""
    value = float(spec)
    if not np.isfinite(value):
        raise ConfigError(f"{spec.strip()!r} is not a finite number")
    return value


def parse_lambda_grid(spec):
    """Parse "a:b:step" or a comma list into a grid of finite floats."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"lambda_grid must be start:stop:step, got {spec!r}")
        a, b, step = (_real(p) for p in parts)
        if step <= 0 or b < a:
            raise ConfigError(f"bad lambda_grid range {spec!r}")
        n = int(np.floor((b - a) / step + 1e-9)) + 1
        return [round(a + i * step, 12) for i in range(n)]
    return [_real(p) for p in spec.split(",") if p.strip()]


def _floats(spec):
    return tuple(_real(x) for x in spec.split(","))


# Every run key, in load order: (section, key, RunConfig attribute, parser of
# its string value, command-line flag or None).
_KEYS = (
    ("run", "command", "command", str, None),
    ("run", "out_dir", "out_dir", str, "--out"),
    ("run", "seed", "seed", int, "--seed"),
    ("problem", "dim", "dim", int, "--dim"),
    ("problem", "cutoff", "cutoff", int, "--cutoff"),
    ("problem", "n_grid", "n_grid", int, "--n-grid"),
    ("problem", "lambda", "lam", _real, "--lambda"),
    ("problem", "lambda_grid", "lambda_grid", parse_lambda_grid, "--lambda-grid"),
    ("problem", "Lambda", "Lambda", _real, "--Lambda"),
    ("nonlinearity", "kind", "nl_kind", str, "--nl"),
    ("nonlinearity", "alpha", "alpha", _real, "--alpha"),
    ("nonlinearity", "p", "p", _real, "--p"),
    ("nonlinearity", "q", "q", _real, "--q"),
    ("testspinor", "eps_sweep", "eps_sweep", _floats, "--eps-sweep"),
    ("testspinor", "delta", "delta", _real, "--delta"),
    ("testspinor", "dual_lambda", "dual_lambda", _real, "--dual-lambda"),
    ("branch", "second_near", "second_near", int, "--second-near"),
    ("branch", "second_offsets", "second_offsets", _floats, None),
    ("accept", "suite", "suite", str, None),
)
_SCHEMA = {section: {k for s, k, *_ in _KEYS if s == section} for section, *_ in _KEYS}


def set_values(cfg, values, path=None):
    """Set the string values of ``values``, keyed by RunConfig attribute, through each key's parser.

    Entries that name no key, or hold None, are skipped.  ``path`` is the
    config file the values came from, for the line of a bad one.
    """
    for section, key, attr, parse, _ in _KEYS:
        if values.get(attr) is not None:
            try:
                setattr(cfg, attr, parse(values[attr]))
            except ValueError as exc:  # ConfigError included
                line = _line_of(path, section, key) if path else None
                raise ConfigError(f"bad value for {key!r}: {exc}", line=line) from exc
    return cfg


def load_config(path, commands, overrides=None):
    """Load and validate a RunConfig from an INI file; ``overrides`` are set after the file's values.

    ``commands`` are the command names a file may run.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive: ``lambda`` and ``Lambda`` are two keys
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise ConfigError(f"unparseable config: {exc}", line=line) from exc
    if not read:
        raise ConfigError(f"config file {path!r} not found or empty")

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown section [{section}]", line=_line_of(path, section)
            )
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]", line=_line_of(path, section, key)
                )

    values = {attr: parser.get(s, k) for s, k, attr, *_ in _KEYS if parser.has_option(s, k)}
    cfg = set_values(set_values(RunConfig(), values, path), overrides or {})
    return validate_config(cfg, commands, path)


def validate_config(cfg, commands, path=None):
    def bad(msg, section=None, key=None):
        line = _line_of(path, section, key) if path and section else None
        raise ConfigError(msg, line=line)

    if cfg.command not in commands:
        bad(f"unknown command {cfg.command!r}; choose from {sorted(commands)}", "run", "command")
    if cfg.dim < 2:
        bad(f"dim must be >= 2, got {cfg.dim}", "problem", "dim")
    if cfg.cutoff < 1:
        bad(f"cutoff must be >= 1, got {cfg.cutoff}", "problem", "cutoff")
    if cfg.n_grid is not None and (cfg.n_grid % 2 or cfg.n_grid < 2 * cfg.cutoff + 2):
        bad(
            f"n_grid must be even and >= 2*cutoff+2 = {2*cfg.cutoff+2}, got {cfg.n_grid}",
            "problem",
            "n_grid",
        )
    try:
        cfg.nonlinearity()
    except ConfigError as exc:
        bad(str(exc), "nonlinearity", "kind")
    if any(e <= 0 for e in cfg.eps_sweep):
        bad("eps_sweep entries must be positive", "testspinor", "eps_sweep")
    if any(b >= a for a, b in zip(cfg.eps_sweep, cfg.eps_sweep[1:])):
        bad("eps_sweep must be strictly decreasing", "testspinor", "eps_sweep")
    if not (0.0 < 2.0 * cfg.delta < np.pi):
        bad(f"delta must satisfy 0 < 2*delta < pi, got {cfg.delta}", "testspinor", "delta")
    return cfg
