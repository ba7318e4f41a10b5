"""Flat INI-style experiment configuration. Each value is checked by the
library type that takes it (named in parentheses); the command line's --seed
and --out replace seed and dir before the check. Keys are optional unless noted:

  [experiment]
  case     = 5.1i | 5.1ii | 5.2i | 5.2ii | 5.3   (required for most commands)
  alphas   = 0.25 0.5 0.75                 (MLParams, each)
  epsilons = 0 1e-3 5e-3 1e-2 2e-2 5e-2    (add_noise, each)
  seed     = 1234                          (add_noise)
  t_init   = auto | <float>   (LMConfig's T_init; auto: the estimator's prior, 1D cases only)
  max_iter = 24                            (LMConfig)
  stop     = oracle | discrepancy | max_iter   (LMConfig)

  [mesh]
  n     = 128                              (cells per side: Grid1D)
  steps = 512                              (time steps: TimeGrid)

  [lm]   gamma0, mu0, rho, t_step_cap (inf: no cap), eta
         (LMConfig: overrides of the case's defaults)

  [output]
  dir = out            (made by the driver before its first computation)

Unknown sections or keys are rejected with the offending location.
"""

from __future__ import annotations

import configparser
import sys
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import ConfigError, FracinvError
from .grids import Grid1D
from .inverse import LMConfig, add_noise
from .mittag_leffler import MLParams
from .problems import TimeGrid


@dataclass(frozen=True)
class ExperimentConfig:
    case_id: str = ""
    alphas: list = field(default_factory=lambda: [0.5])
    epsilons: list = field(default_factory=lambda: [0.0])
    seed: int = 1234
    t_init: Union[str, float] = "auto"
    max_iter: int = 24
    stop: str = "oracle"
    n: Optional[int] = None
    steps: Optional[int] = None
    lm_overrides: dict = field(default_factory=dict)
    out_dir: str = "out"


def _floats(text: str) -> list:
    values = [float(tok) for tok in text.replace(",", " ").split()]
    if not values:
        raise ValueError("empty list")
    return values


# (section, key) -> (ExperimentConfig field, parser of the value's text); the
# [lm] values go into lm_overrides under their keys
_KEYS = {
    ("experiment", "case"): ("case_id", str.strip),
    ("experiment", "alphas"): ("alphas", _floats),
    ("experiment", "epsilons"): ("epsilons", _floats),
    ("experiment", "seed"): ("seed", int),
    ("experiment", "t_init"): ("t_init", lambda s: "auto" if s.lower() == "auto" else float(s)),
    ("experiment", "max_iter"): ("max_iter", int),
    ("experiment", "stop"): ("stop", str.strip),
    ("mesh", "n"): ("n", int),
    ("mesh", "steps"): ("steps", int),
    **{("lm", key): ("lm_overrides", float)
       for key in ("gamma0", "mu0", "rho", "t_step_cap", "eta")},
    ("output", "dir"): ("out_dir", str.strip),
}


def parse_config(path, *, seed: Optional[int] = None,
                 out_dir: Optional[str] = None) -> ExperimentConfig:
    """The config of the file at `path`, with `seed` and `out_dir`, where
    given, in place of the file's; every value checked."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        read = cp.read(path, encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8: {exc}", source=str(path))
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise ConfigError(f"config syntax error: {exc.message}", source=str(path), line=line)
    if not read:
        raise ConfigError("config file not found or unreadable", source=str(path))
    keys = {(s, k.lower()): (k, *entry) for (s, k), entry in _KEYS.items()}  # read lowercased
    values = {}
    for section in cp.sections():
        if section not in {s for s, _ in _KEYS}:
            raise ConfigError(f"unknown section [{section}]", source=str(path))
        for name, text in cp[section].items():
            if (section, name) not in keys:
                raise ConfigError(f"unknown key {name!r} in [{section}]", source=str(path))
            key, target, parse = keys[section, name]
            try:
                value = parse(text)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}", source=f"{path}:[{section}]") from None
            if target == "lm_overrides":
                value = {**values.get(target, {}), key: value}
            values[target] = value
    if seed is not None:
        values["seed"] = seed
    if out_dir is not None:
        values["out_dir"] = out_dir
    cfg = ExperimentConfig(**values)
    _check(cfg, str(path), seed_source="--seed" if seed is not None else str(path))
    return cfg


def _check(cfg: ExperimentConfig, path: str, seed_source: str) -> None:
    """Apply to each value the rule of the library type that takes it. The LMConfig
    fields a case fills in get values that pass: its weights, the largest float for auto."""
    prior = sys.float_info.max if cfg.t_init == "auto" else cfg.t_init
    rules = {
        "alphas": lambda: [MLParams(alpha) for alpha in cfg.alphas],
        "epsilons": lambda: [add_noise([0.0], eps, seed=0) for eps in cfg.epsilons],
        "seed": lambda: add_noise([0.0], 0.0, seed=cfg.seed),
        "n": lambda: cfg.n is None or Grid1D(cfg.n),
        "steps": lambda: cfg.steps is None or TimeGrid(cfg.steps, 1.0),
        "t_init, max_iter, stop or [lm]": lambda: LMConfig(**{
            "gamma0": 1.0, "mu0": 1.0, "rho": 0.5, **cfg.lm_overrides,
            "T_init": prior, "max_iter": cfg.max_iter, "stop": cfg.stop}),
    }
    for key, rule in rules.items():
        try:
            rule()
        except FracinvError as exc:
            source = seed_source if key == "seed" else path
            raise ConfigError(f"{exc} (set by {key})", source=source) from None
