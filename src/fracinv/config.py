"""Flat INI-style experiment configuration.

Sections and keys (all optional unless noted):

  [experiment]
  case     = 5.1i | 5.1ii | 5.2i | 5.2ii | 5.3     (required for most commands)
  alphas   = 0.25 0.5 0.75         (each in (0, 1])
  epsilons = 0 1e-3 5e-3 1e-2 2e-2 5e-2   (each finite, >= 0)
  seed     = 1234                 (>= 0)
  t_init   = auto | <float>     (finite, > deltaT; auto: the asymptotic-
                                estimator prior, 1D cases only)
  max_iter = 24                 (>= 0)
  stop     = oracle | discrepancy | max_iter

  [mesh]
  n     = 128          (cells per side, >= 2)
  steps = 512          (time steps, >= 1)

  [lm]                 (overrides of the per-case defaults)
  gamma0, mu0, rho, deltaT, t_step_cap, eta
                       (rho in (0, 1); gamma0, mu0, deltaT, eta finite and
                       > 0; t_step_cap > 0 or inf for no cap; never nan)

  [output]
  dir = out

Unknown sections or keys are rejected with the offending location.
"""

from __future__ import annotations

import configparser
import sys
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import ConfigError, ParameterError
from .inverse import LMConfig

_KNOWN = {
    "experiment": {"case", "alphas", "epsilons", "seed", "t_init", "max_iter", "stop"},
    "mesh": {"n", "steps"},
    "lm": {"gamma0", "mu0", "rho", "deltaT", "t_step_cap", "eta"},
    "output": {"dir"},
}


@dataclass
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


def _floats(text: str, where: str) -> list:
    out = []
    for tok in text.replace(",", " ").split():
        try:
            out.append(float(tok))
        except ValueError:
            raise ConfigError(f"expected numbers, got {tok!r}", source=where)
    if not out:
        raise ConfigError("empty list", source=where)
    return out


def parse_config(path) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = cp.read(path, encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8: {exc}", source=str(path))
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise ConfigError(f"config syntax error: {exc.message}", source=str(path), line=line)
    if not read:
        raise ConfigError("config file not found or unreadable", source=str(path))

    for section in cp.sections():
        if section not in _KNOWN:
            raise ConfigError(f"unknown section [{section}]", source=str(path))
        for key in cp[section]:
            if key.lower() not in {k.lower() for k in _KNOWN[section]}:
                raise ConfigError(f"unknown key {key!r} in [{section}]", source=str(path))

    cfg = ExperimentConfig()
    exp = cp["experiment"] if cp.has_section("experiment") else {}
    where = f"{path}:[experiment]"
    if "case" in exp:
        cfg.case_id = exp["case"].strip()
    if "alphas" in exp:
        cfg.alphas = _floats(exp["alphas"], where)
        if not all(0.0 < a <= 1.0 for a in cfg.alphas):
            raise ConfigError(f"alphas must lie in (0, 1], got {cfg.alphas}", source=where)
    if "epsilons" in exp:
        cfg.epsilons = _floats(exp["epsilons"], where)
        if not all(0.0 <= e < float("inf") for e in cfg.epsilons):
            raise ConfigError(f"epsilons must be finite and >= 0, got {cfg.epsilons}",
                              source=where)
    if "seed" in exp:
        try:
            seed = int(exp["seed"])
        except ValueError:
            raise ConfigError(f"seed must be an integer, got {exp['seed']!r}", source=where)
        cfg.seed = check_seed(seed, where)
    if "t_init" in exp:
        raw = exp["t_init"].strip()
        if raw.lower() == "auto":
            cfg.t_init = "auto"
        else:
            try:
                cfg.t_init = float(raw)
            except ValueError:
                raise ConfigError(f"t_init must be 'auto' or a number, got {raw!r}", source=where)
    if "max_iter" in exp:
        try:
            cfg.max_iter = int(exp["max_iter"])
        except ValueError:
            raise ConfigError("max_iter must be an integer", source=where)
    if "stop" in exp:
        cfg.stop = exp["stop"].strip()

    if cp.has_section("mesh"):
        mesh = cp["mesh"]
        where = f"{path}:[mesh]"
        try:
            if "n" in mesh:
                cfg.n = int(mesh["n"])
            if "steps" in mesh:
                cfg.steps = int(mesh["steps"])
        except ValueError:
            raise ConfigError("mesh sizes must be integers", source=where)
        for key, value, least in (("n", cfg.n, 2), ("steps", cfg.steps, 1)):
            if value is not None and value < least:
                raise ConfigError(f"{key} must be >= {least}, got {value}", source=where)

    if cp.has_section("lm"):
        where = f"{path}:[lm]"
        for key in cp["lm"]:
            try:
                cfg.lm_overrides[key if key != "deltat" else "deltaT"] = float(cp["lm"][key])
            except ValueError:
                raise ConfigError(f"lm.{key} must be a number", source=where)

    if cp.has_section("output") and "dir" in cp["output"]:
        cfg.out_dir = cp["output"]["dir"].strip()
    _check_lm(cfg, str(path))
    return cfg


def check_seed(seed: int, source) -> int:
    """The noise generator (PCG64) takes seeds >= 0 only."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}", source=source)
    return seed


def _check_lm(cfg: ExperimentConfig, source: str) -> None:
    """Apply LMConfig's own rules to the LM settings the config gives. The
    fields the case fills in at run time take values that pass: its weights,
    and for the prior under t_init = auto the largest float (> any deltaT)."""
    given = dict(cfg.lm_overrides, max_iter=cfg.max_iter, stop=cfg.stop)
    if cfg.t_init != "auto":
        given["T_init"] = cfg.t_init
    try:
        LMConfig(**{"gamma0": 1.0, "mu0": 1.0, "rho": 0.5, "T_init": sys.float_info.max, **given})
    except ParameterError as exc:
        raise ConfigError(f"{exc} (set by t_init, max_iter, stop or [lm])", source=source)
