"""Strict sectioned `key = value` configuration files.

Unknown sections or keys are rejected with the offending line number; silent
typos in tolerance names would otherwise invalidate verification runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kolsys.coefficients import BuiltinFamily, libm_pow, make_builtin, rowdot
from kolsys.discretization import build_grid, grid_function_from_callable


class ConfigError(Exception):
    def __init__(self, message, line=None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


SCHEMA = {
    "problem": {"d", "m", "family", "gamma", "beta", "b0", "q0",
                "coupling_kind", "c0"},
    "grid": {"L", "n_per_axis", "boundary"},
    "time": {"dt", "t_final", "theta", "store_every"},
    "nest": {"ladder", "nest_tol", "R_obs"},
    "data": {"f"},
    "verify": {"suite", "R_obs", "phi_exponent", "dom_tol", "pos_tol",
               "inv_tol", "longtime_tol", "slope_margin", "lp_tol",
               "fp_tol", "fp_gap", "nest_tol"},
    "sweep": {"gamma", "beta", "b0", "p", "cap", "workers"},
    "run": {"seed"},
    "output": {"out"},
}


@dataclass
class RunConfig:
    """Parsed config: section -> key -> (raw value, line number)."""

    sections: dict
    path: str

    def has_section(self, name):
        return name in self.sections

    def require_section(self, name):
        if name not in self.sections:
            raise ConfigError(f"missing required section [{name}]")

    def get_str(self, section, key, default=None):
        entry = self.sections.get(section, {}).get(key)
        return default if entry is None else entry[0]

    def get_float(self, section, key, default=None):
        entry = self.sections.get(section, {}).get(key)
        if entry is None:
            return default
        try:
            return float(entry[0])
        except ValueError:
            raise ConfigError(f"expected a number for {section}.{key}, "
                              f"got {entry[0]!r}", entry[1]) from None

    def get_int(self, section, key, default=None):
        entry = self.sections.get(section, {}).get(key)
        if entry is None:
            return default
        try:
            return int(entry[0])
        except ValueError:
            raise ConfigError(f"expected an integer for {section}.{key}, "
                              f"got {entry[0]!r}", entry[1]) from None

    def get_floats(self, section, key, default=None):
        entry = self.sections.get(section, {}).get(key)
        if entry is None:
            return default
        try:
            return [float(tok) for tok in entry[0].split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"expected a comma list of numbers for "
                              f"{section}.{key}", entry[1]) from None

    def get_names(self, section, key, default=None):
        entry = self.sections.get(section, {}).get(key)
        if entry is None:
            return default
        return [tok.strip() for tok in entry[0].split(",") if tok.strip()]

    def get_choice(self, section, key, choices, default=None):
        entry = self.sections.get(section, {}).get(key)
        if entry is None:
            return default
        if entry[0] not in choices:
            raise ConfigError(f"{section}.{key} must be one of {sorted(choices)}, "
                              f"got {entry[0]!r}", entry[1])
        return entry[0]


def parse_config(path) -> RunConfig:
    """Parse and validate a config file against the schema."""
    sections = {}
    current = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].split(";", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                if name not in SCHEMA:
                    raise ConfigError(f"unknown section [{name}]", lineno)
                if name in sections:
                    raise ConfigError(f"duplicate section [{name}]", lineno)
                sections[name] = {}
                current = name
                continue
            if "=" not in line:
                raise ConfigError(f"expected `key = value`, got {line!r}", lineno)
            if current is None:
                raise ConfigError("key outside of any section", lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in SCHEMA[current]:
                raise ConfigError(f"unknown key {key!r} in section [{current}]", lineno)
            if key in sections[current]:
                raise ConfigError(f"duplicate key {key!r} in section [{current}]", lineno)
            sections[current][key] = (value, lineno)
    return RunConfig(sections=sections, path=str(path))


def field_from_config(cfg: RunConfig):
    """Build the coefficient field described by the [problem] section."""
    cfg.require_section("problem")
    d = cfg.get_int("problem", "d", 1)
    m = cfg.get_int("problem", "m", 2)
    family = cfg.get_choice("problem", "family", {"polynomial", "ou"}, "polynomial")
    gamma = cfg.get_float("problem", "gamma", 0.0)
    beta = cfg.get_float("problem", "beta", 1.0)
    b0 = cfg.get_float("problem", "b0", 1.0)
    if family == "ou":
        gamma, beta = 0.0, 0.0
    q0_list = cfg.get_floats("problem", "q0")
    if q0_list is None:
        Q0 = np.eye(d)
    else:
        if len(q0_list) != d * d:
            raise ConfigError(f"problem.q0 needs {d * d} entries (row-major), "
                              f"got {len(q0_list)}")
        Q0 = np.array(q0_list).reshape(d, d)
    kind = cfg.get_choice("problem", "coupling_kind",
                          {"exchange2", "zeta3", "constant_matrix"}, "exchange2")
    C0 = None
    if kind == "constant_matrix":
        c0_list = cfg.get_floats("problem", "c0")
        if c0_list is None or len(c0_list) != m * m:
            raise ConfigError(f"problem.c0 needs {m * m} entries (row-major) "
                              "for constant_matrix coupling")
        C0 = np.array(c0_list).reshape(m, m)
    try:
        return make_builtin(BuiltinFamily(dim_d=d, dim_m=m, gamma=gamma, beta=beta,
                                          b0=b0, Q0=Q0, coupling_kind=kind, C0=C0))
    except ValueError as exc:
        raise ConfigError(f"invalid problem parameters: {exc}") from None


def grid_from_config(cfg: RunConfig, boundary_override=None):
    cfg.require_section("grid")
    d = cfg.get_int("problem", "d", 1)
    L = cfg.get_float("grid", "L", 6.0)
    n = cfg.get_int("grid", "n_per_axis", 481)
    boundary = boundary_override or cfg.get_choice(
        "grid", "boundary", {"dirichlet", "neumann"}, "neumann")
    try:
        return build_grid(d, L, n, boundary)
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from None


def time_from_config(cfg: RunConfig):
    dt = cfg.get_float("time", "dt", 1e-3)
    t_final = cfg.get_float("time", "t_final", 10.0)
    theta = cfg.get_float("time", "theta", 0.5)
    store_every = cfg.get_int("time", "store_every", None)
    if dt <= 0 or t_final <= 0 or not 0 <= theta <= 1:
        raise ConfigError("invalid [time] parameters: need dt > 0, t_final > 0, "
                          "0 <= theta <= 1")
    return dt, t_final, theta, store_every


def ladder_from_config(cfg: RunConfig):
    """[nest] ladder entry `L:n, L:n, ...` as a list of (L, n) pairs."""
    cfg.require_section("nest")
    entry = cfg.sections["nest"].get("ladder")
    if entry is None:
        raise ConfigError("missing nest.ladder")
    pairs = []
    for tok in entry[0].split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            L_str, n_str = tok.split(":")
            pairs.append((float(L_str), int(n_str)))
        except ValueError:
            raise ConfigError(f"ladder entries are `L:n`, got {tok!r}",
                              entry[1]) from None
    if len(pairs) < 2:
        raise ConfigError("nest.ladder needs at least two rungs", entry[1])
    return pairs


# each builder takes points of shape (N, d) and returns one value per point
DATA_BUILDERS = {
    "tanh": lambda x: np.tanh(x[..., 0]),
    "gauss": lambda x: np.exp(-rowdot(x, x)),
    "bump": lambda x: np.where(rowdot(x, x) < 4.0, libm_pow(1 - rowdot(x, x) / 4.0, 3), 0.0),
    "sin": lambda x: np.sin(x[..., 0]),
    "one": lambda x: 1.0,
    "zero": lambda x: 0.0,
}

_DEFAULT_CYCLE = ("tanh", "gauss", "bump")


def data_callable(cfg: RunConfig, m):
    """Vector-valued initial datum named in [data] f, or the default cycle."""
    names = cfg.get_names("data", "f")
    if names is None:
        names = [_DEFAULT_CYCLE[k % len(_DEFAULT_CYCLE)] for k in range(m)]
    if len(names) != m:
        raise ConfigError(f"data.f needs {m} component names, got {len(names)}")
    builders = []
    for name in names:
        if name not in DATA_BUILDERS:
            raise ConfigError(f"unknown data component {name!r}; "
                              f"choices: {sorted(DATA_BUILDERS)}")
        builders.append(DATA_BUILDERS[name])
    return lambda x: [b(x) for b in builders]


def data_from_config(cfg: RunConfig, grid, m):
    return grid_function_from_callable(grid, data_callable(cfg, m), m=m)
