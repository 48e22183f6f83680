"""Strict sectioned `key = value` configuration files.

Unknown sections or keys are rejected with the offending line number; silent
typos in tolerance names would otherwise invalidate verification runs.
`SCHEMA` declares each key once, with its kind and its default, and every
value is converted when the file is parsed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kolsys.coefficients import COUPLING_KINDS, BuiltinFamily, libm_pow, rowdot
from kolsys.discretization import BOUNDARY_KINDS, build_grid, grid_function_from_callable


class ConfigError(Exception):
    def __init__(self, message, line=None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# a kind is (what the key expects, converter raising ValueError on bad text)

def _list_of(convert):
    return lambda text: [convert(tok) for tok in text.split(",") if tok.strip()]


def _rung(tok):
    L, n = tok.split(":")
    return float(L), int(n)


def _one_of(*choices):
    def convert(text):
        if text not in choices:
            raise ValueError(text)
        return text
    return f"one of {sorted(choices)}", convert


FLOAT = ("a number", float)
INT = ("an integer", int)
TEXT = ("a string", str)
FLOATS = ("a comma list of numbers", _list_of(float))
NAMES = ("a comma list of names", _list_of(str.strip))
LADDER = ("a comma list of `L:n` rungs", _list_of(_rung))

SUITES = ("core", "rates", "asymptotic", "counterexample")

# section -> key -> (kind, default).  A default of None leaves the choice to
# the code that reads the key; the comment beside it says what that is.
SCHEMA = {
    "problem": {"d": (INT, 1), "m": (INT, 2),
                "family": (_one_of("polynomial", "ou"), "polynomial"),
                "gamma": (FLOAT, 0.0), "beta": (FLOAT, 1.0), "b0": (FLOAT, 1.0),
                "q0": (FLOATS, None),                   # Q0 = I
                "coupling_kind": (_one_of(*COUPLING_KINDS), "exchange2"),
                "c0": (FLOATS, None)},                  # required by constant_matrix
    "grid": {"L": (FLOAT, 6.0), "n_per_axis": (INT, 481),
             "boundary": (_one_of(*BOUNDARY_KINDS), "neumann")},
    "time": {"dt": (FLOAT, 1e-3), "t_final": (FLOAT, 10.0), "theta": (FLOAT, 0.5),
             "store_every": (INT, None)},               # evolve's: about 200 stored times
    "nest": {"ladder": (LADDER, None),                  # required by the nested runs
             "nest_tol": (FLOAT, 1e-4), "R_obs": (FLOAT, 3.0)},
    "data": {"f": (NAMES, ("tanh", "gauss", "bump"))},  # the default cycles over m
    "verify": {"suite": (_one_of(*SUITES), "core"), "R_obs": (FLOAT, 3.0),
               "phi_exponent": (FLOAT, 1.0), "dom_tol": (FLOAT, 1e-6),
               "pos_tol": (FLOAT, None),                # verify_positivity's, by theta
               "inv_tol": (FLOAT, 1e-2), "longtime_tol": (FLOAT, 1e-2),
               "slope_margin": (FLOAT, 0.25), "lp_tol": (FLOAT, 1e-6),
               "fp_tol": (FLOAT, 1e-8), "fp_gap": (FLOAT, 0.1)},
    # each sweep list defaults to the [problem] family's own value.  workers
    # is read by nothing, since the families run serially; it stays accepted
    # because existing configs set it, the benchmark's sweep input among them.
    "sweep": {"gamma": (FLOATS, None), "beta": (FLOATS, None), "b0": (FLOATS, None),
              "p": (FLOATS, (2.0,)), "cap": (INT, 64), "workers": (INT, None)},
    "run": {"seed": (INT, 0)},
    "output": {"out": (TEXT, None)},                    # each command's own file name
}


@dataclass
class RunConfig:
    """Parsed config: section -> key -> (converted value, line number)."""

    sections: dict
    path: str

    def has_section(self, name):
        return name in self.sections

    def require_section(self, name):
        if name not in self.sections:
            raise ConfigError(f"missing required section [{name}]")

    def get(self, section, key):
        """The value of `key`, or its SCHEMA default when the file omits it."""
        entry = self.sections.get(section, {}).get(key)
        return SCHEMA[section][key][1] if entry is None else entry[0]

    def line(self, section, key):
        """The line that set `key`, or None."""
        entry = self.sections.get(section, {}).get(key)
        return None if entry is None else entry[1]


def parse_config(path) -> RunConfig:
    """Parse a config file and convert every value by its SCHEMA kind."""
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
            (expects, convert), _ = SCHEMA[current][key]
            try:
                sections[current][key] = (convert(value), lineno)
            except ValueError:
                raise ConfigError(f"{current}.{key} expects {expects}, got {value!r}",
                                  lineno) from None
    return RunConfig(sections=sections, path=str(path))


def family_from_config(cfg: RunConfig) -> BuiltinFamily:
    """The builtin family described by the [problem] section; make_builtin
    validates it and builds its field."""
    cfg.require_section("problem")
    d, m = cfg.get("problem", "d"), cfg.get("problem", "m")
    q0, c0 = cfg.get("problem", "q0"), cfg.get("problem", "c0")
    kind = cfg.get("problem", "coupling_kind")
    if q0 is not None and len(q0) != d * d:
        raise ConfigError(f"problem.q0 needs {d * d} entries (row-major), "
                          f"got {len(q0)}", cfg.line("problem", "q0"))
    if kind == "constant_matrix" and (c0 is None or len(c0) != m * m):
        raise ConfigError(f"problem.c0 needs {m * m} entries (row-major) "
                          "for constant_matrix coupling", cfg.line("problem", "c0"))
    ou = cfg.get("problem", "family") == "ou"
    return BuiltinFamily(
        dim_d=d, dim_m=m,
        gamma=0.0 if ou else cfg.get("problem", "gamma"),
        beta=0.0 if ou else cfg.get("problem", "beta"),
        b0=cfg.get("problem", "b0"),
        Q0=np.eye(d) if q0 is None else np.array(q0).reshape(d, d),
        coupling_kind=kind,
        C0=np.array(c0).reshape(m, m) if kind == "constant_matrix" else None)


def grid_from_config(cfg: RunConfig, boundary_override=None):
    cfg.require_section("grid")
    try:
        return build_grid(cfg.get("problem", "d"), cfg.get("grid", "L"),
                          cfg.get("grid", "n_per_axis"),
                          boundary_override or cfg.get("grid", "boundary"))
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from None


def time_from_config(cfg: RunConfig):
    dt, t_final = cfg.get("time", "dt"), cfg.get("time", "t_final")
    theta, store_every = cfg.get("time", "theta"), cfg.get("time", "store_every")
    if dt <= 0 or t_final <= 0 or not 0 <= theta <= 1:
        raise ConfigError("invalid [time] parameters: need dt > 0, t_final > 0, "
                          "0 <= theta <= 1")
    if store_every is not None and store_every < 1:
        raise ConfigError(f"time.store_every must be at least 1, got {store_every}",
                          cfg.line("time", "store_every"))
    return dt, t_final, theta, store_every


def ladder_from_config(cfg: RunConfig):
    """[nest] ladder entry `L:n, L:n, ...` as a list of (L, n) pairs."""
    cfg.require_section("nest")
    ladder = cfg.get("nest", "ladder")
    if ladder is None:
        raise ConfigError("missing nest.ladder")
    if len(ladder) < 2:
        raise ConfigError("nest.ladder needs at least two rungs", cfg.line("nest", "ladder"))
    return ladder


# each builder takes points of shape (N, d) and returns one value per point
DATA_BUILDERS = {
    "tanh": lambda x: np.tanh(x[..., 0]),
    "gauss": lambda x: np.exp(-rowdot(x, x)),
    "bump": lambda x: np.where(rowdot(x, x) < 4.0, libm_pow(1 - rowdot(x, x) / 4.0, 3), 0.0),
    "sin": lambda x: np.sin(x[..., 0]),
    "one": lambda x: 1.0,
    "zero": lambda x: 0.0,
}

def data_callable(cfg: RunConfig, m):
    """Vector-valued initial datum named in [data] f, or the default names
    repeated in turn over the m components."""
    names = cfg.get("data", "f")
    line = cfg.line("data", "f")
    if line is None:
        names = [names[k % len(names)] for k in range(m)]
    if len(names) != m:
        raise ConfigError(f"data.f needs {m} component names, got {len(names)}", line)
    builders = []
    for name in names:
        if name not in DATA_BUILDERS:
            raise ConfigError(f"unknown data component {name!r}; "
                              f"choices: {sorted(DATA_BUILDERS)}", line)
        builders.append(DATA_BUILDERS[name])
    return lambda x: [b(x) for b in builders]


def data_from_config(cfg: RunConfig, grid, m):
    return grid_function_from_callable(grid, data_callable(cfg, m), m=m)
