"""Machine-readable pass/fail records shared by the hypothesis and property checkers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Witness:
    """Location where a check is tightest or violated."""

    x: tuple    # spatial point
    value: float
    t: float | None = None


@dataclass
class CheckRecord:
    """One sub-check of a hypothesis report."""

    name: str
    status: str                       # pass | fail | inconclusive
    witness: Witness | None = None
    constants: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.status == "pass"


@dataclass
class HypothesisReport:
    records: list
    sample_spec: "object" = None

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    def record(self, name):
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)


@dataclass
class PropertyReport:
    """Outcome of one verified semigroup property."""

    name: str
    status: str                       # pass | fail
    measured: float
    bound: float
    tolerance: float
    witness: Witness | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.status == "pass"

    def report_line(self):
        wt = "" if self.witness is None or self.witness.t is None else repr(float(self.witness.t))
        wx = "" if self.witness is None else " ".join(repr(float(c)) for c in self.witness.x)
        return ", ".join([self.name, self.status, repr(float(self.measured)),
                          repr(float(self.bound)), repr(float(self.tolerance)), wt, wx])


@dataclass
class RateFit:
    """Log-log fit of a time-dependent ratio on a geometric time window."""

    t_min: float
    t_max: float
    times: list
    values: list
    slope: float
    intercept: float
    fit_residual: float
    product_exponent: float           # the ratio is multiplied by t**product_exponent
    product_ratio: float              # max/min of value * t**exponent over the window
    bounded_product: bool
    excluded_nodes: int = 0
