"""In-process tracing of kolsys: wraps the package's functions from outside.

The kolsys modules bind each other's functions with `from ... import`, so a
wrapper is installed on every module attribute that holds the original
function (for example `evolve` in `kolsys.cli`, `kolsys.properties` and
`kolsys.semigroup`), and every binding is put back by `uninstall`.  A target
that has moved to another kolsys module is found there; one that cannot be
found at all is listed in `Tracer.skipped`, because the metrics behind it
would read 0.

Two kinds of wrapper exist:

* a *span* records (id, layer, name, start, end, parent, thread, self time)
  and is kept in memory until the caller writes it out;
* a *tally* is used for calls too frequent to keep one record each
  (coefficient point evaluations, time steps, `fmt`): it adds to a count,
  a total and a self time, and optionally keeps the durations.

Both push a frame on a per-thread stack, so a layer's self time is its
duration minus the time of the wrapped calls made inside it.  A span opened
on a thread whose stack is empty (a sweep worker) takes the open command
span as its parent but does not charge its time to it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import itertools
import statistics
import sys
import threading
from time import perf_counter

# layer of each wrapped function, by defining module
SPAN_TARGETS = {
    "kolsys.semigroup": {
        "evolve": "semigroup.evolve",
        "solve_nested": "semigroup.nested",
        "cesaro_average": "semigroup.average",
        "discrete_average": "semigroup.average",
    },
    "kolsys.discretization": {
        "assemble_scalar_operator": "discretization.assemble",
        "assemble_system_operator": "discretization.assemble",
        "assemble_adjoint_operator": "discretization.assemble",
        "grid_function_from_callable": "discretization.sample",
    },
    "kolsys.hypotheses": {
        "check_hypotheses": "hypotheses.check",
        "compute_common_kernel": "hypotheses.check",
        "check_lyapunov": "hypotheses.check",
        "check_growth": "hypotheses.check",
        "estimate_kp": "hypotheses.check",
        "spectral_check_C": "hypotheses.spectral",
    },
    "kolsys.invariant_measure": {
        "solve_scalar_invariant_density": "invariant_measure.density",
        "oracle_density_1d": "invariant_measure.oracle",
        "build_measure_system": "invariant_measure.other",
        "functional_Mf": "invariant_measure.other",
        "check_infinitesimal_invariance": "invariant_measure.other",
    },
    "kolsys.cli": {
        "_records_text": "cli.format",
        "_report_text": "cli.format",
        "_trajectory_csv": "cli.format",
        "_sweep_row": "cli.sweep_row",
    },
}
PROPERTY_PREFIXES = ("verify_", "estimate_", "jordan_", "counterexample_mode")
FIELD_CALLABLES = ("Q", "b", "C", "dQ", "jac_b", "dC", "d2Q", "d2b", "d2C")

# per-layer metrics: name -> unit, in report order
LAYER_UNITS = {
    "semigroup.evolve_calls": "count",
    "semigroup.steps": "count",
    "semigroup.step_us_p50": "us",
    "semigroup.step_us_p90": "us",
    "semigroup.datum_step_us": "us",
    "semigroup.evolve_s": "s",
    "semigroup.factorizations": "count",
    "semigroup.factor_s": "s",
    "semigroup.factor_distinct_ratio": "ratio",
    "semigroup.bicgstab_calls": "count",
    "semigroup.nested_s": "s",
    "coefficients.evals": "count",
    "coefficients.s": "s",
    "discretization.assemblies": "count",
    "discretization.distinct_ratio": "ratio",
    "discretization.assemble_s": "s",
    "discretization.sample_s": "s",
    "hypotheses.calls": "count",
    "hypotheses.s": "s",
    "hypotheses.spectral_s": "s",
    "invariant_measure.density_calls": "count",
    "invariant_measure.density_s": "s",
    "invariant_measure.oracle_s": "s",
    "properties.s": "s",
    "cli.format_s": "s",
    "cli.fmt_calls": "count",
    "cli.bytes_out": "B",
    "cli.sweep_rows": "count",
    "cli.sweep_row_s_p50": "s",
}


def matrix_key(mat):
    """Content hash of a sparse matrix (CSR or CSC)."""
    h = hashlib.sha256(repr((mat.format, mat.shape)).encode())
    for arr in (mat.data, mat.indices, mat.indptr):
        h.update(arr.tobytes())
    return h.hexdigest()


class _Frame:
    __slots__ = ("id", "child")

    def __init__(self, span_id):
        self.id = span_id
        self.child = 0.0


def _kolsys_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "kolsys" or name.startswith("kolsys."))]


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.tallies = {}      # layer -> [count, total, self, durations or None]
        self.counts = {}       # name -> number
        self.keys = {}         # name -> set of content hashes


class _SplaProxy:
    """Stands in for `scipy.sparse.linalg` inside the module that defines `ThetaStepper`."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.root_id = None
        self.skipped = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._states.append(state)
        return state

    def _wrap(self, fn, layer, record_span, keep_durations=False, after=None):
        """Wrapper timing `fn` as `layer`; `after(state, args, kwargs, result)`
        runs outside the measured interval but inside the caller's child time."""
        tracer = self
        name = getattr(fn, "__qualname__", layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = _Frame(next(tracer._ids))
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                own = dur - frame.child
                if record_span:
                    parent_id = parent.id if parent is not None else tracer.root_id
                    tracer.spans.append((frame.id, layer, name, start, end, parent_id,
                                         threading.get_ident(), own))
                else:
                    tally = state.tallies.get(layer)
                    if tally is None:
                        tally = state.tallies[layer] = [0, 0.0, 0.0,
                                                        [] if keep_durations else None]
                    tally[0] += 1
                    tally[1] += dur
                    tally[2] += own
                    if keep_durations:
                        tally[3].append(dur)
                if parent is not None:
                    parent.child += dur
            if after is not None:
                hook_start = perf_counter()
                after(state, args, kwargs, result)
                if parent is not None:
                    parent.child += perf_counter() - hook_start
            return result

        return wrapper

    def command(self, name, fn, *args):
        """Call fn(*args) as a root span of layer `command`."""
        state = self._state()
        frame = _Frame(next(self._ids))
        self.root_id = frame.id
        state.stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            state.stack.pop()
            self.spans.append((frame.id, "command", name, start, end, None,
                               threading.get_ident(), end - start - frame.child))
            self.root_id = None

    @staticmethod
    def _add(state, name, amount):
        state.counts[name] = state.counts.get(name, 0) + amount

    @staticmethod
    def _key(state, name, key):
        state.keys.setdefault(name, set()).add(key)

    # -- installing ------------------------------------------------------

    def _patch_bindings(self, original, wrapper, modules=None):
        """Point every kolsys module attribute bound to `original` at `wrapper`;
        returns whether any was found."""
        found = False
        for module in modules or _kolsys_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    found = True
        return found

    def _find(self, mod_name, name):
        """The callable `name` of `mod_name`, or of the kolsys module that now
        defines it; None (and listed in `skipped`) if there is none."""
        found = getattr(sys.modules.get(mod_name), name, None)
        if not callable(found):
            found = next((vars(module)[name] for module in _kolsys_modules()
                          if callable(vars(module).get(name))
                          and getattr(vars(module)[name], "__module__", None) == module.__name__),
                         None)
        if found is None:
            self.skipped.append(f"{mod_name}.{name}")
        return found

    def install(self):
        import scipy.sparse.linalg as spla

        import kolsys.cli  # noqa: F401  (loads every module that holds a binding)
        import kolsys.properties as properties

        after = {
            "assemble_scalar_operator": self._after_assemble,
            "assemble_system_operator": self._after_assemble,
            "assemble_adjoint_operator": self._after_assemble,
        }
        targets = {mod: dict(names) for mod, names in SPAN_TARGETS.items()}
        targets["kolsys.properties"] = {
            name: "properties" for name, fn in vars(properties).items()
            if inspect.isfunction(fn) and fn.__module__ == properties.__name__
            and name.startswith(PROPERTY_PREFIXES)}
        if not targets["kolsys.properties"]:
            self.skipped.append("kolsys.properties: " + ", ".join(PROPERTY_PREFIXES))
        for mod_name, names in targets.items():
            for name, layer in names.items():
                original = self._find(mod_name, name)
                if original is not None:
                    self._patch_bindings(original, self._wrap(original, layer, True,
                                                              after=after.get(name)))

        for mod_name, name, make in (
                ("kolsys.cli", "fmt", lambda f: self._wrap(f, "cli.fmt", False)),
                ("kolsys.cli", "atomic_write",
                 lambda f: self._wrap(f, "cli.write", False, after=self._after_write)),
                ("kolsys.coefficients", "make_builtin", self._traced_make_builtin)):
            original = self._find(mod_name, name)
            if original is not None:
                self._patch_bindings(original, make(original))

        stepper = self._find("kolsys.semigroup", "ThetaStepper")
        if stepper is None:
            return
        if "step" in vars(stepper):
            original_step = vars(stepper)["step"]
            self._patches.append((stepper, "step", original_step))
            stepper.step = self._wrap(original_step, "semigroup.step", False,
                                      keep_durations=True, after=self._after_step)
        else:
            self.skipped.append(f"{stepper.__module__}.ThetaStepper.step")

        # the stepper's solver calls, whether its module binds scipy.sparse.linalg
        # itself or the functions by name
        solver_module = sys.modules[stepper.__module__]
        proxy = _SplaProxy(spla)
        found = False
        for name, layer, after_call in (("splu", "semigroup.factor", self._after_factor),
                                        ("spilu", "semigroup.factor", self._after_factor),
                                        ("bicgstab", "semigroup.bicgstab", None)):
            wrapper = self._wrap(getattr(spla, name), layer, False, after=after_call)
            setattr(proxy, name, wrapper)
            found |= self._patch_bindings(getattr(spla, name), wrapper, [solver_module])
        for attr, value in list(vars(solver_module).items()):
            if value is spla:
                self._patches.append((solver_module, attr, spla))
                setattr(solver_module, attr, proxy)
                found = True
        if not found:
            self.skipped.append(f"{solver_module.__name__}: scipy.sparse.linalg")

    def _traced_make_builtin(self, make_builtin):
        @functools.wraps(make_builtin)
        def traced(*args, **kwargs):
            field = make_builtin(*args, **kwargs)
            wrapped = {name: self._wrap(getattr(field, name), "coefficients.eval", False)
                       for name in FIELD_CALLABLES if getattr(field, name) is not None}
            return dataclasses.replace(field, **wrapped)
        return traced

    def uninstall(self):
        """Restore every binding; returns the ones that did not come back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        broken = [f"{getattr(owner, '__name__', owner)}.{attr}"
                  for owner, attr, original in self._patches
                  if vars(owner).get(attr) is not original]
        self._patches = []
        return broken

    # -- per-call hooks --------------------------------------------------

    def _after_step(self, state, args, kwargs, result):
        # one step of a batch of data (columns) counts once per datum
        self._add(state, "semigroup.datum_steps", result.shape[1] if result.ndim == 2 else 1)

    def _after_assemble(self, state, args, kwargs, result):
        self._key(state, "discretization.operators",
                  (result.boundary_kind, result.m, matrix_key(result.matrix)))

    def _after_factor(self, state, args, kwargs, result):
        self._key(state, "semigroup.factor_keys", matrix_key(args[0]))

    def _after_write(self, state, args, kwargs, result):
        text = args[1] if len(args) > 1 else kwargs["text"]
        self._add(state, "cli.bytes_out", len(text.encode("utf-8")))

    # -- collecting ------------------------------------------------------

    def collect(self):
        """Everything recorded since the last call, merged over threads; resets."""
        if any(state.stack for state in self._states):
            raise RuntimeError("collect() called while a traced call is open")
        snap = merge({"tallies": state.tallies, "counts": state.counts, "keys": state.keys,
                      "spans": []} for state in self._states)
        snap["spans"], self.spans = self.spans, []
        self._states = []
        self._local = threading.local()
        return snap


def merge(snapshots):
    """Combine collect() results, for example one per command."""
    out = {"tallies": {}, "counts": {}, "keys": {}, "spans": []}
    for snap in snapshots:
        for layer, (n, total, own, durs) in snap["tallies"].items():
            agg = out["tallies"].setdefault(layer, [0, 0.0, 0.0, []])
            agg[0] += n
            agg[1] += total
            agg[2] += own
            agg[3].extend(durs or ())
        for name, value in snap["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + value
        for name, value in snap["keys"].items():
            out["keys"].setdefault(name, set()).update(value)
        out["spans"].extend(snap["spans"])
    return out


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def layer_metrics(snap):
    """Per-layer metric values (see LAYER_UNITS) from a collect()/merge() result."""
    spans = {}
    for _id, layer, _name, start, end, _parent, _thread, own in snap["spans"]:
        agg = spans.setdefault(layer, [0, 0.0, 0.0, []])
        agg[0] += 1
        agg[1] += end - start
        agg[2] += own
        agg[3].append(end - start)
    empty = [0, 0.0, 0.0, []]

    def span(layer):
        return spans.get(layer, empty)

    def tally(layer):
        return snap["tallies"].get(layer, empty)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = tally("semigroup.step")[0]
    step_us = [d * 1e6 for d in tally("semigroup.step")[3]]
    factors = tally("semigroup.factor")
    assemblies = span("discretization.assemble")
    hyp, spectral = span("hypotheses.check"), span("hypotheses.spectral")
    return {
        "semigroup.evolve_calls": span("semigroup.evolve")[0],
        "semigroup.steps": steps,
        "semigroup.step_us_p50": _quantile(step_us, 0.5),
        "semigroup.step_us_p90": _quantile(step_us, 0.9),
        "semigroup.datum_step_us": ratio(span("semigroup.evolve")[1] * 1e6,
                                         snap["counts"].get("semigroup.datum_steps", 0)),
        "semigroup.evolve_s": span("semigroup.evolve")[1],
        "semigroup.factorizations": factors[0],
        "semigroup.factor_s": factors[1],
        "semigroup.factor_distinct_ratio": ratio(
            len(snap["keys"].get("semigroup.factor_keys", ())), factors[0]),
        "semigroup.bicgstab_calls": tally("semigroup.bicgstab")[0],
        "semigroup.nested_s": span("semigroup.nested")[1],
        "coefficients.evals": tally("coefficients.eval")[0],
        "coefficients.s": tally("coefficients.eval")[1],
        "discretization.assemblies": assemblies[0],
        "discretization.distinct_ratio": ratio(
            len(snap["keys"].get("discretization.operators", ())), assemblies[0]),
        "discretization.assemble_s": assemblies[2],
        "discretization.sample_s": span("discretization.sample")[2],
        "hypotheses.calls": hyp[0] + spectral[0],
        "hypotheses.s": hyp[2] + spectral[2],
        "hypotheses.spectral_s": spectral[2],
        "invariant_measure.density_calls": span("invariant_measure.density")[0],
        "invariant_measure.density_s": span("invariant_measure.density")[2],
        "invariant_measure.oracle_s": span("invariant_measure.oracle")[2],
        "properties.s": span("properties")[2],
        "cli.format_s": span("cli.format")[2] + tally("cli.fmt")[1],
        "cli.fmt_calls": tally("cli.fmt")[0],
        "cli.bytes_out": snap["counts"].get("cli.bytes_out", 0),
        "cli.sweep_rows": span("cli.sweep_row")[0],
        "cli.sweep_row_s_p50": _quantile(span("cli.sweep_row")[3], 0.5),
    }
