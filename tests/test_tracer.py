"""The benchmark's tracer (perfbench/tracer.py) against this tree.

A traced function or field callable that a refactor renames or moves out of
reach would make its per-layer metrics read 0 in a traced benchmark run, so
the tracer must find every target here and put every binding back.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import kolsys.cli
import kolsys.semigroup
from kolsys.coefficients import BuiltinFamily
from kolsys.discretization import assemble_system_operator, build_grid, grid_function_from_callable
from kolsys.semigroup import ThetaStepper

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _kolsys_bindings():
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name == "kolsys" or name.startswith("kolsys.")
            for attr, value in vars(module).items()}


def test_tracer_finds_every_target_and_restores_every_binding():
    tracing = _load_tracer()
    before = _kolsys_bindings()
    step = vars(ThetaStepper)["step"]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.skipped == []
        # make_builtin through the CLI's binding, as the commands reach it
        field = kolsys.cli.make_builtin(BuiltinFamily(dim_d=1, dim_m=2, gamma=0.0, beta=1.0,
                                                      b0=1.0, Q0=np.eye(1)))
        for name in tracing.FIELD_CALLABLES:
            getattr(field, name)(np.zeros((3, 1)))
        metrics = tracing.layer_metrics(tracer.collect())
        assert metrics["coefficients.evals"] == len(tracing.FIELD_CALLABLES) == 9
        # a run of two data, ten steps, through the module's traced bindings
        grid = build_grid(1, 6.0, 41, "neumann")
        op = assemble_system_operator(field, grid)
        data = [grid_function_from_callable(grid, lambda x, a=a: [np.tanh(a * x[..., 0]),
                                                                   np.exp(-x[..., 0] ** 2)])
                for a in (1.0, 2.0)]
        kolsys.semigroup.evolve(op, data, t_final=0.1, dt=1e-2)
        snap = tracer.collect()
        assert tracing.layer_metrics(snap)["semigroup.steps"] == 10
        assert snap["counts"]["semigroup.datum_steps"] == 20
    finally:
        broken = tracer.uninstall()
    assert broken == []
    after = _kolsys_bindings()
    assert [key for key, value in before.items() if after.get(key) is not value] == []
    assert vars(ThetaStepper)["step"] is step
