"""The benchmark's tracer finds every photonbox function it wraps, and its workloads pass.

``perfbench/tracing.py`` replaces photonbox functions and methods by name
and binds the arguments of some of them by parameter name.  These tests
load it by path, unchanged, and check that every name it lists still
exists and that the hooked functions still take the parameters their
hooks read, so that renaming or pruning the API cannot silently break a
traced benchmark run.  They also load ``perfbench/workloads.py`` and run
one input cycle of each workload through its own output check.
"""

import importlib
import importlib.util
import inspect
import itertools
import pathlib
import sys

import pytest

import photonbox.cli  # noqa: F401 - the tracer wraps functions of every listed module
from photonbox import (
    BoxParams,
    FreeFall,
    Measurement,
    NumericOptions,
    OracleConfig,
    PhysConstants,
    Route,
    Scenario,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


tracing = load_perfbench("tracing")
workloads = load_perfbench("workloads")

# Parameters the tracer's hooks read from the bound arguments.
HOOKED = {
    ("dynamics", "evolve_numeric_grid"): ("ts", "opts"),
    ("dynamics", "commutator_ode_grid"): ("ts", "opts"),
    ("oracle", "oracle_evolve"): ("workspace", "t"),
}


def home(module):
    return importlib.import_module(f"photonbox.{module}")


@pytest.mark.parametrize(
    "module, name", [(mod, fn) for mod, fns in tracing.LAYERS.items() for fn in fns]
)
def test_traced_function_exists(module, name):
    assert callable(getattr(home(module), name))


@pytest.mark.parametrize("module, cls, meth", [m[:3] for m in tracing.METHODS])
def test_traced_method_exists(module, cls, meth):
    assert meth in vars(getattr(home(module), cls))


@pytest.mark.parametrize("key", HOOKED, ids=lambda key: ".".join(key))
def test_hooked_function_takes_bound_parameters(key):
    module, name = key
    assert name in tracing.LAYERS[module]
    params = inspect.signature(getattr(home(module), name)).parameters
    for param in HOOKED[key]:
        assert param in params, f"{module}.{name} lost parameter {param!r}"


def test_hooks_record_traced_calls():
    consts = PhysConstants()
    box = BoxParams(M=1000.0, m=1.0, potential=FreeFall())
    ws = home("oracle").build_workspace(OracleConfig(n=16, buffer=2), consts)
    s = Scenario(consts, box, Measurement(Route.P, 0.5), t_emit=1.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        dynamics, oracle = home("dynamics"), home("oracle")
        dynamics.evolve_numeric_grid(consts, box, [0.0, 0.5], NumericOptions(step=0.1))
        dynamics.commutator_ode_grid(consts, box, [0.5])
        oracle.oracle_evolve(ws, consts, box, 0.01)
        home("scenario").sweep(s, 0.5, 4.0, 8)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["dynamics.evolve_numeric_grid.steps"][0] == 5
    assert metrics["dynamics.commutator_ode_grid.steps"][0] == 500
    assert metrics["oracle.oracle_evolve.steps"][0] == 10
    assert metrics["scenario.sweep.calls"][0] == 1
    assert metrics["scenario.sweep.rows"][0] == 8


def test_workload_golden_check_passes(tmp_path):
    assert workloads.check_golden(ROOT, tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_checks_pass_on_one_cycle(tmp_path, name):
    # Ops of one workload share a config and an output file, so each is
    # checked before the next is made.
    make_ops, cycle = workloads.WORKLOADS[name]
    for op in itertools.islice(make_ops(1, tmp_path), cycle):
        failure = op.check(op.run())
        assert failure is None, failure
