"""In-memory span tracing for the benchmark's traced run.

:class:`Tracer` replaces photonbox's public functions by timing wrappers at
every import site inside the package (``photonbox.scenario.evolve_closed``
as well as ``photonbox.dynamics.evolve_closed``), and two methods on their
classes.  Each call records a span: name, start, end, parent span and op id.
Per-layer call counts and self times are derived from the spans afterwards;
a span's self time is its duration minus the durations of its child spans.
The wrappers live only in the benchmark's process, and ``uninstall`` puts the
original objects back.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from typing import Any, Callable

# Public functions traced, by defining module.
LAYERS = {
    "operators": ("mean_of", "commutator"),
    "dynamics": ("evolve_closed", "commutator_closed", "evolve_numeric_grid", "commutator_ode_grid"),
    "states": (
        "propagate_state",
        "mass_uncertainty",
        "photon_inference",
        "check_bound",
        "prepare_post_measurement_state",
    ),
    "oracle": ("build_workspace", "oracle_commutator", "oracle_evolve"),
    "scenario": ("sweep", "run_scenario", "verify"),
    "cli": ("main", "load_config", "sci17"),
}
# Methods traced: (module, class, method, span name).
METHODS = (
    ("states", "GaussianState", "validate", "states.GaussianState.validate"),
    ("operators", "OperatorCoeffs", "__init__", "operators.OperatorCoeffs"),
)
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns] + [m[3] for m in METHODS]

# Work model of one oracle RK4 step (photonbox.oracle.oracle_evolve): 44
# elementwise passes over n x n complex128 arrays (stages, update, Simpson
# sum), each taken as 2 real flops per element and two reads plus one write.
ORACLE_PASSES_PER_STEP = 44
ORACLE_FLOPS_PER_ELEMENT = 2
ORACLE_BYTES_PER_ELEMENT = 3 * 16


def rk4_steps(ts: Any, step: float) -> int:
    """Fixed-step legs taken to integrate from 0 through the ascending grid ts."""
    total, prev = 0, 0.0
    for t in ts:
        dt = float(t) - prev
        if dt > 0:
            total += max(1, math.ceil(dt / step - 1e-12))
        prev = float(t)
    return total


def oracle_steps(t: float, step: float) -> int:
    """Matrix RK4 steps oracle_evolve takes from 0 to t (an even count)."""
    if t == 0:
        return 0
    n = max(2, math.ceil(t / step - 1e-12))
    return n + n % 2


class Tracer:
    """Records spans of photonbox calls made while installed."""

    def __init__(self) -> None:
        self.op_id = -1
        self._name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self.rows = 0
        self.rk4 = {"dynamics.evolve_numeric_grid": 0, "dynamics.commutator_ode_grid": 0}
        self.oracle_calls: list[tuple[int, float, int, int, float]] = []  # op, t, steps, n, step
        self.validated: list[tuple[int, int]] = []  # op, id(state)
        self._default_step = 1e-3

    # ------------------------------------------------------------------ wrap

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        nid = self._name_ids[name]
        sig = inspect.signature(fn) if hook else None
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = len(self._start)
            self._name.append(nid)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._op.append(self.op_id)
            self._start.append(0.0)
            self._end.append(0.0)
            self._stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                self._stack.pop()
                self._start[idx] = t0
                self._end[idx] = t1
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        return wrapper

    def _hooks(self) -> dict[str, Callable]:
        def rows(args: dict, result: Any) -> None:
            self.rows += len(result)

        def rk4(name: str) -> Callable:
            def hook(args: dict, result: Any) -> None:
                step = args["opts"].step if args["opts"] is not None else self._default_step
                self.rk4[name] += rk4_steps(args["ts"], step)

            return hook

        def oracle(args: dict, result: Any) -> None:
            cfg = args["workspace"].config
            t = float(args["t"])
            self.oracle_calls.append((self.op_id, t, oracle_steps(t, cfg.step), cfg.n, cfg.step))

        def validate(args: dict, result: Any) -> None:
            self.validated.append((self.op_id, id(args["self"])))

        return {
            "scenario.sweep": rows,
            "dynamics.evolve_numeric_grid": rk4("dynamics.evolve_numeric_grid"),
            "dynamics.commutator_ode_grid": rk4("dynamics.commutator_ode_grid"),
            "oracle.oracle_evolve": oracle,
            "states.GaussianState.validate": validate,
        }

    def install(self) -> None:
        """Wrap every traced function at each photonbox module that binds it."""
        self._default_step = sys.modules["photonbox.dynamics"].NumericOptions().step
        hooks = self._hooks()
        modules = [m for n, m in list(sys.modules.items()) if n == "photonbox" or n.startswith("photonbox.")]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"photonbox.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                name = f"{mod_name}.{fn_name}"
                wrapper = self._wrap(name, original, hooks.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[f"photonbox.{mod_name}"], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    # --------------------------------------------------------------- derive

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts and times derived from the recorded spans."""
        n = len(self._start)
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += self._end[i] - self._start[i]
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        inclusive = dict.fromkeys(SPAN_NAMES, 0.0)
        for i in range(n):
            name = SPAN_NAMES[self._name[i]]
            dur = self._end[i] - self._start[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            inclusive[name] += dur
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        out["scenario.sweep.rows"] = (self.rows, "count")
        for name, steps in self.rk4.items():
            out[f"{name}.steps"] = (steps, "count")

        steps = sum(c[2] for c in self.oracle_calls)
        elements = sum(c[2] * c[3] * c[3] for c in self.oracle_calls)
        passes = ORACLE_PASSES_PER_STEP * elements
        out["oracle.oracle_evolve.steps"] = (steps, "count")
        out["oracle.oracle_evolve.us_per_step"] = (
            1e6 * inclusive["oracle.oracle_evolve"] / steps if steps else 0.0,
            "us",
        )
        out["oracle.oracle_evolve.flops_computed"] = (passes * ORACLE_FLOPS_PER_ELEMENT, "flop")
        out["oracle.oracle_evolve.bytes_computed"] = (passes * ORACLE_BYTES_PER_ELEMENT, "B")
        horizon: dict[int, int] = {}
        for op, t, _, _, step in self.oracle_calls:
            horizon[op] = max(horizon.get(op, 0), oracle_steps(t, step))
        needed = sum(horizon.values())
        out["oracle.reintegration_ratio"] = (steps / needed if needed else 0.0, "ratio")
        states = len(set(self.validated))
        out["states.validate_per_state"] = (len(self.validated) / states if states else 0.0, "ratio")
        return out
