"""Workloads of the photonbox benchmark: seeded inputs, one op each, output checks.

Each workload is a generator of :class:`Op` objects made from a seed.  An op
holds the timed call into photonbox and an untimed check of its output.  A
check returns ``None`` for a correct output or a :class:`Failure`; a failure
is *known* when it is one of the documented defects listed in
``KNOWN_DEFECTS`` and *unexpected* otherwise.

The timed op streams stay out of the input regions where a known defect
shows, so no timed op fails on a correct program.  Those regions are run
separately, untimed, by :func:`defect_probe`, which counts what they get
wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import photonbox.cli as cli
import photonbox.scenario as scenario
from photonbox import (
    BoxParams,
    FreeFall,
    Harmonic,
    InvalidPrecision,
    Measurement,
    PhotonBoxError,
    PhysConstants,
    Route,
    Scenario,
)

SWEEP_HEADER = (
    "t,chi_p_qcl,chi_q_qcl,dq,dp,dqcl,dm_p,dm_q,dE_p,dE_q,dT,"
    "prod_p,prod_q,bound_ET,valid,degenerate_p,degenerate_q"
)
SWEEP_ROWS = 2001  # rows per sweep_dense op; 2000 intervals, so revivals land on grid points
VERIFY_CHECKS = 10  # check lines printed by `verify --oracle`

# The program's documented thresholds, mirrored so the references follow its rules.
DEGENERACY_ATOL = 1e-12
MIN_DEVICE_PRECISION = 1e-12
BOUND_SLACK = 1e-9

SWEEP_RTOL = 1e-12
BATCH_RTOL = 1e-9

# Timed harmonic inputs keep 1-cos(wt) at or above this, so the rounding of
# the subtraction (about 2e-16 / (1-cos(wt)) relative) stays 50x below
# BATCH_RTOL.  Below it lies the "cancellation" defect, run by defect_probe.
OMC_MIN = 1e-5
PROBES_PER_CLASS = 50

SI = {"hbar": 1.054571817e-34, "c": 299792458.0, "g": 9.81}

KNOWN_DEFECTS = {
    "cancellation": "1-cos(wt) is evaluated by subtraction; output matches that form, "
    "not the cancellation-free 2*sin(wt/2)**2",
    "absolute_precision_floor": "device_dx below the absolute 1e-12 floor is refused, "
    "whatever the unit system",
}


@dataclass(frozen=True)
class Failure:
    """A wrong or refused output: input class, known defect (or None), detail."""

    input_class: str
    defect: str | None
    detail: str

    @property
    def key(self) -> str:
        return f"{self.input_class}/{self.defect or 'unexpected'}"


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not."""

    run: Callable[[], Any]
    check: Callable[[Any], Failure | None]
    out_bytes: Callable[[Any], int] = lambda result: 0


def _close(a: float, b: float, rtol: float) -> bool:
    return a == b or abs(a - b) <= rtol * abs(b)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _config(p: dict) -> dict:
    pot = {"type": "free"} if p["k"] is None else {"type": "harmonic", "k": p["k"]}
    doc = {
        "constants": {"hbar": p["hbar"], "c": p["c"], "g": p["g"]},
        "box": {"M": p["M"], "m": p["m"], "potential": pot},
        "measurement": {"route": p["route"], "device_dx": p["dx"], "device_dcl": p["dcl"]},
        "time": {"t_emit": p["t"]},
        "numeric": {"step": 1e-3},
    }
    if "n" in p:
        doc["oracle"] = {"n": p["n"]}
    return doc


def _write_config(path: Path, p: dict) -> str:
    path.write_text(json.dumps(_config(p)), encoding="utf-8")
    return str(path)


# =============================================================================
# golden file
# =============================================================================


def check_golden(root: Path, work: Path) -> bool:
    """Reproduce tests/data/reference_sweep.csv through the CLI, byte for byte."""
    data = root / "tests" / "data"
    out = work / "golden.csv"
    code = cli.main(
        [
            "sweep",
            "--config",
            str(data / "reference_config.json"),
            "--t-min",
            "0.5",
            "--t-max",
            "4.0",
            "--steps",
            "8",
            "--out",
            str(out),
        ]
    )
    return code == 0 and out.read_bytes() == (data / "reference_sweep.csv").read_bytes()


# =============================================================================
# sweep_dense: CLI sweep writing a SWEEP_ROWS-row CSV
# =============================================================================


def _sweep_params(rng: random.Random, i: int) -> dict:
    p = {
        "hbar": rng.uniform(0.5, 2.0),
        "c": rng.uniform(1.0, 3.0),
        "g": rng.uniform(0.5, 2.0),
        "M": _log_uniform(rng, 100.0, 1e4),
        "m": rng.uniform(0.1, 10.0),
        "route": rng.choice("pq"),
        "dx": _log_uniform(rng, 0.05, 5.0),
        "dcl": rng.uniform(0.0, 0.5),
    }
    if i % 2:
        # Harmonic: a whole number of revival periods on a grid that hits each one.
        w = rng.uniform(0.5, 5.0)
        p["k"] = p["M"] * w * w
        p["t_min"] = 0.0
        p["t_max"] = rng.choice((2, 4, 5, 8)) * 2.0 * math.pi / w
    else:
        p["k"] = None
        p["t_min"] = 0.0 if i % 4 == 0 else rng.uniform(0.1, 1.0)
        p["t_max"] = p["t_min"] + rng.uniform(2.0, 6.0)
    p["t"] = p["t_max"]
    return p


def _free_fall_row(p: dict, t: float) -> dict:
    hbar, c2, g, M = p["hbar"], p["c"] ** 2, p["g"], p["M"]
    dx = p["dx"]
    dq0, dp0 = (hbar / (2.0 * dx), dx) if p["route"] == "p" else (dx, hbar / (2.0 * dx))
    dq = math.hypot(dq0, (t / M) * dp0)
    dp = dp0
    dqcl = math.sqrt(((g / c2) * t * dq0) ** 2 + ((g / c2) * t * t / (2.0 * M) * dp0) ** 2 + p["dcl"] ** 2)
    am_p = g * t
    am_q = g * t * t / (2.0 * M)
    deg_p = am_p < DEGENERACY_ATOL
    deg_q = am_q < DEGENERACY_ATOL
    dm_p = math.inf if deg_p else dp / am_p
    dm_q = math.inf if deg_q else dq / am_q
    return {
        "chi_p_qcl": g * t / c2,
        "chi_q_qcl": g * t * t / (2.0 * M * c2),
        "dq": dq,
        "dp": dp,
        "dqcl": dqcl,
        "dm_p": dm_p,
        "dm_q": dm_q,
        "dE_p": c2 * dm_p,
        "dE_q": c2 * dm_q,
        "prod_p": math.inf if deg_p else c2 * dm_p * dqcl,
        "prod_q": math.inf if deg_q else c2 * dm_q * dqcl,
        "valid": True,
        "degenerate_p": deg_p,
        "degenerate_q": deg_q,
    }


def check_sweep_csv(text: str, p: dict, rows: int) -> str | None:
    """Return None if the CSV is right, else what is wrong with it."""
    lines = text.split("\n")
    if lines[-1] != "":
        return "missing final newline"
    if lines[0] != SWEEP_HEADER:
        return "wrong header"
    body = lines[1:-1]
    if len(body) != rows:
        return f"{len(body)} rows, expected {rows}"
    names = SWEEP_HEADER.split(",")
    bools = {"true": True, "false": False}
    span = p["t_max"] - p["t_min"]
    for i, line in enumerate(body):
        cells = line.split(",")
        if len(cells) != len(names):
            return f"row {i}: {len(cells)} cells"
        try:
            row = {n: (bools[v] if n in ("valid", "degenerate_p", "degenerate_q") else float(v))
                   for n, v in zip(names, cells)}
        except (KeyError, ValueError):
            return f"row {i}: unparsable cell"
        t = row["t"]
        if not _close(t, p["t_min"] + span * i / (rows - 1), SWEEP_RTOL):
            return f"row {i}: t={t} off the grid"
        if row["dT"] != row["dqcl"]:
            return f"row {i}: dT != dqcl"
        if row["bound_ET"] != p["hbar"] / 2.0:
            return f"row {i}: bound_ET != hbar/2"
        for r in ("p", "q"):
            inf = [math.isinf(row[f"{c}_{r}"]) for c in ("dm", "dE", "prod")]
            if any(x != row[f"degenerate_{r}"] for x in inf):
                return f"row {i}: degenerate_{r} disagrees with inf entries"
            if not row[f"degenerate_{r}"] and row[f"prod_{r}"] != row[f"dE_{r}"] * row["dT"]:
                return f"row {i}: prod_{r} != dE_{r}*dT"
        if p["k"] is None:
            ref = _free_fall_row(p, t)
            for name, value in ref.items():
                if isinstance(value, bool):
                    ok = row[name] is value
                else:
                    ok = _close(row[name], value, SWEEP_RTOL)
                if not ok:
                    return f"row {i}: {name}={row[name]!r}, free-fall closed form gives {value!r}"
    return None


def sweep_dense(seed: int, work: Path) -> Iterator[Op]:
    rng = random.Random(f"sweep_dense:{seed}")
    cfg_path = work / "sweep.json"
    out = work / "sweep.csv"
    i = 0
    while True:
        p = _sweep_params(rng, i)
        argv = [
            "sweep",
            "--config",
            _write_config(cfg_path, p),
            "--t-min",
            repr(p["t_min"]),
            "--t-max",
            repr(p["t_max"]),
            "--steps",
            str(SWEEP_ROWS),
            "--out",
            str(out),
        ]
        label = "harmonic" if p["k"] is not None else "free"

        def check(code: int, p: dict = p, label: str = label) -> Failure | None:
            if code != 0:
                return Failure(label, None, f"exit code {code}")
            problem = check_sweep_csv(out.read_text(encoding="utf-8"), p, SWEEP_ROWS)
            return None if problem is None else Failure(label, None, problem)

        yield Op(run=lambda argv=argv: cli.main(argv), check=check, out_bytes=lambda code: out.stat().st_size)
        i += 1


# =============================================================================
# run_batch: construct a Scenario from plain numbers and call run_scenario
# =============================================================================


def _omc(p: dict) -> float:
    """1-cos(wt) of a harmonic input, in the cancellation-free form."""
    return 2.0 * math.sin(0.5 * math.sqrt(p["k"] / p["M"]) * p["t"]) ** 2


def _unit_params(rng: random.Random, route: str) -> dict:
    M = _log_uniform(rng, 100.0, 1e5)
    w = rng.uniform(0.1, 10.0)
    return {
        "class": "unit",
        "hbar": 1.0, "c": 1.0, "g": rng.uniform(0.5, 2.0),
        "M": M, "m": rng.uniform(0.1, 10.0),
        "k": None if rng.random() < 0.5 else M * w * w,
        "route": route, "dx": _log_uniform(rng, 0.05, 5.0),
        "dcl": rng.uniform(0.0, 0.5), "t": rng.uniform(0.5, 4.0),
    }


def _si_params(rng: random.Random, route: str, dx_p: tuple[float, float]) -> dict:
    M = rng.uniform(0.5, 2.0)
    # A momentum precision on route p, a position precision on route q.
    dx = _log_uniform(rng, *dx_p) if route == "p" else _log_uniform(rng, 1e-10, 1e-6)
    return {
        "class": "si",
        **SI,
        "M": M, "m": _log_uniform(rng, 1e-36, 1e-30),
        "k": None if rng.random() < 0.5 else rng.uniform(1.0, 100.0) * M,
        "route": route, "dx": dx,
        "dcl": rng.uniform(0.0, 1e-9), "t": rng.uniform(0.5, 4.0),
    }


def _soft_params(rng: random.Random, route: str, k: float | None) -> dict:
    """M=1000 and spring constant ``k``, or, if None, wt in [5e-3, 5e-2]."""
    M, t = 1000.0, rng.uniform(0.5, 4.0)
    if k is None:
        k = M * (_log_uniform(rng, 5e-3, 5e-2) / t) ** 2
    return {
        "class": "soft_spring",
        "hbar": 1.0, "c": 1.0, "g": 1.0,
        "M": M, "m": rng.uniform(0.1, 10.0), "k": k,
        "route": route, "dx": _log_uniform(rng, 0.05, 5.0),
        "dcl": rng.uniform(0.0, 0.5), "t": t,
    }


def _batch_params(rng: random.Random, i: int) -> dict:
    """Inputs by op index: 3 in 20 soft springs, 3 in 20 SI units, the rest unit scale.

    Every input is outside the known-defect regions: harmonic inputs have
    1-cos(wt) >= OMC_MIN (drawn again otherwise), and SI route-p momentum
    precisions are at least 1e-11, above the absolute floor.
    """
    slot = i % 20
    route = rng.choice("pq")
    while True:
        if slot < 3:
            p = _soft_params(rng, route, None)
        elif slot < 6:
            p = _si_params(rng, route, (1e-11, 1e-8))
        else:
            p = _unit_params(rng, route)
        if p["k"] is None or _omc(p) >= OMC_MIN:
            return p


def _probe_params(rng: random.Random, i: int) -> dict:
    """Input ``i`` of the known-defect regions, PROBES_PER_CLASS of each class."""
    kind = i // PROBES_PER_CLASS
    route = rng.choice("pq")
    if kind == 0:
        # The README's soft springs: k down to 1e-14 at M=1000.
        p = _soft_params(rng, route, _log_uniform(rng, 1e-14, 1e-4))
    elif kind == 1:
        # SI momentum precisions on route p, below the absolute floor.
        p = _si_params(rng, "p", (1e-28, 1e-24))
    else:
        # Unit-scale springs within 4e-3 of a revival (1-cos(wt) < 8e-6).
        p = _unit_params(rng, route)
        n = rng.randint(1, 3)
        w = rng.uniform(0.5 * math.pi * n, 4.0 * math.pi * n)
        offset = rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1e-6, 4e-3)
        p.update(k=p["M"] * w * w, t=(2.0 * math.pi * n + offset) / w)
        p["class"] = "near_revival"
    return p


def batch_reference(p: dict, stable: bool = True) -> dict:
    """Report fields of run_scenario computed independently.

    With ``stable`` the harmonic forms use 1-cos(x) = 2*sin(x/2)**2; without
    it they use the subtraction 1-cos(x), as the program does today.
    """
    hbar, c2, g, M, m, k, t = p["hbar"], p["c"] ** 2, p["g"], p["M"], p["m"], p["k"], p["t"]
    if k is None:
        aq = (1.0, t / M, -g * t * t / (2.0 * M))
        ap = (0.0, 1.0, -g * t)
        acl = (-(g / c2) * t, -(g / c2) * t * t / (2.0 * M))
        chi_p = g * t / c2
        chi_q = g * t * t / (2.0 * M * c2)
        valid = True
    else:
        w = math.sqrt(k / M)
        x = w * t
        s = math.sin(x)
        cx = math.cos(x)
        omc = 2.0 * math.sin(0.5 * x) ** 2 if stable else 1.0 - cx
        aq = (cx, s / (M * w), -(g / k) * omc)
        ap = (-M * w * s, cx, -(M * w * g / k) * s)
        acl = (-(g / c2) * s / w, -(g / c2) * omc / (M * w * w))
        chi_p = g * s / (w * c2)
        chi_q = g * omc / (M * w * w * c2)
        valid = w * t * m < 0.1 * M
    dx = p["dx"]
    dq0, dp0 = (hbar / (2.0 * dx), dx) if p["route"] == "p" else (dx, hbar / (2.0 * dx))
    dq = math.hypot(aq[0] * dq0, aq[1] * dp0)
    dp = math.hypot(ap[0] * dq0, ap[1] * dp0)
    dqcl = math.hypot(acl[0] * dq0, acl[1] * dp0, p["dcl"])
    a_m, spread = (ap[2], dp) if p["route"] == "p" else (aq[2], dq)
    degenerate = abs(a_m) < DEGENERACY_ATOL
    dm = math.inf if degenerate else spread / abs(a_m)
    dE = math.inf if degenerate else c2 * dm
    product = math.inf if degenerate else dE * dqcl
    bound = hbar / 2.0
    return {
        "dq": dq,
        "dp": dp,
        "dqcl": dqcl,
        "chi_p_qcl": chi_p,
        "chi_q_qcl": chi_q,
        "dm": dm,
        "dE": dE,
        "dT": dqcl,
        "product": product,
        "bound": bound,
        "ok": product >= bound * (1.0 - BOUND_SLACK),
        "valid": valid,
        "degenerate": degenerate,
        "check_p": dp * dqcl >= hbar * abs(chi_p) / 2.0 * (1.0 - BOUND_SLACK),
        "check_q": dq * dqcl >= hbar * abs(chi_q) / 2.0 * (1.0 - BOUND_SLACK),
    }


def _report_fields(result: Any) -> dict:
    r = result.report
    return {
        "dq": result.dq,
        "dp": result.dp,
        "dqcl": result.dqcl,
        "chi_p_qcl": result.chi_p_qcl,
        "chi_q_qcl": result.chi_q_qcl,
        "dm": r.dm,
        "dE": r.dE,
        "dT": r.dT,
        "product": r.product,
        "bound": r.bound,
        "ok": r.ok,
        "valid": r.valid,
        "degenerate": r.degenerate,
        "check_p": result.check_p.ok,
        "check_q": result.check_q.ok,
    }


def _mismatch(got: dict, ref: dict) -> str | None:
    for name, value in ref.items():
        if isinstance(value, bool):
            if got[name] is not value:
                return f"{name}={got[name]!r}, reference {value!r}"
        elif not _close(got[name], value, BATCH_RTOL):
            return f"{name}={got[name]!r}, reference {value!r}"
    return None


def check_batch(p: dict, result: Any) -> Failure | None:
    if isinstance(result, PhotonBoxError):
        if isinstance(result, InvalidPrecision) and p["dx"] < MIN_DEVICE_PRECISION:
            return Failure(p["class"], "absolute_precision_floor", str(result))
        return Failure(p["class"], None, f"refused: {type(result).__name__}: {result}")
    if result.report.route.value != p["route"] or result.report.t != p["t"]:
        return Failure(p["class"], None, "report echoes the wrong route or t")
    got = _report_fields(result)
    problem = _mismatch(got, batch_reference(p))
    if problem is None:
        return None
    if p["k"] is not None and _mismatch(got, batch_reference(p, stable=False)) is None:
        return Failure(p["class"], "cancellation", problem)
    return Failure(p["class"], None, problem)


def _batch_call(p: dict) -> Any:
    try:
        s = Scenario(
            constants=PhysConstants(hbar=p["hbar"], c=p["c"], g=p["g"]),
            box=BoxParams(M=p["M"], m=p["m"], potential=FreeFall() if p["k"] is None else Harmonic(k=p["k"])),
            measurement=Measurement(route=Route(p["route"]), device_dx=p["dx"], device_dcl=p["dcl"]),
            t_emit=p["t"],
        )
        return scenario.run_scenario(s)
    except PhotonBoxError as exc:
        return exc


def run_batch(seed: int, work: Path) -> Iterator[Op]:
    rng = random.Random(f"run_batch:{seed}")
    i = 0
    while True:
        p = _batch_params(rng, i)
        yield Op(run=lambda p=p: _batch_call(p), check=lambda result, p=p: check_batch(p, result))
        i += 1


def defect_probe(seed: int) -> list[Failure | None]:
    """Run the known-defect regions once, untimed: one outcome per input.

    Soft springs down to k=1e-14, SI route-p momentum precisions and
    unit-scale springs close to a revival, PROBES_PER_CLASS of each.  The
    program gets many of these wrong today; the count shows when it stops.
    """
    rng = random.Random(f"defect_probe:{seed}")
    outcomes = []
    for i in range(3 * PROBES_PER_CLASS):
        p = _probe_params(rng, i)
        outcomes.append(check_batch(p, _batch_call(p)))
    return outcomes


# =============================================================================
# verify_oracle: CLI verify --oracle
# =============================================================================

# One cycle of ops is a fixed 8-cell design over (horizon, basis size): cell
# j takes horizon stratum j of 8 and basis size _BASIS[7 - j].  Op cost grows
# with both, so pairing them in opposite order keeps every op within about 2x
# of the others, and the median and tail of a run stay put.  Cells j and 7-j
# form a pair whose horizons share mirrored jitter.  The seed shuffles the
# pairs and draws the jitter and every other parameter.  Every cycle thus
# holds the same mix of op sizes, so a run of whole cycles hardly depends on
# the seed.  Basis sizes are fixed per cell: per-step cost jumps where the
# matrices outgrow a cache level, so jitter in n would change the mix.
_STRATA = 8
_BASIS = (32, 36, 40, 44, 48, 52, 56, 60)


def _verify_params(rng: random.Random, j: int, u_t: float, harmonic: bool) -> dict:
    M = _log_uniform(rng, 100.0, 1e4)
    w = rng.uniform(0.25, 1.0)  # 4/w >= t_emit, so the oracle horizon is t_emit
    return {
        "hbar": 1.0, "c": 1.0, "g": rng.uniform(0.5, 2.0),
        "M": M, "m": rng.uniform(0.1, 10.0),
        "k": M * w * w if harmonic else None,
        "route": rng.choice("pq"), "dx": _log_uniform(rng, 0.05, 5.0),
        "dcl": rng.uniform(0.0, 0.5),
        "t": 0.5 + 3.5 * (j + u_t) / _STRATA,
        "n": _BASIS[_STRATA - 1 - j],
    }


def _verify_cycle(rng: random.Random) -> list[dict]:
    pairs = [j for j in range(_STRATA) if j < _STRATA - 1 - j]
    rng.shuffle(pairs)
    cycle = []
    for j in pairs:
        u_t = rng.random()
        harmonic = rng.random() < 0.5
        cycle.append(_verify_params(rng, j, u_t, harmonic))
        cycle.append(_verify_params(rng, _STRATA - 1 - j, 1.0 - u_t, not harmonic))
    return cycle


def _verify_op(p: dict, cfg_path: Path) -> Op:
    argv = ["verify", "--config", _write_config(cfg_path, p), "--oracle"]
    label = "harmonic" if p["k"] is not None else "free"

    def run() -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(out: tuple[int, str]) -> Failure | None:
        code, text = out
        lines = text.splitlines()
        if code != 0:
            return Failure(label, None, f"exit code {code}")
        if len(lines) != VERIFY_CHECKS or any(line.split()[-1] != "pass" for line in lines):
            return Failure(label, None, f"check lines: {lines!r}")
        return None

    return Op(run=run, check=check, out_bytes=lambda out: len(out[1].encode()))


def verify_oracle(seed: int, work: Path) -> Iterator[Op]:
    rng = random.Random(f"verify_oracle:{seed}")
    while True:
        for p in _verify_cycle(rng):
            yield _verify_op(p, work / "verify.json")


# Workload name -> untimed probe of the known-defect regions its inputs avoid.
PROBES = {"run_batch": defect_probe}

# Workload name -> (op stream, ops per cycle of its input design).  A run
# always ends on a whole cycle, so each run sees the same input mix.
WORKLOADS = {
    "sweep_dense": (sweep_dense, 4),
    "run_batch": (run_batch, 20),
    "verify_oracle": (verify_oracle, _STRATA),
}
