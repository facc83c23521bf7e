"""Command-line interface: output format, golden files, exit codes."""

import dataclasses
import decimal
import json
import math
import os
import pathlib
import stat
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

import photonbox.cli
import photonbox.scenario
from photonbox import (
    ConfigError,
    InferenceReport,
    NumericOptions,
    OracleConfig,
    SWEEP_DTYPE,
    Scenario,
    sweep,
)
from photonbox.dynamics import _leg_steps
from photonbox.oracle import _phi
from photonbox.cli import _BLOCK_ROWS, _build_parser, build_scenario, load_config, main, sci, sci17, sweep_csv

DATA = pathlib.Path(__file__).parent / "data"
CONFIG = DATA / "reference_config.json"
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_cli(*args, cwd=None, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error"  # as pytest's filterwarnings, in the child interpreter
    return subprocess.run(
        [sys.executable, "-m", "photonbox", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout,
    )


def write_config(tmp_path, t_emit, potential=None, oracle=None, measurement=None):
    cfg = json.loads(CONFIG.read_text())
    cfg["time"]["t_emit"] = t_emit
    if potential is not None:
        cfg["box"]["potential"] = potential
    if oracle is not None:
        cfg["oracle"] = oracle
    if measurement is not None:
        cfg["measurement"] = measurement
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


# ---------------------------------------------------------------------------
# formatters
# ---------------------------------------------------------------------------


def test_sci_shortest_round_trip():
    assert sci(0.5) == "5e-1"
    assert sci(2.0) == "2e0"
    assert sci(0.0) == "0e0"
    assert sci(-0.002) == "-2e-3"
    assert sci(0.5000000624999961) == "5.000000624999961e-1"
    assert sci(1250.0) == "1.25e3"
    assert sci(math.inf) == "inf"
    assert sci(-math.inf) == "-inf"


def test_sci_round_trips_exactly():
    for x in (0.5, 2.0000002499999843, 1.000000499999875, 3.14159e-7, -12345.678):
        assert float(sci(x)) == x


def legacy_sci(x):
    """sci as it was written with decimal digits: the shortest-form reference."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0e0"
    sign, digits, exponent = decimal.Decimal(repr(float(x))).as_tuple()
    while len(digits) > 1 and digits[-1] == 0:
        digits = digits[:-1]
        exponent += 1
    sci_exp = exponent + len(digits) - 1
    mantissa = str(digits[0])
    if len(digits) > 1:
        mantissa += "." + "".join(str(d) for d in digits[1:])
    return ("-" if sign else "") + mantissa + "e" + str(sci_exp)


def legacy_sci17(x):
    """sci17 as it was written before the row writer: the formatting reference."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0.0000000000000000e0"
    mantissa, exponent = f"{x:.16e}".split("e")
    return f"{mantissa}e{int(exponent)}"


# Every float64, plus the cases the exponent rewrite must get right.
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
     2.225073858507201e-308, 1e-100, 1e100, 1.7976931348623157e308, -1.7976931348623157e308,
     1.0, 1e-5, 1e5, 9.999999999999999e9, 1e-280, 1e280, 2**-25]
)
ANY_FLOAT = st.one_of(st.floats(allow_nan=True, allow_infinity=True), EDGE_FLOATS)


@given(ANY_FLOAT)
def test_sci17_matches_legacy(x):
    assert sci17(x) == legacy_sci17(x)


@given(ANY_FLOAT)
def test_sci_matches_legacy(x):
    assert sci(x) == legacy_sci(x)


def legacy_line(row):
    """A sweep CSV line as the per-cell writer formed it: the row writer's reference."""
    row = tuple(row)  # a tuple, or one record of a sweep
    floats, flags = row[:14], row[14:]
    return ",".join([legacy_sci17(x) for x in floats] + ["true" if b else "false" for b in flags])


def assert_csv_matches_legacy(rows):
    assert sweep_csv(rows).split("\n")[1:] == [legacy_line(row) for row in rows] + [""]


@given(st.lists(st.tuples(st.lists(ANY_FLOAT, min_size=14, max_size=14),
                          st.lists(st.booleans(), min_size=3, max_size=3)), max_size=4),
       st.booleans())
def test_sweep_csv_matches_legacy_cells(cells, numpy_scalars):
    if numpy_scalars:
        cells = [([np.float64(x) for x in floats], [np.bool_(b) for b in flags])
                 for floats, flags in cells]
    assert_csv_matches_legacy([(*floats, *flags) for floats, flags in cells])


EDGE_ROW = (-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -5e-324, -1e308, 0.0,
            2.2250738585072014e-308, 2.225073858507201e-308, 1.0, 1.7976931348623157e308,
            -1.7976931348623157e308)


@pytest.mark.parametrize("numpy_scalars", [False, True], ids=["python", "numpy"])
def test_sweep_csv_edge_row(numpy_scalars):
    floats, flags = list(EDGE_ROW), [True, False, True]
    if numpy_scalars:
        floats, flags = [np.float64(x) for x in floats], [np.bool_(b) for b in flags]
    rows = [(*floats, *flags), (*floats[::-1], *flags[::-1])]
    assert_csv_matches_legacy(rows)
    cells = sweep_csv(rows).split("\n")[1].split(",")
    assert cells[:6] == ["0.0000000000000000e0", "inf", "-inf", "nan",
                         "4.9406564584124654e-324", "1.0000000000000000e308"]
    assert cells[-3:] == ["true", "false", "true"]
    assert sweep_csv([]) == photonbox.cli.SWEEP_HEADER + "\n"


def test_sweep_csv_matches_legacy_on_a_multi_revival_spring(tmp_path):
    # Five revival periods of w = 1 on a grid that lands on each one, so the
    # revival rows are degenerate and print inf.
    s = load_config(write_config(tmp_path, 2.0, {"type": "harmonic", "k": 1000.0}))
    rows = sweep(s, 0.0, 5 * 2 * math.pi, 501)
    assert sum(row.degenerate_p for row in rows) >= 5
    assert any(math.isinf(row.dm_p) for row in rows)
    assert_csv_matches_legacy(rows)


@pytest.mark.parametrize(
    "stride", [slice(None, None, 3), slice(None, None, -1)], ids=["every-3rd", "reversed"]
)
def test_sweep_csv_matches_legacy_on_a_strided_sweep(tmp_path, stride):
    s = load_config(write_config(tmp_path, 2.0, {"type": "harmonic", "k": 1000.0}))
    rows = sweep(s, 0.0, 5 * 2 * math.pi, 3 * _BLOCK_ROWS + 1)[stride]
    assert not rows.flags.c_contiguous
    assert_csv_matches_legacy(rows)


def test_sweep_csv_matches_legacy_on_a_sweep_without_gravity():
    # With g = 0 the box learns nothing of the photon: across the block seams
    # every chi is 0 and every dm, dE and product is inf.
    cfg = json.loads(CONFIG.read_text())
    cfg["constants"]["g"] = 0.0
    rows = sweep(build_scenario(cfg), 0.0, 4.0, 2 * _BLOCK_ROWS + 1)
    assert (rows.chi_p_qcl == 0.0).all() and (rows.chi_q_qcl == 0.0).all()
    for name in ("dm_p", "dm_q", "dE_p", "dE_q", "prod_p", "prod_q"):
        assert np.isposinf(rows[name]).all(), name
    assert_csv_matches_legacy(rows)


def rows_of(cells, flags=(True, False, True)):
    """Sweep rows as tuples holding the float cells in order, 14 to a row, the last padded with 0.5."""
    cells = [float(x) for x in cells]
    cells += [0.5] * (-len(cells) % 14)
    return [(*cells[i:i + 14], *flags) for i in range(0, len(cells), 14)]


def test_sweep_csv_matches_legacy_at_every_decade():
    # 10**k and both of its float neighbours, for every k the fast path covers:
    # the cells where floor(log10 |x|) is off by one and the decade is decided
    # from the double-double.  1e280 and 1e-280 are the range ends; the
    # neighbours just outside them fall back to sci17.
    tens = np.array([float(f"1e{k}") for k in range(-280, 281)])
    cells = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    assert_csv_matches_legacy(rows_of(np.concatenate([cells, -cells])))


def test_sweep_csv_rounds_exact_ties_half_even():
    # 2**-25 = 2.98023223876953125e-8 and 3*2**-25 = 8.94069671630859375e-8:
    # 18 significant digits ending in 5, so the 17th digit is rounded to even.
    rows = rows_of([2**-25, 3 * 2**-25])
    assert sweep_csv(rows).split("\n")[1].split(",")[:2] == [
        "2.9802322387695312e-8", "8.9406967163085938e-8"]
    assert_csv_matches_legacy(rows)


def test_sweep_csv_matches_legacy_across_block_seams():
    rng = np.random.default_rng(20)
    n = 2 * _BLOCK_ROWS + 1
    floats = rng.integers(0, 2**64, size=(n, 14), dtype=np.uint64).view(np.float64)
    flags = rng.integers(0, 2, size=(n, 3)).astype(bool)
    assert_csv_matches_legacy([(*f, *b) for f, b in zip(floats.tolist(), flags.tolist())])


def test_sweep_csv_sends_only_uncertified_cells_to_sci17(monkeypatch):
    # Magnitudes outside [1e-280, 1e280] and exact ties go to sci17; zeros,
    # nan and infinities are sci17's fixed texts, and every other cell gets
    # its digits from numpy.
    fallback = [5e-324, 1e300, -1e-300, 2**-25]
    fast = [0.1, -3.5, 1e-6, 1e280, 1e-280, -1.7976931348623157e-280, 2.0000002499999843,
            0.0, -0.0, math.inf, -math.inf, math.nan]
    rows = rows_of(fallback + fast)
    sweep_csv(rows)  # builds the tables, which take the fixed texts from sci17
    calls = []
    monkeypatch.setattr(photonbox.cli, "sci17", lambda x: calls.append(x) or sci17(x))
    assert_csv_matches_legacy(rows)
    assert [repr(x) for x in calls] == [repr(x) for x in fallback]


def seeded_sweep(seed):
    """A 2001-row sweep drawn from seed: a spring for odd seeds, else free fall.

    A spring spans 2, 4, 5 or 8 revival periods on a grid that lands on each
    revival, so its degenerate rows print inf.
    """
    rng = np.random.default_rng(seed)
    M = 10 ** rng.uniform(2.0, 4.0)
    doc = {
        "constants": {"hbar": rng.uniform(0.5, 2.0), "c": rng.uniform(1.0, 3.0), "g": rng.uniform(0.5, 2.0)},
        "box": {"M": M, "m": rng.uniform(0.1, 10.0), "potential": {"type": "free"}},
        "measurement": {"route": str(rng.choice(["p", "q"])), "device_dx": 10 ** rng.uniform(-1.3, 0.7),
                        "device_dcl": rng.uniform(0.0, 0.5)},
        "time": {"t_emit": 1.0},
    }
    if seed % 2:
        w = rng.uniform(0.5, 5.0)
        doc["box"]["potential"] = {"type": "harmonic", "k": M * w * w}
        t_min, t_max = 0.0, int(rng.choice([2, 4, 5, 8])) * 2.0 * math.pi / w
    else:
        t_min = 0.0 if seed % 4 == 0 else rng.uniform(0.1, 1.0)
        t_max = t_min + rng.uniform(2.0, 6.0)
    return sweep(build_scenario(doc), t_min, t_max, 2001)


@pytest.mark.parametrize("seed", range(24))
def test_sweep_csv_matches_legacy_on_seeded_sweeps(seed):
    rows = seeded_sweep(seed)
    if seed % 2:
        assert any(math.isinf(row.dm_p) for row in rows)
    assert sweep_csv(rows) == "\n".join([photonbox.cli.SWEEP_HEADER, *map(legacy_line, rows.tolist()), ""])


def test_sci17_fixed_width():
    assert sci17(0.5) == "5.0000000000000000e-1"
    assert sci17(2.0) == "2.0000000000000000e0"
    assert sci17(-0.002) == "-2.0000000000000000e-3"
    assert sci17(0.0) == "0.0000000000000000e0"
    assert sci17(math.inf) == "inf"
    assert float(sci17(2.0000002499999843)) == 2.0000002499999843


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_reference_output():
    proc = run_cli("run", "--config", str(CONFIG))
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert "route = p" in lines
    assert "dp = 5e-1" in lines
    assert "dqcl = 2.0000002499999843e0" in lines
    assert "chi_p_qcl = 2e0" in lines
    assert "dm = 2.5e-1" in lines
    assert "product = 5.000000624999961e-1" in lines
    assert "bound = 5e-1" in lines
    assert "ok = true" in lines
    assert "degenerate = false" in lines


def test_run_json_out(tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", "--config", str(CONFIG), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["spreads"]["dp"] == 0.5
    assert doc["spreads"]["dqcl"] == 2.0000002499999843
    assert doc["product"] == 0.5000000624999961
    assert doc["ok"] is True
    assert doc["chi"]["p_qcl"] == 2.0


# The whole `run` output, stdout and --out document, for the reference
# config (t_emit 2), for t_emit 0, where dm, dE and product are inf, and for
# route q and a spring beside it.  With M = 1000 the spring k = 1000 has
# omega = 1: route q loses the mass at t = 2*pi, route p at t = pi, and past
# t = 100 the harmonic analysis is no longer valid.
SPRING = {"type": "harmonic", "k": 1000.0}
ROUTE_Q = {"route": "q", "device_dx": 1.0, "device_dcl": 0.0}

# case: (write_config arguments, the --out document, the stdout)
RUN_PINNED = {
    "2.0": (
        {"t_emit": 2.0},
        {
            "route": "p", "t_emit": 2.0,
            "spreads": {"dq": 1.000000499999875, "dp": 0.5, "dqcl": 2.0000002499999843},
            "chi": {"p_qcl": 2.0, "q_qcl": 0.002},
            "dm": 0.25, "dE": 0.25, "dT": 2.0000002499999843, "product": 0.5000000624999961,
            "bound": 0.5, "ok": True, "valid": True, "degenerate": False,
        },
        "route = p\nt_emit = 2e0\ndq = 1.000000499999875e0\ndp = 5e-1\n"
        "dqcl = 2.0000002499999843e0\nchi_p_qcl = 2e0\nchi_q_qcl = 2e-3\ndm = 2.5e-1\n"
        "dE = 2.5e-1\ndT = 2.0000002499999843e0\nproduct = 5.000000624999961e-1\n"
        "bound = 5e-1\nok = true\nvalid = true\ndegenerate = false\n",
    ),
    "0.0": (
        {"t_emit": 0.0},
        {
            "route": "p", "t_emit": 0.0,
            "spreads": {"dq": 1.0, "dp": 0.5, "dqcl": 0.0},
            "chi": {"p_qcl": 0.0, "q_qcl": 0.0},
            "dm": "inf", "dE": "inf", "dT": 0.0, "product": "inf",
            "bound": 0.5, "ok": True, "valid": True, "degenerate": True,
        },
        "route = p\nt_emit = 0e0\ndq = 1e0\ndp = 5e-1\ndqcl = 0e0\nchi_p_qcl = 0e0\n"
        "chi_q_qcl = 0e0\ndm = inf\ndE = inf\ndT = 0e0\nproduct = inf\nbound = 5e-1\n"
        "ok = true\nvalid = true\ndegenerate = true\n",
    ),
    "q-2.0": (
        {"t_emit": 2.0, "measurement": ROUTE_Q},
        {
            "route": "q", "t_emit": 2.0,
            "spreads": {"dq": 1.000000499999875, "dp": 0.5, "dqcl": 2.0000002499999843},
            "chi": {"p_qcl": 2.0, "q_qcl": 0.002},
            "dm": 500.0002499999375, "dE": 500.0002499999375, "dT": 2.0000002499999843,
            "product": 1000.0006249999296, "bound": 0.5, "ok": True, "valid": True, "degenerate": False,
        },
        "route = q\nt_emit = 2e0\ndq = 1.000000499999875e0\ndp = 5e-1\n"
        "dqcl = 2.0000002499999843e0\nchi_p_qcl = 2e0\nchi_q_qcl = 2e-3\n"
        "dm = 5.000002499999375e2\ndE = 5.000002499999375e2\ndT = 2.0000002499999843e0\n"
        "product = 1.0000006249999296e3\nbound = 5e-1\nok = true\nvalid = true\n"
        "degenerate = false\n",
    ),
    "spring-q-1.0": (
        {"t_emit": 1.0, "potential": SPRING, "measurement": ROUTE_Q},
        {
            "route": "q", "t_emit": 1.0,
            "spreads": {"dq": 0.5403024696822915, "dp": 841.4710281734104, "dqcl": 0.8414710161996453},
            "chi": {"p_qcl": 0.8414709848078965, "q_qcl": 0.0004596976941318603},
            "dm": 1175.3430060219323, "dE": 1175.3430060219323, "dT": 0.8414710161996453,
            "product": 989.0170736604211, "bound": 0.5, "ok": True, "valid": True, "degenerate": False,
        },
        "route = q\nt_emit = 1e0\ndq = 5.403024696822915e-1\ndp = 8.414710281734104e2\n"
        "dqcl = 8.414710161996453e-1\nchi_p_qcl = 8.414709848078965e-1\n"
        "chi_q_qcl = 4.596976941318603e-4\ndm = 1.1753430060219323e3\n"
        "dE = 1.1753430060219323e3\ndT = 8.414710161996453e-1\nproduct = 9.890170736604211e2\n"
        "bound = 5e-1\nok = true\nvalid = true\ndegenerate = false\n",
    ),
    "spring-q-2pi": (
        {"t_emit": 2 * math.pi, "potential": SPRING, "measurement": ROUTE_Q},
        {
            "route": "q", "t_emit": 6.283185307179586,
            "spreads": {"dq": 1.0, "dp": 0.5, "dqcl": 2.4492935982947064e-16},
            "chi": {"p_qcl": -2.4492935982947064e-16, "q_qcl": 2.9995195653237154e-35},
            "dm": "inf", "dE": "inf", "dT": 2.4492935982947064e-16, "product": "inf",
            "bound": 0.5, "ok": True, "valid": True, "degenerate": True,
        },
        "route = q\nt_emit = 6.283185307179586e0\ndq = 1e0\ndp = 5e-1\n"
        "dqcl = 2.4492935982947064e-16\nchi_p_qcl = -2.4492935982947064e-16\n"
        "chi_q_qcl = 2.9995195653237154e-35\ndm = inf\ndE = inf\ndT = 2.4492935982947064e-16\n"
        "product = inf\nbound = 5e-1\nok = true\nvalid = true\ndegenerate = true\n",
    ),
    "spring-p-pi": (
        {"t_emit": math.pi, "potential": SPRING},
        {
            "route": "p", "t_emit": 3.141592653589793,
            "spreads": {"dq": 1.0, "dp": 0.5, "dqcl": 0.001},
            "chi": {"p_qcl": 1.2246467991473532e-16, "q_qcl": 0.002},
            "dm": "inf", "dE": "inf", "dT": 0.001, "product": "inf",
            "bound": 0.5, "ok": True, "valid": True, "degenerate": True,
        },
        "route = p\nt_emit = 3.141592653589793e0\ndq = 1e0\ndp = 5e-1\ndqcl = 1e-3\n"
        "chi_p_qcl = 1.2246467991473532e-16\nchi_q_qcl = 2e-3\ndm = inf\ndE = inf\ndT = 1e-3\n"
        "product = inf\nbound = 5e-1\nok = true\nvalid = true\ndegenerate = true\n",
    ),
    "spring-p-200.0": (
        {"t_emit": 200.0, "potential": SPRING},
        {
            "route": "p", "t_emit": 200.0,
            "spreads": {"dq": 0.4871878706831424, "dp": 873.297331187509, "dqcl": 0.8732973348553105},
            "chi": {"p_qcl": -0.8732972972139946, "q_qcl": 0.0005128123249929941},
            "dm": 1000.000038902576, "dE": 1000.000038902576, "dT": 0.8732973348553105,
            "product": 873.2973688288264, "bound": 0.5, "ok": True, "valid": False, "degenerate": False,
        },
        "route = p\nt_emit = 2e2\ndq = 4.871878706831424e-1\ndp = 8.73297331187509e2\n"
        "dqcl = 8.732973348553105e-1\nchi_p_qcl = -8.732972972139946e-1\n"
        "chi_q_qcl = 5.128123249929941e-4\ndm = 1.000000038902576e3\ndE = 1.000000038902576e3\n"
        "dT = 8.732973348553105e-1\nproduct = 8.732973688288264e2\nbound = 5e-1\nok = true\n"
        "valid = false\ndegenerate = false\n",
    ),
}


@pytest.mark.parametrize("case", sorted(RUN_PINNED))
def test_run_output_pinned(tmp_path, capsys, case):
    config, doc, stdout = RUN_PINNED[case]
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(write_config(tmp_path, **config)), "--out", str(out)]) == 0
    assert capsys.readouterr().out == stdout
    assert out.read_text() == json.dumps(doc, indent=2) + "\n"


def test_run_golden_file(capsys):
    # CI compares the installed console script's stdout with the same file.
    assert main(["run", "--config", str(CONFIG)]) == 0
    assert capsys.readouterr().out == (DATA / "reference_run.txt").read_text()


def test_run_document_ends_with_the_report_fields(tmp_path):
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(CONFIG), "--out", str(out)]) == 0
    rest = [f.name for f in dataclasses.fields(InferenceReport) if f.name not in ("route", "t")]
    assert list(json.loads(out.read_text())) == ["route", "t_emit", "spreads", "chi", *rest]


def test_run_degenerate_inf_serialization(tmp_path):
    cfg = json.loads(CONFIG.read_text())
    cfg["time"]["t_emit"] = 0.0
    cfg_path = tmp_path / "zero.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["dm"] == "inf"
    assert doc["degenerate"] is True


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_golden_file(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--config",
            str(CONFIG),
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
    assert code == 0
    assert out.read_bytes() == (DATA / "reference_sweep.csv").read_bytes()


def test_sweep_header_and_endings(tmp_path):
    out = tmp_path / "sweep.csv"
    main(["sweep", "--config", str(CONFIG), "--t-min", "1", "--t-max", "2", "--steps", "2", "--out", str(out)])
    raw = out.read_bytes()
    assert b"\r" not in raw
    header = raw.decode().splitlines()[0]
    assert header == (
        "t,chi_p_qcl,chi_q_qcl,dq,dp,dqcl,dm_p,dm_q,dE_p,dE_q,dT,"
        "prod_p,prod_q,bound_ET,valid,degenerate_p,degenerate_q"
    )


def test_sweep_schema_is_the_row_type():
    # One source for the schema: the record fields of a sweep are the CSV
    # header, as written in the golden file and the README.
    header = ",".join(SWEEP_DTYPE.names)
    assert photonbox.cli.SWEEP_HEADER == header
    assert (DATA / "reference_sweep.csv").read_text().split("\n")[0] == header
    assert header in (ROOT / "README.md").read_text().splitlines()
    flags = ["valid", "degenerate_p", "degenerate_q"]
    assert [name for name in SWEEP_DTYPE.names if SWEEP_DTYPE[name] == bool] == flags
    assert all(SWEEP_DTYPE[name] == float for name in SWEEP_DTYPE.names if name not in flags)
    rows = sweep(load_config(str(CONFIG)), 0.5, 4.0, 2)
    assert isinstance(rows, np.recarray) and rows.dtype == SWEEP_DTYPE and len(rows) == 2
    first = rows.tolist()[0]
    assert [type(v) for v in first] == [float] * 14 + [bool] * 3
    assert rows[0].t == rows.t[0] == first[0] == 0.5
    with pytest.raises(ValueError, match="read-only"):
        rows.t[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        rows[0].t = 1.0


def test_sweep_serializes_inf_rows(tmp_path):
    cfg = json.loads(CONFIG.read_text())
    cfg["box"]["potential"] = {"type": "harmonic", "k": 1000.0}
    cfg_path = tmp_path / "harm.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--config",
            str(cfg_path),
            "--t-min",
            str(math.pi),
            "--t-max",
            str(3 * math.pi),
            "--steps",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    revival = out.read_text().splitlines()[2].split(",")
    assert revival[6] == "inf"  # dm_p
    assert revival[-1] == "true"  # degenerate_q


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes():
    proc = run_cli("verify", "--config", str(CONFIG))
    assert proc.returncode == 0
    assert "frame_closed_vs_rk4" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_verify_fails_at_unreachable_tolerance(tmp_path):
    # A spring, not free fall: RK4 is exact for free fall's cubic
    # coefficients, while a spring's truncation error exceeds 1e-16.
    cfg = write_config(tmp_path, 2.0, potential={"type": "harmonic", "k": 1000.0})
    proc = run_cli("verify", "--config", str(cfg), "--tol", "1e-16")
    assert proc.returncode == 2
    assert "FAIL" in proc.stdout


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_verify_unusable_tolerance_exits_1(tol):
    # An infinite tolerance would pass every check; nan or a negative one
    # would fail every check.  Either way there is no verdict to report.
    proc = run_cli("verify", "--config", str(CONFIG), "--tol", tol, "--oracle")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: tol must be finite and >= 0")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "--tol", "-1e-3"], "error: tol must be finite and >= 0"),
        (["verify", "--tol", "-inf"], "error: tol must be finite and >= 0"),
        (["verify", "--tol", "-.5"], "error: tol must be finite and >= 0"),
        (["sweep", "--t-min", "-1e-3", "--t-max", "1", "--steps", "4", "--out", "x.csv"],
         "error: t_min must be finite and >= 0, got -0.001"),
    ],
    ids=["tol-exponent", "tol-inf", "tol-fraction", "t-min-exponent"],
)
def test_negative_float_literals_reach_the_checks(tmp_path, args, message):
    # A negative value must be read as the option's value, so that the
    # program's own check names the fault, not argparse's "expected one
    # argument".
    command, *rest = args
    proc = run_cli(command, "--config", str(CONFIG), *rest, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith(message)
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_verify_oracle_compares_every_positive_time(tmp_path, monkeypatch, capsys):
    # Legs of 0.125 are shorter than the 0.2 step; each still takes 2 steps.
    cfg = write_config(tmp_path, 0.5, {"type": "harmonic", "k": 1000.0}, {"step": 0.2})
    grids = []

    def recording(consts, box, ts, step):
        grids.append(list(ts))
        return _phi(consts, box, ts, step)

    monkeypatch.setattr(photonbox.oracle, "_phi", recording)
    assert main(["verify", "--config", str(cfg), "--oracle"]) == 0
    assert grids == [[0.0, 0.125, 0.25, 0.375, 0.5]]
    lines = capsys.readouterr().out.splitlines()
    oracle_lines = [line for line in lines if line.startswith("oracle_")]
    assert len(oracle_lines) == 4
    for line in lines:
        assert line.split()[-1] == "pass"
    for line in oracle_lines:
        assert float(line.split()[1].removeprefix("max_dev=")) > 0.0


def test_verify_oracle_step_beyond_horizon_passes(tmp_path):
    # Default step 1e-3 against t_emit 1e-4, then a 1.0 step against 0.5:
    # each leg is one step, as on the numeric route, and every check passes.
    for t_emit, oracle in ((1e-4, None), (0.5, {"step": 1.0})):
        cfg = write_config(tmp_path, t_emit, oracle=oracle)
        proc = run_cli("verify", "--config", str(cfg), "--oracle")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert len(lines) == 10
        assert all(line.split()[-1] == "pass" for line in lines)


@pytest.mark.parametrize("section", ["numeric", "oracle"])
def test_step_count_overflow_exits_1(tmp_path, section):
    # 1e-320 is subnormal and positive, so it passes the step check, but a
    # leg of 0.02 or 0.5 over it is more steps than a float can count.
    cfg = json.loads(CONFIG.read_text())
    cfg[section] = {"step": 1e-320}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli("verify", "--config", str(path), "--oracle")
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {section}.step 1e-320 is too small for the leg from t=0.0")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("n", [10**5, 10**400], ids=["1e5", "401-digit"])
def test_oracle_n_beyond_cap_exits_1(tmp_path, monkeypatch, capsys, n):
    # Refused as the config is read, before any oracle array exists: n = 1e5
    # would ask for about 160 GB of dense matrices, and the 401-digit n
    # overflows np.arange.
    def no_oracle(*args):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(photonbox.scenario, "_clock_devs", no_oracle)
    cfg = write_config(tmp_path, 2.0, oracle={"n": n})
    assert main(["verify", "--config", str(cfg), "--oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid oracle: n must be between 16 and 2048, got ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_grid_beyond_cap_exits_1(tmp_path, capsys, command):
    # 1e12 grid points would ask for terabytes; the cap refuses them before
    # anything is allocated.
    if command == "sweep":
        args = ["--t-min", "0", "--t-max", "1", "--steps", str(10**12),
                "--out", str(tmp_path / "x.csv")]
        message = "error: steps must be between 2 and 1000000, got 1000000000000\n"
    else:
        args = ["--grid", str(10**12)]
        message = "error: grid must be between 2 and 1000000, got 1000000000000\n"
    assert main([command, "--config", str(CONFIG), *args]) == 1
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""
    assert not (tmp_path / "x.csv").exists()


# A map formed as I + hK + (hK)^2/2 + ... rounds the spring's (h*w)^2/2 away
# against the 1 on the diagonal at a small step, and a leg power carries that
# error n-fold (frame_closed_vs_rk4 read 7.2e-9 at step 1e-8).  The leg maps
# are built on their increments over I, so the step may go down to 1e-300.
@pytest.mark.parametrize("step", [1e-6, 1e-8, 1e-12, 1e-300])
def test_stiff_spring_verify_passes_at_a_small_numeric_step(tmp_path, capsys, step):
    cfg = json.loads(CONFIG.read_text())
    cfg["box"]["potential"] = {"type": "harmonic", "k": 1000.0}
    cfg["numeric"] = {"step": step}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["verify", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 0, out


def test_tiny_numeric_step_costs_no_more_than_a_coarse_one(tmp_path):
    # Each leg between grid times is one power of the step map, so 2e8 steps
    # of 1e-8 cost about what 2000 do.  One step at a time, this run would
    # take about 2 x 2e8 Python-level steps.
    cfg = json.loads(CONFIG.read_text())
    cfg["numeric"] = {"step": 1e-8}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    proc = run_cli("verify", "--config", str(path), "--oracle", timeout=60)
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


# A t_emit at which the oracle grid's four legs take 2, 2, 3 and 2 steps of at
# most 0.3: the leg lengths differ in their last bits, across a step count.
MIXED_LEGS_T = 2.4000000000012


def test_mixed_legs_grid_crosses_a_step_count():
    ts = np.linspace(0.0, MIXED_LEGS_T, 5).tolist()
    counts = [_leg_steps(0.3, t0, t1, "oracle.step") for t0, t1 in zip(ts, ts[1:])]
    assert counts == [2, 2, 3, 2]


VERIFY_ORACLE_PINNED = {
    "free": (
        2.0, None, {"n": 24},
        "frame_closed_vs_rk4       max_dev=3.036e-18  tol=1.0e-09  pass\n"
        "chi_closed_vs_ode         max_dev=2.168e-19  tol=1.0e-09  pass\n"
        "chi_frames_vs_closed      max_dev=4.337e-19  tol=1.0e-09  pass\n"
        "chi_rk4_frames_vs_closed  max_dev=3.686e-18  tol=1.0e-09  pass\n"
        "symplectic_closed         max_dev=0.000e+00  tol=1.0e-09  pass\n"
        "symplectic_rk4            max_dev=0.000e+00  tol=1.0e-09  pass\n"
        "oracle_block_p_qcl        max_dev=5.329e-15  tol=1.0e-06  pass\n"
        "oracle_block_q_qcl        max_dev=1.776e-15  tol=1.0e-06  pass\n"
        "oracle_probe_p_qcl        max_dev=2.220e-16  tol=1.0e-06  pass\n"
        "oracle_probe_q_qcl        max_dev=4.337e-19  tol=1.0e-06  pass\n",
    ),
    "harmonic": (
        2.0, {"type": "harmonic", "k": 1000.0}, {"n": 24},
        "frame_closed_vs_rk4       max_dev=1.277e-14  tol=1.0e-09  pass\n"
        "chi_closed_vs_ode         max_dev=5.662e-15  tol=1.0e-09  pass\n"
        "chi_frames_vs_closed      max_dev=3.331e-16  tol=1.0e-09  pass\n"
        "chi_rk4_frames_vs_closed  max_dev=5.773e-15  tol=1.0e-09  pass\n"
        "symplectic_closed         max_dev=2.220e-16  tol=1.0e-09  pass\n"
        "symplectic_rk4            max_dev=4.441e-16  tol=1.0e-09  pass\n"
        "oracle_block_p_qcl        max_dev=9.095e-13  tol=1.0e-06  pass\n"
        "oracle_block_q_qcl        max_dev=4.441e-16  tol=1.0e-06  pass\n"
        "oracle_probe_p_qcl        max_dev=6.661e-15  tol=1.0e-06  pass\n"
        "oracle_probe_q_qcl        max_dev=1.540e-17  tol=1.0e-06  pass\n",
    ),
    # An odd restricted block, r = 25: a product restricted to it would round
    # differently from the full one.
    "free-n33": (
        2.0, None, {"n": 33},
        "frame_closed_vs_rk4       max_dev=3.036e-18  tol=1.0e-09  pass\n"
        "chi_closed_vs_ode         max_dev=2.168e-19  tol=1.0e-09  pass\n"
        "chi_frames_vs_closed      max_dev=4.337e-19  tol=1.0e-09  pass\n"
        "chi_rk4_frames_vs_closed  max_dev=3.686e-18  tol=1.0e-09  pass\n"
        "symplectic_closed         max_dev=0.000e+00  tol=1.0e-09  pass\n"
        "symplectic_rk4            max_dev=0.000e+00  tol=1.0e-09  pass\n"
        "oracle_block_p_qcl        max_dev=1.184e-14  tol=1.0e-06  pass\n"
        "oracle_block_q_qcl        max_dev=1.776e-15  tol=1.0e-06  pass\n"
        "oracle_probe_p_qcl        max_dev=2.220e-16  tol=1.0e-06  pass\n"
        "oracle_probe_q_qcl        max_dev=4.337e-19  tol=1.0e-06  pass\n",
    ),
    "harmonic-n33": (
        2.0, {"type": "harmonic", "k": 1000.0}, {"n": 33},
        "frame_closed_vs_rk4       max_dev=1.277e-14  tol=1.0e-09  pass\n"
        "chi_closed_vs_ode         max_dev=5.662e-15  tol=1.0e-09  pass\n"
        "chi_frames_vs_closed      max_dev=3.331e-16  tol=1.0e-09  pass\n"
        "chi_rk4_frames_vs_closed  max_dev=5.773e-15  tol=1.0e-09  pass\n"
        "symplectic_closed         max_dev=2.220e-16  tol=1.0e-09  pass\n"
        "symplectic_rk4            max_dev=4.441e-16  tol=1.0e-09  pass\n"
        "oracle_block_p_qcl        max_dev=1.819e-12  tol=1.0e-06  pass\n"
        "oracle_block_q_qcl        max_dev=8.882e-16  tol=1.0e-06  pass\n"
        "oracle_probe_p_qcl        max_dev=6.661e-15  tol=1.0e-06  pass\n"
        "oracle_probe_q_qcl        max_dev=1.540e-17  tol=1.0e-06  pass\n",
    ),
    # The default n = 60, with legs of different step counts in one grid.  At
    # step 0.3 the spring's oracle integration is off by 7e-5 and fails.
    "free-step-0.3": (
        MIXED_LEGS_T, None, {"step": 0.3},
        "frame_closed_vs_rk4       max_dev=3.036e-18  tol=1.0e-09  pass\n"
        "chi_closed_vs_ode         max_dev=1.084e-18  tol=1.0e-09  pass\n"
        "chi_frames_vs_closed      max_dev=8.674e-19  tol=1.0e-09  pass\n"
        "chi_rk4_frames_vs_closed  max_dev=7.373e-18  tol=1.0e-09  pass\n"
        "symplectic_closed         max_dev=0.000e+00  tol=1.0e-09  pass\n"
        "symplectic_rk4            max_dev=0.000e+00  tol=1.0e-09  pass\n"
        "oracle_block_p_qcl        max_dev=1.998e-14  tol=1.0e-06  pass\n"
        "oracle_block_q_qcl        max_dev=7.105e-15  tol=1.0e-06  pass\n"
        "oracle_probe_p_qcl        max_dev=1.850e-16  tol=1.0e-06  pass\n"
        "oracle_probe_q_qcl        max_dev=8.674e-19  tol=1.0e-06  pass\n",
    ),
    "harmonic-step-0.3": (
        MIXED_LEGS_T, {"type": "harmonic", "k": 1000.0}, {"step": 0.3},
        "frame_closed_vs_rk4       max_dev=1.851e-14  tol=1.0e-09  pass\n"
        "chi_closed_vs_ode         max_dev=1.299e-14  tol=1.0e-09  pass\n"
        "chi_frames_vs_closed      max_dev=2.220e-16  tol=1.0e-09  pass\n"
        "chi_rk4_frames_vs_closed  max_dev=1.132e-14  tol=1.0e-09  pass\n"
        "symplectic_closed         max_dev=2.220e-16  tol=1.0e-09  pass\n"
        "symplectic_rk4            max_dev=8.882e-16  tol=1.0e-09  pass\n"
        "oracle_block_p_qcl        max_dev=7.136e-05  tol=1.0e-06  FAIL\n"
        "oracle_block_q_qcl        max_dev=1.706e-07  tol=1.0e-06  pass\n"
        "oracle_probe_p_qcl        max_dev=7.136e-05  tol=1.0e-06  FAIL\n"
        "oracle_probe_q_qcl        max_dev=1.706e-07  tol=1.0e-06  pass\n",
    ),
}


@pytest.mark.parametrize("case", sorted(VERIFY_ORACLE_PINNED))
def test_verify_oracle_output_pinned(tmp_path, capsys, case):
    # The oracle digits come from the matrix integration alone: the scalar
    # reference pipeline takes its frames from the package's own dense
    # oracle_evolve_grid, whose diagonals are the frames verify commutes, so
    # this is the test that notices when they move.
    t_emit, potential, oracle, stdout = VERIFY_ORACLE_PINNED[case]
    cfg = write_config(tmp_path, t_emit, potential, oracle)
    code = main(["verify", "--config", str(cfg), "--oracle"])
    assert (code, capsys.readouterr().out) == (2 if "FAIL" in stdout else 0, stdout)


def test_verify_oracle_golden_file(capsys):
    # CI compares the installed console script's stdout with the same file.
    assert main(["verify", "--config", str(CONFIG), "--oracle"]) == 0
    assert capsys.readouterr().out == (DATA / "reference_verify.txt").read_text()


def test_verify_unstable_integration_fails_cleanly(tmp_path):
    # w = 1e5 against the default step 1e-3: the fourth-order map amplifies
    # every step, the numeric frames overflow, and the checks on them fail.
    cfg = write_config(tmp_path, 4.0, potential={"type": "harmonic", "k": 1e13})
    proc = run_cli("verify", "--config", str(cfg))
    assert proc.returncode == 2
    assert proc.stderr == ""
    lines = dict(line.split(None, 1) for line in proc.stdout.splitlines())
    assert lines["frame_closed_vs_rk4"].endswith("FAIL")
    assert lines["chi_frames_vs_closed"].endswith("pass")


@pytest.mark.parametrize("scale", [1e-320, 1e200], ids=["1e-320", "1e200"])
def test_verify_extreme_oracle_scale_fails_cleanly(tmp_path, scale):
    # At 1e-320, hbar/scale overflows and the workspace holds inf and nan, so
    # its self-check reads nan and must refuse it.  At 1e200 the workspace is
    # finite but the matrix commutators overflow, so those checks fail.
    cfg = write_config(tmp_path, 2.0, oracle={"scale": scale})
    proc = run_cli("verify", "--config", str(cfg), "--oracle")
    if scale < 1:
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: oracle.scale 1e-320 leaves the restricted canonical commutator off by nan\n"
        )
        assert proc.stdout == ""
        return
    assert proc.returncode == 2
    assert proc.stderr == ""
    status = {line.split()[0]: line.split()[-1] for line in proc.stdout.splitlines()}
    assert status["oracle_block_q_qcl"] == "FAIL"
    assert all(status[name] == "pass" for name in status if not name.startswith("oracle_"))


# ---------------------------------------------------------------------------
# --out files: created if missing, else overwritten in place and cut to length
# ---------------------------------------------------------------------------

GOLDEN_ARGS = ["--config", str(CONFIG), "--t-min", "0.5", "--t-max", "4.0"]


def sweep_to(out, steps=8):
    return main(["sweep", *GOLDEN_ARGS, "--steps", str(steps), "--out", str(out)])


def test_sweep_rewrite_leaves_no_stale_tail(tmp_path):
    out = tmp_path / "sweep.csv"
    assert sweep_to(out, 50) == 0
    longer = out.stat().st_size
    assert sweep_to(out) == 0
    assert out.stat().st_size < longer
    fresh = tmp_path / "fresh.csv"
    assert sweep_to(fresh) == 0
    assert out.read_bytes() == fresh.read_bytes() == (DATA / "reference_sweep.csv").read_bytes()


def test_run_rewrite_leaves_no_stale_tail(tmp_path):
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(write_config(tmp_path, 2.0)), "--out", str(out)]) == 0
    longer = out.stat().st_size
    cfg = write_config(tmp_path, 0.0)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.stat().st_size < longer
    fresh = tmp_path / "fresh.json"
    assert main(["run", "--config", str(cfg), "--out", str(fresh)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


def test_out_to_null_device_exits_0(capsys):
    assert sweep_to(os.devnull) == 0
    assert main(["run", "--config", str(CONFIG), "--out", os.devnull]) == 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_to_full_device_exits_3(command):
    args = ["--config", str(CONFIG), "--out", "/dev/full"]
    if command == "sweep":
        args = GOLDEN_ARGS + ["--steps", "8", "--out", "/dev/full"]
    proc = run_cli(command, *args)
    assert proc.returncode == 3
    assert proc.stderr.startswith("i/o error:")
    assert "Traceback" not in proc.stderr


def test_directory_out_exits_3(tmp_path, capsys):
    assert sweep_to(tmp_path) == 3
    assert main(["run", "--config", str(CONFIG), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("i/o error:") for line in err)


def test_symlinked_out_writes_through(tmp_path):
    golden = (DATA / "reference_sweep.csv").read_bytes()
    target = tmp_path / "target.csv"
    target.write_bytes(b"stale\n" * 10000)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert sweep_to(link) == 0
    assert link.is_symlink()
    assert target.read_bytes() == golden
    # A dangling link creates its target, as open(path, "w") does.
    missing = tmp_path / "missing.csv"
    dangling = tmp_path / "dangling.csv"
    dangling.symlink_to(missing)
    assert sweep_to(dangling) == 0
    assert dangling.is_symlink()
    assert missing.read_bytes() == golden


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_out_file_modes(tmp_path):
    existing = tmp_path / "existing.csv"
    existing.write_text("old\n")
    existing.chmod(0o600)
    assert sweep_to(existing) == 0
    assert stat.S_IMODE(existing.stat().st_mode) == 0o600
    # A new file gets the mode open(path, "w") would give it under the umask.
    old_umask = os.umask(0o027)
    try:
        open(tmp_path / "by_open", "w").close()
        assert sweep_to(tmp_path / "new.csv") == 0
    finally:
        os.umask(old_umask)
    mode = stat.S_IMODE((tmp_path / "new.csv").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "by_open").stat().st_mode) == 0o640


def test_main_called_in_sequence_matches_fresh_calls(tmp_path, capsys):
    # main builds its parser once per process; parsing must leave it as it
    # was, so each call in a sequence prints and writes what a call on a
    # freshly built parser does.
    def calls(d):
        d.mkdir()
        return [
            ["sweep", "--config", str(CONFIG), "--steps", "8"],
            ["run", "--config", str(CONFIG), "--out", str(d / "report.json")],
            ["sweep", *GOLDEN_ARGS, "--steps", "8", "--out", str(d / "sweep.csv")],
            ["verify", "--config", str(CONFIG), "--grid", "10"],
        ]

    def outcome(argv, d):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err, {p.name: p.read_bytes() for p in d.iterdir()}

    _build_parser.cache_clear()
    seq = tmp_path / "seq"
    in_sequence = [outcome(argv, seq) for argv in calls(seq)]
    assert _build_parser.cache_info().misses == 1
    fresh_dir = tmp_path / "fresh"
    fresh = []
    for argv in calls(fresh_dir):
        _build_parser.cache_clear()
        fresh.append(outcome(argv, fresh_dir))
    assert [r[0] for r in in_sequence] == [1, 0, 0, 0]
    assert in_sequence[0][2].startswith("error: the following arguments are required")
    assert in_sequence == fresh


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_missing_config_exits_3(capsys):
    assert main(["run", "--config", "/no/such/file.json"]) == 3
    assert "i/o error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config schema: each section's keys are the fields of its dataclass
# ---------------------------------------------------------------------------


def full_config(harmonic=True, oracle=True):
    """The reference config, with a spring and an empty oracle section if asked."""
    cfg = json.loads(CONFIG.read_text())
    if harmonic:
        cfg["box"]["potential"] = {"type": "harmonic", "k": 1000.0}
    if oracle:
        cfg["oracle"] = {}
    return cfg


def section_of(cfg, path):
    """The section at a dotted path; ``config`` is the whole document."""
    if path == "config":
        return cfg
    for key in path.split("."):
        cfg = cfg[key]
    return cfg


def config_error(tmp_path, capsys, cfg):
    """The stderr of ``run`` on a config it must refuse with exit 1."""
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    return err


SECTIONS = ["config", "constants", "box", "box.potential", "measurement", "time", "numeric",
            "oracle"]
# Every key of the required sections; box.potential.type is checked on its own.
REQUIRED = {
    "config": "box constants measurement time",
    "constants": "c g hbar",
    "box": "M m potential",
    "box.potential": "k",
    "measurement": "device_dcl device_dx route",
    "time": "t_emit",
}
REQUIRED_KEYS = [(path, key) for path, keys in REQUIRED.items() for key in keys.split()]


@pytest.mark.parametrize("path", SECTIONS)
def test_unknown_key_exits_1(tmp_path, capsys, path):
    cfg = full_config()
    section_of(cfg, path)["extra"] = 1
    assert config_error(tmp_path, capsys, cfg) == f"error: unknown key(s) in {path}: extra\n"


@pytest.mark.parametrize(
    "time, key",
    [('"time": {"t_emit": -1.0}, "time": {"t_emit": 3.0}', "time"),
     ('"time": {"t_emit": -1.0, "t_emit": 3.0}', "t_emit")],
    ids=["section", "t_emit"],
)
def test_repeated_key_exits_1(tmp_path, capsys, time, key):
    # Accepted, the last of the two won: run printed t_emit = 3e0.
    text = CONFIG.read_text()
    p = tmp_path / "bad.json"
    p.write_text(text.replace('"time": {"t_emit": 2.0}', time))
    assert p.read_text() != text
    assert main(["run", "--config", str(p)]) == 1
    assert capsys.readouterr() == ("", f"error: repeated key '{key}' in config\n")


@pytest.mark.parametrize("path, key", REQUIRED_KEYS, ids=[f"{p}.{k}" for p, k in REQUIRED_KEYS])
def test_missing_key_exits_1(tmp_path, capsys, path, key):
    cfg = full_config()
    del section_of(cfg, path)[key]
    assert config_error(tmp_path, capsys, cfg) == f"error: missing key(s) in {path}: {key}\n"


def test_optional_sections_take_the_dataclass_defaults():
    cfg = full_config(oracle=False)
    del cfg["numeric"]
    s = build_scenario(cfg)
    assert (s.numeric, s.oracle) == (NumericOptions(), OracleConfig())
    cfg.update(numeric={}, oracle={})
    s = build_scenario(cfg)
    assert (s.numeric, s.oracle) == (NumericOptions(), OracleConfig())
    cfg["oracle"] = {"buffer": 4, "step": 0.01}
    assert build_scenario(cfg).oracle == OracleConfig(buffer=4, step=0.01)


@pytest.mark.parametrize("key", ["n", "buffer"])
def test_oracle_integer_fields_refuse_floats(tmp_path, capsys, key):
    cfg = full_config()
    cfg["oracle"][key] = 60.0
    assert config_error(tmp_path, capsys, cfg) == f"error: oracle.{key} must be an integer\n"


# JSON values a config key might hold by mistake: non-finite floats are not
# JSON, and integers beyond 4300 digits are refused as the JSON is parsed.
JSON_VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=6), st.integers(), max_size=2),
    st.integers(max_value=-1),
    st.floats(max_value=0.0, allow_infinity=False, allow_nan=False),
    st.integers(min_value=2**63, max_value=10**400),
    st.floats(allow_infinity=False, allow_nan=False),
)


@given(st.data())
def test_one_key_change_builds_or_names_its_section(data):
    cfg = full_config(harmonic=data.draw(st.booleans()), oracle=data.draw(st.booleans()))
    path = data.draw(st.sampled_from([p for p in SECTIONS if p != "oracle" or "oracle" in cfg]))
    section = section_of(cfg, path)
    change = data.draw(st.sampled_from(["replace", "drop", "add"] if section else ["add"]))
    if change == "add":
        key = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in section))
    else:
        key = data.draw(st.sampled_from(sorted(section)))
    if change == "drop":
        del section[key]
    else:
        section[key] = data.draw(JSON_VALUES)
    # Replacing a whole section touches that section.  Scenario checks
    # t_emit itself, so its errors name the key rather than the time section.
    touched = key if path == "config" and change == "replace" else path
    try:
        assert isinstance(build_scenario(cfg), Scenario)
    except ConfigError as exc:
        assert touched in str(exc) or (touched == "time" and "t_emit" in str(exc))


def test_malformed_json_exits_1(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["run", "--config", str(p)]) == 1


def _assert_config_error(path, capsys, message):
    assert main(["run", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [["run"], ["sweep", "--t-min", "0.5", "--t-max", "4", "--steps", "8"], ["verify"],
     ["verify", "--oracle"]],
    ids=["run", "sweep", "verify", "verify-oracle"],
)
@pytest.mark.parametrize(
    "key, value, text",
    [("device_dx", 0, "device_dx must be finite and >= 1e-12, got 0.0"),
     ("device_dcl", -1, "device_dcl must be finite and >= 0, got -1.0")],
    ids=["device_dx", "device_dcl"],
)
def test_invalid_measurement_exits_1_from_every_subcommand(tmp_path, capsys, args, key, value, text):
    cfg = json.loads(CONFIG.read_text())
    cfg["measurement"][key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    out_path = tmp_path / "out.csv"
    out = ["--out", str(out_path)] if args[0] == "sweep" else []
    assert main([args[0], "--config", str(p), *args[1:], *out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid measurement: {text}\n"
    assert not out_path.exists()


def test_speed_of_light_whose_square_underflows_exits_1(tmp_path, capsys):
    cfg = json.loads(CONFIG.read_text())
    cfg["constants"]["c"] = 1e-170
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    _assert_config_error(p, capsys, "error: invalid constants: c**2 must not underflow to 0, got c=1e-170")


def test_speed_of_light_whose_square_overflows_exits_1(tmp_path, capsys):
    # Accepted, c = 1e200 printed dE = inf, product = nan and ok = false.
    cfg = json.loads(CONFIG.read_text())
    cfg["constants"]["c"] = 1e200
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    _assert_config_error(p, capsys, "error: invalid constants: c**2 must not overflow, got c=1e+200")


def test_integer_literal_beyond_float_range_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(CONFIG.read_text().replace("1000.0", "1" + "0" * 400, 1))
    _assert_config_error(p, capsys, "must be finite")


def test_integer_literal_too_long_to_convert_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(CONFIG.read_text().replace("1000.0", "1" + "0" * 5000, 1))
    _assert_config_error(p, capsys, "config is not valid JSON")


def test_config_not_utf8_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_bytes(CONFIG.read_bytes().replace(b'"p"', b'"\xe9"', 1))
    _assert_config_error(p, capsys, "not valid UTF-8")


def test_json_nested_too_deeply_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    depth = 10 * sys.getrecursionlimit()
    p.write_text("[" * depth + "]" * depth)
    _assert_config_error(p, capsys, "nested too deeply")


def test_nonfinite_literal_exits_1(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(CONFIG.read_text().replace("2.0", "Infinity", 1))
    assert main(["run", "--config", str(p)]) == 1


def test_invalid_physics_exits_1(tmp_path):
    cfg = json.loads(CONFIG.read_text())
    cfg["box"]["M"] = -5.0
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 1


def test_bad_route_exits_1(tmp_path):
    cfg = json.loads(CONFIG.read_text())
    cfg["measurement"]["route"] = "x"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 1


def test_bad_sweep_range_exits_1(tmp_path):
    out = tmp_path / "x.csv"
    args = ["sweep", "--config", str(CONFIG), "--out", str(out)]
    assert main(args + ["--t-min", "3", "--t-max", "1", "--steps", "8"]) == 1
    assert main(args + ["--t-min", "0", "--t-max", "1", "--steps", "1"]) == 1


def test_unwritable_output_exits_3():
    args = ["sweep", "--config", str(CONFIG), "--t-min", "1", "--t-max", "2", "--steps", "2"]
    assert main(args + ["--out", "/no/such/dir/x.csv"]) == 3


def test_unknown_subcommand_exits_1():
    assert main(["frobnicate"]) == 1


def _assert_overflow_error(proc):
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Q.a_m" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_overflow_exits_1(tmp_path):
    cfg = json.loads(CONFIG.read_text())
    cfg["time"]["t_emit"] = 1e300
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(cfg))
    _assert_overflow_error(run_cli("run", "--config", str(p)))


@pytest.mark.parametrize("sign", [1, -1], ids=["+", "-"])
def test_integer_literal_past_float_range_reads_as_signed_infinity(tmp_path, capsys, sign):
    # A 401-digit integer literal reads as the infinity of its sign, as a time
    # grid reads such an int.
    assert main(["run", "--config", str(write_config(tmp_path, sign * 10**400))]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: invalid config: t_emit must be finite and >= 0, got {sign * math.inf!r}\n"
    assert captured.out == ""


def test_sweep_overflow_exits_1(tmp_path):
    out = tmp_path / "x.csv"
    args = ["--t-min", "0", "--t-max", "1e300", "--steps", "8", "--out", str(out)]
    proc = run_cli("sweep", "--config", str(CONFIG), *args)
    _assert_overflow_error(proc)
    assert not out.exists()


@pytest.mark.parametrize(
    "args, t",
    [([], "1000.0"), (["--t-min", "0", "--t-max", "1000", "--steps", "3"], "500.0")],
    ids=["run", "sweep"],
)
def test_overflowing_moments_exit_1(tmp_path, capsys, args, t):
    # p*t/M overflows for M = 1e-300, so the propagated moments are not finite.
    cfg = json.loads(CONFIG.read_text())
    cfg["box"].update(M=1e-300, m=1e-301)
    cfg["time"]["t_emit"] = 1e3
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "x.csv"
    command = ["sweep", "--out", str(out)] if args else ["run"]
    assert main([*command, "--config", str(p), *args]) == 1
    assert capsys.readouterr().err == f"error: propagated moments are not finite at t={t}\n"
    assert not out.exists()
