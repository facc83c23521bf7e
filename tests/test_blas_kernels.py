"""The CLI's outputs under several OpenBLAS kernels.

OpenBLAS picks its compute kernel for the CPU when it loads, and a DYNAMIC_ARCH
build reads OPENBLAS_CORETYPE to override that choice, so each kernel runs in a
fresh interpreter.  Under each, the golden ``sweep``, ``run`` and plain
``verify`` of the reference config and of the same config on a k = 1000 spring,
and ``verify --oracle`` of the reference config, must print the pinned bytes.
The oracle's commutators are elementwise products and sums in one fixed
order, with no BLAS call; its propagator's small products are BLAS calls
whose digits move between kernels on some configs (ROADMAP item 13), though
not on these.

``sweep`` and ``run`` make no BLAS call: their spreads are elementwise sums in
one fixed order.  So on any config they print, under every kernel, the bytes
the test process prints under its own; the seeded 2001-row sweeps below are
draws whose bytes differed between kernels while the spreads came from a BLAS
product S Sigma S^T.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from photonbox.cli import main

TESTS = pathlib.Path(__file__).resolve().parent
DATA = TESTS / "data"
SRC = TESTS.parent / "src"

# Each kernel tried, and the instruction set it needs, by its name in numpy's
# CPU-feature table.
KERNELS = {"Haswell": "AVX2", "Zen": "AVX2", "Sandybridge": "AVX", "Prescott": "SSE3"}

CONFIGS = {
    "reference": DATA / "reference_config.json",
    "spring": DATA / "spring_config.json",
}

# Runs each config's pinned commands, named in argv, and prints one JSON
# object: per config, each command's exit code and output.
CHILD = """
import contextlib, io, json, pathlib, sys
from photonbox.cli import main

out_dir = pathlib.Path(sys.argv[1])
result = {}
for name, (config, commands) in json.loads(sys.argv[2]).items():
    csv = out_dir / f"{name}.csv"
    grid = ["--t-min", "0.5", "--t-max", "4.0", "--steps", "8", "--out", str(csv)]
    runs = {}
    for command in commands:
        args = command.split()
        sweep = args[0] == "sweep"
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = main([args[0], "--config", config, *args[1:], *(grid if sweep else [])])
        runs[command] = [code, csv.read_text() if sweep else text.getvalue()]
    result[name] = runs
print(json.dumps(result))
"""


# Free-fall draws in the style of the benchmark's sweep_dense, each swept
# from t = 0 over 2001 rows and run at its last time: under an FMA kernel the
# BLAS product moved some spreads by 1 ulp, and with them CSV bytes (and, for
# seed 5, the run text), against a kernel without fused multiply-adds.
SEEDS = [2, 3, 5]

# Prints seeded_outputs of the draws named in argv, as one JSON object, under
# the kernel the environment names.
SEEDED_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_blas_kernels import seeded_outputs
print(json.dumps(seeded_outputs(sys.argv[2], json.loads(sys.argv[3]))))
"""


def seeded_config(seed):
    """A free-fall config drawn from seed, and the last time of its sweep, which is also its t_emit."""
    rng = np.random.default_rng(seed)
    t_max = rng.uniform(2.0, 6.0)
    doc = {
        "constants": {"hbar": rng.uniform(0.5, 2.0), "c": rng.uniform(1.0, 3.0), "g": rng.uniform(0.5, 2.0)},
        "box": {"M": 10 ** rng.uniform(2.0, 4.0), "m": rng.uniform(0.1, 10.0), "potential": {"type": "free"}},
        "measurement": {"route": str(rng.choice(["p", "q"])), "device_dx": 10 ** rng.uniform(-1.3, 0.7),
                        "device_dcl": rng.uniform(0.0, 0.5)},
        "time": {"t_emit": t_max},
    }
    return doc, t_max


def seeded_outputs(out_dir, draws):
    """``sweep`` and ``run`` of each draw through cli.main: per draw, its CSV's sha256 and the run text.

    ``draws`` maps a name to a config path and the last time of its sweep.
    """
    result = {}
    for name, (config, t_max) in draws.items():
        csv = pathlib.Path(out_dir) / f"{name}.csv"
        grid = ["--t-min", "0", "--t-max", repr(t_max), "--steps", "2001", "--out", str(csv)]
        assert main(["sweep", "--config", config, *grid]) == 0
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert main(["run", "--config", config]) == 0
        result[name] = [hashlib.sha256(csv.read_bytes()).hexdigest(), text.getvalue()]
    return result


def blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no "dicts" mode
        return None


def cpu_features():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def pinned():
    verify = (DATA / "reference_verify.txt").read_text().splitlines(keepends=True)
    return {
        "reference": {
            "sweep": [0, (DATA / "reference_sweep.csv").read_text()],
            "run": [0, (DATA / "reference_run.txt").read_text()],
            "verify": [0, "".join(line for line in verify if not line.startswith("oracle_"))],
            "verify --oracle": [0, "".join(verify)],
        },
        "spring": {
            "sweep": [0, (DATA / "spring_sweep.csv").read_text()],
            "run": [0, (DATA / "spring_run.txt").read_text()],
            "verify": [0, (DATA / "spring_verify.txt").read_text()],
        },
    }


def run_under(kernel, child, *args):
    """Run a child script under an OpenBLAS kernel and return its JSON output; skip where there is none."""
    blas = blas_name()
    if blas is None or "openblas" not in blas.lower():
        pytest.skip(f"numpy's BLAS is {blas or 'unknown'}, not OpenBLAS: no kernel to choose")
    feature = KERNELS[kernel]
    if not cpu_features().get(feature):
        pytest.skip(f"this CPU lacks {feature}, which the {kernel} kernel needs")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error"  # as pytest's filterwarnings, in the child interpreter
    env["OPENBLAS_CORETYPE"] = kernel
    proc = subprocess.run(
        [sys.executable, "-c", child, *args], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_golden_outputs_under_an_openblas_kernel(tmp_path, kernel):
    want = pinned()
    configs = json.dumps({name: [str(CONFIGS[name]), list(runs)] for name, runs in want.items()})
    assert run_under(kernel, CHILD, str(tmp_path), configs) == want


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_seeded_sweeps_and_runs_match_the_test_process(tmp_path, kernel):
    draws = {}
    for seed in SEEDS:
        doc, t_max = seeded_config(seed)
        config = tmp_path / f"seed{seed}.json"
        config.write_text(json.dumps(doc))
        draws[f"seed{seed}"] = [str(config), t_max]
    got = run_under(kernel, SEEDED_CHILD, str(TESTS), str(tmp_path), json.dumps(draws))
    assert got == seeded_outputs(tmp_path, draws)  # under the kernel OpenBLAS picked for this process
