"""The golden outputs under several OpenBLAS kernels.

OpenBLAS picks its compute kernel for the CPU when it loads, and a DYNAMIC_ARCH
build reads OPENBLAS_CORETYPE to override that choice, so each kernel runs in a
fresh interpreter.  Under each, the golden ``sweep``, ``run`` and plain
``verify`` of the reference config and of the same config on a k = 1000 spring,
and ``verify --oracle`` of the reference config, must print the pinned bytes.
The oracle's commutators are elementwise products and sums in one fixed
order, with no BLAS call; its propagator's small products are BLAS calls
whose digits move between kernels on some configs (ROADMAP item 13), though
not on these.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

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


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_golden_outputs_under_an_openblas_kernel(tmp_path, kernel):
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
    want = pinned()
    configs = json.dumps({name: [str(CONFIGS[name]), list(runs)] for name, runs in want.items()})
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), configs],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == want
