"""Workload ``cli-cold``: each README command as a fresh ``knotstat`` process.

One round runs the 15 README examples and the 4 ROADMAP edge inputs once
each, in a seeded order, as ``python -m knotstat.cli`` with
``PYTHONPATH=src``, one process at a time.  README commands must
reproduce ``reference/cli.json`` (exit code and stdout, byte for byte).
Edge inputs are checked against the documented contract instead: exit 0
with parseable output or exit 1 with an ``error`` field, no traceback,
NaN input never ``converged: true``, and an end within the per-operation
wall budget.

The traced run measures the ``cli`` layer from outside: interpreter
start-up (``python -c pass``), the package import (``-X importtime``) and
warm in-process ``cli.run(argv)`` over the README commands.

``python3 bench/cli_cold.py`` rewrites the reference set from the
current code; run it only when an output change is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import Op, OpTimeout, median

TAIL_PERCENTILE = 75.0
MIN_ROUNDS = 3
BUDGET_S = 2.0  # about 6x the slowest README command
PROBES = 5
# One BLAS thread: numpy's import otherwise starts a thread pool whose
# start-up cost depends on whether the host's other vCPU is free.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A speed probe for process start-up that runs no knotstat code.
CONTROL = (["-c", "pass"], ["-c", "import numpy"])
# Fixed reference that scaled times are expressed at: the control's time in
# a fast spell of the host (x86_64, 2 vCPUs) where the baseline was
# recorded; the median over the recorded baseline runs was 0.23 s.
CONTROL_REF_S = 0.18

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference" / "cli.json"

README = [
    ["thresholds", "--q", "2"],
    ["z-alt", "--beta", "1.5", "--mode", "both"],
    ["z-groth", "--beta", "2"],
    ["z-qstar", "--beta", "2"],
    ["z-tau", "--beta", "1.5", "--max-weight", "12"],
    ["figures", "--which", "f", "--q", "11", "--output", "csv"],
    ["kms-toeplitz", "--knot", "3_1", "--beta", "10"],
    ["kms-bc", "--r", "1/2", "--beta", "2"],
    ["kms-psi", "--beta", "2", "--entry", "unknot::e:1/2", "--translate", "3_1"],
    ["ratio-witness", "--n", "3", "--big-n", "12", "--beta", "1"],
    ["ingest", "--catalog", "my_knots.csv", "--output", "csv"],
    ["wirtinger", "--knot", "3_1", "--out", "trefoil.txt"],
    ["alexander", "--knot", "3_1", "--sum", "4_1"],
    ["derham", "--knot", "3_1", "--root-index", "0"],
    ["bc-normalize", "--word", "mu:2 e:1/3 mu*:2"],
]

EDGE = [
    ["z-alt", "--beta", "nan"],
    ["z-tau", "--beta", "nan"],
    ["thresholds", "--q", "1000000"],
    ["kms-bc", "--r", "1/30000001", "--beta", "2"],
]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("KNOTSTAT_")}
    env.update(SINGLE_THREAD)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def make_workdir(out_dir: Path) -> Path:
    """A scratch directory holding the copy of the bundled CSV for ``ingest``."""
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=out_dir))
    shutil.copyfile(ROOT / "src" / "knotstat" / "data" / "knots.csv", work / "my_knots.csv")
    return work


def _cli(argv, work: Path, env: dict, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "knotstat.cli", *argv]
    return subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=timeout)


def warm_up(work: Path) -> float:
    """Wall time of one CLI call; the first one fills the bytecode cache."""
    start = time.perf_counter()
    _cli(README[0], work, child_env(), 60.0)
    return time.perf_counter() - start


def control_probe(work: Path):
    """A probe that times the ``CONTROL`` processes, one after the other.

    They start the interpreter and import numpy but no knotstat code, so a
    change to knotstat cannot move them; their time tracks how fast the
    host starts processes right now.
    """
    env = child_env()
    cmds = [[sys.executable, *args] for args in CONTROL]

    def probe() -> float:
        start = time.perf_counter()
        for cmd in cmds:
            subprocess.run(cmd, cwd=work, env=env, check=True, capture_output=True, timeout=60)
        return time.perf_counter() - start
    return probe


def _contract(argv, proc) -> str | None:
    stderr = proc.stderr.decode(errors="replace")
    if "Traceback" in stderr:
        return "traceback on stderr"
    if proc.returncode not in (0, 1):
        return f"exit code {proc.returncode}"
    try:
        payload = json.loads(proc.stdout)
    except ValueError:
        return "stdout is not JSON"
    if proc.returncode == 1:
        return None if "error" in payload else "exit 1 without an error field"
    if "nan" in [a.lower() for a in argv] and payload.get("converged") is True:
        return "NaN input reported converged: true"
    return None


def build(seed: int, work: Path) -> list[Op]:
    reference = json.loads(REFERENCE.read_text())
    env = child_env()
    ops = []

    def cold(argv):
        try:
            return _cli(argv, work, env, BUDGET_S)
        except subprocess.TimeoutExpired:
            raise OpTimeout() from None  # subprocess.run has killed and reaped the child

    for argv in README:
        want = reference[" ".join(argv)]

        def check(proc, want=want):
            if proc.returncode != want["exit_code"]:
                return f"exit code {proc.returncode} != {want['exit_code']}"
            if proc.stdout.decode() != want["stdout"]:
                return "stdout differs from the reference"
            return None
        ops.append(Op(" ".join(argv), lambda a=argv: cold(a), check))
    for argv in EDGE:
        ops.append(Op(" ".join(argv), lambda a=argv: cold(a),
                      lambda proc, a=argv: _contract(a, proc), pinned=False))
    random.Random(seed).shuffle(ops)
    return ops


def build_warm(seed: int, work: Path) -> list[Op]:
    """The README commands through in-process ``cli.run`` (traced run)."""
    from knotstat import cli

    reference = json.loads(REFERENCE.read_text())
    ops = []
    for argv in README:
        want = reference[" ".join(argv)]

        def call(argv=argv):
            buf = io.StringIO()
            cwd = os.getcwd()
            os.chdir(work)
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.run(argv)
            finally:
                os.chdir(cwd)
            return code, buf.getvalue()

        def check(out, want=want):
            return None if out == (want["exit_code"], want["stdout"]) else (
                "in-process output differs from the reference")
        ops.append(Op(" ".join(argv), call, check,
                      count=lambda out: {"cli.stdout_bytes": len(out[1].encode())}))
    random.Random(seed).shuffle(ops)
    return ops


def _importtime(stderr: str) -> tuple[float, float]:
    """(knotstat import ms, numpy import ms) from ``-X importtime`` output."""
    pkg = numpy = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        raw = parts[2][1:]
        name = raw.strip()
        if raw == name and name.split(".")[0] == "knotstat":
            pkg += cumulative
        if name == "numpy" and not numpy:
            numpy = cumulative
    return pkg / 1000.0, numpy / 1000.0


def layer_probes(work: Path) -> dict:
    """Median interpreter start-up and import times from fresh processes."""
    env = child_env()
    interp, imports, numpy = [], [], []
    for _ in range(PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=work, env=env, check=True,
                       capture_output=True, timeout=60)
        interp.append((time.perf_counter() - start) * 1000.0)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import knotstat.cli"],
                              cwd=work, env=env, check=True, capture_output=True,
                              text=True, timeout=60)
        pkg_ms, np_ms = _importtime(proc.stderr)
        imports.append(pkg_ms)
        numpy.append(np_ms)
    return {"cli.interp_ms": median(interp), "cli.import_ms": median(imports),
            "cli.import_numpy_ms": median(numpy)}


def write_reference() -> None:
    out = {}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = make_workdir(out_dir)
    try:
        for argv in README:
            proc = _cli(argv, work, child_env(), 60.0)
            out[" ".join(argv)] = {"argv": argv, "exit_code": proc.returncode,
                                   "stdout": proc.stdout.decode()}
    finally:
        shutil.rmtree(work)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_reference()
