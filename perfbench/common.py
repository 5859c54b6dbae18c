"""Helpers shared by the benchmark workloads.

Everything here runs in the benchmark's own process: path and environment
set-up for a checkout, a per-run scratch directory, statistics, memory
readings from ``/proc`` and ``resource``, and the JSON result line.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Per-run scratch space lives inside the checkout (the benchmark reads
#: and writes nowhere else); ``run.py`` removes it on exit.
SCRATCH_PARENT = ROOT / ".perfbench-tmp"

#: Variables that would change what the program does or where it keeps
#: state: fault injection, the run ledger, the default store, compiler
#: selection and sanitizers, and the perf-gate slowdown hook.
_DROPPED_ENV_PREFIXES = ("REPRO_FAULTS", "REPRO_CC")
_DROPPED_ENV = ("REPRO_LEDGER", "REPRO_STORE", "REPRO_PERF_INJECT_SLOWDOWN")


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program (no ``src/repro``)."""


def make_scratch() -> Path:
    SCRATCH_PARENT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_PARENT))


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH_PARENT.rmdir()  # only when no other run is using it
    except OSError:
        pass


def isolated_env(scratch: Path, tag: str) -> dict:
    """A clean child environment whose caches all live under ``scratch``.

    Each call gets fresh ``REPRO_SO_CACHE`` / ``XDG_CACHE_HOME`` /
    ``TMPDIR`` directories, so no compiled object or probe result
    survives from an earlier run or set-up round.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in _DROPPED_ENV and not k.startswith(_DROPPED_ENV_PREFIXES)
    }
    base = scratch / tag
    for sub in ("so", "xdg", "tmp"):
        (base / sub).mkdir(parents=True, exist_ok=True)
    env["REPRO_SO_CACHE"] = str(base / "so")
    env["XDG_CACHE_HOME"] = str(base / "xdg")
    env["TMPDIR"] = str(base / "tmp")
    env["PYTHONPATH"] = str(SRC)
    return env


def enter_env(env: dict) -> None:
    """Make this process use ``env`` (for in-process program calls)."""
    for key in list(os.environ):
        if key not in env:
            del os.environ[key]
    os.environ.update(env)
    tempfile.tempdir = None  # re-read TMPDIR


def import_program() -> None:
    """Put the checkout's ``src`` on the path and import the package."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401


def time_setup_in_child(code: str, env: dict, timeout: float = 60.0) -> float:
    """Run ``code`` in a fresh interpreter; it prints its own elapsed s."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


# -- statistics ---------------------------------------------------------------


def median(values):
    values = sorted(values)
    if not values:
        return float("nan")
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    values = sorted(values)
    if not values:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    return float(values[rank - 1])


# -- memory -------------------------------------------------------------------


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set of one live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def children_max_rss_mb() -> float:
    """Largest peak RSS among this process's waited-for children."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def children(pid: int) -> list[int]:
    """Live child processes of ``pid``."""
    out: list[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
    except OSError:
        pass
    return out


def process_tree(pid: int) -> list[int]:
    """``pid`` and its live descendants."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children(p))
    return out


# -- result -------------------------------------------------------------------


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result object as the last line of standard output.

    ``metrics`` maps name -> (value, unit).
    """
    body = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(body), flush=True)


class Deadline:
    """Measures a run's window of ``seconds``."""

    def __init__(self, seconds: float) -> None:
        self.t0 = time.perf_counter()
        self.end = self.t0 + seconds

    def passed(self) -> bool:
        return time.perf_counter() >= self.end
