"""``repro-uov --inject`` counts ``times=N`` over the whole run.

The CLI gives its fault plan a scratch directory of its own, so every
worker process claims injection slots in one place: with ``--jobs 2``
and ``harness.worker:kill:times=1`` exactly one task is killed (and,
without retries, quarantined), not the first task of every worker.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SCRIPT = textwrap.dedent(
    """
    import sys
    import types

    from repro.codes import get_version
    from repro.experiments import report
    from repro.experiments.harness import ExperimentResult, SimTask, get_runner
    from repro.machine.configs import PENTIUM_PRO


    def run(mode):
        version = get_version("stencil5", "ov")
        machine = PENTIUM_PRO.scaled(64)
        tasks = [
            SimTask.of(version, {"T": 4, "L": 8 + k}, machine) for k in range(6)
        ]
        results = get_runner().run_tasks(tasks, strict=False)
        result = ExperimentResult("tiny", "six small simulations", mode)
        result.claim("a task ran", lambda: any(r is not None for r in results))
        return result


    module = types.ModuleType("repro.experiments.tiny")
    module.run = run
    sys.modules["repro.experiments.tiny"] = module
    report.ALL_EXPERIMENTS = ["tiny"]
    report.memory_behavior_appendix = lambda mode: ""

    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
    """
)


def test_times_counts_per_run_under_two_jobs(tmp_path):
    src = str(Path(repro.__file__).resolve().parent.parent)
    scratch_tmp = tmp_path / "tmp"
    scratch_tmp.mkdir()
    env = {
        k: v for k, v in os.environ.items() if not k.startswith("REPRO_FAULTS")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(scratch_tmp)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            SCRIPT,
            "experiments",
            "--jobs",
            "2",
            "--no-cache",
            "--out",
            str(tmp_path / "report.md"),
            "--inject",
            "harness.worker:kill:times=1",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    summary = re.search(
        r"\((\d+) simulated, \d+ cache hits, \d+ resumed, "
        r"(\d+) quarantined\)",
        proc.stdout,
    )
    assert summary is not None, proc.stdout[-2000:]
    assert (int(summary.group(1)), int(summary.group(2))) == (5, 1)
    # The CLI's scratch dir is gone once the run ends.
    assert list(scratch_tmp.iterdir()) == []
