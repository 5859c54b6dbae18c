"""The harness runs its process engine on the crash-only worker pool.

Persistent workers serve many tasks each, and a killed worker costs only
the task it was running: the pool respawns that one worker, the task is
retried, and every other in-flight task finishes where it was.
"""

import os
import sys

from repro import obs
from repro.codes import get_version
from repro.experiments.harness import SimTask, SimulationRunner
from repro.machine.configs import PENTIUM_PRO
from repro.resilience.faults import FaultPlan, install_plan
from repro.resilience.retry import RetryPolicy

MACHINE = PENTIUM_PRO.scaled(64)
FAST = RetryPolicy(retries=2, backoff_s=0.0, jitter=0.0)
LENGTHS = (8, 12, 16, 20, 24, 28)


def make_tasks():
    version = get_version("stencil5", "ov")
    return [
        SimTask.of(version, {"T": 4, "L": length}, MACHINE)
        for length in LENGTHS
    ]


def test_workers_are_reused_across_tasks():
    runner = SimulationRunner(jobs=2)
    results = runner.run_tasks(make_tasks())
    assert all(r is not None for r in results)
    workers = runner.telemetry()["workers"]
    assert 1 <= len(workers) <= 2
    assert os.getpid() not in workers


def test_a_kill_fails_only_its_task(tmp_path):
    tasks = make_tasks()
    clean = SimulationRunner(jobs=2).run_tasks(tasks)
    plan = FaultPlan.from_spec(
        "harness.worker:kill:times=1,match=L=12",
        scratch_dir=tmp_path / "faults",
    )
    install_plan(plan)
    plan.arm_env()
    runner = SimulationRunner(jobs=2, retry=FAST)
    chaotic = runner.run_tasks(tasks)
    assert chaotic == clean
    # Only the killed task ran twice; its neighbour kept its worker.
    assert runner.retries_used == 1
    assert not runner.quarantined
    counters = obs.get_metrics().snapshot()["counters"]
    assert counters["harness.worker_restarts"] == 1
    assert counters.get("serve.worker_restarts", 0) == 0


def test_worker_metrics_merge_without_lost_updates():
    # More workers than cores and a tiny switch interval, so the pool's
    # scheduler thread and the runner's thread interleave as often as
    # they can: a merge on the wrong thread would lose counts.
    version = get_version("stencil5", "ov")
    tasks = [
        SimTask.of(version, {"T": 4, "L": length}, MACHINE)
        for length in range(8, 56, 4)
    ]
    SimulationRunner().run_tasks(tasks)
    serial = obs.get_metrics().snapshot()["counters"]
    obs.reset_metrics()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        SimulationRunner(jobs=4, timeout_s=60.0).run_tasks(tasks)
    finally:
        sys.setswitchinterval(interval)
    parallel = obs.get_metrics().snapshot()["counters"]
    for name in ("simulate.runs", "machine.accesses", "sim.cache.misses"):
        assert parallel[name] == serial[name]
    assert parallel["harness.jobs.completed"] == len(tasks)
