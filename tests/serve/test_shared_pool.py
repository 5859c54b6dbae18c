"""The worker pool shared by the daemon and the harness: per-job
deadlines, the pool's ``name``, the internal ``simulate`` kind, and
replacement workers forked during another thread's import."""

import importlib
import sys
import threading
import time

import pytest

from repro import obs
from repro.resilience.faults import FaultPlan, install_plan
from repro.serve.protocol import (
    normalize_compile_request,
    normalize_experiment_request,
)
from repro.serve.workers import WorkerPool, WorkerTimeout

PROBE = {"kind": "probe", "label": "probe"}


def test_timeout_reports_the_jobs_own_deadline(tmp_path):
    plan = FaultPlan.from_spec(
        "serve.worker:timeout:times=1,delay=60", scratch_dir=tmp_path / "faults"
    )
    install_plan(plan)
    plan.arm_env()
    pool = WorkerPool(workers=1, deadline_s=None)
    pool.start()
    try:
        with pytest.raises(WorkerTimeout) as excinfo:
            pool.submit(dict(PROBE), deadline_s=0.5).result(timeout=30)
        assert excinfo.value.deadline_s == 0.5
        assert "0.5s deadline" in str(excinfo.value)
    finally:
        pool.shutdown(grace_s=0.2)


def test_name_labels_the_pool_counters():
    pool = WorkerPool(workers=1, name="harness")
    pool.start()
    try:
        pool.submit(dict(PROBE)).result(timeout=30)
    finally:
        pool.shutdown(grace_s=2.0)
    counters = obs.get_metrics().snapshot()["counters"]
    assert counters["harness.jobs.completed"] == 1
    assert "serve.jobs.completed" not in counters


def test_requests_never_normalise_to_simulate(relax3_spec):
    compile_job = normalize_compile_request(
        {"spec": relax3_spec, "kind": "simulate"}
    )
    experiment_job = normalize_experiment_request(
        {
            "code": "stencil5",
            "version": "ov",
            "sizes": {"T": 4, "L": 12},
            "kind": "simulate",
        }
    )
    assert compile_job["kind"] == "compile"
    assert experiment_job["kind"] == "experiment"


class _ImportOnUnpickle:
    """Pickles as a call to ``importlib.import_module(name)``, so the
    worker that receives it imports ``name``."""

    def __init__(self, name):
        self.name = name

    def __reduce__(self):
        return importlib.import_module, (self.name,)


def test_worker_forked_mid_import_can_import_that_module(
    tmp_path, monkeypatch
):
    # A worker forked while another thread is importing a module inherits
    # that module's lock held by a thread it does not have; without the
    # worker dropping that lock, its own import of the module blocks
    # forever.
    (tmp_path / "slow_import_probe.py").write_text(
        "import time\ntime.sleep(1.0)\nEND = time.monotonic()\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    pool = WorkerPool(workers=1)
    pool.start()
    try:
        assert pool.submit(dict(PROBE)).result(timeout=30)["pid"]
        importer = threading.Thread(
            target=importlib.import_module, args=("slow_import_probe",)
        )
        importer.start()
        time.sleep(0.3)  # well inside the module body
        (victim,) = pool._workers
        victim.proc.kill()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and pool.restarts == 0:
            time.sleep(0.01)
        (replacement,) = pool._workers
        job = dict(PROBE, module=_ImportOnUnpickle("slow_import_probe"))
        assert pool.submit(job).result(timeout=30)["pid"]
        importer.join(timeout=30)
        # The replacement was forked while the import was in progress.
        assert replacement.started_at < sys.modules["slow_import_probe"].END
    finally:
        pool.shutdown(grace_s=0.2)
        sys.modules.pop("slow_import_probe", None)
