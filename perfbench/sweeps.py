"""The two simulation-sweep workloads: ``sweep-psm`` and ``sweep-stencil``.

A run repeats one fixed sweep (its points are drawn from the catalog
below by the run's seed) through ``SimulationRunner.run_tasks`` with no
result cache until the window closes, and checks every simulated point's
seven ``AccessStats`` integers and ``storage_elements`` against
``expected.json`` (written by the Python ``MemoryHierarchy``, see
``expected.py``).

The traced run adds one pass that times ``line_trace(...)`` materialised
and ``MemoryHierarchy.run_line_trace`` separately for every point, and
requires that split to reproduce ``simulate()``'s counts exactly.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import astuple, dataclass, replace
from pathlib import Path

from common import (
    Deadline,
    children_max_rss_mb,
    median,
    time_setup_in_child,
    vm_hwm_mb,
)

EXPECTED = Path(__file__).with_name("expected.json")

#: The scaled machines of Figures 9-14: every capacity divided by 32 and
#: main memory capped at 3 MB, so the cache knees and the paging cliff
#: fall inside simulation-sized problems.  Fixed here, not imported from
#: the experiment modules, so the benchmark's inputs cannot drift.
SCALE = 32
MEMORY_CAP = 3 * 1024 * 1024

#: Data seeds a point may take; ``expected.json`` covers each of them.
DATA_SEEDS = (0, 1, 2)

PSM_VERSIONS = ("storage-optimized", "natural", "ov", "ov-tiled")
PSM_SIZES = (96, 160)
PSM_TILE = {"tile_h": 48, "tile_w": 48}

STENCIL_VERSIONS = (
    "storage-optimized",
    "natural",
    "natural-tiled",
    "ov",
    "ov-tiled",
    "ov-interleaved",
    "ov-interleaved-tiled",
)
STENCIL_T = 16
STENCIL_LENGTHS = (512, 2048)
STENCIL_TILE = {"tile_h": 16, "tile_w": 32}
FIG7_VERSIONS = ("storage-optimized", "natural", "ov-interleaved", "ov")
FIG7_SIZES = {"T": 12, "L": 48}
#: natural storage is T*L*8 bytes = 2.2 MB here, past the 2 MB that the
#: scaled Pentium Pro keeps after the cap, so pages are evicted and
#: written back.
PAST_CAP_SIZES = {"T": 16, "L": 18000}

COUNT_NAMES = (
    "accesses",
    "l1_misses",
    "l2_misses",
    "tlb_misses",
    "page_faults",
    "writebacks",
)

#: workload -> harness worker processes
JOBS = {"sweep-psm": 1, "sweep-stencil": 2}


@dataclass(frozen=True)
class Slot:
    """One catalog point; the run's seed picks its data seed."""

    code: str
    version: str
    machine: object  # MachineConfig
    sizes: tuple
    passes: int = 1


def scaled_machines():
    from repro.machine import MACHINES

    out = []
    for m in MACHINES:
        s = m.scaled(SCALE)
        out.append(s.with_memory(min(MEMORY_CAP, s.memory_bytes)))
    return out


def catalog(workload: str) -> list[Slot]:
    """Every point of one sweep, heaviest first (keeps the 2-worker
    pool's tail short, so the sweep time does not depend on order)."""
    from repro.machine import MACHINES

    machines = scaled_machines()
    slots: list[Slot] = []
    if workload == "sweep-psm":
        for n in reversed(PSM_SIZES):
            for m in machines:
                for key in PSM_VERSIONS:
                    sizes = {"n0": n, "n1": n, **PSM_TILE}
                    slots.append(Slot("psm", key, m, tuple(sorted(sizes.items()))))
        return slots
    if workload != "sweep-stencil":
        raise ValueError(workload)
    slots.append(
        Slot(
            "stencil5",
            "natural",
            machines[0],
            tuple(sorted(PAST_CAP_SIZES.items())),
        )
    )
    for length in reversed(STENCIL_LENGTHS):
        for m in machines:
            for key in STENCIL_VERSIONS:
                sizes = {"T": STENCIL_T, "L": length, **STENCIL_TILE}
                slots.append(
                    Slot("stencil5", key, m, tuple(sorted(sizes.items())))
                )
    for m in MACHINES:
        for key in FIG7_VERSIONS:
            slots.append(
                Slot(
                    "stencil5", key, m, tuple(sorted(FIG7_SIZES.items())), passes=2
                )
            )
    return slots


def point_key(slot: Slot, seed: int) -> str:
    sizes = ",".join(f"{k}={v}" for k, v in slot.sizes)
    return (
        f"{slot.code}|{slot.version}|{slot.machine.name}|{sizes}"
        f"|passes={slot.passes}|seed={seed}"
    )


def draw_tasks(workload: str, seed: int):
    """The run's sweep: every catalog point with a seed-chosen data seed."""
    from repro.codes import get_version
    from repro.experiments.harness import SimTask

    rng = random.Random(f"{workload}:{seed}")
    tasks, keys = [], []
    for slot in catalog(workload):
        data_seed = rng.choice(DATA_SEEDS)
        version = get_version(slot.code, slot.version)
        tasks.append(
            SimTask.of(
                version,
                dict(slot.sizes),
                slot.machine,
                passes=slot.passes,
                seed=data_seed,
            )
        )
        keys.append(point_key(slot, data_seed))
    return tasks, keys


def observed(result) -> list[int]:
    """The integers a point is checked on: seven counters + storage."""
    return [*astuple(result.stats), int(result.storage_elements)]


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())["points"]


def _setup_code(workload: str) -> str:
    """Imports and version construction, timed in a fresh interpreter."""
    versions = PSM_VERSIONS if workload == "sweep-psm" else STENCIL_VERSIONS
    code = "psm" if workload == "sweep-psm" else "stencil5"
    return (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "from repro.codes import get_versions\n"
        "from repro.execution.simulator import simulate\n"
        "from repro.experiments.harness import SimTask, SimulationRunner\n"
        "from repro.machine import MACHINES\n"
        f"vs = get_versions({code!r})\n"
        f"chosen = [vs[k] for k in {versions!r}]\n"
        f"ms = [m.scaled({SCALE}) for m in MACHINES]\n"
        f"SimulationRunner(jobs={JOBS[workload]}).close()\n"
        "print(time.perf_counter() - t0)\n"
    )


def run_rounds(workload: str, tasks, keys, expected, deadline: Deadline):
    """Untraced sweeps until the window closes (at least one)."""
    from repro.experiments.harness import SimulationRunner

    rounds = []
    failed = attempted = 0
    while not rounds or not deadline.passed():
        runner = SimulationRunner(jobs=JOBS[workload])
        try:
            t0 = time.perf_counter()
            results = runner.run_tasks(tasks, strict=False)
            wall = time.perf_counter() - t0
            sim_wall = runner.telemetry()["sim_wall_s"]
        finally:
            runner.close()
        for key, result in zip(keys, results):
            attempted += 1
            if result is None or observed(result) != expected.get(key):
                failed += 1
        rounds.append({"wall_s": wall, "sim_wall_s": sim_wall})
    return rounds, attempted, failed


def traced_pass(tasks, keys, expected):
    """Per point: ``simulate()`` untraced, then trace generation and cache
    simulation timed apart, in the same process one after the other.

    The split mirrors ``simulate()``: ``passes - 1`` warm-up replays,
    then the measured pass, whose stall cycles alone are reported.  A
    point whose counts differ from ``simulate()``'s or from
    ``expected.json`` is a mismatch.
    """
    from repro.codes import get_version
    from repro.execution.simulator import simulate
    from repro.execution.trace import line_trace

    untraced_s = trace_s = hier_s = 0.0
    accesses = 0
    batched = 0
    counts = [0] * len(COUNT_NAMES)
    mismatches = 0
    for task, key in zip(tasks, keys):
        version = get_version(task.code_name, task.version_key)
        sizes = task.sizes_dict
        line_bytes = task.machine.l1.line_bytes
        t0 = time.perf_counter()
        reference = simulate(
            version, sizes, task.machine, seed=task.seed, passes=task.passes
        )
        untraced_s += time.perf_counter() - t0
        try:
            next(iter(line_trace(version, sizes, line_bytes, seed=task.seed, batched=True)))
            batched += 1
        except ValueError:
            pass
        hierarchy = task.machine.build_hierarchy()
        before = 0
        for p in range(task.passes):
            t0 = time.perf_counter()
            lines = list(line_trace(version, sizes, line_bytes, seed=task.seed))
            t1 = time.perf_counter()
            if p == task.passes - 1:
                before = hierarchy.stall_cycles
            hierarchy.run_line_trace(lines)
            t2 = time.perf_counter()
            trace_s += t1 - t0
            hier_s += t2 - t1
            accesses += len(lines)
        stats = hierarchy.stats()
        if task.passes > 1:
            stats = replace(stats, stall_cycles=stats.stall_cycles - before)
        if stats != reference.stats or observed(reference) != expected.get(key):
            mismatches += 1
        for i, value in enumerate(astuple(stats)[: len(COUNT_NAMES)]):
            counts[i] += value
    return {
        "trace_s": trace_s,
        "hier_s": hier_s,
        "accesses": accesses,
        "batched_share": batched / len(tasks),
        "counts": counts,
        "mismatches": mismatches,
        "untraced_s": untraced_s,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, env: dict):
    expected = load_expected()
    tasks, keys = draw_tasks(workload, seed)
    deadline = Deadline(seconds)
    rounds, attempted, failed = run_rounds(
        workload, tasks, keys, expected, deadline
    )
    walls = [r["wall_s"] for r in rounds]
    sweep_s = median(walls)
    jobs = JOBS[workload]

    if not trace:
        peak_rss = vm_hwm_mb() + children_max_rss_mb()
        setups = [time_setup_in_child(_setup_code(workload), env) for _ in range(5)]
        metrics = {
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss,
            "ok_share": (attempted - failed) / attempted,
            "throughput_ops": len(tasks) / sweep_s,
            "latency_p50_ms": sweep_s * 1000.0,
        }
        return failed == 0, attempted, failed, metrics

    traced = traced_pass(tasks, keys, expected)
    attempted += len(tasks)
    failed += traced["mismatches"]
    # Harness dispatch: worker-process time not spent inside simulate().
    dispatch_ms = median(
        [(jobs * r["wall_s"] - r["sim_wall_s"]) / len(tasks) * 1000.0 for r in rounds]
    )
    busy = jobs * sweep_s
    acc = max(1, traced["accesses"])
    layer = {
        "execution.trace.s": traced["trace_s"],
        "execution.trace.ns_per_access": traced["trace_s"] / acc * 1e9,
        "execution.trace.batched_share": traced["batched_share"],
        "execution.trace.share": traced["trace_s"] / traced["untraced_s"],
        "machine.hierarchy.s": traced["hier_s"],
        "machine.hierarchy.ns_per_access": traced["hier_s"] / acc * 1e9,
        "machine.hierarchy.share": traced["hier_s"] / traced["untraced_s"],
        "experiments.harness.dispatch_ms": dispatch_ms,
        "experiments.harness.dispatch.share": dispatch_ms * len(tasks) / 1000.0 / busy,
        "trace.overhead_share": (
            (traced["trace_s"] + traced["hier_s"] - traced["untraced_s"])
            / traced["untraced_s"]
        ),
    }
    for name, value in zip(COUNT_NAMES, traced["counts"]):
        layer[f"machine.{name}"] = value
    return failed == 0, attempted, failed, layer
