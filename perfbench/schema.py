"""Metric names and units, read from ``BENCHMARK.json``.

Every run prints every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``) that ``BENCHMARK.json`` lists.  A layer
that a workload does not exercise reads 0 there (the trace split of
``serve-compile``, the pipeline stages of the sweeps).
"""

from __future__ import annotations

import json

from common import ROOT

STAGES = (
    "parse",
    "dependence",
    "uov-search",
    "mapping-select",
    "schedule-select",
    "execute",
)


def units(section: str) -> dict:
    """name -> unit of one section (``end_to_end`` or ``per_layer``)."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in doc[section]}


def complete(measured: dict, names: dict) -> dict:
    """``measured`` (name -> value) over all of ``names`` as name ->
    (value, unit); unmeasured layers read 0."""
    unknown = set(measured) - set(names)
    if unknown:
        raise KeyError(f"metrics not in the schema: {sorted(unknown)}")
    return {
        name: (measured.get(name, 0.0), unit) for name, unit in names.items()
    }
