"""Write or check ``expected.json``: the sweep points' exact counts.

For every catalog point of both sweeps and every data seed a run may
pick, ``simulate()`` (the Python ``MemoryHierarchy``, the oracle for any
faster simulator) gives seven ``AccessStats`` integers and
``storage_elements``.  The file is plain sorted JSON, so regenerating it
at an unchanged commit reproduces it byte for byte.

    python3 perfbench/expected.py           # rewrite expected.json
    python3 perfbench/expected.py --check   # exit 1 unless it matches
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import import_program  # noqa: E402


def build() -> str:
    import sweeps
    from repro.codes import get_version
    from repro.execution.simulator import simulate

    points = {}
    for workload in ("sweep-psm", "sweep-stencil"):
        for slot in sweeps.catalog(workload):
            version = get_version(slot.code, slot.version)
            for seed in sweeps.DATA_SEEDS:
                result = simulate(
                    version,
                    dict(slot.sizes),
                    slot.machine,
                    seed=seed,
                    passes=slot.passes,
                )
                points[sweeps.point_key(slot, seed)] = sweeps.observed(result)
    doc = {
        "about": (
            "per point: accesses, l1_misses, l2_misses, tlb_misses, "
            "page_faults, writebacks, stall_cycles, storage_elements"
        ),
        "points": points,
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    import_program()
    import sweeps

    text = build()
    if args.check:
        same = sweeps.EXPECTED.read_text() == text
        print("expected.json matches" if same else "expected.json differs")
        return 0 if same else 1
    sweeps.EXPECTED.write_text(text)
    print(f"wrote {sweeps.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
