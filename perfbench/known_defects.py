"""Write or check ``known_defects.json``: random specs that crash ``uov-search``.

The ``serve-compile`` stream draws its random specs from
``repro.analysis.fuzz.random_stencil(dim=2)``, whose distance sets are a
finite family: one to four distinct lexicographically positive vectors
with both components in -3..3.  For a few of them the symbolic
certifier raises an ``AssertionError`` that ``uov-search`` does not
catch, so the daemon answers 500.  This script runs every distance set
of the family through the pipeline's stages up to ``uov-search``
in-process, at the smallest and largest sizes the stream draws, and
records which sets raise which of the two known assertions.  The
benchmark counts a 500 as one of these recorded defects only for a set
listed here; any other 500 is a failure.

Any other exception, or an assertion with another message, is not a
recorded defect: the script reports it and exits 1.  The file is plain
sorted JSON, so regenerating it at an unchanged commit reproduces it
byte for byte.

    python3 perfbench/known_defects.py           # rewrite known_defects.json
    python3 perfbench/known_defects.py --check   # exit 1 unless it matches
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import import_program  # noqa: E402

KNOWN_DEFECTS_FILE = Path(__file__).with_name("known_defects.json")

#: Defect name -> the text its ``AssertionError`` carries.
ASSERTIONS = {
    "symcert_assert": "disagrees with the enumerative certifier",
    "fm_modhat_assert": "mod-hat reduction lost its unit coeff",
}

#: ``random_stencil``'s defaults: at most 4 vectors, components in -3..3.
MAX_VECTORS = 4
SPAN = 3


def distance_sets():
    """Every distance set ``random_stencil(rng, dim=2)`` can return, as
    sorted tuples of vectors (the order ``Stencil`` keeps them in)."""
    vectors = [
        (a, b)
        for a in range(-SPAN, SPAN + 1)
        for b in range(-SPAN, SPAN + 1)
        if a > 0 or (a == 0 and b > 0)
    ]
    for k in range(1, MAX_VECTORS + 1):
        yield from itertools.combinations(sorted(vectors), k)


def build() -> tuple[str, list[str]]:
    import serve_mix
    from repro.frontend.spec import validate_spec
    from repro.pipeline import compile_spec

    lo = min(r[0] for r in serve_mix.SIZE_RANGES)
    hi = max(r[1] for r in serve_mix.SIZE_RANGES)
    found = {name: set() for name in ASSERTIONS}
    unknown: list[str] = []
    for distances in distance_sets():
        spec = validate_spec(serve_mix.stencil_spec("probe", distances))
        for size in (lo, hi):
            try:
                compile_spec(spec, {"n": size, "m": size}, execute=False)
            except AssertionError as exc:
                name = next(
                    (n for n, text in ASSERTIONS.items() if text in str(exc)), None
                )
                if name is None:
                    unknown.append(f"{list(distances)} at {size}: {exc!r}")
                else:
                    found[name].add(distances)
            except Exception as exc:  # noqa: BLE001 - every one is reported
                unknown.append(f"{list(distances)} at {size}: {exc!r}")
    # One distance set per line, keys sorted: plain JSON that diffs well.
    sections = [
        f'"{name}": [\n'
        + ",\n".join(f"  {json.dumps([list(v) for v in d])}" for d in sorted(sets))
        + "\n ]"
        for name, sets in sorted(found.items())
    ]
    about = (
        '"about": "distance sets of random_stencil(dim=2) whose uov-search '
        'raises the named AssertionError"'
    )
    return "{\n " + ",\n ".join([about, *sections]) + "\n}\n", unknown


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    import_program()

    text, unknown = build()
    for line in unknown:
        print(f"not a recorded defect: {line}", file=sys.stderr)
    if unknown:
        return 1
    if args.check:
        same = KNOWN_DEFECTS_FILE.read_text() == text
        print("known_defects.json matches" if same else "known_defects.json differs")
        return 0 if same else 1
    KNOWN_DEFECTS_FILE.write_text(text)
    print(f"wrote {KNOWN_DEFECTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
