"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload sweep-psm --seed 1998 --seconds 25 --trace 0

Workloads (see README.md next to this file for every metric):

- ``sweep-psm``     Figures 12-14 shaped PSM simulation sweep, 1 process;
- ``sweep-stencil`` Figures 7 and 9-11 shaped stencil5 sweep, 2 processes;
- ``serve-compile`` a closed loop of 2 clients against ``repro serve``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split from a separately traced pass.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Runs from the root of a checkout and keeps all scratch state under
``.perfbench-tmp/`` there, removed on exit.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import schema  # noqa: E402

WORKLOADS = ("sweep-psm", "sweep-stencil", "serve-compile")
DEFAULT_SEED = 1998


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an exception, so the daemon and the scratch
    # directory are still cleaned up by the ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    scratch = common.make_scratch()
    try:
        env = common.isolated_env(scratch, "bench")
        common.enter_env(env)
        try:
            common.import_program()
        except (common.ProgramMissing, ImportError) as exc:
            print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
            return 2
        if args.workload == "serve-compile":
            import serve_mix

            outcome = serve_mix.run(
                args.seed, args.seconds, bool(args.trace), scratch
            )
        else:
            import sweeps

            outcome = sweeps.run(
                args.workload, args.seed, args.seconds, bool(args.trace), env
            )
    finally:
        common.remove_scratch(scratch)
    correct, attempted, failed, measured = outcome
    names = schema.units("per_layer" if args.trace else "end_to_end")
    common.emit(correct, attempted, failed, schema.complete(measured, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
