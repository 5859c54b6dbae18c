"""Nothing the cone questions, the NP-completeness experiment or the
pipeline need imports scipy: every decision is made in exact arithmetic.

The check runs in a fresh interpreter whose import system refuses
``scipy`` and all of its submodules, so a module cached by an earlier
test cannot hide a lazy import.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SCRIPT = textwrap.dedent(
    """
    import dataclasses
    import sys

    class RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"scipy is blocked: {name}")
            return None

    sys.meta_path.insert(0, RefuseScipy())

    from repro.codes import get_spec
    from repro.core import Stencil
    from repro.core.cone import in_rational_cone
    from repro.core.multiloop import find_common_uov
    from repro.core.uov import is_uov
    from repro.experiments import npc
    from repro.pipeline import ArtifactCache, compile_spec

    assert in_rational_cone((1, 1), [(2, 2)])
    assert not in_rational_cone((-1, 0), [(1, 0), (0, 1)])
    stencil5 = Stencil([(1, -2), (1, -1), (1, 0), (1, 1), (1, 2)])
    assert set(stencil5.extreme_vectors) == {(1, -2), (1, 2)}
    assert is_uov((2, 0), stencil5)
    common = find_common_uov([Stencil([(1, 0), (0, 1)]), Stencil([(1, 1)])])
    assert common is not None
    report = npc.run("quick")
    assert report.claims and all(c.holds for c in report.claims), report.claims
    # Without the spec's override the uov-search stage runs the search.
    spec = dataclasses.replace(get_spec("stencil5"), uov=None)
    result = compile_spec(spec, execute=False, cache=ArtifactCache())
    uov = result.artifact("uov-search")
    assert uov.source == "search" and tuple(uov.ov) == (2, 0)
    assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
    print("no-scipy-ok")
    """
)


def test_cone_npc_and_pipeline_run_with_scipy_blocked():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "no-scipy-ok" in proc.stdout
