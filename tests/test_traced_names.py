"""The benchmark's traced run finds every name it wraps.

``perfbench/spans.install`` looks each traced module up in ``sys.modules``
after a plain ``import hypercones`` and each traced name up with
``getattr``; a module the package stops loading, or a renamed function,
makes the traced run exit with an error while the timed run still passes.
A fresh interpreter is used because the test session itself imports the
modules directly.
"""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import sys
import hypercones
import spans
assert "hypercones.convex" in sys.modules, "hypercones does not load convex"
for module, qual in spans.TRACED:
    obj = sys.modules["hypercones." + module]
    for part in qual.split("."):
        obj = getattr(obj, part)
    assert callable(obj), (module, qual)
if sys.argv[1] == "install":
    spans.install(spans.Tracer())
"""


def test_every_traced_name_resolves_after_importing_the_package():
    # install wraps scipy.optimize too, so it runs only where scipy is
    stage = "install" if importlib.util.find_spec("scipy") else "resolve"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    done = subprocess.run([sys.executable, "-c", PROBE, stage], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
