"""The benchmark's per-layer tracer still installs on the package's modules."""

import os
import subprocess
import sys
from pathlib import Path

import fivevertex

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_installs_and_attributes_every_layer():
    # `perfbench/run.py --trace 1` wraps the layer modules and the ratfunc
    # classes by name, so a rename there breaks it; run in a subprocess because
    # installing the tracer rebinds module globals for the rest of the process
    src = str(Path(fivevertex.__file__).resolve().parents[1])
    code = "\n".join([
        "import importlib, sys",
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})",
        "from tracing import MODULES, Tracer",
        "for name in MODULES:",
        "    importlib.import_module('fivevertex.' + name)",
        "tracer = Tracer()",
        "tracer.install()",
        "from fractions import Fraction as F",
        "from fivevertex import symfunc",
        "symfunc.grothendieck_eval((2, 1), [F(1, 2), F(1, 2), F(1, 3)], F(-1, 2))",
        "m = tracer.metrics()",
        "print(m['symfunc.calls'], m['confluent.calls'], m['ratfunc.calls'], m['linalg.calls'])",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert all(int(n) > 0 for n in out.stdout.split()), out.stdout


def test_sector_layer_keeps_its_self_time():
    # The oracle's work runs in private helpers of `sector`, which the tracer
    # does not wrap; it must still count as self time of the public calls
    src = str(Path(fivevertex.__file__).resolve().parents[1])
    code = "\n".join([
        "import importlib, sys",
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})",
        "from tracing import MODULES, Tracer",
        "for name in MODULES:",
        "    importlib.import_module('fivevertex.' + name)",
        "tracer = Tracer()",
        "tracer.install()",
        "from fractions import Fraction as F",
        "from fivevertex import sector",
        "p = sector.ModelParameters(alpha=F(2, 3), M=6, w=(1, 2, F(1, 2), 3, 1, F(5, 4)))",
        "sector.bethe_state([F(3, 2), F(-1, 3), F(5, 7)], p)",
        "sector.dual_bethe_state([F(3, 2), F(-1, 3), F(5, 7)], p)",
        "sector.commutation_checks(F(3, 2), F(-1, 3), p, 2)",
        "m = tracer.metrics()",
        "print(m['sector.calls'], m['sector.self_s'])",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    calls, self_s = out.stdout.split()
    assert int(calls) > 0 and float(self_s) > 0, out.stdout
