"""The package's top-level surface: every name ``__all__`` lists exists, the
names the benchmark harness (perfbench/runner.py) reads through the package
stay exported, README's account of the surface matches it, and the package
runs with numpy as its only dependency."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import saddle_scale

README = Path(__file__).resolve().parents[1] / "README.md"

# read as ``ss.<name>`` by perfbench/runner.py; ``errors`` is the submodule
HARNESS_NAMES = ("run", "make_quadratic", "make_bilinear", "make_minty",
                 "OptimizerConfig", "PointPair", "SaddleProblem",
                 "ScalingState", "scaling_preset", "DivergenceError",
                 "errors")


def test_all_names_resolve_and_star_import_works():
    names = saddle_scale.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(saddle_scale, n)] == []
    ns = {}
    exec("from saddle_scale import *", ns)
    assert set(names) <= set(ns)


def test_harness_names_stay_exported():
    for name in HARNESS_NAMES:
        assert hasattr(saddle_scale, name), name
        if name != "errors":
            assert name in saddle_scale.__all__, name


def test_readme_counts_the_exported_names():
    counts = re.findall(r"exports (\d+) names", README.read_text())
    assert counts == [str(len(saddle_scale.__all__))]


def test_readme_lower_level_helpers_import_from_their_modules():
    text = README.read_text()
    listing = re.search(
        r"Lower-level helpers stay importable from their own modules:"
        r"(.*?`)\.", text, re.DOTALL).group(1)
    # `module.name`/`name`/... groups, one per module
    groups = re.findall(r"`(\w+)\.(\w+)`((?:/`\w+`)*)", listing)
    assert len(groups) >= 4
    missing = []
    for module, first, rest in groups:
        mod = importlib.import_module(f"saddle_scale.{module}")
        for name in [first] + re.findall(r"`(\w+)`", rest):
            if not hasattr(mod, name):
                missing.append(f"{module}.{name}")
    assert missing == []


NO_SCIPY = '''
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
import saddle_scale
import saddle_scale.bench
from saddle_scale.metrics import gap_restricted
from saddle_scale.problems import PointPair, quadratic_from_matrices

p = quadratic_from_matrices([[1.0]], [[1.0]], [[1.0]], [0.0], [0.0])
gap = gap_restricted(p, PointPair([0.0], [5.0]), 1.0)
assert abs(gap - 17.0) <= 1e-12, gap
assert saddle_scale.bench.main(["print-schema"]) == 0
assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
'''


def test_package_runs_on_numpy_alone():
    src = os.path.dirname(os.path.dirname(saddle_scale.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
