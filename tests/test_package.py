"""The package's top-level surface: every name ``__all__`` lists exists, and
the names the benchmark harness (perfbench/runner.py) reads through the
package stay exported."""

import saddle_scale

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
