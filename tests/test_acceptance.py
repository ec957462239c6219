"""Acceptance slate: eleven end-to-end claims, one test per criterion.

Each test runs the matching named check from the verification registry at
its pinned tolerances, prints one ``criterion NN <name>: PASS|FAIL`` line
(shown under ``pytest -s``), and fails if the check fails or -- where the
criterion carries a wall-clock budget -- if it ran over.  The checks
themselves live in saddle_scale.verify; nothing here loosens a tolerance.
"""

import pytest

from saddle_scale.verify import run_check

CRITERIA = [
    # (number, check name, wall-clock cap in seconds; None = untimed)
    (1, "scaling-range", 5.0),
    (2, "scaling-growth", None),
    (3, "sc-contraction", 30.0),
    (4, "monotone-average-rate", 60.0),
    (5, "divergence-split", None),
    (6, "noise-floor-halving", 60.0),
    (7, "call-accounting", None),
    (8, "hutchinson-unbiased", None),
    (9, "scalar-inequality", None),
    (10, "nonmonotone-trend", None),
    (11, "momentum-parity", None),
]


@pytest.mark.parametrize("num,name,cap", CRITERIA,
                         ids=[f"{c[0]:02d}-{c[1]}" for c in CRITERIA])
def test_criterion(num, name, cap):
    result = run_check(name)
    on_time = cap is None or result.seconds < cap
    verdict = "PASS" if result.passed and on_time else "FAIL"
    timing = f"; {result.timing}" if result.timing else ""
    print(f"criterion {num:02d} {name}: {verdict} "
          f"[{result.measured}; bound {result.bound}; {result.seconds:.2f}s"
          f"{timing}]")
    assert result.passed, (f"{name}: {result.measured}{timing} "
                           f"(bound {result.bound})")
    if cap is not None:
        assert on_time, f"{name} took {result.seconds:.2f}s (cap {cap:g}s)"
