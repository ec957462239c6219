"""The pair runner's summary, checked on committed benchmark records.

``tools/bench_pairs.py`` summarizes alternating parent/change pairs of
``perfbench/run.py``.  Fed the ``pairs`` of a committed ``BENCH_<n>.json``
it must give the ``summary`` recorded there.  Both records below hold the
inclusive quartiles, but ``BENCH_12.json`` took them with numpy's
percentile and ``BENCH_14.json`` with ``statistics.quantiles``, whose
interpolations round differently in the last bit; so the quartiles are
compared to 1e-12 and every other entry exactly.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import bench_pairs
    return bench_pairs


@pytest.mark.parametrize("name", ["BENCH_12.json", "BENCH_14.json"])
def test_summary_reproduces_the_recorded_one(bench_pairs, name):
    record = json.loads((ROOT / name).read_text())
    got = bench_pairs.summarize(record["pairs"])
    want = record["summary"]
    assert list(got) == list(want)
    for metric, entry in want.items():
        mine = got[metric]
        for key in ("median_ratio_change_over_parent", "change_wins",
                    "median_gap_exceeds_parent_iqr"):
            assert mine[key] == entry[key], (metric, key)
        for side in ("parent", "change"):
            assert list(mine[side]) == ["q1", "median", "q3"]
            for q, value in entry[side].items():
                assert mine[side][q] == pytest.approx(value, rel=1e-12), (
                    metric, side, q)


def test_wins_follow_each_metric_direction(bench_pairs):
    def line(wall, rate):
        return {"metrics": {"w.wall_s": {"value": wall},
                            "w.iters_per_s": {"value": rate}}}

    pairs = [{"parent": line(2.0, 10.0), "change": line(1.0, 20.0)},
             {"parent": line(2.0, 10.0), "change": line(2.0, 10.0)},
             {"parent": line(2.0, 10.0), "change": line(3.0, 5.0)}]
    summary = bench_pairs.summarize(pairs)
    # a tie is not a win
    assert summary["w.wall_s"]["change_wins"] == "1/3"
    assert summary["w.iters_per_s"]["change_wins"] == "1/3"
    assert summary["w.wall_s"]["median_ratio_change_over_parent"] == 1.0
    # the medians agree, so their gap of 0 does not exceed the IQR of 0
    assert summary["w.wall_s"]["median_gap_exceeds_parent_iqr"] is False
    assert summary["w.wall_s"]["parent"] == {"q1": 2.0, "median": 2.0,
                                              "q3": 2.0}
