"""``scripts/ab_pairs.py``: reading benchmark result lines and summing up pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "scripts" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(correct=True, **values):
    return json.dumps({"correct": correct, "attempted": 4, "failed": 0 if correct else 1,
                       "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}})


def test_parse_result_reads_the_last_line(ab):
    out = "workload skeleton\nsteps_per_s 100 1/s\n" + result_line(steps_per_s=100.0) + "\n\n"
    assert ab.parse_result(out) == {"steps_per_s": 100.0}


@pytest.mark.parametrize("out", ["", "no result here\n", result_line(False, steps_per_s=1.0),
                                 '["not", "a", "result"]'])
def test_parse_result_refuses_failed_or_missing_results(ab, out):
    assert ab.parse_result(out) == {}


def canned_pairs(ab, parent, change, name="steps_per_s"):
    """``(parent, change)`` results read from canned result lines."""
    return [(ab.parse_result(result_line(**{name: p})), ab.parse_result(result_line(**{name: c})))
            for p, c in zip(parent, change)]


def test_summary_of_a_clear_gain(ab):
    parent = [100, 98, 103, 101, 99, 102, 100, 97, 104, 100]
    change = [111, 110, 112, 109, 111, 113, 110, 108, 112, 111]
    s = ab.summarise(canned_pairs(ab, parent, change), {"steps_per_s": "higher"})["steps_per_s"]
    assert s["pairs"] == 10 and s["wins"] == 10
    assert s["parent_median"] == 100.0 and s["change_median"] == 111.0
    # linear quartiles: 99.25 .. 101.75 and 110 .. 111.75
    assert s["parent_iqr"] == pytest.approx(2.5)
    assert s["change_iqr"] == pytest.approx(1.75)
    assert s["ratio"] == pytest.approx(1.11)
    assert s["rule"]


def test_rule_needs_nine_tenths_of_the_pairs(ab):
    parent = [100] * 10
    change = [120] * 8 + [90, 100]  # a tie counts for neither side
    s = ab.summarise(canned_pairs(ab, parent, change), {"steps_per_s": "higher"})["steps_per_s"]
    assert s["wins"] == 8 and not s["rule"]


def test_rule_needs_the_median_beyond_the_parent_spread(ab):
    parent = [80, 120, 90, 110, 85, 115, 95, 105, 100, 100]
    change = [p + 1 for p in parent]  # wins every pair by less than the spread
    s = ab.summarise(canned_pairs(ab, parent, change), {"steps_per_s": "higher"})["steps_per_s"]
    assert s["wins"] == 10 and not s["rule"]


def test_lower_is_better_metrics_count_drops_as_wins(ab):
    parent = [10.0] * 10
    change = [8.0] * 10
    pairs = canned_pairs(ab, parent, change, "step_latency_p50_us")
    summary = ab.summarise(pairs, {"step_latency_p50_us": "lower", "steps_per_s": "higher"})
    assert list(summary) == ["step_latency_p50_us"]  # no pair carries steps_per_s
    s = summary["step_latency_p50_us"]
    assert s["wins"] == 10 and s["rule"] and s["ratio"] == pytest.approx(0.8)
    assert "step_latency_p50_us" in ab.format_table(summary)


def test_record_holds_the_run_and_reads_back_as_json(ab, tmp_path):
    parent = [100, 98, 103, 101, 99, 102, 100, 97, 104, 100]
    change = [111, 110, 112, 109, 111, 113, 110, 108, 112, 111]
    summary = ab.summarise(canned_pairs(ab, parent, change), {"steps_per_s": "higher"})
    checkouts = {"parent": {"commit": "a" * 40, "dirty": False},
                 "change": {"commit": None, "dirty": None}}
    env = {"python": "3.11.7", "nproc": 2}
    rec = ab.record("skeleton", 10, 30, 301, summary, checkouts, env)
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps(rec))
    got = json.loads(path.read_text())
    assert [got[k] for k in ("workload", "pairs", "seconds", "seed0")] == ["skeleton", 10, 30, 301]
    assert got["checkouts"] == checkouts and got["environment"] == env
    s = got["metrics"]["steps_per_s"]
    assert [s[k] for k in ("parent_median", "change_median", "wins", "rule")] == [100, 111, 10, True]
    assert s["parent_iqr"] == pytest.approx(2.5) and s["change_iqr"] == pytest.approx(1.75)
    assert s["ratio"] == pytest.approx(1.11)


@pytest.fixture(scope="module")
def bench_rules(ab):
    return ab.rules(json.loads((ROOT / "BENCHMARK.json").read_text()))


@pytest.mark.parametrize("name, parent, inside, outside", [
    ("steps_per_s", 100.0, 80.1, 79.9),  # higher is better, bound 0.2
    ("step_latency_p50_us", 100.0, 119.9, 120.1),  # lower is better, bound 0.2
])
def test_regression_flag_is_the_metric_bound_from_the_benchmark(ab, bench_rules, name, parent,
                                                                inside, outside):
    better, bounds = bench_rules
    assert bounds[name] == 0.2
    for change, flagged in ((inside, False), (outside, True)):
        pairs = canned_pairs(ab, [parent] * 10, [change] * 10, name)
        s = ab.summarise(pairs, better, bounds)[name]
        assert s["bound"] == 0.2 and s["regression"] is flagged and s["wins"] == 0
        row = next(r for r in ab.format_table({name: s}).splitlines() if r.startswith(name))
        assert row.endswith("YES" if flagged else "no")
        rec = json.loads(json.dumps(ab.record("skeleton", 10, 30, 301, {name: s}, {}, {})))
        assert rec["metrics"][name]["regression"] is flagged


def test_no_bound_no_regression_flag(ab):
    s = ab.summarise(canned_pairs(ab, [100] * 10, [10] * 10), {"steps_per_s": "higher"})
    assert s["steps_per_s"]["bound"] is None and s["steps_per_s"]["regression"] is None
    assert ab.format_table(s).splitlines()[1].endswith("-")
