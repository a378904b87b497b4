import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


END_TO_END = [
    {"name": "total_s", "better": "lower", "bound": 0.25},
    {"name": "train_tokens_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def runs_of(parent, change, failed=(0, 0)):
    """Made-up runs: one dict of metric values per run and side."""
    def side(values, n_failed):
        return [{"seed": i, "last_line": {
            "failed": n_failed if i == 0 else 0,
            "metrics": {k: {"value": v} for k, v in run.items()}}}
            for i, run in enumerate(values)]
    return {"parent": side(parent, failed[0]), "change": side(change, failed[1])}


def test_flags_only_metrics_worse_than_their_bound(bench_pairs):
    parent = [{"total_s": 1.0, "train_tokens_per_s": 100.0, "peak_rss_mb": 50.0}] * 3
    change = [{"total_s": 1.2, "train_tokens_per_s": 70.0, "peak_rss_mb": 56.0}] * 3
    out = bench_pairs.summarize(runs_of(parent, change), END_TO_END)
    # 1.2 s is 20% slower, inside 0.25; 70/s is 30% fewer tokens; 56 MB is 12% more
    assert [out[m["name"]]["over_bound"] for m in END_TO_END] == [False, True, True]
    assert out["over_bound"] == ["train_tokens_per_s", "peak_rss_mb"]
    assert out["total_s"]["ratio"] == pytest.approx(1.2)
    assert (out["parent_failed"], out["change_failed"]) == (0, 0)


def test_better_by_any_amount_is_never_over_bound(bench_pairs):
    parent = [{"total_s": 2.0, "train_tokens_per_s": 100.0, "peak_rss_mb": 50.0}] * 3
    change = [{"total_s": 0.5, "train_tokens_per_s": 400.0, "peak_rss_mb": 20.0}] * 3
    out = bench_pairs.summarize(runs_of(parent, change, failed=(0, 2)), END_TO_END)
    assert out["over_bound"] == []
    assert out["total_s"]["change_wins"] == 3
    assert out["change_failed"] == 2


def test_bound_is_read_against_the_medians(bench_pairs):
    parent = [{"total_s": v, "train_tokens_per_s": 1.0, "peak_rss_mb": 1.0}
              for v in (1.0, 1.0, 9.0)]
    change = [{"total_s": v, "train_tokens_per_s": 1.0, "peak_rss_mb": 1.0}
              for v in (1.3, 1.3, 1.0)]
    out = bench_pairs.summarize(runs_of(parent, change), END_TO_END)
    # the change wins one pair of three, but its median is 30% worse
    assert out["total_s"]["change_wins"] == 1
    assert out["over_bound"] == ["total_s"]


def constant(**values):
    return {"total_s": 1.0, "train_tokens_per_s": 1.0, "peak_rss_mb": 1.0, **values}


def test_spread_wider_than_the_bound_is_unresolved(bench_pairs):
    parent = [constant(total_s=v) for v in (1.0, 1.0, 1.5, 1.5)]
    change = [constant(total_s=v) for v in (1.0, 1.1, 1.1, 1.2)]
    out = bench_pairs.summarize(runs_of(parent, change), END_TO_END)
    # parent IQR 0.5 s against 0.25 x its 1.25 s median; medians agree closely
    assert out["total_s"]["parent_iqr"] == pytest.approx(0.5)
    assert out["total_s"]["change_iqr"] == pytest.approx(0.05)
    assert out["total_s"]["unresolved"] and not out["total_s"]["over_bound"]
    assert out["unresolved"] == ["total_s"]
    assert out["over_bound"] == []


def test_wide_change_spread_alone_is_unresolved(bench_pairs):
    parent = [constant(peak_rss_mb=50.0)] * 4
    change = [constant(peak_rss_mb=v) for v in (40.0, 40.0, 60.0, 60.0)]
    out = bench_pairs.summarize(runs_of(parent, change), END_TO_END)
    assert out["peak_rss_mb"]["parent_iqr"] == 0.0
    assert out["unresolved"] == ["peak_rss_mb"]


def test_every_change_run_better_resolves_a_wide_spread(bench_pairs):
    parent = [constant(train_tokens_per_s=v) for v in (100.0, 100.0, 200.0, 200.0)]
    change = [constant(train_tokens_per_s=v) for v in (300.0, 300.0, 500.0, 500.0)]
    out = bench_pairs.summarize(runs_of(parent, change), END_TO_END)
    assert out["train_tokens_per_s"]["unresolved"] is False
    assert out["unresolved"] == []
