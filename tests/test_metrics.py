import math

import numpy as np
import pytest

from scip.core import ClassBatch, IntervalBatch, ScipError, UndefinedMetricError
from scip.metrics import ReplicationMetrics, aggregate, mfcr_estimate, replication_metrics


def _closed(lower, upper) -> IntervalBatch:
    return IntervalBatch(np.array(lower, dtype=float), np.array(upper, dtype=float))


def test_hit_miss_counting():
    sets = _closed([0.0, 2.0, -1.0], [1.0, 3.0, 0.5])
    truth = np.array([0.5, 5.0, 0.0])
    m = replication_metrics(np.array([0, 1, 2]), sets, truth)
    assert m.fcp == pytest.approx(1 / 3)
    assert m.cpow == 3
    assert m.n_false == 1


def test_empty_report_conventions():
    m = replication_metrics(np.array([], dtype=int), _closed([], []), np.array([1.0, 2.0]))
    assert m.fcp == 0.0 and m.cpow == 0.0 and m.rpow == 0.0


def test_rpow_reciprocal_sizes():
    member = np.array([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]], dtype=bool)  # {1}, {1, 2}, {3, 4}
    truth = np.array([1, 1, 3])
    m = replication_metrics(np.array([0, 1, 2]), ClassBatch(member), truth)
    assert m.rpow == pytest.approx(1.0 + 0.5 + 0.5)


def test_rpow_unbounded_sets_contribute_zero():
    sets = _closed([np.nextafter(0.0, 1.0), 0.0], [np.inf, 2.0])  # (0, inf) and [0, 2]
    truth = np.array([1.0, 1.0])
    assert replication_metrics(np.array([0, 1]), sets, truth).rpow == pytest.approx(0.5)


def test_zero_length_interval_gives_inf_rpow_and_nan_stderr():
    """A zero-length reported interval: rpow inf, then aggregate mean inf and stderr nan, with no warning."""
    point = replication_metrics(np.array([0]), IntervalBatch.from_radius([1.0], [0.0]), np.array([1.0]))
    assert point.rpow == np.inf and point.n_false == 0
    finite = ReplicationMetrics(fcp=0.0, cpow=1.0, rpow=0.5, n_selected=1, n_false=0)
    for rows in ([point, point], [point, finite]):
        agg = aggregate(rows)
        assert agg.rpow == np.inf and np.isnan(agg.rpow_stderr)
        assert agg.fcr == 0.0 and agg.fcr_stderr == 0.0
    assert aggregate([point]).rpow_stderr == 0.0  # one replication has no spread


def test_batch_scores_match_the_per_set_loop():
    """Hit counts and rpow equal a left-to-right loop over the rows, bit for bit."""
    gen = np.random.default_rng(5)
    for _ in range(300):
        m = int(gen.integers(0, 25))
        mu = gen.normal(size=m)
        radius = np.where(gen.random(m) < 0.7, 2.0 * gen.random(m), gen.choice([-1.0, 0.0, np.inf], m))
        sets = IntervalBatch.from_radius(mu, radius)
        selected = gen.permutation(40)[:m]
        truth = gen.normal(size=40)
        n_false, rpow = 0, 0.0
        for j, centre, r in zip(selected.tolist(), mu.tolist(), radius.tolist()):
            y, held = float(truth[j]), r >= 0.0  # [centre - r, centre + r], empty for r < 0
            n_false += not (held and centre - r <= y <= centre + r)
            size = (centre + r) - (centre - r) if held else 0.0
            rpow += 0.0 if math.isinf(size) else (math.inf if size == 0.0 else 1.0 / size)
        got = replication_metrics(selected, sets, truth)
        assert (got.n_false, got.n_selected, got.rpow) == (n_false, m, rpow)


def test_missing_truth_is_an_error():
    with pytest.raises(ScipError):
        replication_metrics(np.array([3]), _closed([0.0], [1.0]), np.array([1.0]))


def test_mfcr_vs_mean_of_ratios():
    # reps: (1 false of 2 selected), (0 of 0): mFCR = 1/2 while mean FCP = 1/4
    assert mfcr_estimate([1, 0], [2, 0]) == pytest.approx(0.5)
    rows = [
        ReplicationMetrics(fcp=0.5, cpow=2, rpow=0.0, n_selected=2, n_false=1),
        ReplicationMetrics(fcp=0.0, cpow=0, rpow=0.0, n_selected=0, n_false=0),
    ]
    agg = aggregate(rows)
    assert agg.fcr == pytest.approx(0.25)
    assert agg.mfcr == pytest.approx(0.5)


def test_mfcr_undefined_without_selections():
    with pytest.raises(UndefinedMetricError):
        mfcr_estimate([0, 0], [0, 0])


def test_single_rep_mfcr_equals_fcp():
    assert mfcr_estimate([2], [5]) == pytest.approx(0.4)


def test_aggregation_order_invariance():
    gen = np.random.default_rng(3)
    rows = [
        ReplicationMetrics(
            fcp=float(gen.random()),
            cpow=float(gen.integers(0, 50)),
            rpow=float(gen.random() * 10),
            n_selected=int(gen.integers(0, 50)),
            n_false=int(gen.integers(0, 5)),
        )
        for _ in range(50)
    ]
    fwd = aggregate(rows)
    rev = aggregate(rows[::-1])
    assert fwd == rev
    assert fwd.fcr_stderr == pytest.approx(np.std([r.fcp for r in rows], ddof=1) / np.sqrt(50))
