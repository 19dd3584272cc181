import math

import numpy as np
import pytest

from scip.core import RngStream
from scip.selection import (
    ScoredPool,
    TieMode,
    bh_select,
    counting_knockoff_fdp,
    counting_knockoff_select,
    generalized_conformal_pvalues,
    scip_select_arrays,
    self_consistent_select,
)


def _pool(cal_t, null, test_t):
    return ScoredPool(np.asarray(cal_t, dtype=float), np.asarray(null, dtype=bool), np.asarray(test_t, dtype=float))


def test_pvalue_hand_count():
    # null trusts {0.9, 0.5}; test 0.6: one strictly above, no tie
    pool = _pool([0.9, 0.7, 0.5, 0.3], [True, False, True, False], [0.6])
    p = generalized_conformal_pvalues(pool, TieMode.DETERMINISTIC)
    assert p[0] == pytest.approx((1 + 1) / 5)
    # a midpoint tie draw U = 0.5 lands the same count at 0.3
    assert (1 + 1 * 0.5) / 5 == pytest.approx(0.3)


def test_pvalue_no_nulls_reduces_to_u_over_n1():
    """With no null calibration unit p_j = U_j / (n + 1) in every tie mode, and BH cuts those."""
    pool = _pool([0.9, 0.7], [False, False], [0.5, 2.0, 0.7, -1.0])
    draws = {
        TieMode.PER_UNIT: lambda rng: rng.uniform_open_closed(4),
        TieMode.SHARED_U: lambda rng: np.full(4, rng.uniform_open_closed()),
        TieMode.DETERMINISTIC: lambda rng: np.ones(4),
    }
    for tie_mode, draw in draws.items():
        rng = RngStream(3).child(1)
        p = generalized_conformal_pvalues(pool, tie_mode, rng)
        assert np.array_equal(p, draw(rng) / 3)
        for alpha in (0.05, 0.1, 0.2, 0.3, 0.5):
            # step-up BH with m = 4: k_hat = max{k : p_(k) <= alpha k / m}; select p <= alpha k_hat / m
            k_hat = max((k for k in range(1, 5) if np.sort(p)[k - 1] <= alpha * k / 4), default=0)
            assert bh_select(p, alpha).selected.tolist() == np.flatnonzero(p <= alpha * k_hat / 4).tolist()
    deterministic = generalized_conformal_pvalues(pool, TieMode.DETERMINISTIC)  # all 1/3
    assert bh_select(deterministic, 0.34).selected.tolist() == [0, 1, 2, 3]
    assert bh_select(deterministic, 0.33).selected.size == 0


def test_pvalue_deterministic_tie():
    pool = _pool([0.9, 0.7], [True, True], [0.8])
    p = generalized_conformal_pvalues(pool, TieMode.DETERMINISTIC)
    assert p[0] == pytest.approx(2 / 3)


def test_pvalues_in_unit_interval():
    gen = np.random.default_rng(8)
    for i in range(200):
        n, m = int(gen.integers(1, 30)), int(gen.integers(1, 30))
        pool = _pool(gen.random(n), gen.random(n) < 0.5, gen.random(m))
        p = generalized_conformal_pvalues(pool, TieMode.PER_UNIT, RngStream(5).child(i))
        assert np.all(p > 0) and np.all(p <= 1)


def test_shared_u_mode_uses_one_draw():
    pool = _pool([0.5, 0.5, 0.5], [True, True, True], [0.5, 0.5, 0.5])
    p = generalized_conformal_pvalues(pool, TieMode.SHARED_U, RngStream(11).child(0))
    assert np.all(p == p[0])


def _plain_search_pvalues(pool, u):
    """The generalized p-value formula with the test trusts searched in unit order."""
    null_sorted = np.sort(pool.cal_trust[pool.cal_null])
    n_null = null_sorted.size
    gt = n_null - np.searchsorted(null_sorted, pool.test_trust, side="right")
    geq = n_null - np.searchsorted(null_sorted, pool.test_trust, side="left")
    return (gt + (1.0 + (geq - gt)) * u) / (pool.n + 1)


@pytest.mark.parametrize("tie_mode", list(TieMode))
def test_pvalues_bit_equal_to_plain_search(tie_mode):
    gen = np.random.default_rng(15)
    pools = [
        _pool([0.9, 0.7], [False, False], [0.5, 0.9, 2.0]),  # no null units
        _pool([0.9, 0.7, 0.5], [True, True, False], [0.7]),  # m = 1
        _pool(np.full(6, 0.5), np.ones(6, dtype=bool), np.full(4, 0.5)),  # all trusts tied
    ]
    for _ in range(40):
        n, m = int(gen.integers(1, 300)), int(gen.integers(1, 300))
        coarse = gen.random() < 0.5
        cal_t = gen.integers(0, 6, n) / 5.0 if coarse else gen.random(n)
        test_t = gen.integers(0, 6, m) / 5.0 if coarse else gen.random(m)
        pools.append(_pool(cal_t, gen.random(n) < 0.6, test_t))
    for i, pool in enumerate(pools):
        rng = None if tie_mode is TieMode.DETERMINISTIC else RngStream(17).child(i)
        if tie_mode is TieMode.PER_UNIT:
            u = rng.uniform_open_closed(pool.m)
        else:
            u = 1.0 if rng is None else float(rng.uniform_open_closed())
            ck = counting_knockoff_select(pool, 0.2, tie_mode, rng)
            assert np.array_equal(ck.pvalues, _plain_search_pvalues(pool, u))
        p = generalized_conformal_pvalues(pool, tie_mode, rng)
        assert np.array_equal(p, _plain_search_pvalues(pool, u))


def test_bh_fixtures():
    r = bh_select([0.01, 0.5, 0.02], 0.1)
    assert list(r.selected) == [0, 2]
    assert r.threshold_alpha_hat == pytest.approx(0.1 * 2 / 3)
    assert r.k_hat == 2

    r = bh_select([1.0, 1.0, 1.0], 0.1)
    assert r.selected.size == 0 and r.threshold_alpha_hat == 0.0

    r = bh_select([0.01, 0.02, 0.03], 0.1)
    assert list(r.selected) == [0, 1, 2]
    assert r.threshold_alpha_hat == pytest.approx(0.1)


def test_bh_matches_self_consistent_form():
    gen = np.random.default_rng(9)
    for _ in range(1000):
        m = int(gen.integers(1, 40))
        p = gen.integers(0, 6, m) / 5.0 if gen.random() < 0.4 else gen.random(m)
        alpha = float(gen.uniform(0.02, 0.5))
        a = bh_select(p, alpha)
        b = self_consistent_select(p, alpha)
        assert np.array_equal(a.selected, b.selected)
        assert a.threshold_alpha_hat >= b.threshold_alpha_hat - 1e-15


def test_selection_invariant_to_monotone_trust_transform():
    gen = np.random.default_rng(10)
    for i in range(300):
        n, m = int(gen.integers(2, 40)), int(gen.integers(1, 40))
        cal_t, test_t = gen.random(n), gen.random(m)
        null = gen.random(n) < 0.5
        rng = RngStream(21).child(i)
        base = bh_select(
            generalized_conformal_pvalues(_pool(cal_t, null, test_t), TieMode.PER_UNIT, rng), 0.2
        )
        warped = bh_select(
            generalized_conformal_pvalues(
                _pool(np.exp(3 * cal_t), null, np.exp(3 * test_t)), TieMode.PER_UNIT, rng
            ),
            0.2,
        )
        assert np.array_equal(base.selected, warped.selected)


def test_knockoff_fdp_fixture():
    pool = _pool([0.9, 0.3], [True, False], [0.8, 0.1])
    assert counting_knockoff_fdp(pool, 0.8) == pytest.approx((1 + 1) / 1 * 2 / 3)
    assert counting_knockoff_fdp(pool, 0.1) == pytest.approx((1 + 1) / 2 * 2 / 3)
    result = counting_knockoff_select(pool, 0.5)
    assert result.selected.size == 0


def test_knockoff_equals_deterministic_bh():
    gen = np.random.default_rng(12)
    for _ in range(400):
        n, m = int(gen.integers(2, 40)), int(gen.integers(1, 30))
        coarse = gen.random() < 0.5
        cal_t = gen.integers(0, 6, n) / 5.0 if coarse else gen.random(n)
        test_t = gen.integers(0, 6, m) / 5.0 if coarse else gen.random(m)
        null = gen.random(n) < 0.6
        pool = _pool(cal_t, null, test_t)
        alpha = float(gen.uniform(0.05, 0.5))
        ck = counting_knockoff_select(pool, alpha)
        det = bh_select(generalized_conformal_pvalues(pool, TieMode.DETERMINISTIC), alpha)
        assert np.array_equal(ck.selected, det.selected)


def test_knockoff_shared_u_equals_shared_bh():
    gen = np.random.default_rng(13)
    for i in range(300):
        n, m = int(gen.integers(2, 30)), int(gen.integers(1, 25))
        pool = _pool(gen.integers(0, 5, n) / 4.0, gen.random(n) < 0.6, gen.integers(0, 5, m) / 4.0)
        alpha = float(gen.uniform(0.05, 0.5))
        rng = RngStream(31).child(i)
        ck = counting_knockoff_select(pool, alpha, TieMode.SHARED_U, rng)
        hm = bh_select(generalized_conformal_pvalues(pool, TieMode.SHARED_U, rng), alpha)
        assert np.array_equal(ck.selected, hm.selected)


def test_knockoff_rejects_per_unit_ties():
    pool = _pool([0.5], [True], [0.5])
    with pytest.raises(ValueError):
        counting_knockoff_select(pool, 0.2, TieMode.PER_UNIT, RngStream(1))


def test_all_empty_sets_select_nothing():
    out = scip_select_arrays(
        np.array([1.0, 2.0]),
        np.array([True, False]),
        np.array([0.0, 0.0]),
        alpha=0.3,
        tie_mode=TieMode.DETERMINISTIC,
        test_eligible=np.array([False, False]),
    )
    assert out.selected.size == 0
    out2 = scip_select_arrays(
        np.array([1.0, 2.0]),
        np.array([True, False]),
        np.array([0.0, 0.0]),
        alpha=0.3,
        tie_mode=TieMode.DETERMINISTIC,
        test_eligible=np.array([False, False]),
        shrink_m=True,
    )
    assert out2.selected.size == 0


def test_shrink_m_changes_only_denominator():
    cal_t = np.array([0.9, 0.1, 0.2, 0.15])
    null = np.array([True, True, True, True])
    test_t = np.array([0.8, 0.7, 0.0, 0.0])
    eligible = np.array([True, True, False, False])
    full = scip_select_arrays(cal_t, null, test_t, 0.45, TieMode.DETERMINISTIC, test_eligible=eligible)
    shrunk = scip_select_arrays(
        cal_t, null, test_t, 0.45, TieMode.DETERMINISTIC, test_eligible=eligible, shrink_m=True
    )
    # deterministic p-values are (1+1)/5 = 0.4 for both eligible units
    assert full.selected.size == 0  # 0.4 > 0.45 * k/4 for k <= 2
    assert list(shrunk.selected) == [0, 1]  # 0.4 <= 0.45 * 2/2


def test_single_unit_bh_threshold_is_alpha():
    for p in (0.0, 0.1, 0.4, np.nextafter(0.4, 1.0), 1.0):
        assert bh_select(np.array([p]), 0.4).selected.tolist() == ([0] if p <= 0.4 else [])
    out = scip_select_arrays(
        np.array([0.5, 0.4]),
        np.array([True, True]),
        np.array([0.9]),
        alpha=0.4,
        tie_mode=TieMode.DETERMINISTIC,
    )
    assert list(out.selected) == [0]
    assert out.threshold_alpha_hat == pytest.approx(0.4)


def test_generalized_superuniformity_small():
    """Quick exchangeable-pool check; the large version runs in acceptance."""
    gen = np.random.default_rng(77)
    draws = 20_000
    n = 19
    x = gen.normal(size=(draws, n + 1))
    y = 0.5 * x + gen.normal(size=(draws, n + 1))
    trust = x  # frozen, permutation-invariant scoring
    null = y <= 0.0
    t_test = trust[:, -1]
    gt = ((trust[:, :-1] > t_test[:, None]) & null[:, :-1]).sum(axis=1)
    eq = ((trust[:, :-1] == t_test[:, None]) & null[:, :-1]).sum(axis=1)
    u = 1.0 - gen.random(draws)
    p = (gt + (1.0 + eq) * u) / (n + 1)
    for alpha in (0.05, 0.1, 0.2):
        hit = (p <= alpha) & null[:, -1]
        rate = hit.mean()
        stderr = math.sqrt(rate * (1 - rate) / draws)
        assert rate <= alpha + 3 * stderr
