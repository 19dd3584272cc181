import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scip.core
from scip import selection
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
    assert selection._pvalues_at(pool, lambda m: np.full(m, 0.5))[0] == pytest.approx(0.3)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    n=st.integers(1, 30),
    m=st.integers(1, 30),
    alpha=st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5]) | st.floats(1e-6, 1 - 1e-6),
    seed=st.integers(0, 2**32 - 1),
)
def test_pvalue_no_nulls_reduces_to_u_over_n1(n, m, alpha, seed):
    """With no null calibration unit p_j = U_j / (n + 1) in every tie mode, and BH cuts those."""
    gen = np.random.default_rng(seed)
    pool = _pool(gen.random(n), np.zeros(n, dtype=bool), gen.normal(size=m))
    draws = {
        TieMode.PER_UNIT: lambda rng: rng.uniform_open_closed(m),
        TieMode.SHARED_U: lambda rng: np.full(m, rng.uniform_open_closed()),
        TieMode.DETERMINISTIC: lambda rng: np.ones(m),
    }
    for tie_mode, draw in draws.items():
        rng = RngStream(3).child(seed)
        p = generalized_conformal_pvalues(pool, tie_mode, rng)
        assert np.array_equal(p, draw(rng) / (n + 1))
        # step-up BH: k_hat = max{k : p_(k) <= alpha k / m}; select p <= alpha k_hat / m
        k_hat = max((k for k in range(1, m + 1) if np.sort(p)[k - 1] <= alpha * k / m), default=0)
        expected = np.flatnonzero(p <= alpha * k_hat / m) if k_hat else []
        assert bh_select(p, alpha).selected.tolist() == list(expected)


def test_deterministic_pvalues_with_no_nulls_all_pass_or_none():
    """Every deterministic p-value is 1/(n + 1) with no null unit: BH takes all at alpha above it, none below."""
    pool = _pool([0.9, 0.7], [False, False], [0.5, 2.0, 0.7, -1.0])
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
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    n=st.one_of(st.just(1), st.integers(1, 400)),
    m=st.one_of(st.just(1), st.integers(1, 400)),
    null_frac=st.sampled_from([0.0, 0.6, 1.0]),  # no null unit, some, every one
    values=st.sampled_from([1, 3, 6, 0]),  # distinct trust values (1: all tied); 0: continuous
    cpus=st.sampled_from([1, 2, 3]),
    chunk_keys=st.integers(1, 200),
    block_keys=st.integers(1, 200),
    window_keys=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_pvalues_bit_equal_to_plain_search(tie_mode, n, m, null_frac, values, cpus, chunk_keys, block_keys,
                                           window_keys, seed):
    """The p-values built in the tie-draw buffer equal the written-out formula over a plain search
    in unit order, bit for bit, whether ``_ranks`` derives the right side from run ends (m at least a
    block), splits the keys over threads (m at least two chunks, several CPUs), searches inside table
    windows (blocks longer than a window) or none of these."""
    gen = np.random.default_rng(seed)
    trusts = (lambda size: gen.random(size)) if values == 0 else (lambda size: gen.integers(0, values, size) / 5.0)
    pool = _pool(trusts(n), gen.random(n) < null_frac, trusts(m))
    rng = None if tie_mode is TieMode.DETERMINISTIC else RngStream(17).child(seed)
    if tie_mode is TieMode.PER_UNIT:
        u = rng.uniform_open_closed(pool.m)
    else:
        u = 1.0 if rng is None else float(rng.uniform_open_closed())
    expected = _plain_search_pvalues(pool, u)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scip.core, "_CHUNK_KEYS", chunk_keys)
        patch.setattr(scip.core, "_BLOCK_KEYS", max(block_keys, m // 64))  # at most about 64 blocks
        patch.setattr(scip.core, "_WINDOW_KEYS", window_keys)
        patch.setattr(scip.core, "_usable_cpus", lambda: cpus)
        p = generalized_conformal_pvalues(pool, tie_mode, rng)
        if tie_mode is not TieMode.PER_UNIT:
            ck = counting_knockoff_select(pool, 0.2, tie_mode, rng)
            assert np.array_equal(ck.pvalues, expected)
    assert p.dtype == np.float64 and np.array_equal(p, expected)


# The most traced memory the selection step may hold at once at n = m = 2^18 with heavy ties: this
# many bytes per test unit, plus this many per block key for each chunk's block temporaries.
# Measured (ten calls per chunk count): 27.3 bytes per unit with one chunk and 30.6-31.5, 27.4-33.9,
# 27.4-34.8 with two, three, four; with fresh block temporaries in each chunk instead of reused block
# buffers, 30.1 and 35-37, 34-38, 34-47; with intp counts and the tie draws taken before the search,
# 49 and 53-56, 54-61, 60-66.  The budget (29, 33, 37, 41) fails with the fresh temporaries at one and
# two chunks, and with only one of the int32 counts or the late tie draws restored (38 with one chunk).
_BYTES_PER_UNIT, _BYTES_PER_BLOCK_KEY = 25, 32


def _traced_peak(fn) -> int:
    """The most traced memory held at once while fn runs, above what was held when it started."""
    tracing = tracemalloc.is_tracing()  # under PYTHONTRACEMALLOC, leave the tracing on
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("one_cpu", [False, True], ids=["threaded", "one-chunk"])
def test_selection_memory_budget(one_cpu, monkeypatch):
    """``scip_select_arrays`` over a large pool stays within its budget of traced bytes per test unit,
    with the real CPU count (threaded where there are several) and with one chunk run inline."""
    m = 1 << 18
    gen = np.random.default_rng(63)
    cal, test = gen.integers(0, 200, m) / 199.0, gen.integers(0, 200, m) / 199.0
    null, eligible = gen.random(m) < 0.6, gen.random(m) < 0.9
    if one_cpu:
        monkeypatch.setattr(scip.core, "_usable_cpus", lambda: 1)
    chunks = min(scip.core._usable_cpus(), m // scip.core._CHUNK_KEYS)  # one per usable CPU, as _ranks splits
    peak = _traced_peak(
        lambda: scip_select_arrays(cal, null, test, 0.1, TieMode.PER_UNIT, RngStream(3), test_eligible=eligible)
    )
    assert peak <= _BYTES_PER_UNIT * m + chunks * _BYTES_PER_BLOCK_KEY * scip.core._BLOCK_KEYS


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


def _full_sort_bh(p, alpha):
    """(k_hat, alpha_hat, selected) by the step-up rule over every sorted p-value."""
    m = p.size
    passing = np.flatnonzero(np.sort(p) <= alpha * np.arange(1, m + 1) / m)
    k_hat = int(passing[-1] + 1) if passing.size else 0
    alpha_hat = alpha * k_hat / m
    return k_hat, alpha_hat, np.flatnonzero(p <= alpha_hat) if k_hat else np.array([], dtype=int)


def _assert_full_sort_bh(p, alpha):
    r = bh_select(p, alpha)
    k_hat, alpha_hat, selected = _full_sort_bh(p, alpha)
    assert r.k_hat == k_hat and r.threshold_alpha_hat == alpha_hat
    assert np.array_equal(r.selected, selected)
    return r


def test_bh_p_values_tied_at_a_threshold_pass():
    """alpha m / m can exceed alpha; a p-value equal to it still passes at k = m."""
    top = 0.1 * 3 / 3
    assert top > 0.1
    for p in ([top, top, top], [0.01, 0.02, top], [top, 0.0, 0.1]):
        assert _assert_full_sort_bh(np.array(p), 0.1).k_hat == 3
    for m, alpha in ((3, 0.1), (4, 0.2), (7, 1 / 3), (10, 0.3)):
        thresholds = alpha * np.arange(1, m + 1) / m
        assert _assert_full_sort_bh(thresholds[::-1].copy(), alpha).k_hat == m
        assert _assert_full_sort_bh(np.nextafter(thresholds, 1.0), alpha).k_hat == 0


@settings(derandomize=True, database=None, deadline=None)
@given(
    m=st.integers(1, 60),
    alpha=st.sampled_from([0.1, 0.05, 0.2, 0.3, 1 / 3, 0.7]) | st.floats(1e-6, 1 - 1e-6),
    data=st.data(),
)
def test_bh_matches_full_sort_rule(m, alpha, data):
    """bh_select sorts only the p-values that can pass; k_hat, threshold and selection equal the full sort's."""
    thresholds = alpha * np.arange(1, m + 1) / m
    near = np.concatenate([thresholds, np.nextafter(thresholds, 0.0), np.nextafter(thresholds, 1.0), [0.0, 1.0]])
    near = near[(near >= 0.0) & (near <= 1.0)]
    p = np.array(data.draw(st.lists(st.sampled_from(near.tolist()) | st.floats(0.0, 1.0), min_size=m, max_size=m)))
    _assert_full_sort_bh(p, alpha)


def _bh_in_split(p, alpha, cpus: int):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scip.core, "_CHUNK_KEYS", 16)
        patch.setattr(scip.core, "_usable_cpus", lambda: cpus)
        return bh_select(p, alpha)


@pytest.mark.parametrize("cpus", [2, 9])
@pytest.mark.parametrize("m", [32, 500])
def test_bh_keeps_its_result_in_every_split(m, cpus):
    """With the range check in 2 or 9 chunks, BH gives the one-chunk selection, threshold and k_hat, over
    p-values at 0, 1, the thresholds alpha k / m and one ulp off each."""
    gen = np.random.default_rng(m)
    exact = np.concatenate([[0.0, 1.0], 0.1 * np.arange(1, m + 1) / m])
    near = np.concatenate([exact, np.nextafter(exact, -1.0), np.nextafter(exact, 2.0)])
    p = gen.choice(near[(near >= 0.0) & (near <= 1.0)], m)
    one = bh_select(p, 0.1)
    split = _bh_in_split(p, 0.1, cpus)
    assert np.array_equal(split.selected, one.selected) and split.selected.dtype == one.selected.dtype
    assert (split.threshold_alpha_hat, split.k_hat) == (one.threshold_alpha_hat, one.k_hat)
    assert one.k_hat > 0


@pytest.mark.parametrize("cpus", [1, 2, 9])
@pytest.mark.parametrize("bad", [math.nan, -5e-324, np.nextafter(1.0, 2.0)])
def test_bh_rejects_a_bad_p_value_in_the_last_chunk(bad, cpus):
    p = np.linspace(0.0, 1.0, 300)
    p[-1] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        _bh_in_split(p, 0.1, cpus)


def _assert_bh_matches_self_consistent(p, alpha):
    a = bh_select(p, alpha)
    b = self_consistent_select(p, alpha)
    assert np.array_equal(a.selected, b.selected)
    assert a.threshold_alpha_hat >= b.threshold_alpha_hat - 1e-15


def test_bh_matches_self_consistent_form():
    gen = np.random.default_rng(9)
    for _ in range(1000):
        m = int(gen.integers(1, 40))
        p = gen.integers(0, 6, m) / 5.0 if gen.random() < 0.4 else gen.random(m)
        _assert_bh_matches_self_consistent(p, float(gen.uniform(0.02, 0.5)))
    for _ in range(300):  # m = 1, or every p-value equal
        m = 1 if gen.random() < 0.5 else int(gen.integers(2, 40))
        p = np.full(m, gen.integers(0, 6) / 5.0 if gen.random() < 0.4 else gen.random())
        _assert_bh_matches_self_consistent(p, float(gen.uniform(0.02, 0.5)))


@pytest.mark.parametrize("p", [[0.1, math.nan], [math.nan], [0.2, np.nextafter(1.0, 2.0)], [-5e-324, 0.5], [0.1, -math.inf]])
def test_bh_rejects_p_values_outside_the_unit_interval(p):
    """A NaN or a p-value outside [0, 1] raises, wherever it sits."""
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        bh_select(np.array(p), 0.1)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(n=st.integers(2, 39), m=st.integers(1, 39), seed=st.integers(0, 2**32 - 1))
def test_selection_invariant_to_monotone_trust_transform(n, m, seed):
    """BH over per-unit p-values selects the same units after a strictly increasing map of every trust."""
    gen = np.random.default_rng(seed)
    cal_t, test_t = gen.random(n), gen.random(m)
    null = gen.random(n) < 0.5
    rng = RngStream(21).child(seed)
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


def test_ineligible_units_keep_their_bh_slot():
    """Units with an empty set are frozen out at p = 1 but still count in BH's denominator m."""
    cal_t = np.array([0.9, 0.1, 0.2, 0.15])
    null = np.array([True, True, True, True])
    test_t = np.array([0.8, 0.7, 0.0, 0.0])
    eligible = np.array([True, True, False, False])
    full = scip_select_arrays(cal_t, null, test_t, 0.45, TieMode.DETERMINISTIC, test_eligible=eligible)
    # deterministic p-values are (1+1)/5 = 0.4 for both eligible units
    assert full.selected.size == 0  # 0.4 > 0.45 * k/4 for k <= 2


@settings(derandomize=True, database=None, deadline=None)
@given(
    alpha=st.sampled_from([0.4, 0.1, 1 / 3]) | st.floats(1e-6, 1 - 1e-6),
    offset=st.sampled_from([0, -1, 1]),
    p=st.none() | st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]),
)
def test_single_unit_bh_threshold_is_alpha(alpha, offset, p):
    """With m = 1 the one threshold is alpha itself: a p-value at or below it is selected, one ulp above is not."""
    if p is None:  # alpha itself, or one ulp either side of it
        p = float(np.nextafter(alpha, 0.0) if offset < 0 else np.nextafter(alpha, 1.0) if offset > 0 else alpha)
    assert bh_select(np.array([p]), alpha).selected.tolist() == ([0] if p <= alpha else [])


def test_single_unit_pool_threshold_is_alpha():
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
