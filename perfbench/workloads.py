"""The benchmark's workloads: what one op is, how a run measures it, how outputs are checked.

``reg-sweep`` drives ``scip.cli.run_experiment`` (one op = one replication:
one cell x rep, all eight methods).  ``pool-1m`` composes the
infosp+ array route from public ``scip.conformal``/``scip.selection`` calls
at n = m = 1e6 (one op = one score-to-selection pass, no set objects).

Every call into scip goes through a module attribute at call time
(``cli.run_experiment``, ``selection.bh_select``), so the wrappers of
``spans.install`` see it.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import scip.cli as cli
import scip.conformal as conformal
import scip.core as core
import scip.selection as selection
import scip.simgen as simgen

import spans
import speed

ALPHA = 0.1

# replications per cell in one run_experiment call: 4 cells x 20 reps = 80 ops,
# enough to keep the traced jobs=2 call's pool busy (chunksize 10) while a call stays a few seconds
CALL_REPS = 20

_REGRESSION = {
    "experiment": "regression-sweep",
    "methods": "naive,cfbh,cfbh+,cfbh++,infosp,infosp+,infosp++,infoscop",
    "eta_grid": "0,0.5,1,1.5",
    "alpha": ALPHA,
}
# the traced reg-sweep run also traces one classification call, so that the
# ClassSet building and softmax-fit paths are measured layer by layer
_CLASSIFICATION = {
    "experiment": "classification-sweep",
    "methods": "naive,infosp,infosp+,infosp++",
    "alpha_grid": "0.05,0.1,0.15,0.2",
}

# a sweep run measures at least this many ops, so that p95 has >= 20 samples beyond it
MIN_SWEEP_OPS = 400

POOL_N = 1_000_000
POOL_ETA = 0.5
TRACED_POOL_OPS = 2


class RunLog:
    """Ops attempted and failed, with the reason for each failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ops: int, problem: str | None):
        self.attempted += ops
        if problem is not None:
            self.fail(ops, problem)

    def fail(self, ops: int, problem: str):
        """Mark ``ops`` already attempted as failed."""
        self.failed += ops
        self.problems.append(problem)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _random_pool(gen: np.random.Generator, n: int, m: int):
    """Uniform calibration trusts, 60% null; 30% of test units trust above every null (BH selects)."""
    signal = gen.random(m) < 0.3
    test = np.where(signal, 1.0 + gen.random(m), gen.random(m))
    return selection.ScoredPool(gen.random(n), gen.random(n) < 0.6, test)


def reference_paths(seed: int, log: RunLog) -> dict[str, float]:
    """Reference selectors (equivalence-check paths), timed and checked against BH.

    These are reference implementations, kept out of every end-to-end metric.
    """
    out = {}
    for n in (1000, 4000):
        gen = np.random.default_rng([seed, 7, n])
        pool = _random_pool(gen, n, n)
        p_det = selection.generalized_conformal_pvalues(pool, selection.TieMode.DETERMINISTIC)
        bh = selection.bh_select(p_det, ALPHA)
        ck = selection.counting_knockoff_select(pool, ALPHA, selection.TieMode.DETERMINISTIC)
        sc = selection.self_consistent_select(p_det, ALPHA)
        same = np.array_equal(ck.selected, bh.selected) and np.array_equal(sc.selected, bh.selected)
        log.record(1, None if same else f"reference selectors disagree with BH at n={n}")
        out[f"selection.ref.knockoff_ms.n{n}"] = _median_ms(
            lambda: selection.counting_knockoff_select(pool, ALPHA, selection.TieMode.DETERMINISTIC), 3)
        out[f"selection.ref.self_consistent_ms.n{n}"] = _median_ms(
            lambda: selection.self_consistent_select(p_det, ALPHA), 3)
    return out


def scale_curve(seed: int) -> dict[str, float]:
    """Generalized p-values + BH at n = m in {1e3 .. 1e6}, median of several passes."""
    out = {}
    for exp, repeats in ((3, 30), (4, 10), (5, 5), (6, 3)):
        m = 10**exp
        pool = _random_pool(np.random.default_rng([seed, 11, m]), m, m)
        rng = core.RngStream(seed).child(11, m)

        def once():
            p = selection.generalized_conformal_pvalues(pool, selection.TieMode.PER_UNIT, rng)
            selection.bh_select(p, ALPHA)

        out[f"selection.scale_ms.m1e{exp}"] = _median_ms(once, repeats)
    return out


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


_PER_REP_HEADER = "experiment,method,rep,alpha,eta,fcp,cpow,rpow,n_selected"
_AGG_HEADER = "experiment,method,alpha,eta,reps,fcr,fcr_stderr,cpow,cpow_stderr,rpow,rpow_stderr,mfcr"


def check_sweep_csv(config, per_rep: bytes, agg: bytes) -> str | None:
    """Structural checks that hold for any seed; returns a problem or None."""
    rows = per_rep.decode().splitlines()
    cells = len(config.alphas) * len(config.etas)
    expected_rows = len(config.methods) * cells * config.reps
    if rows[0] != _PER_REP_HEADER or len(rows) - 1 != expected_rows:
        return f"per_replication.csv: header or row count wrong ({len(rows) - 1} != {expected_rows})"
    groups: dict[tuple, list[tuple[float, float]]] = {}
    for line in rows[1:]:
        exp, method, rep, alpha, eta, fcp, cpow, rpow, n_sel = line.split(",")
        fcp_v, cpow_v, rpow_v, n = float(fcp), float(cpow), float(rpow), int(n_sel)
        if exp != config.experiment or method not in config.methods:
            return f"per_replication.csv: unexpected row {line!r}"
        if not (0.0 <= fcp_v <= 1.0 and cpow_v == n and 0 <= n <= config.m and rpow_v >= 0.0):
            return f"per_replication.csv: value out of range in {line!r}"
        groups.setdefault((method, alpha, eta), []).append((fcp_v, cpow_v))
    agg_rows = agg.decode().splitlines()
    if agg_rows[0] != _AGG_HEADER or len(agg_rows) - 1 != len(groups):
        return "aggregate.csv: header or row count wrong"
    for line in agg_rows[1:]:
        fields = line.split(",")
        values = groups.get((fields[1], fields[2], fields[3]))
        if values is None or int(fields[4]) != len(values):
            return f"aggregate.csv: row without matching replications {line!r}"
        fcr = math.fsum(v[0] for v in values) / len(values)
        cpow = math.fsum(v[1] for v in values) / len(values)
        if float(fields[5]) != fcr or float(fields[7]) != cpow:
            return f"aggregate.csv: means disagree with per_replication.csv in {line!r}"
    return None


class Sweep:
    """The regression sweep through ``scip.cli.run_experiment``, one call after another."""

    name = "reg-sweep"

    def __init__(self, seed: int, work_dir: Path, expected: dict | None):
        self.seed = seed
        self.work_dir = work_dir
        self.expected = expected
        self.digests: dict[str, dict[str, str]] = {}

    def config(self, call: int, values: dict = _REGRESSION, reps: int = CALL_REPS, jobs: int = 1,
               one_cell: bool = False):
        values = dict(values, reps=reps, jobs=jobs, seed=self.seed * 1000 + call)
        if one_cell:
            values.pop("eta_grid", None)
            values.update(alpha=ALPHA, eta=0.0)
        return cli.build_config(values)

    def run_call(self, config, log: RunLog, check_digests: bool = False):
        """One run_experiment call; returns (wall seconds, per_rep bytes, aggregate bytes).

        With ``check_digests`` the CSV digests are recorded and, at the default
        seed, compared with ``expected.json``.
        """
        out = self.work_dir / "csv"
        shutil.rmtree(out, ignore_errors=True)
        ops = _ops(config)
        t0 = time.perf_counter()
        try:
            per_path, agg_path = cli.run_experiment(config, out)
        except Exception as exc:  # a failed op is counted, not fatal to the run
            log.record(ops, f"run_experiment raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, b"", b""
        wall = time.perf_counter() - t0
        per_rep, agg = per_path.read_bytes(), agg_path.read_bytes()
        problem = check_sweep_csv(config, per_rep, agg)
        if check_digests:
            digests = {"per_replication.csv": sha256(per_rep), "aggregate.csv": sha256(agg)}
            self.digests[config.experiment] = digests
            expected = None if self.expected is None else self.expected[config.experiment]
            if problem is None and expected is not None and digests != expected:
                problem = f"default-seed {config.experiment} CSV digests differ: {digests}"
        log.record(ops, problem)
        return wall, per_rep, agg

    def warm_up(self):
        self.run_call(self.config(999, reps=1, one_cell=True), RunLog())

    def measure(self, seconds: float) -> dict:
        """Closed loop of run_experiment calls until ``seconds`` have passed and ``MIN_SWEEP_OPS`` are done.

        The speed probe runs before every op, outside its span, and
        once more at the end.  An op's time is scaled by the readings on both
        sides of it; the rest of a call's time (cell set-up, CSV writing) by
        the mean scale of the call's ops.  Probe time is taken out of the call's time.
        """
        log = RunLog()
        rec = spans.Recorder()
        probe = speed.sweep_probe()
        readings, probe_wall = [], [0.0]

        def probe_before_op():
            t0 = time.perf_counter()
            readings.append(probe.read())
            probe_wall[0] += time.perf_counter() - t0

        uninstall = spans.install(rec, full=False, before_op=probe_before_op)
        walls, call_ops, call = [], [], 0
        t_start = time.perf_counter()
        try:
            while time.perf_counter() - t_start < seconds or log.attempted < MIN_SWEEP_OPS:
                first_op, probe_wall[0] = rec.op_id, 0.0
                wall, _, _ = self.run_call(self.config(call), log, check_digests=call == 0)
                walls.append(wall - probe_wall[0])
                call_ops.append(rec.op_id - first_op)
                call += 1
        finally:
            uninstall()
        readings.append(probe.read())
        op_s = spans.op_durations(rec)
        op_scale = probe.factors(readings)
        ref_wall, first = 0.0, 0
        for wall, ops in zip(walls, call_ops):
            span = slice(first, first + ops)
            ref_wall += float(np.dot(op_s[span], op_scale[span]) + (wall - op_s[span].sum()) * op_scale[span].mean())
            first += ops
        return {"ops": log.attempted - log.failed, "wall_s": sum(walls), "ref_wall_s": ref_wall, "calls": call,
                "op_s": op_s.tolist(), "op_ref_s": (op_s * op_scale).tolist(), "probe_s": readings, "log": log}

    def trace(self, rec: spans.Recorder, log: RunLog) -> tuple[dict, int]:
        """Fixed work, untraced and then traced, with the same bytes both times.

        The work is call 0 of the regression sweep and one classification call.
        The regression call also runs at jobs = 2, untraced, for the cli Pool
        layer and its byte-identity.  Returns the workload's own traced metrics
        and the number of traced ops.
        """
        configs = [self.config(0), self.config(0, values=_CLASSIFICATION)]
        untraced, walls_u = [], []
        for config in configs:
            wall, per_rep, agg = self.run_call(config, log, check_digests=True)
            untraced.append((per_rep, agg))
            walls_u.append(wall)
        wall_2, per_2, agg_2 = self.run_call(self.config(0, jobs=2), log)
        if (per_2, agg_2) != untraced[0]:
            log.fail(_ops(configs[0]), "jobs=2 CSV differs from jobs=1 CSV")
        metrics = {"cli.pool_efficiency": walls_u[0] / (2 * wall_2)}
        traced, wall_t = [], 0.0
        uninstall = spans.install(rec, full=True)
        try:
            for config in configs:
                wall, per_rep, agg = self.run_call(config, log)
                traced.append((per_rep, agg))
                wall_t += wall
        finally:
            uninstall()
        for config, before, after in zip(configs, untraced, traced):
            if before != after:
                log.fail(_ops(config), f"traced {config.experiment} CSV differs from untraced CSV")
        metrics["cli.csv_bytes"] = sum(len(per_rep) + len(agg) for per_rep, agg in traced)
        metrics["trace.overhead_frac"] = 1.0 - sum(walls_u) / wall_t
        return metrics, sum(_ops(config) for config in configs)


def _ops(config) -> int:
    """Replications (ops) in one run_experiment call."""
    return len(config.alphas) * len(config.etas) * config.reps


# ---------------------------------------------------------------------------
# Large-pool selection
# ---------------------------------------------------------------------------


class Pool1M:
    """The infosp+ array route at n = m = 1e6, from scores to BH selection."""

    name = "pool-1m"

    def __init__(self, seed: int, expected: dict | None):
        self.seed = seed
        self.expected = expected
        self.first_digest = None

    @property
    def digests(self) -> dict[str, str]:
        return {"selected": self.first_digest}

    def warm_up(self):
        n = POOL_N
        data, mu_hat = simgen.gen_regression(3 * n, POOL_ETA, core.RngStream(self.seed))
        self.cal0_X, self.cal0_y = data.X[:n], data.y[:n]
        self.X_all = np.ascontiguousarray(data.X[n:])
        self.cal_y = data.y[n : 2 * n]
        self.score = conformal.AbsoluteResidual(mu_hat)
        self.constraint = core.PositiveInterval()
        self.check(*self.op(), RunLog())

    def op(self, mark=lambda: None):
        """One score-to-selection pass; returns (selection result, test eligibility).

        ``mark`` is called between the pass's three parts of about a second each.
        """
        n = POOL_N
        cal0 = conformal.CalibrationScores(self.score.eval(self.cal0_X, self.cal0_y))
        q0 = conformal.i_adjusted_pvalues(self.X_all, cal0, self.score, self.constraint)
        mark()
        tau0 = selection.bh_select(q0, ALPHA).threshold_alpha_hat
        q_plus = np.maximum(q0, tau0)
        radii = cal0.score_radius(q_plus)
        mark()
        nonempty = radii >= 0.0
        trust = np.where(nonempty, 1.0 - q_plus, 0.0)
        mu_cal = self.score.mu_hat(self.X_all[:n])
        covered = np.abs(self.cal_y - mu_cal) <= radii[:n]
        null = ~(covered & nonempty[:n])
        result = selection.scip_select_arrays(
            trust[:n], null, trust[n:], ALPHA, selection.TieMode.PER_UNIT,
            core.RngStream(self.seed).child(1), test_eligible=nonempty[n:],
        )
        return result, nonempty[n:]

    def check(self, result, eligible, log: RunLog):
        """BH invariants for any seed, plus the selected-index digest at the default seed."""
        p, sel, m = result.pvalues, result.selected, result.pvalues.size
        alpha_hat = ALPHA * result.k_hat / m
        order = np.sort(p)
        passing = np.flatnonzero(order <= ALPHA * np.arange(1, m + 1) / m)
        k_ref = int(passing[-1] + 1) if passing.size else 0
        digest = sha256(np.asarray(sel, dtype="<i8").tobytes())
        if self.first_digest is None:
            self.first_digest = digest
        reference = self.first_digest if self.expected is None else self.expected["selected"]
        problem = None
        if result.threshold_alpha_hat != alpha_hat or result.k_hat != k_ref:
            problem = "BH threshold or k_hat wrong"
        elif sel.size != result.k_hat or np.any(p[sel] > alpha_hat) or not np.all(eligible[sel]):
            problem = "selected set breaks BH (p above threshold or ineligible unit)"
        elif digest != reference:
            problem = f"selected-index digest {digest} differs from {reference}"
        log.record(1, problem)

    def measure(self, seconds: float) -> dict:
        """Closed loop of ops until ``seconds`` have passed.

        The speed probe runs before the first op, between the parts of each
        op and after it; each part's time is scaled by the readings on both
        sides of it.
        """
        log = RunLog()
        probe = speed.pool_probe()
        op_s, op_ref_s, readings = [], [], [probe.read()]
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds:
            parts, t0 = [], [time.perf_counter()]

            def mark():
                parts.append(time.perf_counter() - t0[0])
                readings.append(probe.read())
                t0[0] = time.perf_counter()

            try:
                result = self.op(mark)
            except Exception as exc:  # a failed op is counted, not fatal to the run
                log.record(1, f"op raised {type(exc).__name__}: {exc}")
                continue
            mark()
            op_s.append(sum(parts))
            op_ref_s.append(float(np.dot(parts, probe.factors(readings[-len(parts) - 1:]))))
            self.check(*result, log)
        return {"ops": log.attempted - log.failed, "wall_s": sum(op_s), "ref_wall_s": sum(op_ref_s),
                "calls": len(op_s), "op_s": op_s, "op_ref_s": op_ref_s, "probe_s": readings, "log": log}

    def trace(self, rec: spans.Recorder, log: RunLog) -> tuple[dict, int]:
        t0 = time.perf_counter()
        for _ in range(TRACED_POOL_OPS):
            self.check(*self.op(), log)
        wall_u = time.perf_counter() - t0
        metrics = {"cli.pool_efficiency": 0.0, "cli.csv_bytes": 0}
        uninstall = spans.install(rec, full=True)
        traced_op = spans.op_span(rec, self.op, "bench.pool_op")
        try:
            t0 = time.perf_counter()
            for _ in range(TRACED_POOL_OPS):
                self.check(*traced_op(), log)
            wall_t = time.perf_counter() - t0
        finally:
            uninstall()
        metrics["trace.overhead_frac"] = 1.0 - wall_u / wall_t
        return metrics, TRACED_POOL_OPS


def make(name: str, seed: int, work_dir: Path, expected: dict):
    """The named workload; ``expected`` holds the output digests of the default seed."""
    digests = expected[name] if seed == expected["seed"] else None
    if name == Pool1M.name:
        return Pool1M(seed, digests)
    return Sweep(seed, work_dir, digests)
