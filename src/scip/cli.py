"""Experiment runner CLI.

Configuration is a flat key=value text file ('#' starts a comment) with
command-line overrides.  Outputs are two CSV files per run: a per-replication
table and an aggregate table, both written in one pass over the replication
results.  Floats are written with shortest round-trip precision, so
re-aggregating the per-replication file reproduces the aggregate table exactly.

    scip-experiments --experiment regression-sweep --set reps=50 --out results/

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys
import typing
from dataclasses import dataclass, fields
from multiprocessing import Pool
from pathlib import Path

from . import experiments
from .core import ConfigError, RngStream, ScipError
from .experiments import check_methods, check_split, run_equivalence_checks
from .metrics import aggregate


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters and the CLI's key table; unknown keys are rejected at parse time.

    A field's type parses its key's text (``T | None`` as ``T``); the tuple
    fields are built from the text keys in ``_TEXT_KEYS``.
    """

    experiment: str
    methods: tuple[str, ...]
    n: int = 1000
    m: int = 1000
    reps: int = 100
    alphas: tuple[float, ...] = (0.1,)
    etas: tuple[float, ...] = (0.0,)
    seed: int = 0
    split_ratio: float = 0.5
    screening_alpha: float | None = None
    screening_threshold: float = 0.0
    noise_sd: float = 0.5
    lam: float = 1.0
    feature_degree: int = 2
    train_size: int | None = None
    max_size: int = 2
    profile: str = "dti-like"
    feasible_frac: float = 0.5
    sharpness: float = 1.5
    instances: int = 1000
    jobs: int = 1
    out: str = "results"

    def validate(self):
        if self.experiment not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        checks = (
            (self.n >= 4 and self.m >= 1 and self.reps >= 1, "need n >= 4, m >= 1, reps >= 1"),
            (self.seed >= 0, "seed must be >= 0"),
            (self.instances >= 0, "instances must be >= 0"),
            (len(self.alphas) >= 1, "alpha_grid must name at least one alpha"),
            (all(0.0 < a < 1.0 for a in self.alphas), "alpha values must lie in (0, 1)"),
            (len(self.etas) >= 1, "eta_grid must name at least one eta"),
            (all(_cube_is_finite(e) for e in self.etas), "eta must be finite and have a finite cube"),
            (self.train_size is None or self.train_size >= 2, "train_size must be >= 2"),
            (self.jobs >= 1, "jobs must be >= 1"),
            (math.isfinite(self.lam) and self.lam > 0.0, "lam must be finite and > 0"),
            (self.feature_degree >= 1, "feature_degree must be >= 1"),
            (self.max_size >= 1, "max_size must be >= 1"),
            (math.isfinite(self.noise_sd) and self.noise_sd >= 0.0, "noise_sd must be finite and >= 0"),
            (math.isfinite(self.sharpness), "sharpness must be finite"),
            (0.0 <= self.feasible_frac <= 1.0, "feasible_frac must lie in [0, 1]"),
            (math.isfinite(self.screening_threshold), "screening_threshold must be finite"),
            (self.screening_alpha is None or 0.0 < self.screening_alpha < 1.0,
             "screening_alpha must lie in (0, 1)"),
        )
        for ok, why in checks:
            if not ok:
                raise ConfigError(why)
        check_split(self.n, self.split_ratio)
        sweep = _SWEEPS.get(self.experiment)
        if sweep and sweep.study is None and self.profile not in _PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r}; expected one of {', '.join(_PROFILES)}")
        # the equivalence suite is no study, so it takes no method names
        check_methods(sweep.study or self.profile if sweep else self.experiment, self.methods)


def _cube_is_finite(eta: float) -> bool:
    """Whether ``eta**3``, as the regression predictor computes it, is a finite float."""
    try:
        return math.isfinite(eta**3)
    except OverflowError:
        return False


@dataclass(frozen=True)
class _Sweep:
    """One replication sweep: its study, runner and defaults; it reads the keys its runner takes."""

    study: str | None  # None: the config's profile names the study
    runner: str  # looked up on ``scip.experiments`` per call, so a wrapper set there sees every call
    methods: str
    alphas: tuple[float, ...]
    etas: tuple[float, ...] = ExperimentConfig.etas  # read only by a runner that takes eta


_SWEEPS = {
    "regression-sweep": _Sweep(
        "regression",
        "regression_replication",
        "naive,infosp,infoscop,infosp+",
        (0.1,),
        (0.0, 0.5, 1.0, 1.5),
    ),
    "classification-sweep": _Sweep(
        "classification",
        "classification_replication",
        "naive,infosp,infosp+,infosp++",
        (0.05, 0.1, 0.15, 0.2),
    ),
    "synthetic-real": _Sweep(
        None,
        "synthetic_replication",
        "naive,infosp,infosp+",
        (0.1,),
    ),
}

_EXPERIMENTS = (*_SWEEPS, "equivalence-suite")

_PROFILES = ("dti-like", "cifar-like")

# the text keys that build_config turns into the tuple fields methods, alphas and etas
_TEXT_KEYS = {"methods": str, "alpha": float, "alpha_grid": str, "eta": float, "eta_grid": str}


def _scalar(hint):
    """``T`` for a field typed ``T`` or ``T | None``."""
    return next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))


_FIELD_KEYS = {
    name: _scalar(hint)
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
    if typing.get_origin(hint) is not tuple
}
_PARSERS = {**_FIELD_KEYS, **_TEXT_KEYS}


def _reads(runner: str) -> frozenset[str]:
    """The keys a runner reads: its parameters, with ``<key>_grid`` read along with ``<key>``."""
    params = inspect.signature(getattr(experiments, runner)).parameters
    return frozenset(key for key in _PARSERS if key.removesuffix("_grid") in params)


# read once at import, before a test or the benchmark wraps a runner in a function that hides them
_READS = {name: _reads(sweep.runner) for name, sweep in _SWEEPS.items()}
# the config fields each sweep passes to its runner; each cell passes alpha and eta
_RUNNER_FIELDS = {
    name: tuple(sorted(keys & {f.name for f in fields(ExperimentConfig)})) for name, keys in _READS.items()
}
# keys that some sweeps read and others do not: an experiment that does not read one rejects it
_SWEEP_KEYS = frozenset.union(*_READS.values()) - frozenset.intersection(*_READS.values())


def _parse_value(key: str, raw: str):
    if key not in _PARSERS:
        raise ConfigError(f"unknown configuration key {key!r}")
    try:
        return _PARSERS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def _read_config_file(path: str) -> dict:
    values = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        values[key] = _parse_value(key, raw)
    return values


def _axis(values: dict, key: str, default: tuple) -> tuple[float, ...]:
    """The ``<key>_grid`` list if given, else the single ``<key>``, else the default; not both."""
    if f"{key}_grid" in values and key in values:
        raise ConfigError(f"give {key} or {key}_grid, not both")
    if f"{key}_grid" in values:
        raw = values[f"{key}_grid"]
        try:
            return tuple(float(tok) for tok in raw.split(",") if tok.strip() != "")
        except ValueError as exc:
            raise ConfigError(f"bad grid {raw!r}") from exc
    if key in values:
        return (float(values[key]),)
    return default


def build_config(values: dict) -> ExperimentConfig:
    unknown = sorted(values.keys() - _PARSERS.keys())
    if unknown:
        raise ConfigError(f"unknown configuration key {', '.join(map(repr, unknown))}")
    experiment = values.get("experiment")
    if experiment is None:
        raise ConfigError("an experiment name is required")
    unread = sorted(values.keys() & (_SWEEP_KEYS - _READS.get(experiment, frozenset())))
    if unread and experiment in _EXPERIMENTS:  # before any range check; validate names an unknown one
        raise ConfigError(f"{experiment} does not read {', '.join(unread)}")
    sweep = _SWEEPS.get(experiment)
    methods_raw = values.get("methods", sweep.methods if sweep else "")
    config = ExperimentConfig(
        **{key: values[key] for key in values.keys() & _FIELD_KEYS},
        methods=tuple(tok.strip() for tok in methods_raw.split(",") if tok.strip()),
        alphas=_axis(values, "alpha", sweep.alphas if sweep else ExperimentConfig.alphas),
        etas=_axis(values, "eta", sweep.etas if sweep else ExperimentConfig.etas),
    )
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Replication scheduling
# ---------------------------------------------------------------------------

_PER_REP_HEADER = "experiment,method,rep,alpha,eta,fcp,cpow,rpow,n_selected\n"
_AGG_HEADER = "experiment,method,alpha,eta,reps,fcr,fcr_stderr,cpow,cpow_stderr,rpow,rpow_stderr,mfcr\n"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _row(*fields) -> str:
    return ",".join(_fmt(f) for f in fields) + "\n"


def _cells(config: ExperimentConfig) -> list[tuple[float, float | None]]:
    """The (alpha, eta) cells in output order: eta outermost; eta is None without an eta axis."""
    etas = config.etas if "eta" in _READS[config.experiment] else (None,)
    return [(float(alpha), None if eta is None else float(eta)) for eta in etas for alpha in config.alphas]


def _cell_task(args):
    """One replication of one cell: {method: ReplicationMetrics}."""
    config, cell_index, alpha, eta, rep = args
    runner = getattr(experiments, _SWEEPS[config.experiment].runner)
    cell = {"alpha": alpha} if eta is None else {"alpha": alpha, "eta": eta}
    return runner(
        rng=RngStream(config.seed).child(cell_index, rep),
        **cell,
        **{key: getattr(config, key) for key in _RUNNER_FIELDS[config.experiment]},
    )


def run_experiment(config: ExperimentConfig, out_dir: str | os.PathLike | None = None) -> tuple[Path, Path]:
    """Run every (cell, replication) task and write the two CSV reports.

    Tasks are scheduled by replication index (optionally across a worker
    pool); per-replication RNG streams make the schedule irrelevant to the
    output bytes.
    """
    cells = _cells(config)
    tasks = [(config, ci, alpha, eta, rep) for ci, (alpha, eta) in enumerate(cells) for rep in range(config.reps)]
    if config.jobs > 1:
        with Pool(config.jobs) as pool:
            results = pool.map(_cell_task, tasks, chunksize=max(1, len(tasks) // (4 * config.jobs)))
    else:
        results = [_cell_task(t) for t in tasks]

    # only once every result exists: a run that fails leaves no directory behind
    out = Path(out_dir if out_dir is not None else config.out)
    out.mkdir(parents=True, exist_ok=True)
    per_rep_path = out / "per_replication.csv"
    agg_path = out / "aggregate.csv"
    exp = config.experiment
    # rows in order of cell, then method as configured, then rep; results come in task order
    with open(per_rep_path, "w", encoding="utf-8", newline="") as per_fh, \
            open(agg_path, "w", encoding="utf-8", newline="") as agg_fh:
        per_fh.write(_PER_REP_HEADER)
        agg_fh.write(_AGG_HEADER)
        for ci, (alpha, eta) in enumerate(cells):
            cell_results = results[ci * config.reps : (ci + 1) * config.reps]
            for method in config.methods:
                rows = [by_method[method] for by_method in cell_results]
                for rep, r in enumerate(rows):
                    per_fh.write(_row(exp, method, rep, alpha, eta, r.fcp, r.cpow, r.rpow, r.n_selected))
                a = aggregate(rows)
                agg_fh.write(_row(exp, method, alpha, eta, a.reps, a.fcr, a.fcr_stderr, a.cpow,
                                  a.cpow_stderr, a.rpow, a.rpow_stderr, a.mfcr))
    return per_rep_path, agg_path


def run_equivalence_suite(seed: int, instances: int) -> tuple[bool, str]:
    """Run the four exact-equality checks; returns (all passed, printable report)."""
    lines = []
    if instances == 0:
        return True, "WARN equivalence suite ran with zero instances (vacuous pass)\n"
    ok = True
    for report in run_equivalence_checks(seed, instances):
        status = "PASS" if report.passed else "FAIL"
        ok = ok and report.passed
        lines.append(f"{status} {report.name} ({report.instances} instances)")
        for failure in report.failures:
            lines.append(f"  counterexample: {failure!r}")
    return ok, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scip-experiments", description=__doc__)
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a configuration key (repeatable)")
    parser.add_argument("--experiment", choices=_EXPERIMENTS)
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--jobs", type=int)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        values: dict = {}
        if args.config:
            values.update(_read_config_file(args.config))
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, raw = item.split("=", 1)
            values[key.strip()] = _parse_value(key.strip(), raw.strip())
        if args.experiment:
            values["experiment"] = args.experiment
        if args.out:
            values["out"] = args.out
        if args.jobs is not None:
            values["jobs"] = args.jobs
        if args.seed is not None:
            values["seed"] = args.seed
        elif "seed" not in values and "SCIP_SEED" in os.environ:
            values["seed"] = _parse_value("seed", os.environ["SCIP_SEED"])
        config = build_config(values)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        if config.experiment == "equivalence-suite":
            ok, report = run_equivalence_suite(config.seed, config.instances)
            sys.stdout.write(report)
            return 0 if ok else 3
        per_rep, agg = run_experiment(config)
        print(f"wrote {per_rep}")
        print(f"wrote {agg}")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ScipError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
