"""Experiment runner CLI.

Configuration is a flat key=value text file ('#' starts a comment) with
command-line overrides.  Outputs are two CSV files per run: a per-replication
table and an aggregate table whose rows can be reproduced exactly by
re-aggregating the per-replication file (floats are written with shortest
round-trip precision).

    scip-experiments --experiment regression-sweep --set reps=50 --out results/

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path

from .core import ConfigError, RngStream, ScipError
from .experiments import (
    STUDY_METHODS,
    classification_replication,
    regression_replication,
    run_equivalence_checks,
    synthetic_replication,
)
from .metrics import ReplicationMetrics, aggregate

_EXPERIMENTS = ("regression-sweep", "classification-sweep", "equivalence-suite", "synthetic-real")

_PROFILES = ("dti-like", "cifar-like")

_DEFAULT_METHODS = {
    "regression-sweep": "naive,infosp,infoscop,infosp+",
    "classification-sweep": "naive,infosp,infosp+,infosp++",
    "synthetic-real": "naive,infosp,infosp+",
}

_KEYS = {
    "experiment": str,
    "methods": str,
    "n": int,
    "m": int,
    "reps": int,
    "alpha": float,
    "alpha_grid": str,
    "eta": float,
    "eta_grid": str,
    "seed": int,
    "split_ratio": float,
    "screening_alpha": float,
    "screening_threshold": float,
    "noise_sd": float,
    "lam": float,
    "feature_degree": int,
    "train_size": int,
    "max_size": int,
    "profile": str,
    "feasible_frac": float,
    "sharpness": float,
    "instances": int,
    "jobs": int,
    "out": str,
}

# keys that build_config turns into constructor arguments; the rest are copied onto the config
_SPECIAL_KEYS = {"experiment", "methods", "alpha", "alpha_grid", "eta", "eta_grid"}


@dataclass
class ExperimentConfig:
    """Validated experiment parameters; unknown keys are rejected at parse time."""

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
        if self.n < 4 or self.m < 1 or self.reps < 1:
            raise ConfigError("need n >= 4, m >= 1, reps >= 1")
        if not all(0.0 < a < 1.0 for a in self.alphas):
            raise ConfigError("alpha values must lie in (0, 1)")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError("split ratio must lie in (0, 1)")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.experiment == "synthetic-real" and self.profile not in _PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r}; expected one of {', '.join(_PROFILES)}")
        study = {
            "regression-sweep": "regression",
            "classification-sweep": "classification",
            "synthetic-real": self.profile,
        }.get(self.experiment)
        for name in self.methods:
            if name not in STUDY_METHODS.get(study, ()):
                raise ConfigError(f"method {name!r} is not available in {self.experiment} ({study})")


def _parse_value(key: str, raw: str):
    if key not in _KEYS:
        raise ConfigError(f"unknown configuration key {key!r}")
    try:
        return _KEYS[key](raw)
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


def _grid(raw: str, caster=float) -> tuple:
    try:
        return tuple(caster(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"bad grid {raw!r}") from exc


def build_config(values: dict) -> ExperimentConfig:
    experiment = values.get("experiment")
    if experiment is None:
        raise ConfigError("an experiment name is required")
    methods_raw = values.get("methods", _DEFAULT_METHODS.get(experiment, ""))
    methods = tuple(tok.strip() for tok in methods_raw.split(",") if tok.strip())
    default_alphas = (0.05, 0.1, 0.15, 0.2) if experiment == "classification-sweep" else (0.1,)
    default_etas = (0.0, 0.5, 1.0, 1.5) if experiment == "regression-sweep" else (0.0,)
    if "alpha_grid" in values:
        alphas = _grid(values["alpha_grid"])
    elif "alpha" in values:
        alphas = (values["alpha"],)
    else:
        alphas = default_alphas
    if "eta_grid" in values:
        etas = _grid(values["eta_grid"])
    elif "eta" in values:
        etas = (values["eta"],)
    else:
        etas = default_etas
    config = ExperimentConfig(
        experiment=experiment,
        methods=methods,
        alphas=tuple(float(a) for a in alphas),
        etas=tuple(float(e) for e in etas),
    )
    for key in _KEYS.keys() - _SPECIAL_KEYS:
        if key in values:
            setattr(config, key, values[key])
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


def _cell_task(args):
    config, cell_index, alpha, eta, rep = args
    rng = RngStream(config.seed).child(cell_index, rep)
    if config.experiment == "regression-sweep":
        rows = regression_replication(
            config.methods,
            config.n,
            config.m,
            eta,
            alpha,
            rng,
            noise_sd=config.noise_sd,
            split_ratio=config.split_ratio,
            screening_alpha=config.screening_alpha,
            screening_threshold=config.screening_threshold,
            lam=config.lam,
            feature_degree=config.feature_degree,
        )
    elif config.experiment == "classification-sweep":
        rows = classification_replication(
            config.methods,
            config.n,
            config.m,
            alpha,
            rng,
            max_size=config.max_size,
            train_size=config.train_size,
            split_ratio=config.split_ratio,
        )
    else:
        rows = synthetic_replication(
            config.methods,
            config.profile,
            config.n,
            config.m,
            alpha,
            rng,
            feasible_frac=config.feasible_frac,
            sharpness=config.sharpness,
            max_size=config.max_size,
            split_ratio=config.split_ratio,
            screening_alpha=config.screening_alpha,
        )
    return cell_index, alpha, eta, rep, rows


def _cells(config: ExperimentConfig):
    if config.experiment == "regression-sweep":
        ci = 0
        for eta in config.etas:
            for alpha in config.alphas:
                yield ci, alpha, eta
                ci += 1
    else:
        for ci, alpha in enumerate(config.alphas):
            yield ci, alpha, None


def run_experiment(config: ExperimentConfig, out_dir: str | os.PathLike | None = None) -> tuple[Path, Path]:
    """Run every (cell, replication) task and write the two CSV reports.

    Tasks are scheduled by replication index (optionally across a worker
    pool); per-replication RNG streams make the schedule irrelevant to the
    output bytes.
    """
    out = Path(out_dir if out_dir is not None else config.out)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [
        (config, ci, alpha, eta, rep)
        for ci, alpha, eta in _cells(config)
        for rep in range(config.reps)
    ]
    if config.jobs > 1:
        with Pool(config.jobs) as pool:
            results = pool.map(_cell_task, tasks, chunksize=max(1, len(tasks) // (4 * config.jobs)))
    else:
        results = [_cell_task(t) for t in tasks]

    per_rep_path = out / "per_replication.csv"
    agg_path = out / "aggregate.csv"
    # deterministic order: cell, then method order as configured, then rep
    keyed: dict[tuple, ReplicationMetrics] = {}
    for cell_index, alpha, eta, rep, rows in results:
        for method, metric in rows.items():
            keyed[(cell_index, alpha, eta, method, rep)] = metric

    with open(per_rep_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_PER_REP_HEADER)
        for ci, alpha, eta in _cells(config):
            for method in config.methods:
                for rep in range(config.reps):
                    r = keyed[(ci, alpha, eta, method, rep)]
                    fh.write(
                        ",".join(
                            [
                                config.experiment,
                                method,
                                str(rep),
                                _fmt(float(alpha)),
                                _fmt(None if eta is None else float(eta)),
                                _fmt(r.fcp),
                                _fmt(r.cpow),
                                _fmt(r.rpow),
                                str(r.n_selected),
                            ]
                        )
                        + "\n"
                    )

    # aggregate from the round-tripped per-replication values so that
    # re-aggregating the CSV reproduces this file byte for byte
    parsed = _parse_per_rep(per_rep_path)
    with open(agg_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_AGG_HEADER)
        for ci, alpha, eta in _cells(config):
            for method in config.methods:
                rows = parsed[(_fmt(float(alpha)), _fmt(None if eta is None else float(eta)), method)]
                agg = aggregate(rows)
                fh.write(
                    ",".join(
                        [
                            config.experiment,
                            method,
                            _fmt(float(alpha)),
                            _fmt(None if eta is None else float(eta)),
                            str(agg.reps),
                            _fmt(agg.fcr),
                            _fmt(agg.fcr_stderr),
                            _fmt(agg.cpow),
                            _fmt(agg.cpow_stderr),
                            _fmt(agg.rpow),
                            _fmt(agg.rpow_stderr),
                            _fmt(agg.mfcr),
                        ]
                    )
                    + "\n"
                )
    return per_rep_path, agg_path


def _parse_per_rep(path: Path) -> dict:
    """Group the per-replication CSV rows for re-aggregation."""
    groups: dict[tuple, list[ReplicationMetrics]] = {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            exp, method, rep, alpha, eta, fcp, cpow, rpow, n_sel = line.rstrip("\n").split(",")
            n_selected = int(n_sel)
            fcp_val = float(fcp)
            groups.setdefault((alpha, eta, method), []).append(
                ReplicationMetrics(
                    fcp=fcp_val,
                    cpow=float(cpow),
                    rpow=float(rpow),
                    n_selected=n_selected,
                    n_false=int(round(fcp_val * max(1, n_selected))),
                )
            )
    return groups


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
