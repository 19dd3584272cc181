import hashlib
import importlib
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import scip
import scip.experiments
from scip.cli import (
    ExperimentConfig,
    build_config,
    main,
    run_equivalence_suite,
    run_experiment,
    _read_config_file,
)
from scip.core import ConfigError
from scip.metrics import ReplicationMetrics, aggregate


def _tiny_regression(out, jobs=1, reps=4):
    return ExperimentConfig(
        experiment="regression-sweep",
        methods=("naive", "infosp", "infosp+"),
        n=60,
        m=40,
        reps=reps,
        alphas=(0.2,),
        etas=(0.0, 1.0),
        seed=123,
        jobs=jobs,
        out=str(out),
    )


def test_config_file_parsing(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment\nexperiment = regression-sweep\nn=80\nmethods = naive,infosp\nseed=9\n",
        encoding="utf-8",
    )
    values = _read_config_file(path)
    config = build_config(values)
    assert config.n == 80 and config.methods == ("naive", "infosp") and config.seed == 9


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("experiment=regression-sweep\nbogus=1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        _read_config_file(path)


def test_build_config_rejects_an_unknown_key():
    """A dict of values meets the same rule as a config file or --set: no unknown key."""
    with pytest.raises(ConfigError, match="unknown configuration key 'method'$"):
        build_config({"experiment": "regression-sweep", "method": "naive"})


@pytest.mark.parametrize("key, one, grid", [("alpha", 0.3, "0.1,0.2"), ("eta", 0.5, "0,1")])
def test_a_key_and_its_grid_together_are_a_config_error(tmp_path, capsys, key, one, grid):
    with pytest.raises(ConfigError, match=f"^give {key} or {key}_grid, not both$"):
        build_config({"experiment": "regression-sweep", key: one, f"{key}_grid": grid})
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}_grid = {grid}\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["--experiment", "regression-sweep", "--config", str(cfg), "--set", f"{key}={one}",
            "--out", str(out), "--set", "reps=1", "--set", "n=20", "--set", "m=6"]
    assert main(argv) == 2
    assert f"give {key} or {key}_grid, not both" in capsys.readouterr().err
    assert not out.exists()


def test_an_eta_whose_cube_overflows_is_a_config_error(tmp_path, capsys):
    """The regression predictor computes eta**3, which overflows past about 5.6e102."""
    argv = ["--experiment", "regression-sweep", "--set", "reps=1", "--set", "n=20", "--set", "m=6"]
    for eta in ("1e200", "-1e200"):
        out = tmp_path / f"out{eta}"
        assert main([*argv, "--set", f"eta={eta}", "--out", str(out)]) == 2
        assert "eta must be finite and have a finite cube" in capsys.readouterr().err
        assert not out.exists()
    assert main([*argv, "--set", "eta=1e100", "--out", str(tmp_path / "big")]) in (0, 3)


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        build_config({"experiment": "no-such-experiment"})
    with pytest.raises(ConfigError):
        build_config({"experiment": "regression-sweep", "alpha": 1.5})
    with pytest.raises(ConfigError):
        build_config({"experiment": "regression-sweep", "methods": "naive,mystery"})
    with pytest.raises(ConfigError):
        build_config({"experiment": "classification-sweep", "methods": "cfbh"})


def test_eta_on_a_sweep_without_an_eta_axis_is_a_config_error():
    cases = (
        {"experiment": "classification-sweep", "methods": "naive"},
        {"experiment": "synthetic-real", "methods": "naive"},
        {"experiment": "equivalence-suite"},
    )
    for values in cases:
        for key, raw in (("eta", 1.0), ("eta_grid", "0,1,2")):
            with pytest.raises(ConfigError, match=f"{values['experiment']} does not read {key}"):
                build_config({**values, key: raw})
            assert main(["--experiment", values["experiment"], "--set", f"{key}={raw}"]) == 2
    assert build_config({"experiment": "regression-sweep", "eta_grid": "0,1,2"}).etas == (0.0, 1.0, 2.0)


@pytest.mark.parametrize("setting", ["lam=nan", "eta_grid="])
def test_an_unread_key_is_named_before_its_value_is_range_checked(tmp_path, capsys, setting):
    """A value the range checks would reject still gets the unread-key message, with no output."""
    key = setting.split("=")[0]
    out = tmp_path / "out"
    assert main(["--experiment", "classification-sweep", "--set", setting, "--out", str(out)]) == 2
    assert f"classification-sweep does not read {key}" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="^unknown experiment 'no-such-experiment'$"):
        build_config({"experiment": "no-such-experiment", "lam": 1.0})


# the sweep-specific keys each experiment reads; every sweep also reads methods, n, m,
# split_ratio, alpha and alpha_grid
_SPECIFIC_READS = {
    "regression-sweep": {"eta", "eta_grid", "noise_sd", "lam", "feature_degree", "screening_alpha",
                         "screening_threshold"},
    "classification-sweep": {"max_size", "train_size"},
    "synthetic-real": {"profile", "feasible_frac", "sharpness", "max_size", "screening_alpha"},
    "equivalence-suite": set(),
}

# a non-default value as text for each key a runner reads, and the value the runner should get
_RUNNER_VALUES = {
    "methods": ("naive,infosp", ("naive", "infosp")),
    "n": ("30", 30),
    "m": ("12", 12),
    "split_ratio": ("0.4", 0.4),
    "noise_sd": ("0.25", 0.25),
    "lam": ("2.5", 2.5),
    "feature_degree": ("3", 3),
    "screening_alpha": ("0.07", 0.07),
    "screening_threshold": ("0.5", 0.5),
    "max_size": ("3", 3),
    "train_size": ("30", 30),
    "profile": ("cifar-like", "cifar-like"),
    "feasible_frac": ("0.25", 0.25),
    "sharpness": ("2.5", 2.5),
    "eta": ("0.75", 0.75),
    "eta_grid": ("0.25,0.75", (0.25, 0.75)),
}


@pytest.mark.parametrize("experiment", sorted(_SPECIFIC_READS))
def test_a_sweep_specific_key_the_experiment_does_not_read_is_a_config_error(tmp_path, capsys, experiment):
    unread = set().union(*_SPECIFIC_READS.values()) - _SPECIFIC_READS[experiment]
    assert unread
    for key in sorted(unread):
        text = _RUNNER_VALUES[key][0]
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key} = {text}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{experiment} does not read {key}$"):
            build_config({"experiment": experiment, **_read_config_file(cfg)})
        out = tmp_path / key
        argv = ["--experiment", experiment, "--out", str(out), "--set", f"{key}={text}",
                "--set", "reps=1", "--set", "n=20", "--set", "m=10", "--set", "instances=1"]
        assert main(argv) == 2
        assert f"{experiment} does not read {key}" in capsys.readouterr().err
        assert not out.exists()


_RUNNERS = {
    "regression-sweep": "regression_replication",
    "classification-sweep": "classification_replication",
    "synthetic-real": "synthetic_replication",
}


@pytest.mark.parametrize("source", ["config", "set"])
@pytest.mark.parametrize("experiment", sorted(_RUNNERS))
def test_every_key_a_runner_reads_arrives_parsed(tmp_path, monkeypatch, experiment, source):
    """Config-file keys give the alpha and eta grids, --set keys the single alpha and eta."""
    calls = []
    runner = getattr(scip.experiments, _RUNNERS[experiment])

    def recorded(**kwargs):
        calls.append(kwargs)
        return runner(**kwargs)

    monkeypatch.setattr(scip.experiments, _RUNNERS[experiment], recorded)
    fields = {"methods", "n", "m", "split_ratio", *_SPECIFIC_READS[experiment]} - {"eta", "eta_grid"}
    texts = {key: _RUNNER_VALUES[key][0] for key in fields}
    has_eta = "eta" in _SPECIFIC_READS[experiment]
    if source == "config":
        texts.update(alpha_grid="0.15,0.3", **({"eta_grid": _RUNNER_VALUES["eta_grid"][0]} if has_eta else {}))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {text}\n" for key, text in texts.items()), encoding="utf-8")
        argv = ["--config", str(cfg)]
        alphas, etas = {0.15, 0.3}, set(_RUNNER_VALUES["eta_grid"][1])
    else:
        texts.update(alpha="0.3", **({"eta": _RUNNER_VALUES["eta"][0]} if has_eta else {}))
        argv = [arg for key, text in texts.items() for arg in ("--set", f"{key}={text}")]
        alphas, etas = {0.3}, {_RUNNER_VALUES["eta"][1]}
    argv += ["--experiment", experiment, "--seed", "4", "--out", str(tmp_path / "out"), "--set", "reps=1"]
    assert main(argv) == 0
    assert len(calls) == len(alphas) * (len(etas) if has_eta else 1)
    for kwargs in calls:
        assert kwargs.keys() == fields | {"rng", "alpha"} | ({"eta"} if has_eta else set())
        for key in fields:
            expected = _RUNNER_VALUES[key][1]
            assert kwargs[key] == expected and type(kwargs[key]) is type(expected), key
    assert {kwargs["alpha"] for kwargs in calls} == alphas
    if has_eta:
        assert {kwargs["eta"] for kwargs in calls} == etas


def test_exit_codes(tmp_path, capsys):
    assert main(["--set", "bogus=1", "--experiment", "regression-sweep"]) == 2
    assert main(["--set", "garbage"]) == 2
    code = main(
        [
            "--experiment", "equivalence-suite",
            "--seed", "5",
            "--set", "instances=25",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


def test_env_seed_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SCIP_SEED", "77")
    code = main(["--experiment", "equivalence-suite", "--set", "instances=5"])
    assert code == 0


def test_equivalence_suite_zero_instances_warns():
    ok, report = run_equivalence_suite(seed=1, instances=0)
    assert ok and "WARN" in report and "vacuous" in report


def test_experiment_writes_expected_schema(tmp_path):
    per_rep, agg_path = run_experiment(_tiny_regression(tmp_path / "r1"))
    lines = per_rep.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "experiment,method,rep,alpha,eta,fcp,cpow,rpow,n_selected"
    assert len(lines) == 1 + 2 * 3 * 4  # cells x methods x reps
    agg_lines = agg_path.read_text(encoding="utf-8").splitlines()
    assert agg_lines[0].startswith("experiment,method,alpha,eta,reps,fcr,fcr_stderr")
    assert len(agg_lines) == 1 + 2 * 3
    # LF endings, no CR
    assert "\r" not in per_rep.read_text(encoding="utf-8")


def test_serial_parallel_and_rerun_identical(tmp_path):
    p1, a1 = run_experiment(_tiny_regression(tmp_path / "serial"))
    p2, a2 = run_experiment(_tiny_regression(tmp_path / "serial2"))
    p3, a3 = run_experiment(_tiny_regression(tmp_path / "parallel", jobs=2))
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()
    assert a1.read_bytes() == a2.read_bytes() == a3.read_bytes()


def test_aggregate_reproducible_from_per_rep_rows(tmp_path):
    per_rep, agg_path = run_experiment(_tiny_regression(tmp_path / "agg"))
    groups = {}
    for line in per_rep.read_text(encoding="utf-8").splitlines()[1:]:
        _, method, _, alpha, eta, fcp, cpow, rpow, n_sel = line.split(",")
        n_false = round(float(fcp) * max(1, int(n_sel)))
        row = ReplicationMetrics(float(fcp), float(cpow), float(rpow), int(n_sel), n_false)
        groups.setdefault((alpha, eta, method), []).append(row)
    agg_lines = agg_path.read_text(encoding="utf-8").splitlines()[1:]
    assert len(agg_lines) == len(groups)
    for line in agg_lines:
        parts = line.split(",")
        method, alpha, eta = parts[1], parts[2], parts[3]
        a = aggregate(groups[(alpha, eta, method)])
        fresh = [a.reps, a.fcr, a.fcr_stderr, a.cpow, a.cpow_stderr, a.rpow, a.rpow_stderr, a.mfcr]
        assert parts[4:] == ["" if v is None else repr(v) for v in fresh]


_OP_FUNCTIONS = ("regression_replication", "classification_replication", "synthetic_replication")


def _count_replications(monkeypatch) -> list[str]:
    """Wrap each replication runner under every scip module name that holds it.

    This is how the benchmark's span recorder times one op, so a sweep that
    called a runner it captured at import time would bypass the counter.
    """
    calls = []
    runners = {name: getattr(scip.experiments, name) for name in _OP_FUNCTIONS}
    modules = [scip] + [importlib.import_module(f"scip.{info.name}") for info in pkgutil.iter_modules(scip.__path__)]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            for name, fn in runners.items():
                if obj is fn:
                    def counted(*args, _fn=fn, _name=name, **kwargs):
                        calls.append(_name)
                        return _fn(*args, **kwargs)

                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_each_replication_calls_the_module_runner_once(tmp_path, monkeypatch):
    calls = _count_replications(monkeypatch)
    run_experiment(_tiny_regression(tmp_path / "reg", reps=3))
    assert calls == ["regression_replication"] * 2 * 3  # cells x reps
    calls.clear()
    config = ExperimentConfig(
        experiment="classification-sweep", methods=("naive",), n=40, m=20, reps=2, alphas=(0.1, 0.2), seed=5
    )
    run_experiment(config, tmp_path / "cls")
    assert calls == ["classification_replication"] * 2 * 2


def test_classification_experiment_runs(tmp_path):
    config = ExperimentConfig(
        experiment="classification-sweep",
        methods=("naive", "infosp", "infosp+"),
        n=60,
        m=40,
        reps=2,
        alphas=(0.2,),
        seed=5,
        out=str(tmp_path / "cls"),
    )
    per_rep, _ = run_experiment(config)
    assert len(per_rep.read_text(encoding="utf-8").splitlines()) == 1 + 3 * 2


def test_synthetic_experiment_runs(tmp_path):
    config = ExperimentConfig(
        experiment="synthetic-real",
        methods=("naive", "infosp", "infosp+"),
        n=60,
        m=40,
        reps=2,
        alphas=(0.2,),
        seed=6,
        out=str(tmp_path / "syn"),
    )
    per_rep, _ = run_experiment(config)
    assert len(per_rep.read_text(encoding="utf-8").splitlines()) == 1 + 3 * 2


def test_unwritable_output_path(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    code = main(
        [
            "--experiment", "regression-sweep",
            "--seed", "1",
            "--out", str(blocker / "sub"),
            "--set", "n=60", "--set", "m=20", "--set", "reps=1",
            "--set", "methods=naive", "--set", "eta_grid=0",
        ]
    )
    assert code == 3


def test_cli_end_to_end(tmp_path, capsys):
    code = main(
        [
            "--experiment", "regression-sweep",
            "--seed", "3",
            "--out", str(tmp_path / "cli"),
            "--set", "n=60", "--set", "m=30", "--set", "reps=2",
            "--set", "methods=naive,infosp",
            "--set", "eta_grid=0,1",
        ]
    )
    assert code == 0
    assert (tmp_path / "cli" / "per_replication.csv").exists()
    assert (tmp_path / "cli" / "aggregate.csv").exists()


def test_unknown_profile_is_a_config_error(tmp_path, capsys):
    code = main(
        [
            "--experiment", "synthetic-real", "--out", str(tmp_path / "syn"),
            "--set", "profile=foo", "--set", "reps=1", "--set", "n=10", "--set", "m=5",
        ]
    )
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_method_outside_the_profile_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="infoscop"):
        build_config({"experiment": "synthetic-real", "profile": "cifar-like", "methods": "naive,infoscop"})
    code = main(
        [
            "--experiment", "synthetic-real", "--out", str(tmp_path / "syn"),
            "--set", "profile=cifar-like", "--set", "methods=naive,infoscop",
            "--set", "reps=1", "--set", "n=10", "--set", "m=5",
        ]
    )
    assert code == 2
    assert "infoscop" in capsys.readouterr().err
    assert not (tmp_path / "syn").exists()


@pytest.mark.parametrize(
    "experiment, setting",
    [
        ("regression-sweep", "lam=0"),
        ("regression-sweep", "lam=-1"),
        ("regression-sweep", "lam=nan"),
        ("regression-sweep", "lam=inf"),
        ("regression-sweep", "feature_degree=0"),
        ("regression-sweep", "noise_sd=nan"),
        ("regression-sweep", "noise_sd=-0.5"),
        ("regression-sweep", "noise_sd=inf"),
        ("regression-sweep", "screening_threshold=inf"),
        ("regression-sweep", "screening_threshold=nan"),
        ("regression-sweep", "screening_alpha=1.5"),  # the default methods include infoscop
        ("regression-sweep", "screening_alpha=nan"),
        ("regression-sweep", "screening_alpha=0"),
        ("synthetic-real", "screening_alpha=inf"),
        ("classification-sweep", "max_size=0"),
        ("synthetic-real", "max_size=0"),
        ("synthetic-real", "sharpness=nan"),
        ("synthetic-real", "sharpness=inf"),
        ("synthetic-real", "feasible_frac=nan"),
        ("synthetic-real", "feasible_frac=-0.1"),
        ("synthetic-real", "feasible_frac=1.5"),
        ("regression-sweep", "eta=nan"),
        ("regression-sweep", "eta=inf"),
        ("regression-sweep", "eta_grid=,"),
        ("regression-sweep", "alpha_grid=,"),
        ("classification-sweep", "alpha_grid=,"),
        ("classification-sweep", "train_size=1"),
        ("regression-sweep", "seed=-1"),
        ("equivalence-suite", "instances=-3"),
    ],
)
def test_out_of_range_numeric_keys_are_config_errors(tmp_path, capsys, experiment, setting):
    out = tmp_path / "out"
    code = main(
        [
            "--experiment", experiment, "--out", str(out), "--set", setting,
            "--set", "reps=1", "--set", "n=20", "--set", "m=10",
        ]
    )
    assert code == 2
    assert f"{setting.split('=')[0]} must" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_negative_seed_is_a_config_error_from_every_source(tmp_path, monkeypatch, capsys, source):
    monkeypatch.delenv("SCIP_SEED", raising=False)
    out = tmp_path / "out"
    argv = ["--experiment", "regression-sweep", "--out", str(out), "--set", "reps=1", "--set", "n=20", "--set", "m=10"]
    if source == "flag":
        argv += ["--seed", "-1"]
    elif source == "config":
        (tmp_path / "run.cfg").write_text("seed = -1\n", encoding="utf-8")
        argv += ["--config", str(tmp_path / "run.cfg")]
    else:
        monkeypatch.setenv("SCIP_SEED", "-1")
    assert main(argv) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_split_that_empties_a_calibration_half_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["--experiment", "regression-sweep", "--out", str(out), "--set", "n=4", "--set", "split_ratio=0.1"]
    assert main(argv) == 2
    assert "empty calibration half" in capsys.readouterr().err
    assert not out.exists()


def test_run_that_fails_after_validation_leaves_no_output_directory(tmp_path, capsys):
    """A two-row training block holds one class in some replication: exit 3, and no directory."""
    out = tmp_path / "out"
    argv = ["--experiment", "classification-sweep", "--seed", "1", "--out", str(out),
            "--set", "train_size=2", "--set", "reps=3", "--set", "n=20", "--set", "m=10"]
    assert main(argv) == 3
    assert "at least two classes" in capsys.readouterr().err
    assert not out.exists()


_EDGE_TEXTS = st.sampled_from(("nan", "inf", "-inf", "1e300", "-1e300", "5e-324", "0", "-1", "-2.5"))
# texts inside each key's range, half of the draws, so that some runs get past validation; sizes
# stay small and jobs stays 1, so a run takes milliseconds
_IN_RANGE_TEXTS = {
    "n": ("4", "12", "20"), "m": ("1", "6"), "reps": ("1",), "seed": ("0", "3"), "jobs": ("1",),
    "instances": ("1", "2"), "split_ratio": ("0.3", "0.5"), "alpha": ("0.1", "0.5"),
    "eta": ("0.5", "1.5"), "screening_alpha": ("0.2",), "screening_threshold": ("0.5",),
    "noise_sd": ("0.5",), "lam": ("1", "2.5"), "feature_degree": ("1", "3"), "train_size": ("2", "10"),
    "max_size": ("1", "2"), "feasible_frac": ("0.5",), "sharpness": ("1.5",),
    "profile": ("dti-like", "cifar-like", "bogus"),
}
_GRID_TEXT = st.lists(_EDGE_TEXTS | st.sampled_from(("0.1", "0.5", "1.5")), max_size=3).map(",".join)
_METHOD_NAMES = ("naive", "cfbh", "cfbh+", "cfbh++", "infosp", "infosp+", "infosp++", "infoscop", "bogus")
_KEY_TEXTS = {
    **{key: _EDGE_TEXTS | st.sampled_from(texts) for key, texts in _IN_RANGE_TEXTS.items()},
    "alpha_grid": _GRID_TEXT,
    "eta_grid": _GRID_TEXT,
    "methods": st.lists(st.sampled_from(_METHOD_NAMES), min_size=1, max_size=3).map(",".join),
}


def _set_pairs(experiment):
    """Up to two (key, text) pairs: half of them from the keys the experiment reads, half from all."""
    unread = scip.cli._SWEEP_KEYS - scip.cli._READS.get(experiment, frozenset())

    def pair(keys):
        return st.one_of([st.tuples(st.just(key), _KEY_TEXTS[key]) for key in sorted(keys)])

    return st.lists(pair(_KEY_TEXTS.keys() - unread) | pair(_KEY_TEXTS.keys()), max_size=2)


@pytest.mark.parametrize("experiment", ["regression-sweep", "classification-sweep", "synthetic-real",
                                        "equivalence-suite"])
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_every_generated_setting_ends_in_a_documented_exit(experiment, data):
    """Exit 0 with both CSVs (the equivalence suite writes none), or 2 or 3 with no output
    directory; ``main`` never raises, and a RuntimeWarning fails the test."""
    assert _KEY_TEXTS.keys() == scip.cli._PARSERS.keys() - {"experiment", "out"}
    pairs = data.draw(_set_pairs(experiment))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = ["--experiment", experiment, "--out", str(out), "--set", "seed=1", "--set", "reps=1",
                "--set", "n=12", "--set", "m=4", "--set", "instances=1"]
        argv += [arg for key, text in pairs for arg in ("--set", f"{key}={text}")]
        code = main(argv)
        assert code in (0, 2, 3)
        if code == 0 and experiment != "equivalence-suite":
            assert (out / "per_replication.csv").is_file() and (out / "aggregate.csv").is_file()
        else:
            assert not out.exists()


# SHA-256 of (per_replication.csv, aggregate.csv), recorded when the reported
# sets were still built and scored one object at a time.  These methods and the
# dti-like profile use no matrix products or trained scorers, so the bytes do
# not depend on the BLAS.
_PINNED_SWEEPS = (
    (
        ExperimentConfig(
            experiment="regression-sweep",
            methods=("naive", "cfbh", "cfbh+", "infosp", "infosp+", "infoscop"),
            n=200, m=100, reps=3, alphas=(0.2,), etas=(0.0, 1.5), seed=11,
        ),
        (
            "12270d900ceb51695a950e01334a6906651e1743b1c4fd7c4e24e1172fe15573",
            "839570a68eb7009c3fdc49cd2c8468ff4eb8a24445e33d36b5486c29abfd3930",
        ),
    ),
    (
        ExperimentConfig(
            experiment="synthetic-real",
            methods=("naive", "infosp", "infosp+", "infoscop"),
            profile="dti-like", n=400, m=200, reps=3, alphas=(0.3,), seed=11,
        ),
        (
            "ac09282698f2571c05cdbbf5728b3f4975b67928fb353c4fd761c981cce26033",
            "a6a7ed899915928ac732e5e10df9b41751d5d3f9e7005ffbb63a10fb40885810",
        ),
    ),
)


def test_csv_bytes_pinned(tmp_path):
    for config, expected in _PINNED_SWEEPS:
        paths = run_experiment(config, tmp_path / config.experiment)
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
        assert digests == expected, config.experiment


def test_a_screening_threshold_at_max_reports_nothing(tmp_path, capsys):
    """--set screening_threshold=max passes validate, and (max, inf) holds no finite label, so cfbh,
    cfbh+ and infoscop's screen report nothing (before, cfbh reported (max, inf) for most units)."""
    code = main([
        "--experiment", "regression-sweep", "--seed", "9", "--out", str(tmp_path / "max"),
        "--set", "reps=4", "--set", "n=60", "--set", "m=40", "--set", "eta_grid=1.0",
        "--set", "alpha=0.9", "--set", "screening_alpha=0.9", "--set", "methods=cfbh,cfbh+,infoscop",
        "--set", "screening_threshold=1.7976931348623157e308",
    ])
    assert code == 0
    rows = (tmp_path / "max" / "aggregate.csv").read_text(encoding="utf-8").splitlines()
    header = rows[0].split(",")
    cpow = {row.split(",")[1]: float(row.split(",")[header.index("cpow")]) for row in rows[1:]}
    assert cpow == {"cfbh": 0.0, "cfbh+": 0.0, "infoscop": 0.0}


_FRESH_PROCESS = """
import sys

import numpy as np

import scip
import scip.cli
from scip.cli import build_config, run_experiment
from scip.core import RngStream
from scip.selection import scip_select_arrays
from scip.simgen import gen_synthetic_scores


def loaded():
    return [name for name in ("scipy.stats", "scipy.linalg", "scipy.special") if name in sys.modules]


assert loaded() == [], loaded()
out = sys.argv[1]
run_experiment(build_config({
    "experiment": "regression-sweep", "methods": "naive,cfbh,cfbh+,cfbh++,infosp,infosp+,infosp++,infoscop",
    "n": 40, "m": 30, "reps": 2, "eta_grid": "0,1",
}), out + "/regression")
run_experiment(build_config({
    "experiment": "classification-sweep", "n": 40, "m": 30, "reps": 2, "alpha_grid": "0.1,0.2",
}), out + "/classification")
scip_select_arrays(np.arange(8.0), np.arange(8) % 2 == 0, np.arange(4.0) + 4.0, 0.3, rng=RngStream(2))
assert loaded() == [], loaded()
gen_synthetic_scores("dti-like", 20, RngStream(1))
assert loaded() == ["scipy.special"], loaded()
"""


def test_import_and_sweeps_load_no_scipy_submodule(tmp_path):
    """Importing scip and running both sweeps loads numpy alone; the dti-like threshold loads
    scipy.special and nothing more.  It runs in a fresh interpreter: this one has scipy loaded."""
    src = Path(scip.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", _FRESH_PROCESS, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
