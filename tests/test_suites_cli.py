"""Experiment suites and the command line wrapper."""

import gc
import json
import re

import pytest

from framemult import (
    ConfigInvalid,
    ExperimentConfig,
    SuiteReport,
    Tol,
    run_suite,
    validate_config,
)
from framemult.cli import main
from framemult.suites import DEFAULT_DIMS, GENERATOR_NAMES, SUITE_NAMES


def _cfg(**kwargs):
    base = dict(suite="per1", dims=((3, 6),), trials=2, seed=7)
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestValidateConfig:
    def test_accepts_defaults(self):
        validate_config(ExperimentConfig(suite="all"))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(suite="thm2"),
            dict(trials=0),
            dict(trials=-3),
            dict(dims=()),
            dict(dims=((3, 2),)),
            dict(dims=((0, 4),)),
            dict(generator="fourier"),
            dict(format="yaml"),
            dict(seed=-1),
            dict(seed=2.5),
            dict(seed=True),
            dict(seed="x"),
            dict(dims=(3,)),
            dict(dims=((2, 5), 3)),
            dict(dims=3),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigInvalid):
            validate_config(_cfg(**kwargs))

    def test_rejects_non_tol(self):
        with pytest.raises(ConfigInvalid):
            validate_config(_cfg(tol=1e-8))

    def test_suite_and_generator_name_sets(self):
        assert SUITE_NAMES == (
            "thm1",
            "per1",
            "per1dual",
            "per2",
            "per3",
            "gamma",
            "theta",
            "equivalence",
        )
        assert GENERATOR_NAMES == ("random", "harmonic", "gabor", "riesz", "onb")
        assert all(n > d for d, n in DEFAULT_DIMS)


class TestRunSuite:
    def test_per1_records_tiny_residuals(self):
        report = run_suite(_cfg(trials=3))
        assert isinstance(report, SuiteReport)
        assert report.passed == 3
        assert report.failed == 0
        for record in report.records:
            assert record.residuals["multiplier_residual"] <= 1e-8
            assert record.verdict == "pass"

    def test_thm1_on_orthonormal_generator_is_all_positive(self):
        report = run_suite(
            _cfg(suite="thm1", generator="onb", dims=((4, 4),), trials=3)
        )
        assert report.passed == 3
        for record in report.records:
            assert record.booleans["direct_equal"]
            assert record.booleans["cond_i"] and record.booleans["cond_ii"]
            assert record.booleans["cond_iii"] and record.booleans["cond_iv"]
            assert record.booleans["consistent"]

    def test_thm1_on_random_generator_is_all_negative_but_consistent(self):
        report = run_suite(_cfg(suite="thm1", trials=4))
        assert report.passed == 4
        for record in report.records:
            assert not record.booleans["direct_equal"]
            assert record.booleans["consistent"]

    def test_counts_partition_trials(self):
        for suite in ("per2", "per3", "equivalence"):
            report = run_suite(_cfg(suite=suite, trials=4))
            total = report.passed + report.failed + report.indeterminate
            assert total == 4, suite

    def test_gamma_suite_fails_on_bare_annihilation(self):
        report = run_suite(_cfg(suite="gamma", dims=((3, 7),), trials=2))
        assert report.failed == 2
        for record in report.records:
            assert record.booleans["decomposition_ok"]
            assert record.booleans["masked_annihilation_ok"]
            assert not record.booleans["annihilation_ok"]
            assert record.booleans["uniqueness_ok"]

    def test_theta_suite_mirrors_gamma(self):
        report = run_suite(_cfg(suite="theta", dims=((3, 7),), trials=2))
        assert report.failed == 2
        for record in report.records:
            assert record.booleans["decomposition_ok"]
            assert not record.booleans["annihilation_ok"]

    def test_equivalence_suite_alternates_expectation(self):
        report = run_suite(_cfg(suite="equivalence", dims=((4, 9),), trials=4))
        assert report.passed == 4
        flags = [r.booleans["expected_positive"] for r in report.records]
        assert flags == [True, False, True, False]
        for record in report.records:
            assert record.booleans["agree"]
            assert record.booleans["equivalent"] == record.booleans["expected_positive"]

    def test_deterministic_modulo_wall_time(self):
        a = run_suite(_cfg(trials=3)).as_dict()
        b = run_suite(_cfg(trials=3)).as_dict()
        a["aggregate"].pop("wall_time_s")
        b["aggregate"].pop("wall_time_s")
        assert a == b

    def test_seed_changes_results(self):
        a = run_suite(_cfg(trials=3, seed=1))
        b = run_suite(_cfg(trials=3, seed=2))
        ra = [r.residuals["multiplier_residual"] for r in a.records]
        rb = [r.residuals["multiplier_residual"] for r in b.records]
        assert ra != rb

    def test_all_runs_every_suite(self):
        report = run_suite(
            ExperimentConfig(suite="all", dims=((3, 7),), trials=1, seed=3)
        )
        names = {record.suite for record in report.records}
        assert names == set(SUITE_NAMES)
        assert len(report.records) == len(SUITE_NAMES)

    def test_max_residual_reflects_the_failed_claim(self):
        report = run_suite(_cfg(suite="gamma", dims=((3, 7),), trials=1))
        record = report.records[0]
        # the bare annihilation gap is the claim under test here; the headline
        # aggregate must carry its measured size, not hide it
        assert record.residuals["annihilation"] > 1e-2
        assert report.max_residual >= record.residuals["annihilation"]

    def test_max_residual_tiny_for_passing_suite(self):
        report = run_suite(_cfg(trials=2))
        assert report.max_residual <= 1e-8
        # the probe breakage injected by the uniqueness check is a control
        # quantity and stays out of the aggregate
        gamma = run_suite(_cfg(suite="gamma", dims=((3, 7),), trials=1))
        assert "probe_breakage" in gamma.records[0].residuals
        assert gamma.max_residual != gamma.records[0].residuals["probe_breakage"]

    def test_validates_config(self):
        with pytest.raises(ConfigInvalid):
            run_suite(_cfg(trials=0))

    def test_record_shape(self):
        report = run_suite(_cfg(trials=1))
        row = report.records[0].as_dict()
        assert row["suite"] == "per1"
        assert row["trial"] == 0
        assert row["d"] == 3
        assert row["N"] == 6
        assert row["verdict"] in {"pass", "fail", "indeterminate"}


class TestCli:
    def test_passing_suite_exits_zero(self, capsys):
        code = main(["--suite", "per1", "--dims", "3x6", "--trials", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "per1" in out
        assert "pass" in out

    def test_failing_suite_exits_one(self, capsys):
        code = main(["--suite", "gamma", "--dims", "3x7", "--trials", "1"])
        assert code == 1

    def test_bad_dims_exits_two(self, capsys):
        code = main(["--suite", "per1", "--dims", "3x2", "--trials", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_dims_exits_two(self, capsys):
        code = main(["--suite", "per1", "--dims", "banana", "--trials", "1"])
        assert code == 2

    def test_negative_seed_exits_two(self, capsys):
        code = main(["--suite", "per1", "--dims", "3x6", "--trials", "1", "--seed", "-1"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_repeated_calls_leave_no_cyclic_garbage(self, capsys):
        argv = ["--suite", "per1", "--trials", "1"]
        assert main(argv) == 0  # warm-up: first-use caches, the parser among them
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_out_writes_json(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(
            ["--suite", "per1", "--dims", "3x6", "--trials", "2", "--out", str(path)]
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["suite"] == "per1"
        assert doc["aggregate"]["pass"] == 2
        assert len(doc["records"]) == 2

    def test_out_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        code = main(
            [
                "--suite", "per1", "--dims", "3x6", "--trials", "2",
                "--out", str(path), "--format", "csv",
            ]
        )
        assert code == 0
        header = path.read_text().splitlines()[0]
        assert header.startswith("suite,trial,seed,d,N,")

    def test_summary_mentions_every_suite_under_all(self, capsys):
        code = main(["--dims", "3x7", "--trials", "1"])
        out = capsys.readouterr().out
        for name in SUITE_NAMES:
            assert re.search(rf"^suite={name}\b", out, re.MULTILINE), name
        assert code == 1  # gamma and theta fail by design

    def test_custom_tolerance_flag(self, capsys):
        code = main(
            ["--suite", "per1", "--dims", "3x6", "--trials", "1", "--tol-rel", "1e-6"]
        )
        assert code == 0

    def test_unwritable_out_exits_two(self, capsys):
        code = main(
            [
                "--suite", "per1", "--dims", "3x6", "--trials", "1",
                "--out", "/nonexistent-dir/report.json",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err
