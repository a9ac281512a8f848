"""Seeded property self-test: full pass, determinism, runtime bound."""

import time

import pytest

from hypercones import selftest
from hypercones.ball_model import ball_distance
from hypercones.cli import main
from hypercones.selftest import run_selftest


@pytest.fixture(scope="module")
def full_run():
    started = time.monotonic()
    report, ok = run_selftest(seed=0, budget=1.0)
    return report, ok, time.monotonic() - started


class TestSelftest:
    def test_every_property_passes(self, full_run):
        report, ok, _ = full_run
        assert ok
        assert "ALL PROPERTIES PASS" in report
        assert "FAIL" not in report

    def test_report_lists_each_property_once(self, full_run):
        report, _, _ = full_run
        lines = report.splitlines()
        assert lines[0].startswith("self-test seed=0")
        passes = [l for l in lines if l.startswith("PASS")]
        assert len(passes) >= 10
        names = [l.split()[1] for l in passes]
        assert len(names) == len(set(names))

    def test_byte_identical_across_runs(self, full_run):
        report, _, _ = full_run
        again, ok = run_selftest(seed=0, budget=1.0)
        assert ok
        assert again == report

    def test_runs_inside_a_minute(self, full_run):
        _, _, elapsed = full_run
        assert elapsed < 60.0

    def test_other_seeds_also_pass(self):
        for seed in (7, 123):
            report, ok = run_selftest(seed=seed, budget=0.2)
            assert ok, report

    def test_seed_changes_the_stream(self):
        a, _ = run_selftest(seed=0, budget=0.2)
        b, _ = run_selftest(seed=1, budget=0.2)
        assert a != b

    def test_budget_scales_trial_counts(self):
        small, _ = run_selftest(seed=0, budget=0.1)
        big, _ = run_selftest(seed=0, budget=0.3)

        def trials(report):
            return sum(int(line.split("trials=")[1].split()[0])
                       for line in report.splitlines() if "trials=" in line)

        assert trials(big) > trials(small)


class TestFailureReport:
    def test_failing_property_is_reported_and_exits_one(self, capsys,
                                                        monkeypatch):
        # a metric off by 1e-6 against the lift: all 20 trials of the
        # metric property fail, and the report shows the first ten
        monkeypatch.setattr(
            selftest, "ball_distance",
            lambda u, w, shell: ball_distance(u, w, shell) + 1e-6)
        code = main(["selftest", "--seed", "3", "--budget", "0.1"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[1].startswith("FAIL metric_matches_hyperboloid_lift ")
        assert "trials=    20 worst_margin=-9.990e-07" in lines[1]
        assert lines[2:12] == [f"     pair {k}: metric mismatch 1.000e-06 "
                               "(seed=3)" for k in range(10)]
        assert all(line.startswith("PASS ") for line in lines[12:-1])
        assert len(lines) == 12 + 14 + 1
        assert lines[-1] == "result: PROPERTY VIOLATIONS FOUND"
