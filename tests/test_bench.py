"""Tests for the perf-trajectory runner (`repro.core.bench`): report
assembly, schema validation, and the BENCH_<date>.json writer."""

import json

import pytest

from repro.core.bench import (
    BENCH_KIND,
    BENCH_SCHEMA,
    SOLVER_MICROBENCHMARKS,
    bench_report_path,
    compare_bench_reports,
    format_bench_comparison,
    format_bench_summary,
    run_benchmark,
    run_portfolio_bench,
    validate_bench_report,
    write_bench_report,
)


def _valid_report():
    """A structurally valid report without running any benchmark."""
    return {
        "schema": BENCH_SCHEMA,
        "kind": BENCH_KIND,
        "generated": "2026-07-30",
        "platform": {"python": "3.11.7", "machine": "x86_64",
                     "cpu_count": 4},
        "solver_microbench": {
            "random3sat-120v-480c": {"wall_time_s": 0.05},
        },
        "portfolio": {
            "profile": "tiny",
            "runs": [{
                "jobs": 1, "wall_time_s": 1.0, "scenarios": 10,
                "deadlock_free": 8, "cache_hits": 5, "cache_misses": 9,
                "session_stats": {},
                "per_scenario": [{"scenario": "mesh-3x3/Rxy/Swh",
                                  "wall_time_s": 0.1,
                                  "deadlock_free": True,
                                  "solver": {"decisions": 3}}],
            }],
            "parallel_speedup": None,
        },
    }


class TestSchemaValidation:
    def test_valid_report_passes(self):
        assert validate_bench_report(_valid_report()) == []

    @pytest.mark.parametrize("mutation, fragment", [
        (lambda r: r.update(schema=99), "schema"),
        (lambda r: r.update(kind="other"), "kind"),
        (lambda r: r.update(generated="yesterday"), "generated"),
        (lambda r: r.update(platform={}), "platform"),
        (lambda r: r.update(solver_microbench={}), "solver_microbench"),
        (lambda r: r.update(portfolio={}), "portfolio.runs"),
        (lambda r: r["portfolio"]["runs"][0].pop("wall_time_s"),
         "wall_time_s"),
        (lambda r: r["portfolio"]["runs"][0]["per_scenario"][0]
         .pop("solver"), "solver"),
        (lambda r: r["solver_microbench"].update(
            bad={"wall_time_s": -1}), "bad"),
    ])
    def test_violations_are_reported(self, mutation, fragment):
        report = _valid_report()
        mutation(report)
        errors = validate_bench_report(report)
        assert errors, f"expected a violation for {fragment}"
        assert any(fragment in error for error in errors)

    def test_write_rejects_invalid_report(self, tmp_path):
        report = _valid_report()
        report["schema"] = 99
        with pytest.raises(ValueError):
            write_bench_report(report, str(tmp_path / "bench.json"))

    def test_write_roundtrip(self, tmp_path):
        path = write_bench_report(_valid_report(),
                                  str(tmp_path / "bench.json"))
        payload = json.loads(open(path).read())
        assert payload["schema"] == BENCH_SCHEMA

    def test_bench_report_path_shape(self):
        assert bench_report_path("/x", "2026-07-30") \
            == "/x/BENCH_2026-07-30.json"


class TestCompare:
    def _report(self, micro, serial):
        return {
            "solver_microbench": {name: {"wall_time_s": wall}
                                  for name, wall in micro.items()},
            "portfolio": {"runs": [{"jobs": 1, "wall_time_s": serial}]},
        }

    def test_speedups_and_aggregate(self):
        old = self._report({"a": 1.0, "b": 2.0}, 10.0)
        new = self._report({"a": 0.5, "b": 1.0}, 5.0)
        rows, regressions = compare_bench_reports(old, new)
        by_name = {name: speedup for name, _, _, speedup in rows}
        assert by_name["a"] == 2.0
        assert by_name["b"] == 2.0
        assert by_name["solver-suite-aggregate"] == 2.0
        assert by_name["portfolio-serial"] == 2.0
        assert regressions == []

    def test_regressions_beyond_threshold_are_flagged(self):
        old = self._report({"a": 1.0, "b": 1.0}, 10.0)
        new = self._report({"a": 1.5, "b": 0.9}, 9.0)
        rows, regressions = compare_bench_reports(old, new, threshold=0.95)
        assert "a" in regressions
        assert "b" not in regressions
        # The aggregate (2.0 s -> 2.4 s) regresses along with "a".
        assert "solver-suite-aggregate" in regressions
        table = format_bench_comparison(rows, regressions)
        assert "REGRESSION" in table
        assert "2 regression(s)" in table

    def test_schema_1_reports_remain_comparable(self):
        """The committed pre-rewrite baseline (schema 1, flat
        serial_wall_time_s reference shape) must stay comparable."""
        old = {"schema": 1,
               "solver_microbench": {"a": {"wall_time_s": 2.0}},
               "portfolio": {"serial_wall_time_s": 8.0}}
        new = self._report({"a": 1.0, "extra": 1.0}, 4.0)
        rows, regressions = compare_bench_reports(old, new)
        by_name = {name: speedup for name, _, _, speedup in rows}
        assert by_name["a"] == 2.0
        assert by_name["portfolio-serial"] == 2.0
        assert "extra" not in by_name  # only shared names compared
        assert regressions == []

    def test_disjoint_reports_share_nothing(self):
        rows, regressions = compare_bench_reports(
            {"solver_microbench": {"x": {"wall_time_s": 1.0}}},
            {"solver_microbench": {"y": {"wall_time_s": 1.0}}})
        assert rows == [] and regressions == []

    def test_errored_entries_become_warning_rows(self):
        """A schema-4 ``status: error`` entry on either side yields a
        warning row (speedup ``None``), never a crash, a silent drop or a
        phantom regression; healthy benchmarks still compare."""
        old = self._report({"a": 1.0, "b": 2.0}, 10.0)
        new = self._report({"a": 0.5, "b": 1.0}, 5.0)
        new["solver_microbench"]["b"] = {
            "status": "error", "error": "RuntimeError: boom"}
        rows, regressions = compare_bench_reports(old, new, threshold=0.95)
        by_name = {name: (old_s, new_s, speedup)
                   for name, old_s, new_s, speedup in rows}
        assert by_name["b"] == (2.0, None, None)
        assert by_name["a"][2] == 2.0
        # The errored benchmark is excluded from the aggregate...
        assert by_name["solver-suite-aggregate"][2] == 2.0
        # ...and never counts as a regression.
        assert "b" not in regressions and regressions == []
        table = format_bench_comparison(rows, regressions)
        assert "skipped (errored)" in table
        assert "warning: 1 benchmark(s) skipped" in table

    def test_errored_old_side_also_skipped(self):
        old = self._report({"a": 1.0}, 10.0)
        old["solver_microbench"]["a"] = {"status": "error",
                                         "error": "ValueError: bad"}
        new = self._report({"a": 0.5}, 5.0)
        rows, regressions = compare_bench_reports(old, new)
        by_name = {name: speedup for name, _, _, speedup in rows}
        assert by_name["a"] is None
        assert "solver-suite-aggregate" not in by_name  # nothing measured
        assert regressions == []

    def test_cli_compare_exits_nonzero_on_regression(self, tmp_path):
        import json

        from repro.cli import main

        old = self._report({"a": 1.0}, 10.0)
        new = self._report({"a": 2.0}, 20.0)
        old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
        old_path.write_text(json.dumps(old))
        new_path.write_text(json.dumps(new))
        assert main(["bench", "--compare", str(old_path), str(new_path)]) == 1
        # And zero when the new report is faster.
        assert main(["bench", "--compare", str(new_path), str(old_path)]) == 0


class TestRunners:
    def test_tiny_portfolio_bench_serial_vs_parallel(self):
        """End to end on the tiny profile: both job counts run, agree, and
        the recorded runs carry the full per-scenario payload."""
        section = run_portfolio_bench(profile="tiny", jobs_list=(1, 2),
                                      cross_check=True)
        assert [run["jobs"] for run in section["runs"]] == [1, 2]
        assert section["parallel_speedup"] is not None
        for run in section["runs"]:
            assert run["scenarios"] == 11
            assert len(run["per_scenario"]) == 11
            assert all(entry["solver"] for entry in run["per_scenario"])

    def test_unknown_profile_is_rejected(self):
        with pytest.raises(ValueError):
            run_portfolio_bench(profile="galactic")

    def test_full_report_validates_and_formats(self):
        report = run_benchmark(profile="tiny", jobs_list=(1,), repeat=1)
        assert validate_bench_report(report) == []
        assert set(report["solver_microbench"]) \
            == set(SOLVER_MICROBENCHMARKS)
        summary = format_bench_summary(report)
        assert "portfolio[tiny] jobs=1" in summary

    def test_reference_speedups_are_recorded(self):
        reference = {
            "solver_microbench": {
                name: {"wall_time_s": 10.0} for name in SOLVER_MICROBENCHMARKS
            },
            "portfolio": {"serial_wall_time_s": 1000.0},
        }
        report = run_benchmark(profile="tiny", jobs_list=(1,), repeat=1,
                               reference=reference)
        speedups = report["speedup_vs_reference"]
        for name in SOLVER_MICROBENCHMARKS:
            assert speedups[name] > 1  # 10 s reference vs. < 10 s measured
        assert speedups["portfolio-vs-reference"] > 1
        assert report["reference"] is reference
