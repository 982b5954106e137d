"""Tests for the portfolio bench family, --filter, and the stream microbench."""

import copy
import json

import pytest

from repro.cli import main
from repro.perf import (
    BENCH_SCHEMA,
    STREAM_HISTORY_SCHEMA,
    STREAM_SCHEMA,
    BenchSchemaError,
    append_stream_history,
    compare_reports,
    compare_stream_history,
    portfolio_cases,
    read_stream_history,
    run_bench,
    run_stream_bench,
    validate_report,
    validate_stream_report,
    write_stream_report,
)


@pytest.fixture(scope="module")
def portfolio_report():
    """One shared quick portfolio bench run for the module."""
    return run_bench(
        quick=True,
        repeats=1,
        warmup=0,
        portfolio=True,
        name_filter=r"^portfolio/",
    )


class TestPortfolioCases:
    def test_quick_is_a_prefix_of_full(self):
        quick = [case.name for case in portfolio_cases(quick=True)]
        full = [case.name for case in portfolio_cases(quick=False)]
        assert quick == full[: len(quick)]

    def test_cases_are_marked_portfolio_with_budgets(self):
        for case in portfolio_cases(quick=False):
            assert case.portfolio
            assert case.budget is not None and case.budget > 0
            assert case.name.startswith("portfolio/")

    def test_full_matrix_reaches_100k_jobs(self):
        assert any(
            case.num_jobs >= 100_000 for case in portfolio_cases(quick=False)
        )


class TestPortfolioBenchRun:
    def test_report_is_schema_valid(self, portfolio_report):
        validate_report(portfolio_report)
        assert portfolio_report["schema"] == BENCH_SCHEMA

    def test_portfolio_block_shape(self, portfolio_report):
        cases = portfolio_report["cases"]
        assert cases and all(c["portfolio"] is not None for c in cases)
        for case in cases:
            block = case["portfolio"]
            assert block["budget"] > 0
            assert block["status"] in ("optimal", "approximate")
            member_names = [m["name"] for m in block["members"]]
            assert block["winner"] in member_names
            assert block["upper"] is not None
            if block["lower"] is not None:
                assert block["lower"] <= block["upper"] + 1e-9
            assert block["backend"] in ("serial", "thread", "process")
            assert isinstance(block["preemptive"], bool)
            for member in block["members"]:
                assert member["state"] in ("ran", "killed", "cancelled")
                if member["state"] == "ran":
                    assert member["wall_time"] >= 0
                    assert member["kill_reason"] is None
                else:
                    assert member["kill_reason"] in (
                        "beaten", "deadline", "admission", "error"
                    )

    def test_dp_columns_are_null(self, portfolio_report):
        for case in portfolio_report["cases"]:
            assert case["engine_v1"] is None
            assert case["baseline"] is None
            assert case["speedup"] is None
            assert case["speedup_vs_v1"] is None
            assert case["engine"]["median"] > 0

    def test_regular_cases_have_null_portfolio_block(self):
        report = run_bench(quick=True, repeats=1, warmup=0)
        for case in report["cases"]:
            assert case["portfolio"] is None

    def test_tampered_portfolio_block_rejected(self, portfolio_report):
        bad = copy.deepcopy(portfolio_report)
        bad["cases"][0]["portfolio"]["budget"] = 0
        with pytest.raises(BenchSchemaError):
            validate_report(bad)
        bad = copy.deepcopy(portfolio_report)
        bad["cases"][0]["portfolio"]["members"][0]["state"] = "vanished"
        with pytest.raises(BenchSchemaError):
            validate_report(bad)


class TestCompareSkipsPortfolio:
    def test_portfolio_cases_are_skipped_not_gated(self, portfolio_report):
        # Wall time is pinned by the budget, so even a wildly "slower"
        # current report must not flag a portfolio case.
        slower = copy.deepcopy(portfolio_report)
        for case in slower["cases"]:
            case["engine"] = {
                key: (value * 100 if isinstance(value, float) else value)
                for key, value in case["engine"].items()
            }
        outcome = compare_reports(slower, portfolio_report)
        assert not outcome["regressions"]
        assert not outcome["compared"]
        assert set(outcome["skipped"]) >= {
            case["name"] for case in portfolio_report["cases"]
        }


class TestNameFilter:
    def test_filter_narrows_the_matrix(self):
        report = run_bench(
            quick=True, repeats=1, warmup=0, name_filter="uniform"
        )
        assert report["cases"]
        assert all("uniform" in case["name"] for case in report["cases"])

    def test_filter_with_no_match_raises(self):
        with pytest.raises(ValueError):
            run_bench(quick=True, repeats=1, warmup=0, name_filter="zebra")


class TestStreamBench:
    @pytest.fixture(scope="class")
    def stream_report(self):
        return run_stream_bench(
            seed=0, num_problems=20, num_jobs=4, repeats=1, backends=["serial"]
        )

    def test_report_is_schema_valid(self, stream_report):
        validate_stream_report(stream_report)
        assert stream_report["schema"] == STREAM_SCHEMA

    def test_throughput_is_positive(self, stream_report):
        backends = stream_report["backends"]
        assert [entry["backend"] for entry in backends] == ["serial"]
        for entry in backends:
            assert entry["problems_per_second"] > 0
            assert entry["jobs_per_second"] == pytest.approx(
                entry["problems_per_second"] * stream_report["num_jobs"]
            )

    def test_write_and_validate_roundtrip(self, stream_report, tmp_path):
        path = tmp_path / "BENCH_stream.json"
        write_stream_report(stream_report, str(path))
        with open(path, "r", encoding="utf-8") as handle:
            validate_stream_report(json.load(handle))

    def test_validation_rejects_drift(self, stream_report):
        bad = copy.deepcopy(stream_report)
        bad["surprise"] = True
        with pytest.raises(BenchSchemaError):
            validate_stream_report(bad)
        bad = copy.deepcopy(stream_report)
        bad["backends"].append(dict(bad["backends"][0]))
        with pytest.raises(BenchSchemaError):
            validate_stream_report(bad)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            run_stream_bench(
                seed=0, num_problems=5, num_jobs=4, repeats=1, backends=["gpu"]
            )

    def test_session_churn_is_recorded(self, stream_report):
        # v2 reports carry the session count; the default workload splits
        # the problems across several solve_stream calls so that per-session
        # spawn overhead (what the warm pool removes) is actually measured.
        assert stream_report["num_sessions"] >= 1


class TestStreamHistory:
    @pytest.fixture(scope="class")
    def stream_report(self):
        return run_stream_bench(
            seed=0, num_problems=20, num_jobs=4, repeats=1, backends=["serial"]
        )

    def test_append_and_read_roundtrip(self, stream_report, tmp_path):
        path = tmp_path / "BENCH_stream.jsonl"
        entry = append_stream_history(
            stream_report, str(path), timestamp="2026-08-08T00:00:00+00:00"
        )
        assert entry["schema"] == STREAM_HISTORY_SCHEMA
        entries = read_stream_history(str(path))
        assert len(entries) == 1
        assert entries[0]["report"] == stream_report

    def test_gate_passes_on_parity(self, stream_report, tmp_path):
        path = tmp_path / "h.jsonl"
        append_stream_history(stream_report, str(path))
        regressions, samples = compare_stream_history(
            stream_report, str(path), window=5, threshold=1.5
        )
        assert regressions == []
        assert samples == 1

    def test_gate_flags_a_throughput_collapse(self, stream_report, tmp_path):
        path = tmp_path / "h.jsonl"
        for _ in range(3):
            append_stream_history(stream_report, str(path))
        slow = copy.deepcopy(stream_report)
        for record in slow["backends"]:
            record["jobs_per_second"] /= 10.0
            record["problems_per_second"] /= 10.0
        regressions, _samples = compare_stream_history(
            slow, str(path), window=5, threshold=1.5
        )
        assert regressions and "serial" in regressions[0]

    def test_gate_skips_backends_without_history(self, stream_report, tmp_path):
        path = tmp_path / "h.jsonl"
        append_stream_history(stream_report, str(path))
        renamed = copy.deepcopy(stream_report)
        renamed["backends"][0]["backend"] = "never-recorded"
        for record in renamed["backends"]:
            record["jobs_per_second"] /= 100.0
            record["problems_per_second"] /= 100.0
        regressions, samples = compare_stream_history(
            renamed, str(path), window=5, threshold=1.5
        )
        assert regressions == []
        assert samples == 0

    def test_corrupt_history_line_rejected(self, stream_report, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"schema": "something-else"}\n', encoding="utf-8")
        with pytest.raises(BenchSchemaError):
            compare_stream_history(stream_report, str(path))

    def test_window_and_threshold_validation(self, stream_report, tmp_path):
        path = tmp_path / "h.jsonl"
        append_stream_history(stream_report, str(path))
        with pytest.raises(ValueError):
            compare_stream_history(stream_report, str(path), window=0)
        with pytest.raises(ValueError):
            compare_stream_history(stream_report, str(path), threshold=1.0)


class TestPortfolioBenchCLI:
    def test_bench_filter_flag(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--quick",
                "--repeats",
                "1",
                "--warmup",
                "0",
                "--filter",
                "uniform",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        assert all("uniform" in case["name"] for case in report["cases"])

    def test_bench_filter_no_match_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--quick", "--filter", "zebra", "--out", str(tmp_path / "b.json")])
        assert excinfo.value.code == 2

    def test_bench_portfolio_quick(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--quick",
                "--repeats",
                "1",
                "--warmup",
                "0",
                "--portfolio",
                "--filter",
                "^portfolio/",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "raced" in captured and "winner" in captured
        with open(out, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        validate_report(report)
        assert all(case["portfolio"] is not None for case in report["cases"])

    def test_bench_stream_flag(self, tmp_path, capsys):
        out = tmp_path / "stream.json"
        code = main(
            [
                "bench",
                "--stream",
                "--repeats",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "problems/s" in capsys.readouterr().out
        with open(out, "r", encoding="utf-8") as handle:
            validate_stream_report(json.load(handle))

    def test_bench_stream_rejects_check(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--stream", "--check", str(tmp_path / "x.json")])
        assert excinfo.value.code == 2

    def test_bench_check_rejects_portfolio_flags(self, tmp_path):
        for extra in (["--portfolio"], ["--filter", "dense"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["bench", "--check", str(tmp_path / "x.json"), *extra])
            assert excinfo.value.code == 2
