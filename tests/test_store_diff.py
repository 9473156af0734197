"""PROFSTORE query/diff engine and the ``repro-profile diff`` CLI."""

import json
import random

import pytest

from repro.baselines.dependence_lossless import LosslessDependenceProfiler
from repro.cli import main as profile_main
from repro.core.events import AccessKind
from repro.core.profile_io import ProfileFormatError, dumps
from repro.profilers.leap import LeapProfiler
from repro.profilers.whomp import WhompProfiler
from repro.runtime.process import Process
from repro.store import ProfileStore, QueryEngine
from repro.store.diff import (
    ProfileDiff,
    detect_regressions,
    diff_texts,
    render_diff,
)
from repro.store.serve_cli import main as serve_main


def make_trace(offsets, stores=()):
    process = Process()
    ld = process.instruction("ld", AccessKind.LOAD)
    st = process.instruction("st", AccessKind.STORE)
    block = process.malloc("site", 1024, type_name="long[]")
    for offset in offsets:
        process.load(ld, block + (offset % 128) * 8)
    for offset in stores:
        process.store(st, block + (offset % 128) * 8)
    process.free(block)
    process.finish()
    return process.trace


@pytest.fixture(scope="module")
def regular_leap():
    return dumps(LeapProfiler().profile(make_trace(range(100))))


@pytest.fixture(scope="module")
def irregular_leap():
    rng = random.Random(1)
    offsets = [rng.randrange(128) for __ in range(100)]
    return dumps(LeapProfiler().profile(make_trace(offsets)))


class TestDiffLeap:
    def test_identical_documents(self, regular_leap):
        diff = diff_texts(regular_leap, regular_leap)
        assert diff.kind == "leap"
        assert diff.identical
        assert not detect_regressions(diff)
        assert "no regressions detected" in render_diff(diff, [])

    def test_degraded_candidate_flags_regressions(
        self, regular_leap, irregular_leap
    ):
        diff = diff_texts(regular_leap, irregular_leap, "base", "cand")
        assert not diff.identical
        flagged = {r.metric for r in detect_regressions(diff)}
        # the random candidate compresses worse and captures less
        assert "bytes_per_access" in flagged
        assert "descriptors_per_entry" in flagged
        assert "accesses_captured" in flagged
        report = render_diff(diff, detect_regressions(diff))
        assert "REGRESSIONS" in report

    def test_improvement_is_not_a_regression(
        self, regular_leap, irregular_leap
    ):
        # swapping sides: candidate got *better*; nothing to flag
        diff = diff_texts(irregular_leap, regular_leap)
        assert not detect_regressions(diff)

    def test_entry_drift_key_sets(self, regular_leap):
        with_stores = dumps(
            LeapProfiler().profile(make_trace(range(100), stores=range(16)))
        )
        diff = diff_texts(regular_leap, with_stores)
        assert (1, 0) in diff.added_keys  # the store instruction's entry
        reverse = diff_texts(with_stores, regular_leap)
        assert (1, 0) in reverse.removed_keys

    def test_tolerances_are_tunable(self, regular_leap, irregular_leap):
        diff = diff_texts(regular_leap, irregular_leap)
        lax = detect_regressions(
            diff, ratio_tolerance=1e9, capture_tolerance=2.0
        )
        assert not lax


class TestDiffWhomp:
    def test_identical_and_drifted(self):
        doc_a = dumps(WhompProfiler().profile(make_trace(range(64))))
        doc_b = dumps(
            WhompProfiler().profile(make_trace([o * 3 for o in range(64)]))
        )
        same = diff_texts(doc_a, doc_a)
        assert same.kind == "whomp"
        assert same.identical
        drifted = diff_texts(doc_a, doc_b)
        assert "grammar_symbols.total" in drifted.metrics
        assert "symbols_per_access" in drifted.metrics
        assert drifted.metrics["access_count"]["a"] == 64

    def test_bad_completeness_is_a_format_error(self):
        whomp = dumps(WhompProfiler().profile(make_trace(range(16))))
        document = json.loads(whomp)
        document["capture_completeness"] = "abc"
        with pytest.raises(ProfileFormatError, match="completeness"):
            diff_texts(whomp, json.dumps(document))


class TestDiffDependence:
    def test_conflict_pair_changes(self):
        prof_a = LosslessDependenceProfiler().profile(
            make_trace(range(32), stores=range(32))
        )
        prof_b = LosslessDependenceProfiler().profile(
            make_trace(range(32), stores=range(0, 64, 2))
        )
        same = diff_texts(dumps(prof_a), dumps(prof_a))
        assert same.kind == "dependence"
        assert same.identical
        drifted = diff_texts(dumps(prof_a), dumps(prof_b))
        assert "conflict_total" in drifted.metrics

    def test_format_mismatch_refused(self, regular_leap):
        whomp = dumps(WhompProfiler().profile(make_trace(range(16))))
        with pytest.raises(ProfileFormatError, match="cannot diff"):
            diff_texts(regular_leap, whomp)


class TestDetectRegressionsUnit:
    @staticmethod
    def synthetic(metrics):
        return ProfileDiff(
            kind="leap", label_a="a", label_b="b",
            added_keys=[], removed_keys=[], changed=[], metrics=metrics,
        )

    def test_ratio_growth_within_tolerance_passes(self):
        diff = self.synthetic(
            {"bytes_per_access": {"a": 1.0, "b": 1.09}}
        )
        assert not detect_regressions(diff)

    def test_ratio_growth_past_tolerance_flags(self):
        diff = self.synthetic(
            {"bytes_per_access": {"a": 1.0, "b": 1.11}}
        )
        flagged = detect_regressions(diff)
        assert [r.metric for r in flagged] == ["bytes_per_access"]
        assert flagged[0].to_json()["baseline"] == 1.0

    def test_capture_drop_is_absolute(self):
        diff = self.synthetic(
            {"capture_completeness": {"a": 1.0, "b": 0.94}}
        )
        assert detect_regressions(diff)
        diff = self.synthetic(
            {"capture_completeness": {"a": 1.0, "b": 0.96}}
        )
        assert not detect_regressions(diff)


class TestQueryEngine:
    @pytest.fixture()
    def engine(self, tmp_path, regular_leap):
        store = ProfileStore(str(tmp_path))
        store.ingest_text(regular_leap, "alpha")
        store.ingest_text(
            dumps(LeapProfiler().profile(make_trace(range(0, 64, 2)))), "beta"
        )
        store.ingest_text(
            dumps(WhompProfiler().profile(make_trace(range(16)))), "beta"
        )
        return QueryEngine(store)

    def test_find_runs_filters(self, engine):
        assert len(engine.find_runs()) == 3
        assert len(engine.find_runs(workload="beta")) == 2
        assert len(engine.find_runs(workload="beta", kind="leap")) == 1
        assert engine.find_runs(workload="nope") == []

    def test_find_entries_filters(self, engine):
        rows = engine.find_entries()
        assert rows  # only LEAP runs contribute entries
        assert {row["workload"] for row in rows} == {"alpha", "beta"}
        only_alpha = engine.find_entries(workload="alpha")
        assert all(row["workload"] == "alpha" for row in only_alpha)
        assert engine.find_entries(min_count=10**9) == []
        by_instruction = engine.find_entries(instruction=0)
        assert all(row["instruction"] == 0 for row in by_instruction)

    def test_stride_filter(self, engine):
        rows = engine.find_entries(workload="alpha")
        stride = tuple(rows[0]["strides"][0])
        assert engine.find_entries(workload="alpha", stride=stride)
        assert not engine.find_entries(workload="alpha", stride=(123456,))

    def test_lmad_shapes(self, engine):
        shapes = engine.lmad_shapes("alpha@leap")
        assert shapes
        assert {"stride", "descriptors", "accesses"} <= set(shapes[0])


class TestProfileDiffCLI:
    """``repro-profile diff A B`` over loose profile files."""

    @pytest.fixture()
    def files(self, tmp_path, regular_leap, irregular_leap):
        a = tmp_path / "base.leap.json"
        b = tmp_path / "cand.leap.json"
        a.write_text(regular_leap)
        b.write_text(irregular_leap)
        return str(a), str(b)

    def test_identical_exits_zero(self, files, capsys):
        a, __ = files
        assert profile_main(["diff", a, a]) == 0
        assert "identical" in capsys.readouterr().out

    def test_regression_exits_one(self, files, capsys):
        a, b = files
        assert profile_main(["diff", a, b]) == 1
        assert "REGRESSIONS" in capsys.readouterr().out

    def test_json_output(self, files, capsys):
        a, b = files
        assert profile_main(["diff", a, b, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "leap"
        assert payload["regressions"]
        assert not payload["identical"]

    def test_bad_input_exits_two(self, files, tmp_path, capsys):
        a, __ = files
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not a profile")
        assert profile_main(["diff", a, str(garbage)]) == 2
        with pytest.raises(SystemExit):
            profile_main(["diff", a, str(tmp_path / "missing.json")])


class TestServeDiffCLI:
    """``repro-serve diff`` over store selectors."""

    @pytest.fixture()
    def root(self, tmp_path, regular_leap, irregular_leap):
        store = ProfileStore(str(tmp_path))
        store.ingest_text(regular_leap, "bench")
        store.ingest_text(irregular_leap, "bench")
        return str(tmp_path)

    def test_selector_diff(self, root, capsys):
        code = serve_main(
            ["diff", "--root", root, "bench@leap~1", "bench@leap"]
        )
        assert code == 1  # the irregular candidate regresses
        assert "REGRESSIONS" in capsys.readouterr().out
        assert (
            serve_main(["diff", "--root", root, "r000001", "r000001"]) == 0
        )

    def test_bad_selector_exits_two(self, root, capsys):
        code = serve_main(["diff", "--root", root, "bench@leap", "nope@leap"])
        assert code == 2
        assert "no run matches" in capsys.readouterr().err
