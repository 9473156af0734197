"""Tests for the repro-profile CLI."""

import io
import os
import json

import pytest

from repro.cli import main
from repro.core.profile_io import load
from repro.profilers.leap import LeapProfile


class TestList:
    def test_lists_workloads(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "gzip" in output
        assert "micro.list" in output


class TestRun:
    def test_writes_both_profiles(self, tmp_path, capsys):
        code = main(
            ["run", "micro.array", "--scale", "0.2", "-o", str(tmp_path)]
        )
        assert code == 0
        whomp = tmp_path / "micro.array.whomp.json"
        leap = tmp_path / "micro.array.leap.json"
        assert whomp.exists() and leap.exists()
        json.loads(whomp.read_text())  # valid JSON
        profile = load(str(leap))
        assert isinstance(profile, LeapProfile)
        assert profile.access_count > 0

    def test_single_profiler(self, tmp_path):
        main(["run", "micro.array", "--scale", "0.2", "--profiler", "leap",
              "-o", str(tmp_path)])
        assert not (tmp_path / "micro.array.whomp.json").exists()
        assert (tmp_path / "micro.array.leap.json").exists()

    def test_unknown_workload(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "ghost", "-o", str(tmp_path)])


class TestStats:
    def test_prints_statistics(self, capsys):
        assert main(["stats", "micro.array", "--scale", "0.2"]) == 0
        output = capsys.readouterr().out
        assert "accesses" in output
        assert "reuse" in output

    def test_no_reuse_flag(self, capsys):
        main(["stats", "micro.array", "--scale", "0.2", "--no-reuse"])
        output = capsys.readouterr().out
        assert "reuse" not in output


class TestLang:
    SOURCE = """
    global int[8] table;
    fn main(): int {
      for (var i: int = 0; i < 8; i = i + 1) { table[i] = i; }
      var total: int = 0;
      for (var i: int = 0; i < 8; i = i + 1) { total = total + table[i]; }
      return total;
    }
    """

    def test_profiles_source_file(self, tmp_path, capsys):
        source = tmp_path / "sum.mir"
        source.write_text(self.SOURCE)
        code = main(["lang", str(source), "-o", str(tmp_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "program returned 28" in output
        assert (tmp_path / "sum.whomp.json").exists()
        assert (tmp_path / "sum.leap.json").exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["lang", str(tmp_path / "nope.mir")])


class TestDump:
    def test_dump_leap(self, tmp_path, capsys):
        main(["run", "micro.array", "--scale", "0.2", "--profiler", "leap",
              "-o", str(tmp_path)])
        capsys.readouterr()
        assert main(["dump", str(tmp_path / "micro.array.leap.json")]) == 0
        output = capsys.readouterr().out
        assert "LEAP profile" in output
        assert "LMADs" in output

    def test_dump_whomp(self, tmp_path, capsys):
        main(["run", "micro.array", "--scale", "0.2", "--profiler", "whomp",
              "-o", str(tmp_path)])
        capsys.readouterr()
        assert main(["dump", str(tmp_path / "micro.array.whomp.json")]) == 0
        output = capsys.readouterr().out
        assert "WHOMP profile" in output
        assert "offset stream" in output

    def test_dump_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["dump", str(tmp_path / "nope.json")])

    def test_dump_unrecognized_format(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"format": "mystery"}')
        with pytest.raises(SystemExit):
            main(["dump", str(bogus)])


EXAMPLES = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "programs"
)

CLEAN_SOURCE = """
fn main(): int {
  var a: int* = new int[4];
  a[0] = 1;
  delete a;
  return 0;
}
"""

DEFECT_SOURCE = """
fn main(): int {
  var a: int* = new int[4];
  delete a;
  return a[0];
}
"""


class TestCheck:
    def test_clean_source_exits_zero(self, tmp_path, capsys):
        source = tmp_path / "clean.mir"
        source.write_text(CLEAN_SOURCE)
        assert main(["check", str(source)]) == 0
        output = capsys.readouterr().out
        assert "0 diagnostic(s)" in output

    def test_diagnostics_exit_one(self, tmp_path, capsys):
        source = tmp_path / "bad.mir"
        source.write_text(DEFECT_SOURCE)
        assert main(["check", str(source)]) == 1
        output = capsys.readouterr().out
        assert "MIR102" in output
        assert f"{source}:5:" in output

    def test_parse_error_exits_two(self, tmp_path, capsys):
        source = tmp_path / "broken.mir"
        source.write_text("fn main(): int { return 1 +; }")
        assert main(["check", str(source)]) == 2
        err = capsys.readouterr().err
        # one-line file:line:col: message
        assert err.strip().startswith(f"{source}:1:")
        assert "\n" not in err.strip()

    def test_lang_parse_error_exits_two(self, tmp_path, capsys):
        source = tmp_path / "broken.mir"
        source.write_text("fn main(): int { return 1 +; }")
        assert main(["lang", str(source), "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.strip().startswith(f"{source}:1:")

    def test_json_output_is_stable(self, tmp_path, capsys):
        source = tmp_path / "bad.mir"
        source.write_text(DEFECT_SOURCE)
        main(["check", str(source), "--json"])
        first = capsys.readouterr().out
        main(["check", str(source), "--json"])
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["total_diagnostics"] == 1
        [entry] = payload["files"]
        [diagnostic] = entry["diagnostics"]
        assert diagnostic["code"] == "MIR102"
        assert diagnostic["line"] == 5
        assert "classifications" in entry

    def test_multiple_files_any_defect_fails(self, tmp_path):
        clean = tmp_path / "clean.mir"
        clean.write_text(CLEAN_SOURCE)
        bad = tmp_path / "bad.mir"
        bad.write_text(DEFECT_SOURCE)
        assert main(["check", str(clean), str(bad)]) == 1
        assert main(["check", str(clean)]) == 0

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["check", str(tmp_path / "nope.mir")])

    def test_no_static_flag(self, tmp_path, capsys):
        source = tmp_path / "clean.mir"
        source.write_text(CLEAN_SOURCE)
        assert main(["check", str(source), "--no-static", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["files"][0]["classifications"] == {}

    def test_bundled_examples_are_clean(self, capsys):
        sources = [
            os.path.join(EXAMPLES, name)
            for name in ("matrix.mir", "binary_tree.mir", "linked_list.mir")
        ]
        assert main(["check"] + sources) == 0

    def test_defect_fixtures_flag(self, capsys):
        for name in ("defects_heap.mir", "defects_flow.mir"):
            assert main(["check", os.path.join(EXAMPLES, name)]) == 1
