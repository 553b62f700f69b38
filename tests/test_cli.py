"""CLI tests (invoked in-process through cli.main)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main

GCD = """
proc gcd(in a, in b, out g) {
    while (a != b) {
        if (a < b) { b = b - a; } else { a = a - b; }
    }
    g = a;
}
"""


@pytest.fixture()
def gcd_file(tmp_path):
    path = tmp_path / "gcd.bdl"
    path.write_text(GCD)
    return str(path)


class TestCompile:
    def test_stats(self, gcd_file, capsys):
        assert main(["compile", gcd_file]) == 0
        out = capsys.readouterr().out
        assert "gcd:" in out
        assert "loops: ['L1']" in out

    def test_dot(self, gcd_file, capsys):
        assert main(["compile", gcd_file, "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_missing_file(self):
        with pytest.raises(SystemExit):
            main(["compile", "/nonexistent.bdl"])

    def test_syntax_error_reported(self, tmp_path):
        bad = tmp_path / "bad.bdl"
        bad.write_text("proc p( {")
        with pytest.raises(SystemExit):
            main(["compile", str(bad)])


class TestRun:
    def test_executes(self, gcd_file, capsys):
        assert main(["run", gcd_file, "a=36", "b=60"]) == 0
        out = capsys.readouterr().out
        assert "g = 12" in out
        assert "loop L1" in out

    def test_bad_input_pair(self, gcd_file):
        with pytest.raises(SystemExit):
            main(["run", gcd_file, "a"])

    def test_undeclared_input_is_an_error(self, gcd_file, capsys):
        # A string exit code prints to stderr and exits with status 1.
        with pytest.raises(SystemExit) as exc:
            main(["run", gcd_file, "a=36", "c=60"])
        assert exc.value.code == ("error: gcd has no input c; declared "
                                  "inputs: a, b")
        assert capsys.readouterr().out == ""


class TestSchedule:
    def test_schedule_stats(self, gcd_file, capsys):
        assert main(["schedule", gcd_file,
                     "--alloc", "sb1=2,cp1=1,e1=1"]) == 0
        out = capsys.readouterr().out
        assert "states" in out
        assert "cycles per execution" in out

    def test_schedule_dot(self, gcd_file, capsys):
        assert main(["schedule", gcd_file, "--alloc",
                     "sb1=2,cp1=1,e1=1", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_infeasible_allocation(self, gcd_file):
        with pytest.raises(SystemExit):
            main(["schedule", gcd_file, "--alloc", "a1=1"])

    def test_bad_alloc_syntax(self, gcd_file):
        with pytest.raises(SystemExit):
            main(["schedule", gcd_file, "--alloc", "a1"])


class TestBadClock:
    """A bad clock fails at the boundary: one error line, exit 1."""

    @pytest.mark.parametrize("command, clock", [
        ("optimize", "0"), ("optimize", "nan"), ("schedule", "-5")])
    def test_error_line(self, gcd_file, command, clock, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, gcd_file, "--alloc", "sb1=2,cp1=1,e1=1",
                  "--clock", clock])
        assert exc.value.code.startswith("error: clock period must be ")
        assert "\n" not in exc.value.code
        assert capsys.readouterr().out == ""

    def test_process_prints_one_error_line(self, gcd_file):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "optimize", gcd_file,
             "--clock", "0"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: clock period must be a finite number of ns > 0, "
            "got 0.0"]

    def test_submit_queues_nothing(self, gcd_file, tmp_path):
        from repro.service.jobs import JobQueue
        queue = str(tmp_path / "queue")
        with pytest.raises(SystemExit) as exc:
            main(["submit", gcd_file, "--alloc", "sb1=2,cp1=1,e1=1",
                  "--clock", "0", "--queue", queue,
                  "--store", str(tmp_path / "store")])
        assert exc.value.code.startswith("error: job spec field clock: ")
        assert JobQueue(queue).jobs() == []


class TestBadSearchSettings:
    """Bad search and explore settings fail at the boundary: one error
    line, exit 1, and nothing scheduled or queued."""

    ALLOC = ["--alloc", "sb1=2,cp1=1,e1=1"]

    @pytest.mark.parametrize("command, flags, field", [
        ("explore", ["--no-warm-start", "--candidates-per-seed", "-1"],
         "max_candidates_per_seed"),
        ("explore", ["--no-warm-start", "--population", "0"],
         "population_size"),
        ("explore", ["--no-warm-start", "--population", "-2"],
         "population_size"),
        ("explore", ["--no-warm-start", "--generations", "-1"],
         "generations"),
        ("optimize", ["--iterations", "-1"], "max_outer_iters"),
        ("optimize", ["--max-evaluations", "-3"], "max_evaluations"),
        ("optimize", ["--portfolio", "0"], "portfolio_size"),
        ("optimize", ["--workers", "-1"], "workers"),
        ("explore", ["--workers", "-1"], "workers"),
    ])
    def test_error_line(self, gcd_file, tmp_path, command, flags, field,
                        capsys):
        store = ["--store", str(tmp_path / "store")] \
            if command == "explore" else []
        with pytest.raises(SystemExit) as exc:
            main([command, gcd_file, *self.ALLOC, *flags, *store])
        assert exc.value.code.startswith(f"error: {field} must be ")
        assert "\n" not in exc.value.code
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "store").exists()

    def test_process_prints_one_error_line(self, gcd_file):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "explore", gcd_file,
             *self.ALLOC, "--no-warm-start", "--population", "0"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: population_size must be an integer >= 1, got 0"]

    @pytest.mark.parametrize("flags, field", [
        (["--population", "0"], "population"),
        (["--candidates-per-seed", "-1"], "candidates_per_seed"),
        (["--iterations", "-1"], "iterations"),
        (["--generations", "-1"], "generations"),
    ])
    def test_submit_queues_nothing(self, gcd_file, tmp_path, flags,
                                   field):
        from repro.service.jobs import JobQueue
        queue = str(tmp_path / "queue")
        with pytest.raises(SystemExit) as exc:
            main(["submit", gcd_file, *self.ALLOC, *flags,
                  "--queue", queue, "--store", str(tmp_path / "store")])
        assert exc.value.code.startswith(f"error: job spec field {field}: ")
        assert JobQueue(queue).jobs() == []


class TestOptimize:
    def test_improves_gcd(self, gcd_file, capsys):
        assert main(["optimize", gcd_file, "--alloc",
                     "sb1=2,cp1=1,e1=1", "--iterations", "3"]) == 0
        out = capsys.readouterr().out
        assert "optimized:" in out
        assert "speculate" in out

    def test_power_objective(self, gcd_file, capsys):
        assert main(["optimize", gcd_file, "--alloc",
                     "sb1=2,cp1=1,e1=1", "--objective", "power",
                     "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "power:" in out
        assert "V)" in out


class TestTable2:
    def test_single_circuit(self, capsys):
        assert main(["table2", "pps"]) == 0
        out = capsys.readouterr().out
        assert "pps" in out
        assert "Table 2" in out


class TestExplore:
    ARGS = ["--alloc", "sb1=2,cp1=1,e1=1", "--seed", "1",
            "--generations", "1", "--population", "4",
            "--candidates-per-seed", "8", "--iterations", "1"]

    def test_smoke_with_exports(self, gcd_file, tmp_path, capsys):
        front_json = tmp_path / "front.json"
        front_csv = tmp_path / "front.csv"
        rc = main(["explore", gcd_file, *self.ARGS,
                   "--store", str(tmp_path / "store"),
                   "--export", str(front_json),
                   "--csv", str(front_csv), "--stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "front of" in out
        assert "store hit rate" in out
        import json
        doc = json.loads(front_json.read_text())
        assert doc["schema"] == 1
        assert doc["points"]
        assert front_csv.read_text().startswith("fingerprint,")

    def test_resume_of_finished_run_reproduces_front(self, gcd_file,
                                                     tmp_path, capsys):
        store = str(tmp_path / "store")
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["explore", gcd_file, *self.ARGS, "--store", store,
                     "--export", str(first)]) == 0
        assert main(["explore", gcd_file, *self.ARGS, "--store", store,
                     "--resume", "--export", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()


class TestRemovedFlags:
    @pytest.mark.parametrize("command", ["optimize", "explore"])
    @pytest.mark.parametrize("flag", ["--no-incremental",
                                      "--no-incremental-enum"])
    def test_incremental_switches_are_usage_errors(self, gcd_file,
                                                   command, flag,
                                                   capsys):
        """Incremental scheduling and enumeration are the only paths;
        their old off switches are rejected by argparse."""
        with pytest.raises(SystemExit) as exc:
            main([command, gcd_file, flag])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestService:
    KNOBS = ["--alloc", "sb1=2,cp1=1,e1=1", "--generations", "1",
             "--population", "4", "--candidates-per-seed", "6",
             "--iterations", "1"]

    def test_submit_serve_result_round_trip(self, gcd_file, tmp_path,
                                            capsys):
        queue = str(tmp_path / "queue")
        store = str(tmp_path / "store")
        assert main(["submit", gcd_file, *self.KNOBS,
                     "--queue", queue, "--store", store]) == 0
        job_id = capsys.readouterr().out.strip().splitlines()[0]
        assert len(job_id) == 16

        assert main(["job", "list", "--queue", queue]) == 0
        assert "pending" in capsys.readouterr().out

        assert main(["serve", "--queue", queue, "--store", store,
                     "--workers", "1", "--once"]) == 0
        assert "served 1 job(s)" in capsys.readouterr().out

        front_json = tmp_path / "front.json"
        assert main(["job", "status", job_id, "--queue", queue]) == 0
        assert "state:     done" in capsys.readouterr().out
        assert main(["job", "result", job_id, "--queue", queue,
                     "--export", str(front_json)]) == 0
        assert "merged front of" in capsys.readouterr().out
        import json
        assert json.loads(front_json.read_text())["points"]

    def test_submit_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["submit", str(tmp_path / "no.bdl"),
                  "--queue", str(tmp_path / "q")])

    def test_job_status_unknown_id(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["job", "status", "feedfacefeedface",
                  "--queue", str(tmp_path / "q")])

    def test_store_sync_command(self, gcd_file, tmp_path, capsys):
        queue = str(tmp_path / "queue")
        a = str(tmp_path / "store-a")
        assert main(["submit", gcd_file, *self.KNOBS,
                     "--queue", queue, "--store", a]) == 0
        assert main(["serve", "--queue", queue, "--store", a,
                     "--workers", "1", "--once"]) == 0
        capsys.readouterr()
        assert main(["store", "sync", a,
                     str(tmp_path / "store-b")]) == 0
        out = capsys.readouterr().out
        assert "copied" in out and "disagreements 0" in out

    def test_store_list_round_trip(self, gcd_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = ["--alloc", "sb1=2,cp1=1,e1=1", "--seed", "1",
                "--generations", "1", "--population", "4",
                "--candidates-per-seed", "8", "--iterations", "1",
                "--store", store]
        assert main(["explore", gcd_file, *args]) == 0
        capsys.readouterr()
        assert main(["store", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "stored evaluation(s)" in out
        assert "1 transfer front(s)" in out
        assert "vdd=5" in out

    def test_store_list_empty_store(self, tmp_path, capsys):
        assert main(["store", "list",
                     "--store", str(tmp_path / "empty")]) == 0
        out = capsys.readouterr().out
        assert "0 stored evaluation(s), 0 transfer front(s)" in out

    def test_explore_warm_start_uses_transfer_index(
            self, gcd_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = ["--alloc", "sb1=2,cp1=1,e1=1", "--seed", "1",
                "--generations", "1", "--population", "4",
                "--candidates-per-seed", "8", "--iterations", "1",
                "--store", store]
        assert main(["explore", gcd_file, *args]) == 0
        assert main(["explore", gcd_file, *args, "--warm-start",
                     "--clock", "26"]) == 0
        capsys.readouterr()
        assert main(["store", "list", "--store", store]) == 0
        assert "2 transfer front(s)" in capsys.readouterr().out

    def test_submit_strategy_round_trips_through_queue(
            self, gcd_file, tmp_path, capsys):
        queue = str(tmp_path / "queue")
        assert main(["submit", gcd_file, *self.KNOBS,
                     "--strategy", "macro",
                     "--queue", queue,
                     "--store", str(tmp_path / "store")]) == 0
        job_id = capsys.readouterr().out.strip().splitlines()[0]
        from repro.service.jobs import JobQueue
        record = JobQueue(queue).get(job_id)
        assert record.spec.strategy == "macro"
