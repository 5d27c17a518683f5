import pytest

from idgp import cli, io
from idgp.cli import main
from idgp.model import SelectionError


def run(argv):
    return main(argv)


class TestSynthAndGenerate:
    def test_pipeline_produces_valid_instance(self, tmp_path):
        ref = tmp_path / "ref.txt"
        inst_path = tmp_path / "case.inst"
        assert run(["synth", "--residues", "2", "--seed", "3",
                    "--out", str(ref)]) == 0
        assert run(["generate", "--reference", str(ref),
                    "--out", str(inst_path)]) == 0
        inst = io.parse_instance(inst_path)
        assert inst.n == 10

    def test_generate_missing_reference_fails(self, tmp_path):
        assert run(["generate", "--reference", str(tmp_path / "nope.txt"),
                    "--out", str(tmp_path / "o.inst")]) == 1

    def test_no_hydrogens_flag(self, tmp_path):
        ref = tmp_path / "ref.txt"
        assert run(["synth", "--residues", "2", "--no-hydrogens",
                    "--out", str(ref)]) == 0
        atoms, _ = io.parse_reference(ref)
        assert len(atoms) == 6

    @pytest.mark.parametrize("flags", [["--residues", "0"],
                                       ["--residues", "1", "--no-hydrogens"]])
    def test_too_few_residues_exits_1(self, flags, tmp_path, capsys):
        assert run(["synth", *flags, "--out", str(tmp_path / "ref.txt")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        assert run(["synth", "--residues", "2", "--seed", "-2",
                    "--out", str(tmp_path / "ref.txt")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flags", [["--angle-width", "inf"],
                                       ["--hh-cutoff", "nan"],
                                       ["--hh-width-adjacent", "-1"],
                                       ["--hh-width-other", "nan"]])
    def test_bad_generator_flag_exits_1(self, flags, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        assert run(["synth", "--residues", "2", "--out", str(ref)]) == 0
        assert run(["generate", "--reference", str(ref), *flags,
                    "--out", str(tmp_path / "case.inst")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestSolve:
    def test_solves_and_writes_outputs(self, toy_file, tmp_path):
        out = tmp_path / "conf.txt"
        report = tmp_path / "report.txt"
        code = run(["solve", "--instance", str(toy_file), "--seed", "0",
                    "--out", str(out), "--report", str(report)])
        assert code == 0
        text = report.read_text()
        assert "status: Solved" in text
        assert "seed: 0" in text
        inst = io.parse_instance(toy_file)
        atoms, coords = io.parse_reference(out)
        assert coords.shape == (3, inst.n)

    def test_report_fields_in_order(self, toy_file, tmp_path):
        report = tmp_path / "report.txt"
        run(["solve", "--instance", str(toy_file), "--report", str(report)])
        keys = [line.split(":")[0] for line in report.read_text().splitlines()]
        assert keys == ["instance", "n", "edges", "pool", "lde", "mde",
                        "time_s", "status", "seed"]

    def test_missing_instance_exits_1(self, tmp_path, capsys):
        assert run(["solve", "--instance", str(tmp_path / "nope.inst")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [b"E 1 2 1.5 1.5 N 1 CA 1\nE 2 3 \xff\n",
                                      b"E 1 2 1.5 1.5 N 1 CA 1\nE 2 2000000 5 6 CA 1 N 9\n",
                                      b"E 1 2 1.5 1.5 N 1 CA 1\n"])
    def test_unreadable_instance_exits_1(self, tmp_path, capsys, text):
        # a byte that is not UTF-8, an index far beyond the atoms named, or
        # two atoms, fewer than the discretization fixes
        path = tmp_path / "bad.inst"
        path.write_bytes(text)
        assert run(["solve", "--instance", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) <= 2

    def test_solver_error_exits_1(self, toy_file, monkeypatch, capsys):
        def fail(inst, params):
            raise SelectionError("no CA-named atoms for large-instance RMSD subset")

        monkeypatch.setattr(cli, "multistart_solve", fail)
        assert run(["solve", "--instance", str(toy_file)]) == 1
        assert capsys.readouterr().err.startswith("error: no CA-named atoms")

    def test_unwritable_report_exits_1(self, toy_file, tmp_path, capsys):
        report = tmp_path / "missing" / "report.txt"
        assert run(["solve", "--instance", str(toy_file), "--report", str(report)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flags", [["--eps-mde", "nan", "--eps-lde", "nan"],
                                       ["--time-limit", "nan"],
                                       ["--time-limit", "-1"],
                                       ["--seed", "-1"]])
    def test_invalid_solver_flags_exit_1(self, flags, toy_file, capsys):
        assert run(["solve", "--instance", str(toy_file), *flags]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_unreachable_tolerance_exits_2(self, unsatisfiable, tmp_path):
        inst, _ = unsatisfiable
        path = tmp_path / "hard.inst"
        io.write_instance(inst, path)
        code = run(["solve", "--instance", str(path),
                    "--eps-mde", "1e-30", "--eps-lde", "1e-30",
                    "--n-trial", "3", "--time-limit", "30",
                    "--report", str(tmp_path / "r.txt")])
        assert code == 2

    def test_report_to_stdout_by_default(self, toy_file, capsys):
        run(["solve", "--instance", str(toy_file)])
        out = capsys.readouterr().out
        assert out.startswith("instance:") and "status:" in out


class TestBench:
    def test_table_over_directory(self, toy, tmp_path, capsys):
        inst, _ = toy
        d = tmp_path / "cases"
        d.mkdir()
        io.write_instance(inst, d / "a.inst")
        io.write_instance(inst, d / "b.inst")
        (d / "broken.inst").write_text("E 1 2 bad\n")
        (d / "latin1.inst").write_bytes("E 1 2 1.5 1.5 N 1 CA 1 # \u00b1\n".encode("latin-1"))
        out = tmp_path / "results.tsv"
        assert run(["bench", "--instances", str(d), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split("\t")[:2] == ["instance", "n"]
        rows = {l.split("\t")[0]: l.split("\t") for l in lines[1:]}
        assert rows["a.inst"][-2] == "Solved"
        assert rows["broken.inst"][-2] == rows["latin1.inst"][-2] == "Error"
        err = capsys.readouterr().err
        assert "broken.inst" in err and "latin1.inst:1: not UTF-8" in err

    def test_invalid_solver_flag_exits_1_without_rows(self, toy, tmp_path, capsys):
        inst, _ = toy
        d = tmp_path / "cases"
        d.mkdir()
        io.write_instance(inst, d / "a.inst")
        io.write_instance(inst, d / "b.inst")
        out = tmp_path / "results.tsv"
        assert run(["bench", "--instances", str(d), "--seed", "-1",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_empty_directory_exits_1(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        assert run(["bench", "--instances", str(d)]) == 1


class TestProfile:
    def _table(self, path, rows):
        lines = ["instance\tstatus\ttime_s"]
        lines += [f"{n}\t{s}\t{t}" for n, s, t in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_two_algorithm_profile(self, tmp_path):
        a, b = tmp_path / "fast.tsv", tmp_path / "slow.tsv"
        self._table(a, [("p1", "Solved", "1.0"), ("p2", "Solved", "1.0")])
        # blank and whitespace-only lines between rows are skipped
        b.write_text("instance\tstatus\ttime_s\np1\tSolved\t2.0\n\n \t\np2\tSolved\t1.0\n")
        out = tmp_path / "profile.tsv"
        assert run(["profile", "--results", str(a), str(b),
                    "--labels", "A", "B", "--out", str(out)]) == 0
        points = {}
        for line in out.read_text().splitlines():
            lab, t, rho = line.split("\t")
            points.setdefault(lab, {})[float(t)] = float(rho)
        assert points["A"][1.0] == 1.0
        assert points["B"][1.0] == 0.5
        assert points["B"][2.0] == 1.0

    def test_sub_second_times_keep_their_ratios(self, tmp_path):
        # only `idgp bench` floors its times at 1 s; a table with finer times,
        # such as the benchmark's, is profiled as written
        a, b = tmp_path / "fast.tsv", tmp_path / "slow.tsv"
        self._table(a, [("p1", "Solved", "0.01"), ("p2", "Solved", "0.04")])
        self._table(b, [("p1", "Solved", "0.03"), ("p2", "Solved", "0.02")])
        out = tmp_path / "profile.tsv"
        assert run(["profile", "--results", str(a), str(b), "--out", str(out)]) == 0
        points = {}
        for line in out.read_text().splitlines():
            lab, t, rho = line.split("\t")
            points.setdefault(lab, []).append((float(t), float(rho)))
        assert points == {"fast": [(1.0, 0.5), (2.0, 1.0)],
                          "slow": [(1.0, 0.5), (3.0, 1.0)]}

    def test_failures_never_complete(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        self._table(a, [("p1", "Solved", "1.0"), ("p2", "BestEffort", "9.0")])
        self._table(b, [("p1", "Solved", "1.0"), ("p2", "Solved", "1.0")])
        out = tmp_path / "profile.tsv"
        assert run(["profile", "--results", str(a), str(b), "--out", str(out)]) == 0
        rows = [l.split("\t") for l in out.read_text().splitlines()]
        a_max = max(float(r[2]) for r in rows if r[0] == "a")
        assert a_max == 0.5

    def test_label_count_mismatch_exits_1(self, tmp_path):
        a = tmp_path / "a.tsv"
        self._table(a, [("p1", "Solved", "1.0")])
        assert run(["profile", "--results", str(a), "--labels", "x", "y"]) == 1

    @pytest.mark.parametrize("labels", [[], ["A", "A"]])
    def test_duplicate_labels_exit_1(self, labels, tmp_path, capsys):
        # two result sets under one label would be merged into one curve
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a, b = tmp_path / "a" / "runs.tsv", tmp_path / "b" / "runs.tsv"
        self._table(a, [("p1", "Solved", "1.0")])
        self._table(b, [("p1", "Solved", "2.0")])
        flags = ["--labels", *labels] if labels else []
        assert run(["profile", "--results", str(a), str(b), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_repeated_instance_exits_1(self, tmp_path, capsys):
        # keeping either row would profile a time the other row contradicts
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        self._table(a, [("a", "Solved", "1.0"), ("a", "Solved", "9.0"), ("b", "Solved", "2.0")])
        self._table(b, [("a", "Solved", "3.0"), ("b", "Solved", "2.0")])
        assert run(["profile", "--results", str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "'a'" in captured.err
        assert str(a) in captured.err

    def test_empty_table_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        assert run(["profile", "--results", str(empty)]) == 1
        assert capsys.readouterr().err == f"error: {empty}: empty results table\n"

    def test_bad_table_exits_1(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("nope\n")
        assert run(["profile", "--results", str(bad)]) == 1

    def test_table_not_utf8_exits_1(self, tmp_path, capsys):
        good, bad = tmp_path / "a.tsv", tmp_path / "bad.tsv"
        self._table(good, [("p1", "Solved", "1.0")])
        bad.write_bytes(b"instance\tstatus\ttime_s\np\xff\tSolved\t1.0\n")
        assert run(["profile", "--results", str(bad), str(good)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: not UTF-8 (invalid start byte)\n"

    @pytest.mark.parametrize("row", ["p1\tSolved", "p1\tSolved\tfast", "p1\tSolved\tnan",
                                     "p1\tSolved\t0", "p1\tSolved\t-1"])
    def test_bad_row_exits_1(self, row, tmp_path, capsys):
        table = tmp_path / "a.tsv"
        table.write_text(f"instance\tstatus\ttime_s\n{row}\n")
        assert run(["profile", "--results", str(table)]) == 1
        assert "bad row" in capsys.readouterr().err
