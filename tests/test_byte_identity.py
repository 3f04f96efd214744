import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "byte_identity.py"
spec = importlib.util.spec_from_file_location("byte_identity", SCRIPT)
byte_identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(byte_identity)

A, B, C, D = ("a" * 64, "b" * 64, "c" * 64, "d" * 64)


def printout(table):
    return [f"{digest}  {rel}\n" for rel, digest in sorted(table.items())]


class TestCompare:
    def test_identical_lists_have_no_difference(self):
        table = {"jcce.ckpt.json": A, "stdout/gen.txt": B}
        expected = byte_identity.read_hashes(printout(table))
        assert expected == table
        assert byte_identity.compare(expected, dict(table)) == []

    def test_changed_missing_and_extra_files_are_listed(self):
        expected = byte_identity.read_hashes(
            printout({"jcce.snnm.csv": A, "rjcce.export.csv": B, "stdout/gen.txt": C})
        )
        actual = byte_identity.read_hashes(
            printout({"jcce.snnm.csv": D, "stdout/gen.txt": C, "stdout/new file.txt": A})
        )
        assert byte_identity.compare(expected, actual) == [
            "changed  jcce.snnm.csv",
            "missing  rjcce.export.csv",
            "extra    stdout/new file.txt",
        ]

    def test_blank_lines_ignored(self):
        assert byte_identity.read_hashes(["\n", f"{A}  x.csv\n", "  \n"]) == {"x.csv": A}

    @pytest.mark.parametrize("line", [f"{A} x.csv", "abc  x.csv", A])
    def test_malformed_line_rejected(self, line):
        with pytest.raises(ValueError, match="sha256"):
            byte_identity.read_hashes([line])


def header(conditions):
    return "".join(f"# {name}: {value}\n" for name, value in conditions.items())


def one_file_pipeline(out):
    """Stands in for the CLI pipeline: one output, a.csv."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "a.csv").write_text("same")


class TestConditions:
    def test_header_round_trips_and_is_not_a_hash(self):
        pinned, unpinned = byte_identity.conditions(True), byte_identity.conditions(False)
        assert set(pinned) == {"numpy", "blas", "blas_threads"}
        assert set(unpinned) == {"numpy", "blas", *byte_identity.THREAD_VARIABLES, "cpus"}
        for here in (pinned, unpinned):
            lines = header(here).splitlines(keepends=True) + [f"{A}  x.csv\n"]
            assert byte_identity.read_conditions(lines) == here
            assert byte_identity.read_hashes(lines) == {"x.csv": A}

    def compare(self, tmp_path, monkeypatch, recorded, pinned):
        """main --compare against a printout of one_file_pipeline's bytes
        under the recorded header, with the pin found or not."""
        monkeypatch.setattr(byte_identity, "pipeline", one_file_pipeline)
        monkeypatch.setattr(byte_identity, "one_blas_thread", lambda: pinned)
        hashes = tmp_path / "hashes.txt"
        digest = byte_identity.hashlib.sha256(b"same").hexdigest()
        hashes.write_text(header(recorded) + f"{digest}  a.csv\n")
        return byte_identity.main([str(tmp_path / "out"), "--compare", str(hashes)]), hashes

    def test_pinned_printouts_compare_at_any_thread_count(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(byte_identity, "pipeline", one_file_pipeline)
        monkeypatch.setattr(byte_identity, "one_blas_thread", lambda: True)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert byte_identity.main([str(tmp_path / "first")]) == 0
        printout = capsys.readouterr().out
        assert "# blas_threads: pinned to 1\n" in printout
        assert "OPENBLAS_NUM_THREADS" not in printout
        (tmp_path / "hashes.txt").write_text(printout)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert byte_identity.main([str(tmp_path / "second"), "--compare",
                                   str(tmp_path / "hashes.txt")]) == 0
        assert capsys.readouterr().err == "1 of 1 files identical, 0 differ\n"

    def test_other_thread_count_refused(self, tmp_path, monkeypatch, capsys):
        # no thread setter found: the thread settings are conditions
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        there = {**byte_identity.conditions(False), "OPENBLAS_NUM_THREADS": "2"}
        code, hashes = self.compare(tmp_path, monkeypatch, there, pinned=False)
        assert code == 2
        assert capsys.readouterr().err == (
            f"{hashes} was taken under other conditions "
            "(OPENBLAS_NUM_THREADS 2 there, 1 here); its hashes do not compare\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_header_from_before_the_pin(self, tmp_path, monkeypatch, threads):
        # the header the script wrote before it pinned the thread count names
        # other conditions, at one thread too
        here = byte_identity.conditions(True)
        old = {"numpy": here["numpy"], "blas": here["blas"], "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": "unset", "MKL_NUM_THREADS": "unset"}
        assert self.compare(tmp_path, monkeypatch, old, pinned=True)[0] == 2


class TestExpect:
    """--expect LIST: exactly the listed paths may differ."""

    def run(self, tmp_path, monkeypatch, listed):
        # the pipeline writes a.csv and b.csv; the saved printout has other
        # bytes for a.csv only
        def pipeline(out):
            out.mkdir(parents=True, exist_ok=True)
            (out / "a.csv").write_text("new")
            (out / "b.csv").write_text("same")

        monkeypatch.setattr(byte_identity, "pipeline", pipeline)
        hashes, expect = tmp_path / "hashes.txt", tmp_path / "expected.txt"
        b_digest = byte_identity.hashlib.sha256(b"same").hexdigest()
        hashes.write_text("".join(printout({"a.csv": A, "b.csv": b_digest})))
        expect.write_text("# paths that differ on purpose\n\n" + "".join(f"{p}\n" for p in listed))
        return byte_identity.main([str(tmp_path / "out"), "--compare", str(hashes),
                                   "--expect", str(expect)])

    def test_exact_match_exits_0(self, tmp_path, monkeypatch):
        assert self.run(tmp_path, monkeypatch, ["a.csv"]) == 0

    def test_unlisted_change_exits_1(self, tmp_path, monkeypatch, capsys):
        assert self.run(tmp_path, monkeypatch, []) == 1
        assert "unlisted difference: a.csv" in capsys.readouterr().err

    def test_listed_path_that_did_not_change_exits_1(self, tmp_path, monkeypatch, capsys):
        assert self.run(tmp_path, monkeypatch, ["a.csv", "b.csv"]) == 1
        assert "listed but identical: b.csv" in capsys.readouterr().err
