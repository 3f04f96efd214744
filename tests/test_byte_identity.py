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


class TestConditions:
    def test_header_round_trips_and_is_not_a_hash(self):
        here = byte_identity.conditions()
        assert set(here) == {"numpy", "blas", *byte_identity.THREAD_VARIABLES}
        lines = [f"# {name}: {value}\n" for name, value in here.items()] + [f"{A}  x.csv\n"]
        assert byte_identity.read_conditions(lines) == here
        assert byte_identity.read_hashes(lines) == {"x.csv": A}

    def test_other_thread_count_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        there = {**byte_identity.conditions(), "OPENBLAS_NUM_THREADS": "2"}
        hashes = tmp_path / "hashes.txt"
        hashes.write_text(
            "".join(f"# {name}: {value}\n" for name, value in there.items()) + f"{A}  x.csv\n"
        )
        out = tmp_path / "out"
        assert byte_identity.main([str(out), "--compare", str(hashes)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"{hashes} was taken under other conditions "
            "(OPENBLAS_NUM_THREADS 2 there, 1 here); its hashes do not compare\n"
        )
        assert not out.exists()


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
