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
