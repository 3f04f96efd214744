"""Run a command and record its peak resident set size.

Usage: python scripts/peak_rss.py RECORD COMMAND [ARG ...]

Runs COMMAND, appends one Markdown list line to the file RECORD, the
command with its exit code and peak RSS in MB, and exits with the command's
exit code. The peak is resource.getrusage(RUSAGE_CHILDREN).ru_maxrss of this
process, whose only child is COMMAND (Linux reports it in KB).
"""

import resource
import subprocess
import sys

if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__.split("\n\n")[1])
    record, command = sys.argv[1], sys.argv[2:]
    code = subprocess.run(command).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    with open(record, "a", encoding="utf-8") as fh:
        fh.write(f"- `{' '.join(command)}`: exit {code}, peak RSS {peak_mb:.1f} MB\n")
    sys.exit(code)
