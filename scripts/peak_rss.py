"""Run a command and record its peak resident set size, minor page faults
and wall time.

Usage: python scripts/peak_rss.py RECORD COMMAND [ARG ...]

Runs COMMAND, appends one Markdown list line to the file RECORD, the
command with its exit code, peak RSS in MB, minor page faults and wall time
in seconds, and exits with the command's exit code. The peak and the faults
are resource.getrusage(RUSAGE_CHILDREN)'s ru_maxrss (Linux reports it in KB)
and ru_minflt of this process, whose only child is COMMAND.
"""

import resource
import subprocess
import sys
import time

if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__.split("\n\n")[1])
    record, command = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    code = subprocess.run(command).returncode
    wall_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(record, "a", encoding="utf-8") as fh:
        fh.write(f"- `{' '.join(command)}`: exit {code}, peak RSS {usage.ru_maxrss / 1024:.1f} MB, "
                 f"{usage.ru_minflt} minor page faults, {wall_s:.2f} s\n")
    sys.exit(code)
