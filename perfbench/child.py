"""Run the quantdist CLI as ``python -m quantdist.cli`` would, then report
this process's peak RSS as the last line on stderr.

    python3 perfbench/child.py extract corpus.txt -o records.txt

The benchmark cannot take a child's peak from ``wait4``: Linux carries the
parent's high-water mark over fork and exec into the child's ``ru_maxrss``,
so every child would read at least the parent's size. ``VmHWM`` belongs to
the address space that exec created.
"""

from __future__ import annotations

import atexit
import resource
import runpy
import sys

PEAK_TAG = "perfbench-peak-rss-kb"


def peak_rss_kb() -> int:
    """Peak resident set of this process in KiB (VmHWM where /proc has it)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _report_peak() -> None:
    sys.stderr.write(f"\n{PEAK_TAG} {peak_rss_kb()}\n")


if __name__ == "__main__":
    atexit.register(_report_peak)
    runpy.run_module("quantdist.cli", run_name="__main__", alter_sys=True)
