"""Loaded at start-up by benchmark children (this directory is on their
PYTHONPATH): at exit, report the process's own peak resident memory.

The parent's ``wait4``/``RUSAGE_CHILDREN`` figures include the parent's
size from before ``exec``, so the child reads ``VmHWM`` itself.  The
benchmark process imports ``peak_rss_kb`` from here for its own figure.
"""

import atexit
import sys


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "sitecustomize":
    atexit.register(lambda: sys.stderr.write(f"bench-vmhwm-kb {peak_rss_kb()}\n"))
