"""Run one orbitcalc command in this process, as the `orbitcalc` script does.

    python3 perfbench/child.py REPORT TRACE -- ARGS...

Writes to REPORT, as JSON, the CLOCK_MONOTONIC time at which orbitcalc.cli
finished importing (before arguments are parsed) and the process's peak
RSS.  TRACE is "-" for a plain run, or a path prefix under which the traced
run saves its spans and counters.
"""

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def peak_rss_kb():
    """VmHWM of this process image.  The parent's rusage cannot give it: a
    child's ru_maxrss also counts the parent's pages at fork."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return None


def main():
    report, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: child.py REPORT TRACE -- ARGS...")
    sys.path.insert(0, SRC)
    import orbitcalc.cli as cli
    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    rec = None
    try:
        if trace != "-":
            sys.dont_write_bytecode = True
            import tracer
            rec = tracer.install()
        return cli.main(argv)
    finally:
        if rec is not None:
            rec.write(trace)
        with open(report, "w") as fh:
            json.dump({"imported": imported, "peak_rss_kb": peak_rss_kb()}, fh)


if __name__ == "__main__":
    sys.exit(main())
