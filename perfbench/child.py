"""One fresh cellroll CLI run, as a user would make it, plus a probe record.

Usage: python3 perfbench/child.py RECORD plain|traced CELLROLL-ARGS...

Imports cellroll from ``src/`` of the checkout (no install step), wraps it
(see probe.py), calls ``cellroll.cli.main`` with CELLROLL-ARGS, writes the
probe's JSON record and the peak resident memory to RECORD, and exits with
the CLI's exit code.
"""
import json
import os
import sys


def main() -> int:
    record, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(1, os.path.join(root, "src"))
    import probe
    import cellroll.cli

    p = probe.Probe(traced=(mode == "traced"))
    p.install()
    code = cellroll.cli.main(cli_args)
    out = p.record()
    out["peak_rss_kb"] = _peak_rss_kb()
    with open(record, "w") as fh:
        json.dump(out, fh)
    return code


def _peak_rss_kb():
    # VmHWM of this program image; the parent's wait4 ru_maxrss would also
    # count the parent's pages that the child carried until exec
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return None


if __name__ == "__main__":
    sys.exit(main())
