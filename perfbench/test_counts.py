#!/usr/bin/env python3
"""Check that the benchmark's counts repeat exactly between two runs.

    python3 perfbench/test_counts.py [WORKLOAD ...]

Runs each workload (default: both) twice untraced and twice traced,
with seed 0 and a one-second window, and fails unless both runs agree
exactly on alloc_mwords and on every per-layer count.  On fig4_1_par
the allocation count may differ by a few words: the pool's domains draw
fresh label numbers in a scheduling-dependent order, and label names of
different lengths take different numbers of words.  That is allowed up
to PAR_ALLOC_WORDS words; every other count must match exactly.  Takes
about four minutes for both workloads.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.relpath(os.path.abspath(__file__)))
WORKLOADS = ("static_check", "fig4_1_par")
EXACT_COUNTS = ("sim.dyn_instrs", "sim.minor_cycles", "sim.stall_cycles",
                "sim.trace_mb", "opt.ir_instrs", "analysis.memdep_pruned",
                "analysis.sanitize_proved_ratio")
PAR_ALLOC_WORDS = 64


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: output check failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    failures = []
    for workload in sys.argv[1:] or WORKLOADS:
        a, b = run(workload, 0), run(workload, 0)
        words = abs(a["alloc_mwords"] - b["alloc_mwords"]) * 1e6
        allowed = PAR_ALLOC_WORDS if workload == "fig4_1_par" else 0
        if words > allowed + 1e-3:
            failures.append(f"{workload}: alloc_mwords {a['alloc_mwords']} "
                            f"vs {b['alloc_mwords']}")
        a, b = run(workload, 1), run(workload, 1)
        for name in EXACT_COUNTS:
            if a[name] != b[name]:
                failures.append(f"{workload}: {name} {a[name]} vs {b[name]}")
        print(f"{workload}: counts repeat"
              + ("" if words == 0 else f" (allocation within {words:.0f} words)"))
    if failures:
        print("\n".join(failures), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
