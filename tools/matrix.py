"""Wall time of each CLI command in fresh processes: writes BENCH_cli.json.

    python3 tools/matrix.py [--out BENCH_cli.json]

Each row is one command line, run as `python -m qpweyl ...` with the
package taken from src/ of the checkout this script sits in, and the
working directory at the checkout's root.  One warm-up round runs every row
once with PYTHONDONTWRITEBYTECODE unset, so that the byte-code caches are
written; then ROUNDS rounds run every row once each, in the same order
(round-robin), so that a slow spell of the host falls on every row alike.
A row records the median and quartiles of its timed runs in milliseconds,
from the start of the child process to its exit, its exit status and the
SHA-256 of its stdout.  A row whose status or stdout differs between runs
is an error: the script exits 1 and writes nothing.  `python -c pass` is
the reference row, a bare interpreter's start-up on the same host.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
#: Timed rounds, after the warm-up round.
ROUNDS = 7
FAMILIES = ("D5", "E6", "E7")
VERIFY = ("verify-relations", "verify-theorem", "verify-gauge")
#: (id, arguments after the interpreter); the qpweyl rows are `-m qpweyl ...`.
ROWS = (
    [(f"{cmd} {fam}{' --exact' * exact}",
      ["-m", "qpweyl", cmd, "--family", fam, *(["--exact"] * exact)])
     for cmd in VERIFY for fam in FAMILIES for exact in (False, True)]
    + [(f"apply D5 (s2 s3 s1 s4)^{n} f",
        ["-m", "qpweyl", "apply", "--family", "D5", "--word", f"(s2 s3 s1 s4)^{n}",
         "--expr", "f"]) for n in (2, 4, 6)]
    + [(f"evolve D5 {steps} steps",
        ["-m", "qpweyl", "evolve", "--family", "D5", "--params", "sample-params.json",
         "--steps", str(steps)]) for steps in (5, 20)]
    + [("list", ["-m", "qpweyl", "list"]),
       ("python -c pass", ["-c", "pass"])]
)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def run_once(args, env) -> tuple[float, int, str]:
    """(milliseconds, exit status, SHA-256 of stdout) of one fresh process."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    elapsed = (perf_counter() - start) * 1000
    return elapsed, proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def stamp() -> dict:
    def git(*argv):
        try:
            return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None
    status = git("status", "--porcelain", "--untracked-files=no")
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"python": platform.python_version(), "nproc": nproc,
            "git_sha": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def measure() -> dict:
    env = child_env()
    outcomes = {row_id: set() for row_id, _ in ROWS}
    times: dict[str, list[float]] = {row_id: [] for row_id, _ in ROWS}
    for k in range(ROUNDS + 1):   # round 0 is the warm-up: it writes byte-code caches
        for row_id, args in ROWS:
            ms, status, digest = run_once(args, env)
            outcomes[row_id].add((status, digest))
            if k:
                times[row_id].append(ms)
    unstable = [row_id for row_id, seen in outcomes.items() if len(seen) != 1]
    if unstable:
        raise SystemExit(f"status or stdout differs between runs: {', '.join(unstable)}")
    rows = []
    for row_id, args in ROWS:
        (status, digest), = outcomes[row_id]
        q1, median, q3 = statistics.quantiles(times[row_id], n=4, method="inclusive")
        rows.append({"id": row_id, "argv": args, "status": status, "stdout_sha256": digest,
                     "median_ms": round(median, 2), "q1_ms": round(q1, 2),
                     "q3_ms": round(q3, 2), "runs": len(times[row_id])})
    return {"schema": 1, "rounds": ROUNDS, "warmup_rounds": 1, "unit": "ms",
            "stamp": stamp(), "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cli.json")
    args = parser.parse_args(argv)
    doc = measure()
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for row in doc["rows"]:
        print(f"{row['id']:<34} {row['median_ms']:9.1f} ms "
              f"[{row['q1_ms']:.1f}-{row['q3_ms']:.1f}]  exit {row['status']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
