#!/usr/bin/env python3
"""Build the benchmark suite from source and run one workload.

    python3 bench/suite/run.py --workload W --seed S --seconds N --trace 0|1

Builds bench/suite/suite.exe with dune in the checkout that holds this file
(build progress goes to standard error), then runs it once for workload W.
With --trace 1 the run reports the per-layer metrics and writes its spans to
bench/suite/traces/W-S.json.  The last line of standard output is the suite's
JSON result; the exit code is the suite's, or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The shared dune cache lives outside the checkout; keep every write
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ROOT, "--display", "quiet",
             "./bench/suite/suite.exe"]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"run.py: cannot run dune: {e}")
    if built.returncode != 0:
        sys.exit("run.py: build failed")

    cmd = [os.path.join(ROOT, "_build", "default", "bench", "suite", "suite.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        traces = os.path.join(HERE, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace", os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
