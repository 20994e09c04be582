#!/usr/bin/env python3
"""Build and run the riskroute end-to-end benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload report-all --seed 1 --seconds 8 --trace 0

Workloads: report-all, continental-route, storm-replay (see the comment
at the top of perfbench/main.ml). The script builds perfbench/main.exe
with dune, runs it with a clean RISKROUTE_* environment and passes its
standard output through; the last line is the result JSON. It exits
non-zero without a result when the build or the run fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
TIMEOUT_S = 175


def source_rev():
    """The git revision when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune", ".py")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def main():
    # No shared dune cache: the build reads and writes inside the tree.
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "./perfbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    os.makedirs(STATE, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("RISKROUTE_")}
    # The runtime's event ring files (traced runs) go under the state dir.
    env["OCAML_RUNTIME_EVENTS_DIR"] = STATE
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--rev", source_rev()] + sys.argv[1:]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % TIMEOUT_S)
    if run.returncode != 0:
        sys.exit("perfbench: run failed with code %d" % run.returncode)
    sys.stdout.buffer.write(run.stdout)


if __name__ == "__main__":
    main()
