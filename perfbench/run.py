#!/usr/bin/env python3
"""Build and run the psv benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/psvbench.exe and bin/psv_cli.exe with dune, then runs
one workload (see perfbench/psvbench.ml).  The last line of stdout is
the JSON result.  Exits non-zero without a result when the build fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

TARGETS = ["./perfbench/psvbench.exe", "./bin/psv_cli.exe"]
BENCH = os.path.join("_build", "default", "perfbench", "psvbench.exe")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["lib", "bin", "perfbench"]:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    if not os.path.isfile("dune-project"):
        sys.stderr.write("run.py: no dune-project here; run from the root of a psv checkout\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", "."] + TARGETS,
                           capture_output=True, text=True, env=env)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        sys.stderr.write("run.py: build failed\n")
        return 2
    extra = ["--commit", source_id()]
    # The benchmark runs on the first allowed CPU and the serve-mix
    # server on the second, so client and server never compete for a
    # core and the scheduler does not migrate them.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    if len(cpus) > 1 and shutil.which("taskset"):
        extra += ["--server-cpu", str(cpus[1])]
    return subprocess.run([BENCH] + sys.argv[1:] + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
