#!/usr/bin/env python3
"""Build the perfbench Go benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-day --seed 1 --seconds 15 --trace 0

Every argument is passed to the benchmark binary. The build and its Go
caches live under .bench_build/ at the repository root (or under
$CARGO_TARGET_DIR when that is set), so the benchmark reads and writes
nothing outside the checkout. The launcher replaces itself with the
benchmark process, passing the launch time so the binary can count process
start-up in setup_s.
"""

import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "internal"))):
        sys.stderr.write("perfbench: %s holds no Go module with internal/; "
                         "run from a full checkout of the repository\n" % ROOT)
        return 2
    go = shutil.which("go")
    if go is None:
        sys.stderr.write("perfbench: no go toolchain on PATH\n")
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOTMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build_dir, "config"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    binary = os.path.join(build_dir, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=BENCH_DIR, env=env)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2

    args = [binary] + sys.argv[1:] + [
        "--span-dir", os.path.join(build_dir, "spans"),
        "--spawn-ns", str(time.time_ns()),
    ]
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
