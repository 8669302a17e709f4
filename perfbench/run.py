#!/usr/bin/env python3
"""Build and run the simulator-cost benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload gups-dv --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds perfbench into .bench_build/,
keeping Go's build cache and configuration there as well, then runs it with
the same arguments. The last line of standard output is the result; trace
files of --trace 1 go to .bench_build/trace/.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 600  # a cold build compiles the standard library too
RUN_TIMEOUT_S = 175


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group and
    wait for it. Returns the exit code, or None on timeout."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        return None
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise


def main():
    # A plain SIGTERM would end this script without stopping the child's
    # process group; turn it into an exit that does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s: run from a full checkout" % ROOT, file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    for d in (env["GOCACHE"], env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    rc = run(["go", "build", "-o", BIN, "."], BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=sys.stderr)
    if rc != 0:
        print("perfbench: build failed" if rc is not None else "perfbench: build timed out", file=sys.stderr)
        return 1
    args = sys.argv[1:] + ["--out", os.path.join(BUILD, "trace")]
    rc = run([BIN] + args, RUN_TIMEOUT_S, cwd=ROOT)
    if rc is None:
        print("perfbench: run timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
