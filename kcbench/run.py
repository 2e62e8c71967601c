#!/usr/bin/env python3
"""Runs one k-clique benchmark workload and prints its result line.

    python3 kcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The first run in a checkout builds the
benchmark and the repository's root project from source with sbt (outputs in
`target/` directories and `.bench_build/`); later runs reuse that build while
the sources are unchanged. Each run is one fresh JVM. Its last line on
stdout is the result object; see kcbench/README.md for the metrics.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time
import json

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "kcbench")
BUILD_TIMEOUT_S = 720
# The JVM's deadline grows with the budget: a timed phase runs past it by up
# to its minimum samples, and set-up, warm-ups and a traced pass (up to
# ~25 s on the Spark workload) add a fixed part. It never passes the cap,
# so a run ends within 180 s after its build.
DEADLINE_MARGIN_S = 60
DEADLINE_PER_BUDGET_S = 4
DEADLINE_CAP_S = 170
# A fixed heap: the largest run (the traced listing on the WK stand-in
# allocates ~7 GB of short-lived clique copies, or a local Spark session)
# stays well inside it. The parallel collector runs no concurrent GC threads
# beside the caller.
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC"]


def fail(msg):
    print(f"kcbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, cwd, timeout, env=None, stdout=None, stderr=None):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=stderr,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} exceeded {timeout:.0f} s")
    return proc.returncode, out


def source_files():
    """Everything the build reads: the root build and sources, and the benchmark's."""
    roots = [os.path.join(ROOT, d) for d in ("build.sbt", "project", "src/main", "jobs")]
    roots += [os.path.join(HERE, d) for d in ("build.sbt", "project", "src/main")]
    files = []
    for r in roots:
        if os.path.isfile(r):
            files.append(r)
        for dirpath, dirnames, names in os.walk(r):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "project"))
            files += [os.path.join(dirpath, n) for n in sorted(names)]
    return files


def build():
    """The runtime classpath, and whether it had to be built because a
    source changed (or nothing was built yet)."""
    digest = hashlib.sha256()
    for f in source_files():
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    stamp = digest.hexdigest()
    cp_file = os.path.join(BUILD_DIR, "classpath")
    stamp_file = os.path.join(BUILD_DIR, "stamp")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                with open(cp_file) as fh:
                    return fh.read(), False
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    log = os.path.join(BUILD_DIR, "build.log")
    with open(log, "w") as fh:
        code, out = run_group(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
             "compile", "export Runtime/fullClasspath"],
            HERE, BUILD_TIMEOUT_S, env=env, stdout=subprocess.PIPE, stderr=fh)
    out = out.decode()
    with open(log, "a") as fh:
        fh.write(out)
    lines = [l for l in out.splitlines() if l.strip() and not l.startswith("[")]
    if code != 0 or not lines:
        sys.stderr.write(out[-4000:])
        fail(f"build failed (exit {code}); log in {os.path.relpath(log, ROOT)}")
    classpath = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(classpath)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return classpath, True


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    for need in ("build.sbt", os.path.join("src", "main", "scala")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from the root of a repository checkout")

    classpath, built = build()
    # A run that built gets the whole deadline after its build.
    deadline = min(DEADLINE_CAP_S, DEADLINE_MARGIN_S + DEADLINE_PER_BUDGET_S * args.seconds)
    if not built:
        deadline -= time.monotonic() - start

    tmp = os.path.join(ROOT, ".bench_build", "tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", *JVM_OPTS, f"-Djava.io.tmpdir={tmp}", f"-Dkcbench.gitSha={git_sha()}",
           "-cp", classpath, "kcbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        code, out = run_group(cmd, ROOT, deadline, stdout=subprocess.PIPE)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out = out.decode()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if code != 0 or not ok:
        sys.stderr.write(out)
        fail(f"benchmark JVM exited {code} without a result")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
