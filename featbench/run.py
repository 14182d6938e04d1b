#!/usr/bin/env python3
"""FeatAug search-loop benchmark.

Run from the repository root:

    python3 featbench/run.py --workload tmall-cold --seed 0 --seconds 10 --trace 0

It builds the program's sources together with the benchmark (sbt, offline)
into .bench_build/ when they changed since the last build, then runs one
workload in a fresh JVM. The last line of standard output is the JSON result;
build and Spark logs go to standard error. Workloads and metrics are defined
in BENCHMARK.json and featbench/src/main/scala/featbench/Main.scala.
"""

import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "featbench")
PROGRAM = os.path.join(ROOT, "src", "main", "scala")
BUILD = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(BUILD, "featbench", "classpath.txt")
DIGEST = os.path.join(BUILD, "featbench", "source.sha256")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"featbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Hash of every file the build reads from the checkout."""
    h = hashlib.sha256()
    tops = [PROGRAM, os.path.join(BENCH, "src"), os.path.join(BENCH, "build.sbt"),
            os.path.join(BENCH, "project", "build.properties")]
    for top in tops:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kwargs):
    """Run cmd in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(digest):
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
    if "SBT_OPTS" not in env and os.path.isfile(repos):
        env["SBT_OPTS"] = (f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos} "
                           "-Dsbt.offline=true")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           f"-Dsbt.global.base={os.path.join(BUILD, 'sbt-global')}",
           f"-Dsbt.ivy.home={os.path.join(BUILD, 'ivy')}",
           "writeClasspath"]
    code = run_bounded(cmd, BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=sys.stderr)
    if code != 0 or not os.path.isfile(CLASSPATH):
        fail(f"build failed (sbt exit code {code})")
    with open(DIGEST, "w") as f:
        f.write(digest)


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    # Turn SIGTERM into SystemExit so run_bounded kills the JVM's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(PROGRAM, "repro")):
        fail("program sources (src/main/scala/repro) not found; run from the repository root")
    digest = source_digest()
    built = os.path.isfile(DIGEST) and open(DIGEST).read() == digest and os.path.isfile(CLASSPATH)
    if not built:
        build(digest)
    with open(CLASSPATH) as f:
        classpath = f.read().strip()
    scratch = os.path.join(BUILD, "run")
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # A fixed heap and the throughput collector: with G1 and a growing heap,
    # sweep times varied twice as much between runs.
    cmd = ["java", "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", f"-Djava.io.tmpdir={tmp}", f"-Dfeatbench.scratch={scratch}",
           f"-Dfeatbench.revision={git_revision()}", f"-Dfeatbench.source={digest}",
           "-cp", classpath, "featbench.Main"] + sys.argv[1:]
    sys.stdout.flush()
    sys.exit(run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT))


if __name__ == "__main__":
    main()
