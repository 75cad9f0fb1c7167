#!/usr/bin/env python3
"""Hamlet benchmark: builds the program with the benchmark from source, then
runs one workload in a fresh JVM.

    python3 perfbench/run.py --workload stock-regime --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Run it from the root of a checkout. The last line of standard output is the
JSON result; see perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
TARGET = os.path.join(HERE, "target")
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, "out")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
STAMP = os.path.join(TARGET, "build.stamp")
WORKLOADS = ["stock-regime", "stock-spark-batch", "stock-streaming"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
JAVA_OPTS = [
    "-Xmx3g", "-XX:+UseG1GC", "-XX:-UsePerfData",
    "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file the build reads, in a stable order."""
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for base in (PROGRAM_SRC, os.path.join(HERE, "src")):
        for d, _, names in sorted(os.walk(base)):
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def spark_home():
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    submit = shutil.which("spark-submit")
    if not submit:
        fail("no Spark distribution: set SPARK_HOME or put spark-submit on PATH")
    return os.path.dirname(os.path.dirname(os.path.realpath(submit)))


def child_env():
    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    env.pop("SPARK_LOCAL_DIRS", None)  # keep Spark's scratch files in the checkout
    if "SBT_OPTS" not in env:
        repos = os.path.expanduser("~/.sbt/repositories")
        opts = ["-Dsbt.offline=true"]
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", "-Dsbt.repository.config=" + repos]
        env["SBT_OPTS"] = " ".join(opts)
    env.setdefault("COURSIER_MODE", "offline")
    return env


def build(env, digest):
    """Compiles with sbt unless the sources are unchanged since the last build."""
    if os.path.exists(STAMP) and os.path.exists(CLASSPATH):
        with open(STAMP) as fh:
            if fh.read().strip() == digest:
                return
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "-J-Djava.io.tmpdir=" + tmp, "writeClasspath"]
    # Every JVM the sbt script starts skips the shared /tmp perf-data file.
    env = dict(env, JAVA_TOOL_OPTIONS="-XX:-UsePerfData")
    try:
        proc = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail("build failed")
    with open(STAMP, "w") as fh:
        fh.write(digest + "\n")


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def java(env, main, args):
    """Runs a JVM main class; returns its exit code. Its output passes through."""
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    cmd = ["java"] + JAVA_OPTS + ["-Djava.io.tmpdir=" + os.path.join(WORK, "tmp"),
                                  "-cp", cp, main] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run timed out")


def benchmark_json_names():
    """Workload and metric names of BENCHMARK.json, as self-check arguments."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    pairs = lambda ms: ",".join("%s:%s" % (m["name"], m["unit"]) for m in ms)
    return ["--workloads", ",".join(w["name"] for w in spec["workloads"]),
            "--end-to-end", pairs(spec["end_to_end"]), "--per-layer", pairs(spec["per_layer"])]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="check the benchmark's own result checking and counters")
    a = ap.parse_args()
    if not a.self_check and a.workload is None:
        fail("--workload is required")
    if not os.path.exists(os.path.join(PROGRAM_SRC, "repro", "hamlet", "HamletExecutor.scala")):
        fail("the program's sources (src/main/scala) are not in this checkout")
    env = child_env()
    build(env, source_hash())
    if a.self_check:
        code = java(env, "perfbench.SelfCheck", benchmark_json_names())
    else:
        code = java(env, "perfbench.Main", [
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--work", WORK, "--out", OUT,
            "--git-sha", git_sha(), "--source-hash", source_hash()])
    if code != 0:
        fail("benchmark exited with code %d" % code)


if __name__ == "__main__":
    main()
