#!/usr/bin/env python3
"""Build and run the NeaTS benchmark.

    python3 perfbench/run.py --workload paper|offset --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run builds the program and the
benchmark from source with sbt (the build is reused while no source file
changes); every run then starts one JVM for one workload. The last line of
standard output is the result as one JSON object. Build output, Spark tables
and span files stay under `.bench_build/` in the checkout.
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
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper", "offset")

# A fixed, pre-touched heap on transparent huge pages, and a stop-the-world
# collector with two threads: no heap resizing, page faults or concurrent GC
# work while calls are timed. Huge pages also fix which cache sets a
# structure maps to, which with 4 KiB pages changes from run to run.
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch", "-XX:+UseTransparentHugePages",
            "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2", "-XX:-UsePerfData"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads, as paths relative to the checkout."""
    roots = ["build.sbt", "project", "src/main", "jobs", "perfbench/build.sbt",
             "perfbench/project", "perfbench/src"]
    found = []
    for r in roots:
        p = os.path.join(ROOT, r)
        if os.path.isfile(p):
            found.append(r)
        for d, dirs, files in os.walk(p):
            dirs[:] = [x for x in dirs if x not in ("target", "project")]
            found += [os.path.relpath(os.path.join(d, f), ROOT) for f in files]
    return sorted(set(found))


def stamp():
    h = hashlib.sha256()
    for f in sources():
        h.update(f.encode() + b"\0")
        with open(os.path.join(ROOT, f), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def classpath():
    """Builds with sbt unless the last build saw the same sources."""
    for need in ("build.sbt", "src/main/scala"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found next to perfbench/: run from a checkout of the repository")
    if shutil.which("sbt") is None:
        fail("sbt not found on PATH")
    cp_file, stamp_file = os.path.join(OUT, "classpath.txt"), os.path.join(OUT, "stamp.txt")
    want = stamp()
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == want:
                with open(cp_file) as cf:
                    return cf.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "export Runtime/fullClasspath"]
    try:
        out = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE,
                             stdin=subprocess.DEVNULL, timeout=840, text=True)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(out.stdout)
        fail("build failed")
    os.makedirs(OUT, exist_ok=True)
    with open(cp_file, "w") as fh:
        fh.write(lines[-1])
    with open(stamp_file, "w") as fh:
        fh.write(want)
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    cp = classpath()
    work = os.path.join(OUT, "work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, *JVM_OPTS, f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--work", work]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                             timeout=170, text=True)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark exited with code {run.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        fail("malformed result")
    print(lines[-1])


if __name__ == "__main__":
    main()
