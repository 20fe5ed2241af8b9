#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of the repository. The first run builds the benchmark
and the repository's main project from source with sbt (perfbench/build.sbt)
and keeps the runtime classpath; later runs reuse it while the sources are
unchanged. Each run forks one JVM with a pinned heap, writes its run record
and result to perfbench/out/, and prints the JVM's output, the full run
record and last the JSON result. `--smoke` runs every workload at tiny sizes,
untraced and traced, and checks that each prints every metric.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
OUT = os.path.join(HERE, "out")
TMP = os.path.join(OUT, "tmp")

WORKLOADS = ["ivf-ads-420", "exact-bond-128", "spark-bond-128"]
HEAP = "-Xmx3g"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Inputs of the build: a change to any of them triggers a rebuild.
SOURCES = ["build.sbt", "project", "src/main", "jobs", "perfbench/build.sbt",
           "perfbench/project/build.properties", "perfbench/src"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("perfbench: " + msg)
    sys.exit(code)


def source_digest():
    h = hashlib.sha256()
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path)
            if "target" not in os.path.relpath(d, path).split(os.sep) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, cwd, env, timeout, stdout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=None,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(digest):
    """Compile with sbt unless the sources are unchanged since the last build."""
    stamp = os.path.join(TARGET, "build-digest.txt")
    cp_file = os.path.join(TARGET, "classpath.txt")
    opts_file = os.path.join(TARGET, "jvm-options.txt")
    if all(os.path.exists(p) for p in (stamp, cp_file, opts_file)):
        with open(stamp) as fh:
            if fh.read().strip() == digest:
                return cp_file, opts_file
    os.makedirs(TMP, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    sbt_opts = env.get("SBT_OPTS") or (
        "-Dsbt.override.build.repos=true -Dsbt.offline=true -Dsbt.repository.config="
        + os.path.expanduser("~/.sbt/repositories"))
    env["SBT_OPTS"] = sbt_opts + " -Xmx3g -Djava.io.tmpdir=" + TMP
    log("perfbench: building with sbt (first run in this checkout)")
    t0 = time.time()
    # sbt's output goes to stderr so that stdout carries only the result.
    code, _ = run_bounded(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeLaunch"],
                          HERE, env, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        fail("sbt build failed with exit code %d" % code)
    with open(stamp, "w") as fh:
        fh.write(digest + "\n")
    log("perfbench: built in %.0f s" % (time.time() - t0))
    return cp_file, opts_file


def host_record():
    rec = {"nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as fh:
            rec["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), None)
    except OSError:
        rec["cpu_model"] = None
    # Per-core cache sizes as the kernel reports them, e.g. {"L2": "2048K"}.
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            def read(field):
                with open(os.path.join(base, index, field)) as fh:
                    return fh.read().strip()
            if read("type") in ("Unified", "Data"):
                caches["L" + read("level")] = read("size")
    except OSError:
        pass
    rec["caches"] = caches
    return rec


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def run_jvm(cp_file, opts_file, jvm_args):
    with open(cp_file) as fh:
        classpath = os.pathsep.join(line.strip() for line in fh if line.strip())
    with open(opts_file) as fh:
        # The main project's options fall back to a heap larger than many
        # hosts have; the benchmark pins its own.
        opts = [line.strip() for line in fh if line.strip() and not line.startswith("-Xmx")]
    os.makedirs(TMP, exist_ok=True)
    env = dict(os.environ)
    env.pop("SPARK_LOCAL_DIRS", None)
    cmd = ["java"] + opts + [HEAP, "-Xms1g", "-Djava.io.tmpdir=" + TMP,
                             "-Dlog4j.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
                             "-cp", classpath, "perfbench.Main"] + jvm_args
    code, out = run_bounded(cmd, ROOT, env, RUN_TIMEOUT_S, subprocess.PIPE)
    return code, out.decode("utf-8", "replace").splitlines()


def parse_result(lines):
    """The JVM's last line must be the result object; return it or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    ok = (isinstance(result, dict)
          and set(result) == {"correct", "attempted", "failed", "metrics"}
          and isinstance(result["metrics"], dict))
    return result if ok else None


def run_workload(build_out, digest, workload, seed, seconds, trace, smoke=False):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--smoke"] if smoke else [])
    code, lines = run_jvm(*build_out, args)
    result = parse_result(lines)
    if code != 0 or result is None:
        for line in lines:
            log(line)
        fail("workload %s exited with code %d without a result" % (workload, code))
    record = {"host": host_record(), "git_rev": git_rev(), "source_digest": digest,
              "command": ["python3", "perfbench/run.py"] + args}
    for line in lines:
        if line.startswith("record "):
            record.update(json.loads(line[len("record "):]))
    os.makedirs(OUT, exist_ok=True)
    name = "%s-seed%s-trace%s%s.json" % (workload, seed, trace, "-smoke" if smoke else "")
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    return lines, record, result


def smoke(build_out, digest, expected):
    t0 = time.time()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, _, result = run_workload(build_out, digest, workload, 1, 2, trace, smoke=True)
            want = expected[trace]
            missing = [m for m in want if m not in result["metrics"]]
            print("%-15s trace=%d correct=%s attempted=%d failed=%d metrics=%s" % (
                workload, trace, result["correct"], result["attempted"], result["failed"],
                ",".join(result["metrics"])))
            if missing or not result["correct"]:
                ok = False
                print("  missing metrics: %s" % missing if missing else "  incorrect")
    print("smoke %s in %.0f s" % ("passed" if ok else "FAILED", time.time() - t0))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if not a.smoke and a.workload is None:
        p.error("--workload is required")

    for rel in ("build.sbt", "src/main/scala"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail("no %s at %s: run from the root of a checkout of the repository" % (rel, ROOT), 2)

    digest = source_digest()
    build_out = build(digest)
    if a.smoke:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        expected = {0: [m["name"] for m in spec["end_to_end"]],
                    1: [m["name"] for m in spec["per_layer"]]}
        sys.exit(0 if smoke(build_out, digest, expected) else 1)

    lines, record, result = run_workload(build_out, digest, a.workload, a.seed, a.seconds, a.trace)
    for line in lines[:-1]:
        print("record " + json.dumps(record, sort_keys=True) if line.startswith("record ") else line)
    print(lines[-1])


if __name__ == "__main__":
    main()
