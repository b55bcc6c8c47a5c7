"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark if needed (perfbench/build.py), runs one workload in a
fresh JVM with an explicit heap, and prints the JVM's result as the last
line of standard output: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics (a layer the workload does not touch
reports 0). Exits non-zero, without a result line, on any failure.
See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import build  # noqa: E402

ROOT = build.ROOT
SPEC = ROOT / "BENCHMARK.json"
HEAP = "3g"
JVM_TIMEOUT_S = 170

# Spark on Java 17 needs these module openings (spark-submit adds them too).
JAVA_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    spec = json.loads(SPEC.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace == "1" else "end_to_end"]}

    try:
        classpath, build_id = build.build()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    out = build.OUT
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:-UsePerfData",
           "-XX:+IgnoreUnrecognizedVMOptions", f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={ROOT / 'perfbench' / 'log4j2.properties'}",
           "-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true",
           f"-Dperfbench.out={out}", f"-Dperfbench.build={build_id}",
           f"-Dperfbench.commit={git_commit()}"]
    cmd += [f"--add-opens={m}=ALL-UNNAMED" for m in JAVA_OPENS]
    cmd += ["-cp", os.pathsep.join(classpath), "repro.perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace]

    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def stop_jvm(signum, _frame):
        proc.kill()
        proc.wait()
        fail(f"stopped by signal {signum}")

    signal.signal(signal.SIGTERM, stop_jvm)
    signal.signal(signal.SIGINT, stop_jvm)
    try:
        stdout, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark JVM exceeded {JVM_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark JVM exited with code {proc.returncode}")

    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        fail("benchmark JVM printed no result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {unknown}")
    for name, unit in declared.items():
        if name not in metrics:
            if args.trace == "0":
                fail(f"end-to-end metric {name} missing")
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail(f"metric {name} has unit {metrics[name]['unit']}, declared {unit}")
    result["metrics"] = {name: metrics[name] for name in declared}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
