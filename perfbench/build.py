"""Build file of the benchmark.

Compiles the repository's main Scala sources together with the benchmark's
own sources (perfbench/src) into .bench_build/perfbench/classes, using the
Scala compiler that ships in Spark's jars. No sbt, no dependency resolution:
the only inputs are the sources in the checkout and $SPARK_HOME/jars.

    python3 perfbench/build.py        # builds if any source changed

A build is reused while the hash of every compiled source is unchanged.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_SRC = ROOT / "perfbench" / "src"
MAIN_SRC = ROOT / "src" / "main" / "scala"
OUT = ROOT / ".bench_build" / "perfbench"
CLASSES = OUT / "classes"
STAMP = OUT / "build.stamp"


class BuildError(Exception):
    pass


def spark_jars():
    """Jars of the Spark distribution named by $SPARK_HOME."""
    home = os.environ.get("SPARK_HOME")
    jars = sorted((pathlib.Path(home) / "jars").glob("*.jar")) if home else []
    if not jars:
        raise BuildError("no Spark jars found; set SPARK_HOME to a Spark distribution")
    return jars


def sources():
    """Main sources (minus the DuckDB test oracle, whose driver is not
    among Spark's jars) plus the benchmark's own sources."""
    if not MAIN_SRC.is_dir():
        raise BuildError(f"main sources not found at {MAIN_SRC}")
    main = [p for p in sorted(MAIN_SRC.rglob("*.scala"))
            if "org.duckdb" not in p.read_text(encoding="utf-8")]
    bench = sorted(BENCH_SRC.rglob("*.scala"))
    if not main or not bench:
        raise BuildError("no Scala sources to compile")
    return main + bench


def source_hash(srcs):
    h = hashlib.sha256()
    for p in srcs:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def build():
    """Compile if needed; return (classpath list, build id)."""
    jars = spark_jars()
    srcs = sources()
    build_id = source_hash(srcs)
    classpath = [str(CLASSES)] + [str(j) for j in jars]
    if STAMP.is_file() and STAMP.read_text().strip() == build_id:
        return classpath, build_id

    compiler = [j for j in jars
                if j.name.startswith(("scala-compiler-", "scala-library-", "scala-reflect-"))]
    if len(compiler) != 3:
        raise BuildError("scala-compiler/library/reflect jars missing from Spark's jars")
    if CLASSES.exists():
        subprocess.run(["rm", "-rf", str(CLASSES)], check=True)
    CLASSES.mkdir(parents=True)
    STAMP.unlink(missing_ok=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData",
           "-cp", os.pathsep.join(str(j) for j in compiler),
           "scala.tools.nsc.Main", "-nowarn",
           "-d", str(CLASSES),
           "-classpath", os.pathsep.join(str(j) for j in jars)]
    cmd += [str(s) for s in srcs]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=800)
    if proc.returncode != 0:
        raise BuildError(f"scalac failed with exit code {proc.returncode}")
    STAMP.write_text(build_id + "\n")
    return classpath, build_id


if __name__ == "__main__":
    try:
        _, bid = build()
    except (BuildError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(2)
    print(f"built {bid}", file=sys.stderr)
