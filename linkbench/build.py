"""Build file of the linkage benchmark.

Compiles the program (the repository's `src/main/scala` and `jobs/`) and the
benchmark's own Scala sources with the Scala compiler that ships in the Spark
distribution, so a plain checkout builds without sbt or network access.
Outputs go under `.bench_build/` at the root of the checkout and are reused
while the sources they came from are unchanged (keyed by a content hash).

    python3 linkbench/build.py        # build, print the classpath
"""

import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(ROOT, ".bench_build")
PROGRAM_SOURCES = ["src/main/scala", "jobs"]
BENCH_SOURCES = ["linkbench/src/main/scala"]


class BuildError(Exception):
    pass


def spark_jars():
    """Directory of the Spark jars: $SPARK_HOME/jars, else next to spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        raise BuildError("Spark not found: set SPARK_HOME or put spark-submit on PATH")
    return jars


def java_bin():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("java not found: set JAVA_HOME or put java on PATH")
    return exe


def scala_files(dirs):
    files = []
    for d in dirs:
        top = os.path.join(ROOT, d)
        if not os.path.isdir(top):
            raise BuildError(f"source directory missing: {d}")
        for base, _, names in os.walk(top):
            files += [os.path.join(base, n) for n in names if n.endswith(".scala")]
    if not files:
        raise BuildError(f"no Scala sources under {', '.join(dirs)}")
    return sorted(files)


def digest(files, extra=""):
    h = hashlib.sha256(extra.encode())
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def compile_into(name, files, classpath, extra_key=""):
    """Compile `files` into .bench_build/<name>-<hash>; reuse it if present."""
    dest = os.path.join(OUT, f"{name}-{digest(files, extra_key)}")
    if os.path.isdir(dest):
        return dest
    tmp = dest + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [java_bin(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}",
           "-cp", os.path.join(spark_jars(), "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", tmp]
    if classpath:
        cmd += ["-classpath", os.pathsep.join(classpath)]
    print(f"[build] compiling {len(files)} {name} sources", file=sys.stderr, flush=True)
    if subprocess.run(cmd + files, stdout=sys.stderr).returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError(f"compiling {name} failed")
    os.rename(tmp, dest)
    return dest


def build():
    """Return the classpath entries (program classes, bench classes, resources)."""
    os.makedirs(OUT, exist_ok=True)
    program = compile_into("program", scala_files(PROGRAM_SOURCES), [])
    bench = compile_into("bench", scala_files(BENCH_SOURCES), [program],
                         extra_key=os.path.basename(program))
    return [bench, program, os.path.join(BENCH_DIR, "conf")]


if __name__ == "__main__":
    try:
        print(os.pathsep.join(build()))
    except BuildError as e:
        print(f"[build] {e}", file=sys.stderr)
        sys.exit(1)
