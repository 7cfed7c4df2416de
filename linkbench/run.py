"""Run one workload of the linkage benchmark.

    python3 linkbench/run.py --workload two-party --seed 1 --seconds 20 --trace 0

Builds the program and the benchmark from source (see build.py), then runs
one local-mode Spark JVM on the workload. Progress goes to stderr; the last
line of stdout is the JSON result. Run it from the root of the repository.
"""

import argparse
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("two-party", "ppjoin")
CORES = 2
SHUFFLE_PARTITIONS = 8
HEAP = "3g"

# Java 17 module openings that spark-submit would otherwise add.
JAVA_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def main():
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    try:
        classpath = build.build()
    except build.BuildError as e:
        print(f"[linkbench] build failed: {e}", file=sys.stderr)
        return 1

    # everything the JVM writes stays under the build directory
    work = os.path.join(build.OUT, "run")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cores = min(CORES, os.cpu_count() or 1)
    env = dict(os.environ,
               SPARK_MASTER=f"local[{cores}]",
               SPARK_SHUFFLE_PARTITIONS=str(SHUFFLE_PARTITIONS),
               SPARK_LOCAL_DIRS=os.path.join(work, "spark-local"),
               SPARK_LOCAL_IP="127.0.0.1")
    # a fixed-size heap and the stop-the-world collector keep collection
    # pauses small and alike from run to run
    cmd = [build.java_bin(), f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC",
           "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}",
           "-Dspark.ui.enabled=false",
           "-Dlog4j2.configurationFile=" + os.path.join(build.BENCH_DIR, "conf", "log4j2.properties"),
           *JAVA_OPTS,
           "-cp", os.pathsep.join(classpath + [os.path.join(build.spark_jars(), "*")]),
           "linkbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-dir", os.path.join(build.OUT, "trace")]
    # a terminated runner must not leave the JVM behind
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, env=env, cwd=work)
    try:
        code = proc.wait()
    except BaseException:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        raise
    return code


if __name__ == "__main__":
    sys.exit(main())
