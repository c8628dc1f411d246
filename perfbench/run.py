#!/usr/bin/env python3
"""Build and run the end-to-end private-inference benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds perfbench/ (and the library sources it links from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild incrementally. Build output goes to stderr, so the last line of
standard output is the benchmark's JSON result. A traced run writes its
Chrome trace-event file under the build directory's traces/.
"""
import os
import signal
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def main() -> int:
    here = Path(__file__).resolve().parent
    root = Path.cwd()
    build = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))

    for cmd in (
        ["cmake", "-S", str(here), "-B", str(build), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build), "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1

    args = sys.argv[1:]
    extra = []
    if "--trace-out" not in args:
        traces = build / "traces"
        traces.mkdir(exist_ok=True)
        opts = dict(zip(args[::2], args[1::2]))
        name = f"{opts.get('--workload', 'run')}-seed{opts.get('--seed', '0')}.json"
        extra = ["--trace-out", str(traces / name)]
    # Own process group, so a stuck run is stopped together with the shard
    # workers it forked.
    proc = subprocess.Popen([str(build / "flash_perfbench"), *args, *extra],
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
