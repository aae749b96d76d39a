#!/usr/bin/env python3
"""Builds and runs the dump <-> restore benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Run from the repository root. The first run configures and builds the
repository's libraries and the benchmark binary into $CARGO_TARGET_DIR
(default .bench_build); later runs only check that the build is current.
Build output goes to stderr. The binary's report goes to stdout and its
last line is the JSON result. Every run appends one provenance-stamped record
to <build dir>/records.jsonl; records are never rewritten.
"""

import datetime
import hashlib
import json
import os
import shlex
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: the repository sources (src/) are missing")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(step))
    return os.path.join(bdir, "perfbench")


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(report_line):
    """Host and build facts; the binary reports the ones only it knows."""
    prov = {
        "commit": git_commit(),
        "source_digest": source_digest(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    # provenance compiler="gcc 12.2.0" build_type=Release simd=avx2 ...
    for field in shlex.split(report_line)[1:]:
        key, _, value = field.partition("=")
        prov[key] = int(value) if value.isdigit() else value
    return prov


def main(argv):
    binary = build()
    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        raise SystemExit("perfbench: the binary printed no result (exit %d)"
                         % proc.returncode)
    result = json.loads(lines[-1])
    prov_line = next((l for l in lines if l.startswith("provenance ")), "")
    record = {
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "args": argv,
        "provenance": provenance(prov_line),
        "result": result,
    }
    records = os.path.join(build_dir(), "records.jsonl")
    with open(records, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    for line in lines[:-1]:
        print(line)
    print("record appended to " + os.path.relpath(records, os.getcwd()))
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
