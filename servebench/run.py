#!/usr/bin/env python3
"""Builds and runs the DSSP serving benchmark.

Run from the repository root:

    python3 servebench/run.py --workload browse_hits --seed 1 --seconds 10 --trace 0

The first call configures and builds servebench/ (which compiles ../src) in
$CARGO_TARGET_DIR/servebench, or .bench_build/servebench when that variable is
unset; later calls rebuild only what changed. Build output goes to stderr; the
benchmark's report goes to stdout and ends with one JSON line. The exit code is
the benchmark's: 0 only when every output was correct.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the sources the benchmark compiles (a checkout without
    git metadata still identifies its code this way)."""
    digest = hashlib.sha256()
    for top in ("src", "servebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "none"


def configured_source(build_dir):
    """The source directory an existing build directory was configured for."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    source = configured_source(build_dir)
    if source is not None and os.path.realpath(source) != os.path.realpath(HERE):
        # A build directory copied from another checkout would keep building
        # that checkout's sources.
        shutil.rmtree(build_dir)
        source = None
    if source is None:
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", build_dir, "--target", "servebench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "servebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"repository sources not found at {os.path.join(ROOT, 'src')}")
    if not shutil.which("cmake"):
        fail("cmake not found")

    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target_root, "servebench"))
    binary = build(build_dir)
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", args.trace,
               "--commit", git_commit(), "--source-digest", source_digest(),
               "--spans-dir", spans_dir,
               "--sim-reference", os.path.join(HERE, "reference", "sim_outputs.txt")]
    sys.stdout.flush()
    with subprocess.Popen(command) as proc:
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
