#!/usr/bin/env python3
"""The repository benchmark: streamed replays and a served fleet, timed
end to end and layer by layer from outside the program.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds `osp-serve`, `osp-worker` and the
measuring harness (`perfbench/harness`) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the workload in
processes of its own:

* replay workloads: a reference process replays the run's jobs through the
  materialized-instance path, then the measuring process times streamed
  `run_spec` calls and checks every outcome against the reference;
* serve-fleet: the measuring process brings up `osp-serve --state-dir` over
  two `osp-worker --listen` processes and drives them in a closed loop.

With `--trace 0` the last line of standard output is the end-to-end
metrics, with `--trace 1` the per-layer ones, as one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. The full report (run
facts, layer self times, machine stamp) is written to
`.bench_out/<workload>-seed<n>-trace<t>.json`, the spans next to it. The
command exits non-zero when any output is wrong.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("replay-uniform", "replay-biregular", "serve-fleet")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# What the source stamp hashes when the checkout is not a git repository:
# the code the benchmark builds and runs.
SOURCE_PATHS = (
    "Cargo.toml",
    "Cargo.lock",
    "crates",
    "src",
    "vendor",
    "perfbench/harness",
    "perfbench/run.py",
)
SKIP_DIRS = {"target"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_child(cmd, env, timeout, cpu):
    """Runs `cmd` on one CPU, in a process group of its own, and returns
    its standard output. Whatever the outcome, the whole group is killed
    and reaped before this returns, so nothing the child started outlives
    it."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        kill_group(proc)
        raise
    kill_group(proc)
    if proc.returncode != 0:
        fail(f"{os.path.basename(cmd[0])} {cmd[1]} exited with {proc.returncode}")
    return out


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("the harness printed nothing")
    return json.loads(lines[-1])


def stamp(env):
    """Machine and source facts every report carries."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rustc = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpus_used": 1,
        "cpu_model": cpu,
        "rustc": rustc,
        "commit": commit(),
    }


def commit():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip()
            if head:
                return head
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in SOURCE_PATHS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (
        os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
        and os.path.isfile(os.path.join(ROOT, "crates", "osp-core", "Cargo.toml"))
    ):
        fail(f"{ROOT} holds no osp workspace to build")

    env = {k: v for k, v in os.environ.items() if not k.startswith("OSP_")}
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = ["cargo", "build", "--release", "--offline", "--quiet"]
    for cmd in (
        build + ["--bin", "osp-serve", "--bin", "osp-worker"],
        build + ["--manifest-path", os.path.join(HERE, "harness", "Cargo.toml")],
    ):
        try:
            result = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build failed: {e}")
        if result.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    bin_dir = os.path.join(target, "release")
    harness = os.path.join(bin_dir, "osp-perfbench")

    out_dir = os.path.join(ROOT, ".bench_out")
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # Every measured process runs on one CPU, the last one this process
    # may use. On a small virtual machine whose host deschedules vCPUs,
    # processes that wake each other across vCPUs (the served fleet) read
    # up to three times noisier run to run than on one.
    cpu = max(os.sched_getaffinity(0))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        reference = None
        if args.workload != "serve-fleet":
            reference = last_json(
                run_child([harness, "reference"] + common, env, deadline - time.monotonic(), cpu)
            )
        cmd = [harness, "measure"] + common + [
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--bin-dir", bin_dir,
            "--work-dir", work,
        ]
        if reference:
            cmd += ["--expect", reference["expect"]]
        report = last_json(run_child(cmd, env, deadline - time.monotonic(), cpu))
        spans = os.path.join(work, "spans.json")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(out_dir, base + "-spans.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "stamp": stamp(env),
        "reference": reference,
        **report,
    }
    with open(os.path.join(out_dir, base + ".json"), "w") as f:
        json.dump(full, f, indent=1)
        f.write("\n")

    s = full["stamp"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} on {s['nproc']} cpu(s), "
          f"{s['cpu_model']}, {s['rustc']}, {s['commit']}")
    for problem in report["problems"]:
        print(f"# problem: {problem}")
    layers = report.get("layers") or {}
    if layers:
        total = sum(layers.values()) or 1.0
        ranked = sorted(layers.items(), key=lambda kv: -kv[1])
        print("# self time: " + ", ".join(f"{k} {v / total:.1%}" for k, v in ranked if v > 0))
    for name, m in report["metrics"].items():
        print(f"# {name:34s} {m['value']:.6g} {m['unit']}")
    for name in ("fresh_batch_ms_p90", "cached_batch_ms_p90"):
        if name in report["info"]:
            print(f"# {name:34s} {report['info'][name]:.6g} ms (reported, not bounded)")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    sys.exit(0 if report["correct"] else 1)


if __name__ == "__main__":
    main()
