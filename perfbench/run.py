"""Benchmark for dpsep: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload train-w2 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It measures the code in that checkout's
src/ and fails (exit 2, no result line) when there is none.

Each measurement runs in a fresh process (perfbench/workload.py) with
single-threaded BLAS, one process at a time. With --trace 0:
  1. SETUP_PROBES processes stop at the first timed operation, for the
     median set-up time;
  2. workload processes, each making one `dpsep train` or `dpsep separate`
     call as a user would (closed loop, one client), start one after another
     while another call of the mean length so far still fits in --seconds
     of measured calls (at least one, at most MAX_CALLS). Each checks its
     outputs outside the timed region; the first also compares them with a
     float64 run. Each process pays its own cold start, as a user's command
     does, and more processes sample more of the machine's drifting speed.
With --trace 1 one process runs two untraced calls, a call with spans and,
when training, a call under tracemalloc.

End-to-end metrics (--trace 0), medians over all samples of a run:
  step_s          wall seconds of one optimizer step in `train_loop`, from
                  `zero_grads` to the end of `Adam.step` (forward, backward,
                  clip, Adam); on separate-long, of one `tasnet.separate` call
  examples_per_s  training examples per wall second of a whole `train_loop`
                  call, validation and checkpoint writes included; on
                  separate-long, `dpsep separate` calls per wall second
                  (checkpoint load, WAV read, separate, WAV write)
  separate_rtf    wall seconds per second of audio of one `tasnet.separate`
                  call: the training and validation forwards when training
  peak_rss_mb     peak RSS of a workload process after its call, in MiB
  setup_s         process start to the first timed operation (`train_loop`
                  or `tasnet.separate`): imports, input generation, dataset
                  or checkpoint and WAV loading, model build
Per-layer metrics (--trace 1): `<layer>_s` is a layer's self time and
`<layer>_calls` its call count, per optimizer step when training and per
`dpsep separate` call otherwise; `tape.*` come from backward (0 without one);
`trace.overhead_frac` is the traced call's wall time over the untraced one's,
minus one.

Every metric in BENCHMARK.json is printed by name with its unit: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The last line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where `failed / attempted` counts failed CLI calls and failed correctness
checks against all of them. The line before it stamps the result with the
commit, the numpy and BLAS versions, the thread environment, the CPU and the
seed. The whole result, with raw samples and trace spans, is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3
MAX_CALLS = 10
DEADLINE_S = 170
# Single-threaded BLAS, and no huge-page advice from numpy: whether the kernel
# grants huge pages depends on the state of the whole machine, and with them
# the peak RSS of identical runs differed by 12%.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def run_child(args, mode, work, deadline, reference_check=False):
    env = dict(os.environ, **CHILD_ENV)
    argv = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--work-dir", str(work),
    ] + (["--tiny"] if args.tiny else []) + (["--reference-check"] if reference_check else [])
    argv += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        fail(f"{mode} process for {args.workload} did not finish in time", 1)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        fail(f"{mode} process for {args.workload} exited with {proc.returncode}", 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(kind, children, setup_samples):
    """Medians over every sample of every workload process."""
    samples = {
        key: [x for child in children for x in child["samples"][key]]
        for key in children[0]["samples"]
    }
    if kind == "train":
        step = samples["step_s"]
        rate = [call["examples"] / call["seconds"] for call in samples["train_calls"]]
    else:
        step = samples["separate_s"]
        rate = [1.0 / wall for wall in samples["call_s"]]
    median = statistics.median
    return {
        "step_s": median(step),
        "examples_per_s": median(rate),
        "separate_rtf": median(samples["separate_rtf"]),
        "peak_rss_mb": median(samples["rss_mb"]),
        "setup_s": median(setup_samples),
    }


def stamp(args, child):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "commit": commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "blas": child["blas"],
        "env": CHILD_ENV,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="dpsep benchmark: one workload, one seed.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every model and input (smoke test)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "dpsep" / "__init__.py").is_file():
        fail(f"no program to measure: {ROOT / 'src' / 'dpsep'} is missing")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have {names})")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            probes = []
            children = [run_child(args, "trace", work / "trace", deadline)]
            values = children[0]["metrics"]
        else:
            probes = [
                run_child(args, "setup", work / f"setup{i}", deadline)["setup_s"]
                for i in range(1 if args.tiny else SETUP_PROBES)
            ]
            children = []
            measured = 0.0
            while len(children) < MAX_CALLS:
                child = run_child(args, "run", work / f"run{len(children)}", deadline,
                                  reference_check=not children)
                children.append(child)
                measured += sum(child["samples"]["call_s"])
                if measured * (len(children) + 1) / len(children) > args.seconds:
                    break
            values = end_to_end(children[0]["kind"], children,
                                probes + [child["setup_s"] for child in children])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"workload did not produce {missing}", 1)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    info = stamp(args, children[0])
    OUT.mkdir(exist_ok=True)
    record = {"stamp": info, "metrics": metrics, "attempted": attempted, "failed": failed,
              "setup_probes_s": probes, "processes": children}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    for child in children:
        for check in child["checks"]:
            status = "ok" if check["ok"] else "FAILED"
            print(f"check {check['name']}: {status} {check['detail']}")
    for key, metric in metrics.items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} calls and checks)")
    print("stamp " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
