"""Benchmark: time to a certificate, refinement and Monte Carlo check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from `src/`. Every
measured run is a fresh process (`probe.py`) with OpenBLAS/OMP pinned to one
thread and pipeline `threads=1`, one process at a time.

--trace 0  full runs until `--seconds` have passed (at least one), then
           certify-only runs until there are MIN_SAMPLES `certify_s` samples
           or ENOUGH_S seconds of them, then set-up-only runs until there are
           MIN_SAMPLES `setup_s` samples. Prints the end-to-end metrics as
           medians; `setup_s` is taken over every process.
--trace 1  one untraced and one traced run. Prints the per-layer metrics of
           the traced run; `trace.overhead_s` is traced minus untraced total,
           a single difference that run-to-run noise can outweigh.

Every run checks its outputs (probability bounds, `Imdp.validate`, output
files) and that counters and output hashes repeat exactly: across the runs of
one invocation, and across invocations for the same seed, package and
benchmark sources and numerical libraries through `out/ledger.jsonl`. Each
run also records its process CPU and wall time; their ratio is printed. The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Spans, per-run records and the
environment go to `perfbench/out/<workload>/seed<N>/trace<0|1>/`.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MIN_SAMPLES = 7  # of certify_s (unless they sum to ENOUGH_S) and of setup_s
ENOUGH_S = 14.0
PROBE_TIMEOUT_S = 170  # a run must end within 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def load_spec() -> dict:
    """Workload names and metric names and units come from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def fingerprint(env: dict) -> str:
    """What the repeat counters and output hashes depend on: the package's and
    the benchmark's sources and the numerical libraries. Not the seed, which
    is part of the ledger key on its own, nor the machine's size."""
    h = hashlib.sha256()
    paths = glob.glob(os.path.join(SRC, "nndm_synth", "**", "*.py"), recursive=True)
    paths += glob.glob(os.path.join(HERE, "*.py"))
    for path in sorted(paths):
        with open(path, "rb") as fh:
            h.update(os.path.relpath(path, ROOT).encode() + b"\0" + fh.read())
    libs = {k: env[k] for k in ("python", "numpy", "scipy", "blas")}
    h.update(json.dumps(libs, sort_keys=True).encode())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": PINNED["OPENBLAS_NUM_THREADS"],
        "pipeline_threads": 1,
        "seed": seed,
    }


def probe(workload: str, seed: int, outdir: str, *flags: str) -> dict | None:
    """One fresh measured process; None when it fails or times out."""
    os.makedirs(outdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), "--workload", workload,
           "--seed", str(seed), "--outdir", outdir, *flags]
    env = dict(os.environ, PYTHONPATH=SRC, **PINNED)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: run timed out after {PROBE_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(f"{workload}: run failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat_problems(records: list[dict], key: str) -> list[str]:
    """Counters and output hashes must match across runs of one code and seed,
    in this invocation and in earlier ones recorded in the ledger."""
    ledger = os.path.join(OUT, "ledger.jsonl")
    seen = []
    if os.path.exists(ledger):
        with open(ledger) as fh:
            seen = [e for e in map(json.loads, fh) if e["key"] == key]
    problems = []
    ref: dict[str, object] = {}
    for rec in seen + records:
        # runs of different stages record different counters: compare by name
        for name, value in {**rec["repeat"], **rec["hashes"]}.items():
            if ref.setdefault(name, value) != value:
                problems.append(f"{name} differs between runs of the same code and seed")
    os.makedirs(OUT, exist_ok=True)
    with open(ledger, "a") as fh:
        for rec in records:
            fh.write(json.dumps({"key": key, "repeat": rec["repeat"], "hashes": rec["hashes"]}) + "\n")
    return sorted(set(problems))


def run_workload(workload: str, seed: int, seconds: int, trace: bool, env: dict, spec: dict) -> dict | None:
    outdir = os.path.join(OUT, workload, f"seed{seed}", f"trace{int(trace)}")
    shutil.rmtree(outdir, ignore_errors=True)
    records: list[dict] = []
    attempted = failed = 0

    def measured(tag: str, *flags: str) -> dict | None:
        nonlocal attempted, failed
        attempted += 1
        rec = probe(workload, seed, os.path.join(outdir, tag), *flags)
        if rec is None:
            failed += 1
        else:
            records.append(rec)
        return rec

    if trace:
        untraced = measured("untraced")
        traced = measured("traced", "--trace")
        if untraced is None or traced is None:
            return None
        layers = dict(traced["layers"], **{"trace.overhead_s": traced["total_s"] - untraced["total_s"]})
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        start = time.perf_counter()
        full = []
        while not full or time.perf_counter() - start < seconds:
            rec = measured(f"full{len(full)}")
            if rec is None:
                break
            full.append(rec)
        if not full:
            return None
        # short stages get extra fresh runs of their own until they are steady
        certify = [r["certify_s"] for r in full]
        while len(certify) < MIN_SAMPLES and sum(certify) < ENOUGH_S:
            rec = measured(f"certify{len(certify)}", "--stage", "certify")
            if rec is None:
                break
            certify.append(rec["certify_s"])
        while len(records) < MIN_SAMPLES:
            if measured(f"setup{len(records)}", "--stage", "setup") is None:
                break
        metrics = {
            m["name"]: statistics.median(r[m["name"]] for r in full) for m in spec["end_to_end"]
        }
        metrics["certify_s"] = statistics.median(certify)
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in records)

    problems = [p for r in records for p in r["problems"]]
    problems += repeat_problems(records, f"{workload}/{seed}/{fingerprint(env)}")
    absent = sorted({name for r in records for name in r["absent"]})
    report = {
        "workload": workload,
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "absent": absent,
        "metrics": metrics,
        # near 1 when the host gives the process its CPU the whole time
        "cpu_share": sum(r["process_cpu_s"] for r in records) / sum(r["process_wall_s"] for r in records),
        "runs": records,
    }
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for p in problems:
        log(f"{workload}: CHECK FAILED: {p}")
    if absent:
        log(f"{workload}: wrapped names absent from the package: {absent}")
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = load_spec()
    known = tuple(w["name"] for w in spec["workloads"])
    ap.add_argument("--workload", required=True, choices=known + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "nndm_synth", "__init__.py")):
        log(f"no package to measure: {SRC}/nndm_synth is missing")
        return 2

    names = known if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = environment(args.seed)
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace), env, spec)
        if report is None:
            log(f"{name}: no successful run, no result")
            return 1
        result["correct"] &= not report["problems"]
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
        print(f"-- {name}: {report['attempted'] - report['failed']}/{report['attempted']} runs ok,"
              f" process CPU / wall {report['cpu_share']:.3f}")
        for metric, value in report["metrics"].items():
            unit = units[metric]
            print(f"   {metric:32s} {value:14.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            result["metrics"][key] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
