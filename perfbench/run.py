#!/usr/bin/env python3
"""Repo benchmark: builds the batch driver from source, runs one workload and
prints its metrics.  The last line of stdout is the result object.

    python3 perfbench/run.py --workload repro --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics and
the self-time table of a run composed layer by layer.  Run from the root of a
checkout; the build tree goes to $CARGO_TARGET_DIR (default .bench_build).

    python3 perfbench/run.py --record-references

re-records references.json (the fingerprints every run checks) from the
current sources; do that only for a change that is meant to alter outputs.
"""

import argparse
import fcntl
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("repro", "traced", "ckpt_faults")
REFERENCES = HERE / "references.json"
BUILD_TIMEOUT_S = 780
RUN_DEADLINE_S = 175  # a run must exit within 180 s of its start, build aside
OPTIMIZED_TYPES = ("Release", "RelWithDebInfo", "MinSizeRel")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build(bdir):
    """Configures (once) and builds the driver; serialized by a lock file."""
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(bdir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any((bdir / f).exists() for f in ("Makefile", "build.ninja")):
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(bdir), "--target", "perfbench", "-j", jobs])
        for cmd in steps:
            left = deadline - time.monotonic()
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=left)
            if done.returncode != 0:
                raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    binary = bdir / "perfbench"
    if not binary.is_file():
        raise RuntimeError("build produced no perfbench binary")
    return binary


def run_driver(binary, workload, seed, seconds, trace, verify_seeds, timeout):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", "trace" if trace else "measure"]
    for s in verify_seeds:
        cmd += ["--verify-seed", str(s)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, timeout=timeout,
                          text=True)
    if done.returncode != 0:
        raise RuntimeError(f"driver exited with {done.returncode}")
    return json.loads(done.stdout)


def host_description():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "kernel": platform.release(),
        "python": platform.python_version(),
    }


def build_warnings(b):
    warn = []
    if b["build_type"] not in OPTIMIZED_TYPES or not b["optimized"]:
        warn.append(f"UNOPTIMIZED build ({b['build_type']}, flags '{b['flags']}'): "
                    "timings are not comparable")
    if not b["ndebug"]:
        warn.append("assertions enabled (NDEBUG unset)")
    return warn


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(doc, references, verified, trace, bdir):
    """Prints the human-readable record and returns the result object."""
    host = host_description()
    b = doc["build"]
    print(f"perfbench: workload={doc['workload']} seed={doc['seed']} sim_seed={doc['sim_seed']} "
          f"mode={doc['mode']} window={doc['window_s']:.3f}s passes={len(doc['passes'])}")
    print(f"host: cpu=\"{host['cpu']}\" nproc={host['nproc']} affinity={host['affinity']} "
          f"kernel={host['kernel']} python={host['python']}")
    print(f"build: compiler=\"{b['compiler']}\" build_type={b['build_type']} "
          f"flags=\"{b['flags']}\" optimized={b['optimized']} ndebug={b['ndebug']} "
          f"sim_checks={b['sim_checks']}")
    for w in build_warnings(b):
        print(f"WARNING: {w}")
        log(f"perfbench: WARNING: {w}")

    for seed, job, lost in stats.acked_losses(doc):
        print(f"WARNING: seed {seed} {job}: post-run scrub finds {lost} acknowledged bytes lost")
    ref_attempted, ref_failed, problems = stats.check_references(doc, references, verified)
    problems = list(doc["mismatches"]) + problems
    attempted = doc["attempted_ops"] + ref_attempted
    failed = doc["failed_ops"] + ref_failed
    record = {"host": host, "build": b, "workload": doc["workload"], "seed": doc["seed"]}

    if trace:
        metrics, table = stats.per_layer(doc)
        bound = stats.SELF_SUM_BOUND
        print(f"self time by layer: {table['passes']} traced passes, CPU {table['traced_s']:.4f} s, "
              f"self-time sum error {100 * table['sum_error']:.3f}% (bound {100 * bound:.0f}%)")
        print(f"  {'layer':<8} {'self_s':>10} {'per_pass_s':>11} {'share':>7}")
        for layer, secs in table["self_s"].items():
            print(f"  {layer:<8} {secs:>10.4f} {secs / table['passes']:>11.4f} "
                  f"{100 * secs / table['traced_s']:>6.2f}%")
        print(f"traced run overhead vs untraced median: "
              f"{metrics['bench.trace_overhead_x']['value']:.3f}x")
        if table["sum_error"] > bound:
            problems.append(f"layer self times miss the traced pass time by "
                            f"{100 * table['sum_error']:.2f}%")
        problems += [f"span nesting: {p}" for p in table["bad_nesting"][:10]]
        record["self_time_table"] = table
        record["spans"] = doc["spans"]
    else:
        metrics, details = stats.end_to_end(doc)
        metrics["ok_share"] = {"value": 1.0 - stats.failed_share(attempted, failed),
                               "unit": "ratio"}
        print(f"host factor {details['host_factor']:.4f} (mean of {details['slices']} "
              f"calibration slices / {stats.SLICE_REF_S} s); unscaled CPU s: pass p50 "
              f"{details['cpu_s.p50']:.4f}, set-up {details['setup_cpu_s']:.4f}")
        print(f"pass_s.tail is p{details['tail_percentile']:.1f} of {details['passes']} passes "
              f"({details['tail_beyond']} beyond it)")
        if details["tail_beyond"] < 10:
            print("WARNING: fewer than 11 passes; pass_s.tail is the fastest pass")
        record["details"] = details

    for name, m in metrics.items():
        print(f"  {name:<24} {fmt(m['value']):>16} {m['unit']}")
    print(f"check: {attempted} simulated ops attempted, {failed} failed, "
          f"{len(problems)} problems")
    for p in problems[:20]:
        print(f"  problem: {p}")

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record["result"] = result
    out = bdir / "results" / f"{doc['workload']}-seed{doc['seed']}-{doc['mode']}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record))
    return result


def record_references(binary):
    """Re-records references.json from a pass at each reference seed."""
    references = json.loads(REFERENCES.read_text())
    seeds = list(references["seeds"].values())
    fingerprints = {}
    for workload in WORKLOADS:
        doc = run_driver(binary, workload, 0, 0.001, False, seeds, RUN_DEADLINE_S)
        if doc["mismatches"] or doc["failed_ops"]:
            raise RuntimeError(f"{workload}: {doc['mismatches']} failed={doc['failed_ops']}")
        fingerprints[workload] = {
            str(s): {job: v[0] for job, v in doc["fingerprints"][str(s)].items()} for s in seeds}
    references["fingerprints"] = fingerprints
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    log(f"perfbench: wrote {REFERENCES}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    bdir = build_dir()
    binary = build(bdir)
    if args.record_references:
        record_references(binary)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    references = json.loads(REFERENCES.read_text())
    verified = stats.verify_seeds(references, args.seed)
    start = time.monotonic()
    doc = run_driver(binary, args.workload, args.seed, args.seconds, args.trace == 1, verified,
                     RUN_DEADLINE_S)
    result = report(doc, references, verified, args.trace == 1, bdir)
    log(f"perfbench: run took {time.monotonic() - start:.1f} s")
    line = json.dumps(result)
    stats.parse_result(line)  # never print a result that breaks the format
    print(line)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        log(f"perfbench: {exc}")
        sys.exit(1)
