"""Arithmetic of the repo benchmark: turns the batch driver's raw samples into
the metrics BENCHMARK.json names.  Pure functions, tested by test_stats.py."""

import json
import re
from statistics import mean, median

# The traced run's layer self times must sum to its measured time within
# this share of it.
SELF_SUM_BOUND = 0.02

# A child span may end this many seconds past its parent (clock reads are
# taken one after the other) before the nesting counts as broken.
NESTING_SLACK_S = 1e-6

# Nominal CPU seconds of one calibration slice (main.cpp's Calibration): the
# mean slice on the host that recorded the first numbers in README.md.  A run
# whose slices take longer on average ran on a slower (busier) host, and its
# timings are scaled down by the same factor.  The mean, not the median:
# a busy host switches between a few discrete speeds, and only the mean moves
# in proportion to the share of time spent in each, as the passes do.
SLICE_REF_S = 0.0045

LAYERS = ("sim", "machine", "pfs", "qos", "fault", "pablo", "obs", "apps", "core", "bench")

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def tail(values, beyond=10):
    """The highest order statistic with at least `beyond` samples above it.

    Returns (value, percentile, samples_beyond).  The percentile is the share
    of samples at or below the value.  With `beyond` or fewer samples no such
    statistic exists: the minimum is returned with the count actually beyond
    it, so the caller can flag it.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - beyond - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def failed_share(attempted, failed):
    """Failed simulated ops over attempted ones."""
    if attempted <= 0:
        raise ValueError("no simulated ops attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed ops out of range")
    return failed / attempted


def self_times(spans):
    """Self time per layer over a list of spans.

    Each span is (parent_index, layer, name, t0, t1); a parent index of -1
    marks a root.  A span's self time is its duration minus the durations of
    its direct children.  Returns (self_by_layer, root_total, bad_nesting),
    where bad_nesting lists the spans whose children leave their interval or
    overlap each other.
    """
    child_sum = [0.0] * len(spans)
    last_end = [None] * len(spans)
    bad = []
    for i, (parent, _layer, name, t0, t1) in enumerate(spans):
        if t1 < t0:
            bad.append(f"{name}: ends before it starts")
        if parent < 0:
            continue
        if parent >= i:
            raise ValueError(f"span {i} names a later parent {parent}")
        p_t0, p_t1 = spans[parent][3], spans[parent][4]
        if t0 < p_t0 - NESTING_SLACK_S or t1 > p_t1 + NESTING_SLACK_S:
            bad.append(f"{name}: outside its parent {spans[parent][2]}")
        if last_end[parent] is not None and t0 < last_end[parent] - NESTING_SLACK_S:
            bad.append(f"{name}: overlaps a sibling")
        last_end[parent] = t1
        child_sum[parent] += t1 - t0
    by_layer = {}
    root_total = 0.0
    for i, (parent, layer, _name, t0, t1) in enumerate(spans):
        by_layer[layer] = by_layer.get(layer, 0.0) + (t1 - t0) - child_sum[i]
        if parent < 0:
            root_total += t1 - t0
    return by_layer, root_total, bad


def split_passes(spans):
    """Splits the span list at its roots: one sub-list per traced pass, with
    parent indices rebased to the sub-list."""
    passes = []
    start = None
    for i, span in enumerate(spans):
        if span[0] < 0:
            if start is not None:
                passes.append(_rebase(spans[start:i], start))
            start = i
    if start is not None:
        passes.append(_rebase(spans[start:], start))
    return passes


def _rebase(chunk, offset):
    return [(p - offset if p >= 0 else -1, l, n, t0, t1) for (p, l, n, t0, t1) in chunk]


def span_sum(spans, layer, names=None, exclude=()):
    """Summed duration of the spans of `layer` (optionally only `names`)."""
    return sum(t1 - t0 for (_p, l, n, t0, t1) in spans
               if l == layer and (names is None or n in names) and n not in exclude)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def host_factor(doc):
    """How much slower than nominal the run's calibration slices ran."""
    return mean(doc["calibration_s"]) / SLICE_REF_S


def end_to_end(doc):
    """End-to-end metrics of a measure-mode document, plus the tail details.

    Timings are CPU seconds divided by the run's host factor."""
    passes = doc["passes"]
    first = passes[0]
    factor = host_factor(doc)
    cpu = [p["cpu_s"] for p in passes]
    passes_s = [c / factor for c in cpu]
    p50 = median(passes_s)
    tail_value, tail_pct, tail_beyond = tail(passes_s)
    # Summed over the passes: each pass's runs see a different mix of the
    # host's speeds, and sums weigh that mix as it fell.
    untraced = sum(p["probe_untraced_s"] for p in passes)
    traced = sum(p["probe_traced_s"] for p in passes)
    metrics = {
        "pass_s.p50": _metric(p50, "s"),
        "pass_s.tail": _metric(tail_value, "s"),
        "io_ops_per_s": _metric(first["io_ops"] / p50, "1/s"),
        "setup_s": _metric(median(doc["setup_s"]) / factor, "s"),
        "peak_rss_mb": _metric(doc["peak_rss_kb"] / 1024.0, "MB"),
        "trace_bytes_per_io": _metric(first["probe_bytes"] / first["probe_ios"], "B"),
        "trace_overhead_x": _metric(traced / untraced, "ratio"),
    }
    details = {"passes": len(cpu), "tail_percentile": tail_pct, "tail_beyond": tail_beyond,
               "host_factor": factor, "slices": len(doc["calibration_s"]),
               "cpu_s.p50": median(cpu), "setup_cpu_s": median(doc["setup_s"])}
    return metrics, details


def per_layer(doc):
    """Per-layer metrics of a trace-mode document, plus the self-time table."""
    c = doc["counters"]
    traced = split_passes(doc["spans"])
    if not traced:
        raise ValueError("trace document holds no spans")

    def per_pass(layer, names=None, exclude=()):
        return median([span_sum(s, layer, names, exclude) for s in traced])

    arms = doc["capture_arms"]
    arm = [median([row[a] for row in arms]) for a in range(4)]
    run_s = per_pass("sim", {"Engine::run"})
    lookups = c["cache_hits"] + c["cache_misses"]
    offered = c["qos_admitted"] + c["qos_rejected"] + c["qos_shed"]
    ref_loop = median(doc["ref_loop_s"])
    plain_cpu = median([p["cpu_s"] for p in doc["passes"]])

    by_layer, root_total, bad = self_times(doc["spans"])
    traced_s = doc["traced_s"]
    table = {
        "self_s": {layer: by_layer.get(layer, 0.0) for layer in LAYERS},
        "passes": len(traced),
        "traced_s": traced_s,
        "root_total_s": root_total,
        "sum_error": abs(sum(by_layer.values()) - traced_s) / traced_s,
        "bad_nesting": bad,
    }
    m = {
        "sim.events": _metric(c["sim_events"], "count"),
        "sim.run_s": _metric(run_s, "s"),
        "sim.ns_per_event": _metric(1e9 * run_s / c["run_events"], "ns"),
        "sim.dispatch_ns": _metric(1e9 * ref_loop / doc["ref_loop_events"], "ns"),
        "machine.setup_s": _metric(per_pass("machine", {"Machine()"}), "s"),
        "machine.disk_ops": _metric(c["disk_ops"], "count"),
        "machine.disk_bytes": _metric(c["disk_bytes"], "B"),
        "machine.net_messages": _metric(c["net_messages"], "count"),
        "machine.net_dropped": _metric(c["net_dropped"], "count"),
        "pfs.setup_s": _metric(per_pass("pfs", {"Pfs()"}), "s"),
        "pfs.data_ops": _metric(c["data_ops"], "count"),
        "pfs.bytes_read": _metric(c["bytes_read"], "B"),
        "pfs.bytes_written": _metric(c["bytes_written"], "B"),
        "pfs.meta_requests": _metric(c["meta_requests"], "count"),
        "pfs.cache_hit_ratio": _metric(c["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "pfs.cache_lookups": _metric(lookups, "count"),
        "pfs.retries": _metric(c["retries"], "count"),
        "pfs.timeouts": _metric(c["timeouts"], "count"),
        "pfs.replayed_ops": _metric(c["replayed_ops"], "count"),
        "pfs.journal_appends": _metric(c["journal_appends"], "count"),
        "pfs.journal_redone": _metric(c["journal_redone"], "count"),
        "pfs.integrity_repaired": _metric(c["integrity_repaired"], "count"),
        "pfs.acked_bytes_lost": _metric(c["acked_bytes_lost"], "B"),
        "qos.admitted": _metric(c["qos_admitted"], "count"),
        "qos.rejected": _metric(c["qos_rejected"], "count"),
        "qos.shed": _metric(c["qos_shed"], "count"),
        "qos.admit_ratio": _metric(c["qos_admitted"] / offered if offered else 0.0, "ratio"),
        "qos.breaker_opens": _metric(c["breaker_opens"], "count"),
        "fault.injected": _metric(c["faults_injected"], "count"),
        "pablo.io_events": _metric(c["io_events"], "count"),
        "pablo.analytics_s": _metric(median(doc["analytics_s"]), "s"),
        "pablo.sddf_text_s": _metric(per_pass("pablo", {"to_sddf"}), "s"),
        "pablo.stream_cost_s": _metric(arm[1] - arm[0], "s"),
        "pablo.binary_cost_s": _metric(arm[2] - arm[1], "s"),
        "pablo.binsddf_decode_s": _metric(per_pass("pablo", {"from_binary_sddf"}), "s"),
        "pablo.binsddf_bytes": _metric(c["binsddf_bytes"], "B"),
        "pablo.trace_mem_bytes": _metric(c["trace_mem_bytes"], "B"),
        "obs.spans": _metric(c["spans"], "count"),
        "obs.spans_per_io": _metric(c["spans"] / c["span_io_events"], "ratio"),
        "obs.span_cost_s": _metric(arm[3] - arm[2], "s"),
        "obs.critical_path_s": _metric(per_pass("obs", {"critical_path_fold"}), "s"),
        "apps.sim_exec_s": _metric(c["sim_exec_s"], "s"),
        "core.render_s": _metric(per_pass("core", exclude={"run_overload"}), "s"),
        "core.pass_per_ref": _metric(plain_cpu / ref_loop, "ratio"),
        "bench.trace_overhead_x": _metric(
            median([p["total_s"] for p in doc["traced_passes"]]) /
            median([p["total_s"] for p in doc["passes"]]), "ratio"),
        "bench.self_sum_error": _metric(table["sum_error"], "ratio"),
    }
    return m, table


def acked_losses(doc):
    """Jobs whose post-run scrub found acknowledged bytes missing from the
    arrays, at the run's seed and the reference seeds: [(seed, job, bytes)]."""
    found = []
    for seed, jobs in sorted(doc["fingerprints"].items()):
        for job, (fp, _ops, _failed) in sorted(jobs.items()):
            m = re.search(r"\blost=(\d+)", fp)
            if m and int(m.group(1)):
                found.append((seed, job, int(m.group(1))))
    return found


def verify_seeds(references, seed):
    """The reference seed a run verifies: they take turns by run seed."""
    seeds = sorted(references["seeds"].values())
    return [seeds[seed % len(seeds)]]


def check_references(doc, references, seeds):
    """Compares the document's verification passes at `seeds` with the stored
    reference fingerprints.  Returns (attempted_ops, failed_ops, problems)."""
    refs = references.get("fingerprints", {}).get(doc["workload"], {})
    attempted = failed = 0
    problems = []
    for seed in (str(s) for s in seeds):
        got = doc["fingerprints"].get(seed)
        if got is None:
            problems.append(f"seed {seed}: not verified")
            continue
        want = refs.get(seed)
        if want is None:
            problems.append(f"seed {seed}: no reference fingerprints")
            continue
        for job in sorted(set(want) | set(got)):
            fp, ops, sim_failed = got.get(job, (None, 0, 0))
            weight = max(ops, 1)
            attempted += weight
            if fp == want.get(job) and not fp.startswith("exception"):
                failed += sim_failed
            else:
                failed += weight
                problems.append(f"seed {seed} {job}: fingerprint differs from the reference")
    return attempted, failed, problems


def parse_result(stdout):
    """Reads the benchmark's output: the last line is the result object."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or tuple(sorted(result)) != tuple(sorted(RESULT_KEYS)):
        raise ValueError(f"result keys are not {RESULT_KEYS}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("attempted is below 1")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            raise ValueError(f"metric {name} is malformed")
    return result
