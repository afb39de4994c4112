#!/usr/bin/env python3
"""ecbench: the EC-Graph benchmark (see ecbench/README.md).

Run one workload (from the root of a checkout):

    python3 ecbench/run.py --workload reddit-gcn-ec --seed 1 --seconds 30 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. --record FILE appends the
result, tagged with workload and seed, to a JSON-lines file.

Compare two recorded result sets (e.g. parent and change):

    python3 ecbench/run.py --compare parent.jsonl change.jsonl

The benchmark builds ecbench_probe (ecbench/CMakeLists.txt) into
.bench_build/ecbench on first use and runs it once per repetition.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ecbench")
PROBE = os.path.join(BUILD, "ecbench_probe")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Each workload is the same pipeline (set-up, open-loop serving, distributed
# training, serving again), sized so that the phase the workload is named
# for dominates. `train` holds ecg::core::ParseTrainSpec keys and
# `init_seed` the model initialisation seed. `serve` holds the probe's
# serving flags: `serve` is an ecg::serve::ParseServeOptions spec, `load` an
# ecg::serve::ParseWorkloadOptions spec (the load generator's own traffic
# shape; only rate, window length and hot set are set, and the seed comes
# from --seed), `windows` the number of measured windows. `acc_target` is
# the val accuracy time_to_acc_s is measured to; `acc_floor` the test
# accuracy below which a run fails.
REDDIT_SERVE = {"serve": "cache_mb=1", "load": "qps=6000,duration=4,hot=16000",
                "windows": 24}
WORKLOADS = {
    "reddit-gcn-ec": {
        "dataset": "reddit-sim",
        "train": ["workers=4", "epochs=20"],
        "init_seed": 1,
        "acc_target": 0.86,
        "acc_floor": 0.90,
        "serve": REDDIT_SERVE,
    },
    "products-gcn-ec": {
        "dataset": "products-sim",
        "train": ["workers=4", "epochs=16", "layers=3", "hidden=64",
                  "fp_bits=4", "bp_bits=4"],
        "init_seed": 1,
        "acc_target": 0.71,
        "acc_floor": 0.74,
        "serve": {"serve": "cache_mb=16", "load": "qps=12000,duration=2,hot=32000",
                  "windows": 16},
    },
    "reddit-serve": {
        "dataset": "reddit-sim",
        "train": ["workers=4", "epochs=10", "fp=exact", "bp=exact"],
        "init_seed": 1,
        "acc_target": 0.80,
        "acc_floor": 0.80,
        "serve": REDDIT_SERVE,
    },
}

# Metrics that are a pure function of (workload, seed): every repetition of
# a run must report them bit for bit.
EXACT = ("wire_mb_per_epoch", "test_acc", "serve_p50_ms", "serve_p99_ms",
         "serve_served_frac")
MIN_REPS = 2
TRACED_WINDOWS = 2
NO_EPOCH = 0xFFFFFFFF  # ecg::obs::kNoEpoch


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the probe; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("ecbench: library sources (src/) not found next to ecbench/")
        return False
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("ecbench: build failed: " + " ".join(cmd))
            return False
    return os.path.isfile(PROBE)


def run_probe(mode, w, seed, extra=()):
    """Runs one probe process; returns (parsed stdout JSON, rusage). Flags in
    `extra` override the workload's."""
    flags = {"seed": seed, "init_seed": w["init_seed"], **w["serve"], **dict(extra)}
    cmd = [PROBE, mode, w["dataset"], *w["train"]]
    cmd += [f"--{k}={v}" for k, v in flags.items()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"probe exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(out.strip().splitlines()[-1]), usage


def time_to_target(sim, val, target):
    """Simulated seconds through the first epoch whose val accuracy reaches
    `target` (None when never reached)."""
    elapsed = 0.0
    for s, v in zip(sim, val):
        elapsed += s
        if v >= target:
            return elapsed
    return None


def rep_metrics(rep, usage, w):
    """End-to-end metrics of one repetition."""
    tr, sv, su = rep["train"], rep["serve"], rep["setup"]
    epochs = len(tr["sim_s"])
    return {
        # Epoch 0 is the warm-up: it also carries the trainer's own plan
        # build and the one-off feature-halo exchange.
        "epoch_sim_s": statistics.fmean(tr["sim_s"][1:]),
        "epoch_cpu_s": statistics.fmean(tr["cpu_s"][1:]),
        "time_to_acc_s": time_to_target(tr["sim_s"], tr["val_acc"], w["acc_target"]),
        "wire_mb_per_epoch": sum(tr["wire_bytes"]) / epochs / 1e6,
        "test_acc": tr["test_acc"],
        "serve_p50_ms": statistics.fmean(sv["p50_ms_windows"]),
        "serve_p99_ms": statistics.fmean(sv["p99_ms_windows"]),
        "serve_cpu_us_per_query": statistics.median(sv["cpu_us_per_query_windows"]),
        "serve_served_frac": sv["served"] / sv["offered"],
        "setup_s": su["load_s"] + su["partition_s"] + su["plan_s"] + sv["serve_load_s"],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def check_rep(rep, m, w):
    """Correctness failures of one repetition, as messages."""
    errors = []
    if m["time_to_acc_s"] is None:
        errors.append(f"val accuracy never reached {w['acc_target']}")
    if m["test_acc"] < w["acc_floor"]:
        errors.append(f"test_acc {m['test_acc']:.4f} below floor {w['acc_floor']}")
    sv = rep["serve"]
    if sv["checked"] < 1 or sv["mismatches"] != 0:
        errors.append(f"serve: {sv['mismatches']} of {sv['checked']} sampled queries "
                      "differ from naive one-query Classify")
    return errors


def run_reps(w, seed, seconds):
    """Repeats the workload until `seconds` are used (at least MIN_REPS)."""
    reps, start = [], time.monotonic()
    while True:
        t = time.monotonic()
        rep, usage = run_probe("rep", w, seed)
        reps.append((rep, usage, rep_metrics(rep, usage, w)))
        took, used = time.monotonic() - t, time.monotonic() - start
        if len(reps) >= MIN_REPS and used + took > seconds:
            return reps


def summarize(reps, w):
    """(metrics, attempted, failed, errors) over repetitions: medians of the
    timed metrics, exact metrics checked identical across repetitions."""
    errors = []
    for rep, _, m in reps:
        errors += check_rep(rep, m, w)
    for key in EXACT:
        values = {m[key] for _, _, m in reps}
        if len(values) != 1:
            errors.append(f"determinism: {key} differs across repetitions: {sorted(values)}")
    first = reps[0][0]
    if any(r["train"]["val_acc"] != first["train"]["val_acc"] for r, _, _ in reps):
        errors.append("determinism: val accuracy curves differ across repetitions")
    metrics = {}
    for key in reps[0][2]:
        values = [m[key] for _, _, m in reps if m[key] is not None]
        metrics[key] = statistics.median(values) if values else 0.0
    attempted = sum(len(r["train"]["sim_s"]) + r["serve"]["offered"] for r, _, _ in reps)
    failed = sum(r["serve"]["offered"] - r["serve"]["served"] + r["serve"]["mismatches"]
                 for r, _, _ in reps)
    return metrics, int(attempted), int(failed), errors


# ---------------------------------------------------------------- traced run

def trace_layers(trace_path, stats_path, epochs, workers):
    """Per-layer metrics of one traced training run.

    Real spans carry (phase, layer); simulated spans ("compute", "fp_comm",
    "bp_comm", "overlap_hidden") are recorded by the worker thread while a
    real span is open, and the exporter writes each thread's events in
    recording order, so every simulated span belongs to the next real span
    that closes after it. "barrier_stall" is booked on its own. The real
    clock of a compute phase is the duration of its real spans.
    """
    out = {}

    def add(key, v):
        out[key] = out.get(key, 0.0) + v

    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    pending = []
    for e in events:
        if e.get("ph") != "X":
            continue
        dur = e["dur"] * 1e-6
        if e["pid"] == 2:
            if e["name"] == "barrier_stall":
                add("core.barrier.sim_s", dur)
            else:
                pending.append((e["name"], dur))
            continue
        name, layer = e["name"], e["args"].get("layer")
        phase = {"fp_finish": "fp_exchange", "bp_finish": "bp_exchange"}.get(name, name)
        if phase in ("fp_compute", "bp_compute"):
            add(f"core.{phase}.l{layer}.real_s", dur)
        for sim_name, d in pending:
            if phase in ("fp_compute", "bp_compute", "fp_exchange", "bp_exchange"):
                add(f"core.{phase}.l{layer}.sim_s", d)
            if sim_name in ("fp_comm", "bp_comm"):
                add("dist.comm.sim_s", d)
            elif sim_name == "overlap_hidden":
                add("dist.comm_hidden.sim_s", d)
        pending = []

    stats = {}
    with open(stats_path) as f:
        for line in f:
            row = json.loads(line)
            if "name" not in row or row.get("summary"):
                continue  # the header and the run summary
            # Rows outside any epoch are the one-off feature-halo exchange
            # before epoch 0, except the parameter server's apply time,
            # which is always booked without an epoch.
            if row.get("epoch", NO_EPOCH) >= NO_EPOCH and row["name"] != "ps.apply_seconds":
                continue
            key = (row["name"], row.get("layer"))
            s = stats.setdefault(key, {"sum": 0.0, "count": 0})
            s["sum"] += row["sum"]
            s["count"] += row["count"]

    def total(name, layer="any"):
        return sum(v["sum"] for (n, l), v in stats.items()
                   if n == name and (layer == "any" or l == layer))

    def count(name):
        return sum(v["count"] for (n, _), v in stats.items() if n == name)

    # Seconds are per epoch: sim_s per worker (they add up to an epoch's
    # simulated time), real_s summed over workers (like epoch_cpu_s).
    for k in list(out):
        out[k] /= epochs * (1 if k.endswith("real_s") else workers)
    out["core.param_sync.sim_s"] = total("phase.param_sync") / epochs / workers
    # Layer ids are the program's own: FP ships H^l as layer l, BP books
    # the gradient message of layer l's input as layer l.
    for l in (1, 2, 3):
        frac = stats.get(("overlap.frac", l))
        out[f"core.overlap.l{l}.hidden_frac"] = frac["sum"] / frac["count"] if frac else 0.0
        out[f"dist.wire_bytes.l{l}.fp"] = total("fp.wire_bytes", l) / epochs
        out[f"dist.wire_bytes.l{l}.bp"] = total("bp.wire_bytes", l) / epochs
    sel = {k: total(f"reqec.sel_{k}") for k in ("pdt", "cps", "avg")}
    for k, v in sel.items():
        out[f"core.reqec.{k}_frac"] = v / sum(sel.values()) if sum(sel.values()) else 0.0
    out["dist.msgs_per_epoch"] = count("comm.sent_bytes") / epochs
    out["dist.ps.pull_bytes"] = total("ps.pull_bytes") / epochs
    out["dist.ps.push_bytes"] = total("ps.push_bytes") / epochs
    out["dist.ps.apply_cpu_s"] = total("ps.apply_seconds") / epochs
    out["dist.retransmits"] = total("fault.retried")
    for d in ("fp", "bp"):
        wire = total(f"{d}.wire_bytes")
        out[f"compress.ratio.{d}"] = total(f"{d}.raw_bytes") / wire if wire else 0.0
    return out


def traced_run(w, seed, workload):
    """Per-layer metrics: one untraced and one traced repetition plus the
    public-call kernel timings. Returns (metrics, attempted, failed, errors).
    The traced repetition serves only TRACED_WINDOWS windows (its serving
    spans are not used), so only its training is compared with the
    untraced one."""
    base, base_usage = run_probe("rep", w, seed)
    tag = f"{workload}-{seed}-{os.getpid()}"
    trace_path = os.path.join(ROOT, ".bench_build", f"trace-{tag}.json")
    stats_path = os.path.join(ROOT, ".bench_build", f"stats-{tag}.jsonl")
    try:
        traced, traced_usage = run_probe(
            "rep", w, seed, [("windows", TRACED_WINDOWS), ("trace_out", trace_path),
                             ("stats_out", stats_path)])
        epochs = len(traced["train"]["sim_s"])
        workers = int(next(k.split("=")[1] for k in w["train"] if k.startswith("workers=")))
        layers = trace_layers(trace_path, stats_path, epochs, workers)
    finally:
        for p in (trace_path, stats_path):
            if os.path.exists(p):
                os.remove(p)
    kern, _ = run_probe("kernels", w, seed)

    metrics, attempted, failed, errors = summarize([(base, base_usage, rep_metrics(base, base_usage, w))], w)
    traced_m = rep_metrics(traced, traced_usage, w)
    errors += check_rep(traced, traced_m, w)
    for key in ("wire_mb_per_epoch", "test_acc"):
        if traced_m[key] != metrics[key]:
            errors.append(f"determinism: tracing changed {key}")
    if traced["train"]["val_acc"] != base["train"]["val_acc"]:
        errors.append("determinism: tracing changed the val accuracy curve")
    tsv = traced["serve"]
    attempted += len(traced["train"]["sim_s"]) + int(tsv["offered"])
    failed += int(tsv["offered"] - tsv["served"] + tsv["mismatches"])

    m = {}
    su, sv = base["setup"], base["serve"]
    m["graph.load_s"] = su["load_s"]
    m["graph.partition_s"] = su["partition_s"]
    m["graph.plan_s"] = su["plan_s"]
    m["graph.halo_rows"] = su["halo_rows"]
    for k, v in kern.items():
        m[("compress." if "quantize" in k else "tensor.") + k] = v
    m.update(layers)
    lookups = sv["rows_computed"] + sv["rows_cached"]
    m["serve.cpu_us_per_batch"] = statistics.median(sv["cpu_us_per_batch_windows"])
    m["serve.cache_hit_frac"] = sv["rows_cached"] / lookups
    m["serve.rows_per_query"] = lookups / sv["served"]
    m["serve.mean_batch"] = sv["served"] / sv["batches"]
    m["serve.max_ms"] = statistics.median(sv["max_ms_windows"])
    m["serve.load_s"] = sv["serve_load_s"]
    m["serve.shed_frac"] = sv["shed"] / sv["offered"]
    m["obs.trace_overhead_frac"] = traced_m["epoch_cpu_s"] / metrics["epoch_cpu_s"] - 1
    return m, attempted, failed, errors


# ------------------------------------------------------------------ compare

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """choosing-metrics §8 on {seed: value} maps. Improved: the change wins
    >= 9/10 of the seed-matched pairs (ties count for neither) and the
    medians differ by more than the parent's IQR. Regressed: the change's
    median is worse by more than the bound. Unresolved: the parent's own
    spread exceeds the bound and not every change run beats every parent
    run. Otherwise unchanged."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(list(parent.values()))
    _, cm, _ = quartiles(list(change.values()))
    pairs = [(parent[k], change[k]) for k in parent if k in change]
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    separated = min(sign * c for c in change.values()) > max(sign * p for p in parent.values())
    if pairs and wins >= 0.9 * len(pairs) and sign * (cm - pm) > (p3 - p1):
        return "improved"
    if sign * (pm - cm) > bound * abs(pm):
        return "regressed"
    if pm and (p3 - p1) / abs(pm) > bound and not separated:
        return "unresolved"
    return "unchanged"


def load_records(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], []).append(r)
    return runs


def compare(parent_path, change_path):
    spec = json.load(open(SPEC))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    parent, change = load_records(parent_path), load_records(change_path)
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        print(f"\n== {workload}")
        print(f"{'metric':<26}{'parent q1/med/q3':>34}{'change q1/med/q3':>34}  verdict")
        moves = []
        for name in list(e2e) + list(layer):
            pv = {(r["seed"], r.get("init_seed")): r["metrics"][name]["value"]
                  for r in parent[workload] if name in r["metrics"]}
            cv = {(r["seed"], r.get("init_seed")): r["metrics"][name]["value"]
                  for r in change[workload] if name in r["metrics"]}
            if not pv or not cv:
                continue
            if name in layer:
                pm, cm = statistics.median(pv.values()), statistics.median(cv.values())
                if pm or cm:
                    moves.append((abs(cm - pm) / max(abs(pm), abs(cm)), name, pm, cm))
                continue
            m = e2e[name]
            v = verdict(pv, cv, m["better"], m["bound"])
            regressed |= v == "regressed"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{name:<26}{fmt(quartiles(list(pv.values()))):>34}"
                  f"{fmt(quartiles(list(cv.values()))):>34}  {v}")
        if moves:
            rel, name, pm, cm = max(moves)
            print(f"largest per-layer move: {name} {pm:.4g} -> {cm:.4g} "
                  f"({rel:.1%} of the larger median)")
    return 1 if regressed else 0


# --------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1,
                    help="serving arrival schedule and checked-query sample")
    ap.add_argument("--init-seed", type=int,
                    help="model initialisation seed (default: the workload's)")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the result to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    if not os.path.isfile(SPEC) or not build():
        return 1
    spec = json.load(open(SPEC))
    w = dict(WORKLOADS[args.workload])
    if args.init_seed is not None:
        w["init_seed"] = args.init_seed
    if args.trace:
        metrics, attempted, failed, errors = traced_run(w, args.seed, args.workload)
        wanted = spec["per_layer"]
    else:
        metrics, attempted, failed, errors = summarize(
            run_reps(w, args.seed, args.seconds), w)
        wanted = spec["end_to_end"]
    for e in errors:
        log("ecbench: FAILED " + e)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    for name, v in result["metrics"].items():
        print(f"{args.workload:<16} {name:<28} {v['value']:>14.6g} {v['unit']}")
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "init_seed": w["init_seed"], **result}) + "\n")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
