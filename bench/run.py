#!/usr/bin/env python3
"""Benchmark of the wva-costlab package: four workloads, closed-loop timing.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: exact-sweep, mixed-input, campaign, cli (see bench/README.md).
Each run generates its inputs from the seed, runs whole decks of items one
after another until S seconds have passed, checks every item against the
closed-form oracle, and prints one JSON object as its last line of output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``. The line before it carries the run's provenance and
diagnostics, and both are appended to ``.bench_out/results.jsonl``.

Item times are reported in reference units (see ``reference.py``): fixed
work, timed after every item, divides the item times of its deck. The
wall-clock figures go to the detail line.
"""

import os
import sys

# 4x4 matrices gain nothing from BLAS threads; children inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
# The tail is the 95th percentile, lowered where needed so that at least
# TAIL_BEYOND items lie beyond it. Above p95, a shared host's stalls set the
# value: on 2 vCPUs, p99 and beyond varied 2x between identical runs.
TAIL_PERCENTILE = 95.0
TAIL_BEYOND = 10
# One Python process can run more than half again slower than the next for
# its whole life, so in-process workloads split the run across this many
# fresh worker processes and pool their items.
WORKERS = 5


END_TO_END = {
    "setup_s": "s",
    "items_per_kref": "1/kref",
    "item_p50_ref": "ref",
    "item_tail_ref": "ref",
    "peak_rss_mb": "MB",
    "oracle_max_rel_err": "ratio",
    "ood_rejected_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--worker", type=int, metavar="FIRST_DECK", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_workloads():
    """Import the package from this checkout's src/; return the workload module."""
    if not os.path.isfile(os.path.join(SRC, "wva_costlab", "__init__.py")):
        sys.exit(f"bench: no package source at {SRC}/wva_costlab")
    sys.path[:0] = [SRC, BENCH_DIR]
    import wva_costlab
    import workloads

    if not os.path.abspath(wva_costlab.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported wva_costlab from {wva_costlab.__file__}, not {SRC}")
    return workloads


# -- set-up time -------------------------------------------------------------


def setup_probe(workload):
    """Child side: inputs generated and one warm-up item done; report ready."""
    workload.run(workload.deck(0)[0])
    print("ready", flush=True)


def measure_setup(args):
    """Median wall time from a fresh interpreter to the first timed item."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(elapsed)
    return statistics.median(samples), samples


# -- the timed loop ----------------------------------------------------------


def timed_phase(workload, first_deck, seconds, tracer=None, spans_path=None):
    """Run whole decks from ``first_deck`` until ``seconds`` have passed.

    Returns the records, one (deck, latency in s, reference time in s,
    outcome) per item, and the next unused deck. Only the package call is
    timed; checks are not. The workload's reference runs after every item.
    """
    records = []
    start = time.perf_counter()
    deck = first_deck
    while True:
        for item in workload.deck(deck):
            n = len(records) if tracer is not None else None
            latency, outcome = timed_item(workload, item, n, tracer, spans_path)
            records.append((deck, latency, workload.reference(), outcome))
        deck += 1
        if time.perf_counter() - start >= seconds:
            return records, deck


def timed_item(workload, item, n, tracer, spans_path):
    import workloads

    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(item)
            t1 = time.perf_counter()
        else:
            tracer.item = n
            try:
                result = tracer.span("bench.item", workload.run, item)
            finally:
                t1 = time.perf_counter()
                tracer.item = None
            if workload.uses_processes:
                adopt_child_spans(tracer, spans_path, n)
        outcome = workload.check(item, result)
    except Exception:  # an unexpected exception fails the item, not the run
        traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        outcome = workloads.Outcome(False)
    return t1 - t0, outcome


def adopt_child_spans(tracer, spans_path, n):
    with open(spans_path, encoding="utf-8") as fh:
        dump = json.load(fh)
    os.remove(spans_path)
    tracer.adopt([tuple(s) for s in dump["spans"]], parent=tracer.spans[-1][0], item=n)
    for key, value in dump["counters"].items():
        tracer.counters[key] += value


# -- statistics --------------------------------------------------------------


def tail(latencies):
    """(value, percentile, items beyond) of the tail latency; see TAIL_PERCENTILE."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(max(TAIL_BEYOND, int(n * (1.0 - TAIL_PERCENTILE / 100.0))), n - 1)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def deck_rates(records):
    """Items that passed their gates per second of timed wall time, per deck."""
    totals = {}
    for deck, latency, _, outcome in records:
        ok, busy = totals.get(deck, (0, 0.0))
        totals[deck] = (ok + outcome.ok, busy + latency)
    return [ok / busy for ok, busy in totals.values()]


def in_reference_units(records):
    """Records with each latency divided by the mean reference time of its deck."""
    blocks = {}
    for deck, _, block, _ in records:
        blocks.setdefault(deck, []).append(block)
    unit = {deck: statistics.fmean(values) for deck, values in blocks.items()}
    return [(deck, latency / unit[deck], 1.0, outcome) for deck, latency, _, outcome in records]


def host_probe_ms():
    """Fixed calibration loop: a Python loop plus 4x4 eigh calls (diagnostic only)."""
    mat = np.arange(16.0).reshape(4, 4)
    mat = mat + mat.T
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    for _ in range(2000):
        np.linalg.eigh(mat)
    return (time.perf_counter() - start) * 1e3


# -- provenance --------------------------------------------------------------


def provenance(seed):
    info = {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpuinfo("model name"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(np),
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(SRC),
    }
    info.update(_cache_sizes())
    return info


def _cpuinfo(key):
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                sizes[f"l{level}_cache"] = size
    except OSError:
        pass
    return sizes


def _openblas_version(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds differ in what show_config reports
        return "unknown"


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _tree_digest(path):
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(path)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            full = os.path.join(folder, name)
            digest.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


# -- main --------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    if args.setup_probe:
        setup_probe(workload)
        return 0
    if args.worker is not None:
        run_worker(workload, args.worker, args.seconds)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    probe_start = host_probe_ms()
    if args.trace:
        records, metrics, detail = traced_run(workload, args)
        finish_ok = workload.finish()
    elif workload.uses_processes:
        workload.run(workload.deck(0)[0])  # warm-up
        records, _ = timed_phase(workload, 0, args.seconds)
        finish_ok = workload.finish()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        detail = {}
    else:
        records, peak_rss_mb, finish_ok = run_workers(workloads, args)
        detail = {"workers": WORKERS}
    panel = [] if args.trace else workload.ood_panel()
    ood = [workloads.classify_ood(call) for call in panel]
    ood += [o.rejected for _, _, _, o in records if o.ood]
    probe_end = host_probe_ms()

    latencies = [latency for _, latency, _, _ in records]
    costs = [cost for _, cost, _, _ in in_reference_units(records)]
    failed = sum(not o.ok for _, _, _, o in records)
    value_tail, tail_pct, tail_beyond = tail(costs)
    detail.update({
        "workload": args.workload,
        "trace": args.trace,
        "items": len(records),
        "decks": len({d for d, _, _, _ in records}),
        "tail_percentile": tail_pct,
        "tail_items_beyond": tail_beyond,
        "ood_outcomes": ood,
        "determinism_ok": finish_ok,
        "host_probe_ms": [probe_start, probe_end],
    })
    if not args.trace:
        setup_s, setup_samples = measure_setup(args)
        detail["setup_samples_s"] = setup_samples
        errs = [o.err for _, _, _, o in records if o.err is not None]
        detail["wall_clock"] = {
            "items_per_s": statistics.median(deck_rates(records)),
            "item_p50_ms": statistics.median(latencies) * 1e3,
            "item_tail_ms": tail(latencies)[0] * 1e3,
            "reference_ms": statistics.median(r for _, _, r, _ in records) * 1e3,
        }
        metrics = {
            "setup_s": setup_s,
            "items_per_kref": statistics.median(deck_rates(in_reference_units(records))) * 1e3,
            "item_p50_ref": statistics.median(costs),
            "item_tail_ref": value_tail,
            "peak_rss_mb": peak_rss_mb,
            "oracle_max_rel_err": max(errs, default=workloads.ORACLE_FLOOR),
            "ood_rejected_ratio": sum(ood) / len(ood) if ood else 0.0,
        }
        units = END_TO_END
    else:
        import tracer as tracing

        units = tracing.PER_LAYER
    detail["provenance"] = provenance(args.seed)

    result = {
        "correct": failed == 0 and finish_ok,
        "attempted": len(records) + len(panel),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"detail": detail, "result": result}) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def run_worker(workload, first_deck, seconds):
    """Worker side: warm up, time whole decks, print the records as JSON."""
    workload.run(workload.deck(first_deck)[0])
    records, next_deck = timed_phase(workload, first_deck, seconds)
    print(json.dumps({
        "records": [(deck, latency, block, *outcome) for deck, latency, block, outcome in records],
        "next_deck": next_deck,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "finish_ok": workload.finish(),
    }))


def run_workers(workloads, args):
    """Deal consecutive decks to WORKERS fresh processes, one after another."""
    records, peaks, finish_ok, deck = [], [], True, 0
    for _ in range(WORKERS):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKERS),
                "--worker", str(deck)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=170)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed with exit code {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        records += [(d, lat, block, workloads.Outcome(*rest)) for d, lat, block, *rest in out["records"]]
        peaks.append(out["peak_rss_mb"])
        finish_ok = finish_ok and out["finish_ok"]
        deck = out["next_deck"]
    return records, max(peaks), finish_ok


def traced_run(workload, args):
    """Untraced half, then traced half; per-layer metrics from the traced half."""
    import tracer as tracing

    workload.run(workload.deck(0)[0])  # warm-up
    untraced, next_deck = timed_phase(workload, 0, args.seconds / 2.0)
    tracer = tracing.Tracer()
    spans_path = os.path.join(OUT_DIR, f"cli-spans-{os.getpid()}.json")
    if workload.uses_processes:
        workload.entry = [sys.executable, os.path.join(BENCH_DIR, "cli_entry.py"), spans_path]
    else:
        tracer.install("wva_costlab")
    cache = sys.modules["wva_costlab.experiment"]._readout_probabilities
    before = cache.cache_info()
    try:
        traced, _ = timed_phase(workload, next_deck, args.seconds / 2.0, tracer, spans_path)
    finally:
        tracer.uninstall()
    after = cache.cache_info()
    tracer.counters["readout_hits"] += after.hits - before.hits
    tracer.counters["readout_misses"] += after.misses - before.misses

    overhead_ms = (statistics.median(lat for _, lat, _, _ in traced)
                   - statistics.median(lat for _, lat, _, _ in untraced)) * 1e3
    metrics = tracing.aggregate(tracer.spans, tracer.counters, len(traced), overhead_ms)
    spans_out = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    tracer.dump(spans_out)
    detail = {"spans_file": os.path.relpath(spans_out, ROOT), "untraced_items": len(untraced)}
    return untraced + traced, metrics, detail


if __name__ == "__main__":
    sys.exit(main())
