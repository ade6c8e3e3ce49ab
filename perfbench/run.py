"""Benchmark of the sic_simplex package: three closed-loop workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-search --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``cold-search``,
``cli-warm`` and ``classify-stream``.  Each runs in its own fresh process
(``worker.py``) with one client, one BLAS thread and its own catalog file
(``SIC_SIMPLEX_CATALOG``); the package is imported from ``src/`` of the
checkout.

``--trace 0`` starts one measuring process, with set-up-only processes
before and after it, all with no wrappers installed, and reports the
end-to-end metrics; ``setup_s`` is the median set-up time of all of them.

Other tenants of the shared host this benchmark was written on slow every
op alike by up to a third for minutes at a time.  So each process times a
fixed reference kernel (``worker.ref_kernel``) before every op and after
set-up, and every time is reported at one reference host speed: the
measured time times ``REF_KERNEL_S`` over the median kernel time measured
beside it.  The unscaled figures are in the detail line under ``raw``.

``--trace 1`` runs every cycle of ops twice, untraced and with spans wrapped
around the package's public functions, and reports the per-layer metrics
plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the details: environment, op mix, the tail percentile and its sample
count, ``fail_frac``, the first failures and the self-check results.
``fail_frac`` is ``failed / attempted``; the end-to-end list carries its
complement ``ok_frac``, because an end-to-end metric must never read 0.

``layer_map.json`` records which per-layer metric should move which
end-to-end metric on which workload.  ``spread.py`` runs several seeds and
reports each metric's quartile spread; ``baseline.json`` is its output at
this commit.  ``test_spans.py`` tests the span arithmetic
(``python3 -m pytest perfbench/test_spans.py``).

The warm-catalog fixture ``fiducials.json`` holds the fiducials found by
``SIC_SIMPLEX_CATALOG=perfbench/fiducials.json sic-simplex find-sic --d D --seed 1``
for D = 3..8.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cold-search", "cli-warm", "classify-stream")
# set-up-only processes are started for SETUP_WINDOW_S seconds, and at least
# SETUP_MIN_SAMPLES times, before and again after the measuring process, so
# that setup_s is a median over samples spread across the whole run
SETUP_WINDOW_S = 1.0
SETUP_MIN_SAMPLES = 1
WORKER_TIMEOUT_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Op and set-up times are reported at the host speed at which
# worker.ref_kernel takes REF_KERNEL_S: a typical speed of the 2-vCPU shared
# x86-64 host (numpy 2.4.6, one BLAS thread) the benchmark was written on,
# where the kernel's median over a run read 2.3 to 4.3 ms.
REF_KERNEL_S = 0.003
HOME_CATALOG = os.path.join(os.path.expanduser("~"), ".cache", "sic_simplex",
                            "fiducials.json")


class BenchError(Exception):
    pass


def spawn(workdir, tag, workload, seed, mode, seconds=0.0, trace=0):
    """Run one worker process to completion and return its result."""
    wdir = os.path.join(workdir, tag)
    os.makedirs(wdir)
    out = os.path.join(wdir, "result.json")
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["SIC_SIMPLEX_CATALOG"] = os.path.join(wdir, "catalog.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", repr(seconds), "--trace", str(trace),
           "--workdir", wdir, "--src", SRC, "--out", out]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], env=env,
                          cwd=ROOT, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    with open(out) as fh:
        return json.load(fh)


def tail(latencies_ms):
    """Value at the highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies_ms)
    n = len(xs)
    if n < 11:
        return xs[-1], {"percentile": 100.0, "samples": n, "beyond": 0,
                        "note": "fewer than 11 samples: maximum reported"}
    return xs[n - 11], {"percentile": 100.0 * (n - 10) / n, "samples": n,
                        "beyond": 10}


def host_scaled(value, ref_s):
    """``value`` at the reference host speed, given the reference kernel
    times ``ref_s`` measured beside it."""
    return value * REF_KERNEL_S / statistics.median(ref_s)


def loop_stats(res):
    """Op times in ms at the reference host speed, each scaled by the kernel
    times measured before it and the two ops either side."""
    ref = res["ref_s"]
    lat_ms = [host_scaled(x * 1e3, ref[max(0, i - 2):i + 3])
              for i, x in enumerate(res["latencies_s"])]
    attempted = len(lat_ms)
    ok = sum(res["passed"])
    if attempted == 0:
        raise BenchError("no op completed in the timed loop")
    return lat_ms, attempted, attempted - ok


def git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_commit": git_commit(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": {v: "1" for v in THREAD_VARS}},
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "workload_seed": seed}


def home_catalog_state():
    try:
        st = os.stat(HOME_CATALOG)
    except FileNotFoundError:
        return None
    return (st.st_mtime_ns, st.st_size)


def setup_time(res):
    return host_scaled(res["setup_s"], res["setup_ref_s"])


def setup_window(workdir, args, tag):
    """Set-up times of set-up-only processes started one after another."""
    samples = []
    start = time.monotonic()
    while (len(samples) < SETUP_MIN_SAMPLES
           or time.monotonic() - start < SETUP_WINDOW_S):
        res = spawn(workdir, f"{tag}{len(samples)}", args.workload, args.seed,
                    "setup")
        samples.append(setup_time(res))
    return samples


def run_untraced(workdir, args):
    before = setup_window(workdir, args, "setup-before")
    res = spawn(workdir, "measure", args.workload, args.seed, "measure",
                seconds=args.seconds)
    after = setup_window(workdir, args, "setup-after")
    lat_ms, attempted, failed = loop_stats(res)
    tail_ms, tail_info = tail(lat_ms)
    setup_samples = before + [setup_time(res)] + after
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": (attempted - failed) / (sum(lat_ms) / 1e3),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    detail = {"op_tail_ms": tail_info,
              "raw": {"ops_per_s": (attempted - failed)
                      / sum(res["latencies_s"]),
                      "op_p50_ms": 1e3 * statistics.median(res["latencies_s"]),
                      "op_tail_ms": tail([1e3 * x for x in
                                          res["latencies_s"]])[0],
                      "setup_s": res["setup_s"],
                      "ref_kernel_s": statistics.median(res["ref_s"])},
              "fail_frac": {"value": failed / attempted, "unit": "ratio"},
              "setup_s_samples": setup_samples,
              "mix": res["mix"], "cycles": res["cycles"],
              "ops_by_kind": dict(Counter(res["kinds"])),
              "failures": res["failures"]}
    return metrics, attempted, failed, [], detail


def run_traced(workdir, args):
    res = spawn(workdir, "traced", args.workload, args.seed, "measure",
                seconds=args.seconds, trace=1)
    plain_ms, plain_attempted, plain_failed = loop_stats(res)
    traced_ms, traced_attempted, traced_failed = loop_stats(res["traced"])
    layers = res["layers"]
    metrics = dict(layers["metrics"])
    metrics["trace.overhead_ratio"] = sum(plain_ms) / sum(traced_ms)
    attempted = plain_attempted + traced_attempted
    failed = plain_failed + traced_failed
    detail = {"tracing": {"spans": layers["span_count"],
                          "cycles_each_way": res["cycles"],
                          "overhead_ratio": "untraced over traced op time, "
                                            "each cycle run both ways on the "
                                            "same inputs in alternating order"},
              "fail_frac": {"value": failed / attempted, "unit": "ratio"},
              "mix": res["mix"], "ops_by_kind": dict(Counter(res["kinds"])),
              "failures": res["failures"] + res["traced"]["failures"]}
    return metrics, attempted, failed, list(layers["problems"]), detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "sic_simplex")):
        print(f"error: package source {SRC}/sic_simplex not found",
              file=sys.stderr)
        return 2

    home_before = home_catalog_state()
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
        runner = run_traced if args.trace else run_untraced
        metrics, attempted, failed, problems, detail = runner(workdir, args)
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if home_catalog_state() != home_before:
        problems.append(f"{HOME_CATALOG} was created or modified")

    detail.update({"workload": args.workload, "seconds": args.seconds,
                   "trace": args.trace, "env": environment(args.seed),
                   "self_check_problems": problems,
                   "wait": "no layer queues work, so there is no wait metric"})
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
