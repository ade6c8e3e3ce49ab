"""One workload in one fresh process: set-up, then a timed closed loop.

Started by ``run.py``; writes its result as JSON to ``--out``.  Set-up time
is measured from ``--t-spawn``, the parent's CLOCK_MONOTONIC reading taken
just before this process was started.
"""

import argparse
import functools
import importlib
import json
import os
import resource
import sys
import time

import numpy as np

import sic_simplex
import spans
from workloads import WORKLOADS

# functions wrapped in the traced run: module -> public functions
TRACED = {
    "su_basis": ("build_su_basis", "structure_constants", "star_product"),
    "simplex_geometry": ("to_point", "to_probabilities"),
    "bloch": ("to_bloch", "from_bloch", "is_state", "is_pure",
              "validate_density_matrix"),
    "sic_povm": ("get_fiducial", "find_fiducial", "displacement_operators",
                 "load_catalog", "save_catalog", "sic_residual", "build_sic"),
    "state_simplex": ("build_context", "state_to_probabilities",
                      "verify_b_equals_q", "classify_point",
                      "find_nonstate_sphere_point", "simulate_tomography",
                      "project_to_state"),
}


# detail kept from the return value of a traced call
NOTES = {
    "su_basis.structure_constants": lambda sc: int(sc.f.nbytes + sc.dsym.nbytes),
    "sic_povm.find_fiducial": lambda fid: bool(fid.converged),
    "cli.main": lambda code: code,
}


# Host-speed reference.  Other tenants of a shared host can slow every op by
# up to a third for minutes at a time.  This fixed mix of interpreter work and
# small-matrix calls, like the package's own, is timed before every op, so
# that run.py can scale op times to one host speed.
REF_MATS = [m + m.conj().T for m in
            np.random.default_rng(0).normal(size=(4, 8, 8, 2)) @ [1, 1j]]
REF_SETUP_REPEATS = 5


def ref_kernel():
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(128):
        m = REF_MATS[k % len(REF_MATS)]
        acc += float(np.linalg.eigvalsh(m)[0])
        acc += float(np.einsum('ij,ji->', m, m).real)
        acc += sum(x * x for x in range(60))
    return time.perf_counter() - t0


def cli_span_name(argv=None):
    return "cli." + (argv[0] if argv else "none")


def trace_targets():
    targets = []
    for module_name, functions in TRACED.items():
        module = importlib.import_module(f"sic_simplex.{module_name}")
        for fn in functions:
            name = f"{module_name}.{fn}"
            targets.append((module, fn, name, NOTES.get(name)))
    targets.append((importlib.import_module("sic_simplex.cli"), "main",
                    cli_span_name, NOTES["cli.main"]))
    return targets


def run_cycle(workload, first, rec):
    """Run, time and check ops ``first`` .. ``first + cycle - 1`` into ``rec``."""
    for i in range(first, first + workload.cycle):
        rec["ref_s"].append(ref_kernel())
        op = workload.prepare(i)
        error = None
        t0 = time.perf_counter()
        try:
            out = workload.run(op)
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if error is None:
            try:
                workload.check(op, out)
            except Exception as exc:  # includes CheckFailed
                error = f"check: {type(exc).__name__}: {exc}"
        rec["latencies_s"].append(t1 - t0)
        rec["kinds"].append(op["kind"])
        rec["passed"].append(error is None)
        if error is not None and len(rec["failures"]) < 5:
            rec["failures"].append({"op": i, "kind": op["kind"],
                                    "error": error[:300]})


def measure(workload, seconds, install=None):
    """Closed loop over whole cycles of ``workload.cycle`` ops, so that every
    run has the same op mix.  Another cycle starts while the mean cycle time
    says it ends within ``seconds``.

    With ``install`` (which installs the span wrappers and returns the patch
    list), every cycle runs twice on the same inputs, once wrapped and once
    not, in alternating order, so that a drift of the host's speed and the
    cost of the drawn inputs fall on both sides of the tracing overhead
    alike."""
    plain = {"latencies_s": [], "ref_s": [], "kinds": [], "passed": [],
             "failures": []}
    traced = {key: [] for key in plain}
    start = time.monotonic()
    cycles = 0
    while True:
        passes = [plain] if install is None else [plain, traced]
        if cycles % 2:
            passes.reverse()
        for rec in passes:
            patched = install() if rec is traced else None
            run_cycle(workload, cycles * workload.cycle, rec)
            if patched is not None:
                spans.restore(patched)
        cycles += 1
        elapsed = time.monotonic() - start
        if elapsed * (1.0 + 1.0 / cycles) > seconds:
            break
    result = dict(plain, cycles=cycles)
    if install is not None:
        result["traced"] = traced
    return result


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=["setup", "measure"], required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--t-spawn", dest="t_spawn", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if not os.path.abspath(sic_simplex.__file__).startswith(
            os.path.abspath(args.src) + os.sep):
        raise SystemExit(f"sic_simplex imported from {sic_simplex.__file__}, "
                         f"not from {args.src}")

    install = tracer = None
    if args.trace:
        tracer = spans.Tracer()
        install = functools.partial(spans.install, tracer, trace_targets())
    workload = WORKLOADS[args.workload](args.workdir, args.seed)
    # set-up is traced too: classify-stream builds all its contexts there
    patched = install() if install else None
    workload.setup()
    if patched is not None:
        spans.restore(patched)
    setup_s = time.monotonic() - args.t_spawn

    result = {"setup_s": setup_s,
              "setup_ref_s": [ref_kernel() for _ in range(REF_SETUP_REPEATS)]}
    if args.mode == "measure":
        result.update(measure(workload, args.seconds, install))
        result["mix"] = workload.mix()
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        result["layers"] = layer_report(tracer.spans, workload)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def layer_report(span_list, workload):
    """Per-function calls and self time, derived ratios and self-checks."""
    summary = spans.summarize(span_list)
    by_id = {s.id: s for s in span_list}
    report = {}
    for module_name, functions in TRACED.items():
        for fn in functions:
            row = summary.get(f"{module_name}.{fn}", {})
            report[f"{module_name}.{fn}.calls"] = row.get("calls", 0)
            report[f"{module_name}.{fn}.self_ms"] = row.get("self_ms", 0.0)
    for command in ("verify", "tomography", "convert", "geometry"):
        row = summary.get(f"cli.{command}", {})
        report[f"cli.{command}.calls"] = row.get("calls", 0)
        report[f"cli.{command}.self_ms"] = row.get("self_ms", 0.0)

    sc = [s for s in span_list if s.name == "su_basis.structure_constants"
          and s.note is not None]
    report["su_basis.structure_constants.bytes"] = max(
        (s.note for s in sc), default=0)
    gets = [s for s in span_list if s.name == "sic_povm.get_fiducial"]
    finds = [s for s in span_list if s.name == "sic_povm.find_fiducial"]
    searched = {s.parent for s in finds if s.parent is not None
                and by_id[s.parent].name == "sic_povm.get_fiducial"}
    report["sic_povm.get_fiducial.hit_ratio"] = (
        (len(gets) - len(searched)) / len(gets) if gets else 0.0)
    report["sic_povm.find_fiducial.converged_ratio"] = (
        sum(1 for s in finds if s.note) / len(finds) if finds else 0.0)
    report["sic_povm.build_sic.errors"] = summary.get(
        "sic_povm.build_sic", {}).get("errors", 0)
    report["cli.errors"] = sum(
        1 for s in span_list if s.name.startswith("cli.")
        and (s.error or s.note != 0))

    problems = []
    if report["sic_povm.get_fiducial.hit_ratio"] != workload.hit_ratio:
        problems.append(
            f"get_fiducial.hit_ratio {report['sic_povm.get_fiducial.hit_ratio']}"
            f" != {workload.hit_ratio}")
    for name in workload.exercises:
        if report[f"{name}.calls"] == 0:
            problems.append(f"{name} has no calls")
    return {"metrics": report, "problems": problems,
            "span_count": len(span_list)}


if __name__ == "__main__":
    sys.exit(main())
