"""delta-forge benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of jet-prolong, cocycle-witt, cocycle-series, cli-session, or
``all``.  Run it from the repository root; it imports the library from
``src/`` of the same tree and installs nothing.

With ``--trace 0`` it measures the end-to-end metrics: every workload is a
closed loop with one caller (one process, one thread; cli-session runs one
child process at a time), ops are run in whole rounds until S seconds have
passed, and every op is checked.  Timings are scaled by a reference kernel
timed next to them (see ``harness.REFERENCE_S``), which takes out the drift
in core speed of a shared machine; the raw wall-clock figures are printed
beside them.  The process and its children stay on one CPU.  With
``--trace 1`` it measures the ring kernels, then runs a fixed number of
rounds untraced and the same rounds again with layer-boundary spans
installed, and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table with the provenance of the run.  A copy of the result,
and in traced runs the spans, is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

from harness import (
    DEFAULT_SEED,
    ROOT,
    SRC,
    PassResult,
    fold,
    latency_figures,
    min_ops_for,
    next_op,
    probe_setup,
    provenance,
    recorded_digests,
    run_op,
    run_pass,
    scaled,
)

OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 9


def _load_library():
    if not os.path.isfile(os.path.join(SRC, "delta_forge", "__init__.py")):
        raise SystemExit(f"error: no delta_forge package under {SRC}")
    sys.path.insert(0, SRC)
    import delta_forge

    if os.path.dirname(os.path.abspath(delta_forge.__file__)) != os.path.join(SRC, "delta_forge"):
        raise SystemExit(f"error: delta_forge imported from {delta_forge.__file__}, not {SRC}")


def _digest_info(workload, res, expected):
    prefix = res.digests[:workload.digest_ops]
    info = {"digest": fold(prefix) if "-" not in prefix else None,
            "digest_ops": workload.digest_ops}
    if expected is not None:
        info["digest_matches_record"] = prefix == expected[:workload.digest_ops]
    return info


def end_to_end(name, seed, seconds):
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    info = provenance(seed)
    setup_s, raw_setup_s = probe_setup(name, seed, SETUP_REPEATS)
    state = w.setup(seed)
    expected = recorded_digests(name, seed)
    min_ops = max(w.digest_ops, min_ops_for(w.tail_cap))
    res = run_pass(w, state, seed, seconds=seconds, min_ops=min_ops, expected=expected)
    if name == "cli-session":
        peak_kb = state.peak_child_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    figures = latency_figures(scaled(res.latencies, res.refs), w.tail_cap)
    raw = latency_figures(res.latencies, w.tail_cap)
    metrics = {
        "ops_per_s": (figures["ops_per_s"], "1/s"),
        "op_p50_ms": (figures["op_p50_ms"], "ms"),
        "op_tail_ms": (figures["op_tail_ms"], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    info["raw_wall_clock"] = {k: raw[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")}
    info["raw_wall_clock"]["setup_s"] = raw_setup_s
    info["reference_ms_median"] = statistics.median(res.refs) * 1e3
    info.update(ops=res.ops, rounds=res.rounds, tail_percentile=figures["tail_percentile"],
                fail_ratio=len(res.failures) / res.ops, **_digest_info(w, res, expected))
    return res, metrics, info


def traced(name, seed):
    """Ring kernels, then each op of ``trace_rounds`` rounds twice in a row:
    once as is and once with spans installed, so that slow phases of a
    shared machine fall on both sides of the overhead comparison."""
    import delta_forge as df
    from kernels import baseline_report, ring_kernels
    from spans import Tracer, layer_metrics, wrapped_names
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    info = provenance(seed)
    metrics = ring_kernels(seed)
    expected = recorded_digests(name, seed)

    tracer = Tracer()
    plain_state = w.setup(seed)
    with tracer.installed(df):  # set-up spans carry op id -1
        traced_state = w.setup(seed)
    if name == "cli-session":  # the traced replay runs through cli.main
        plain_state.inprocess = traced_state.inprocess = True
        traced_state.tracer = tracer
    plain, res = PassResult(), PassResult()
    for r in range(w.trace_rounds):
        gen_plain, gen_traced = w.ops(plain_state, seed, r), w.ops(traced_state, seed, r)
        while (op := next_op(gen_plain)) is not None:
            plain.record(*run_op(op), expected)
            op = next_op(gen_traced, tracer)
            tracer.op_id = res.ops
            with tracer.installed(df):
                res.record(*run_op(op), expected)
    tracer.op_id = -1
    leftover = wrapped_names()
    if leftover:
        raise RuntimeError(f"tracer left wrappers installed: {leftover}")

    metrics.update(layer_metrics(tracer.spans, tracer.counts))
    metrics["trace.overhead_pct"] = ((res.busy_s / plain.busy_s - 1) * 100, "%")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json"))
    mismatched = [i for i, (a, b) in enumerate(zip(plain.digests, res.digests))
                  if a != b and "-" not in (a, b)]
    res.failures += [(i, "traced output differs from untraced") for i in mismatched]
    res.failures += plain.failures
    res.latencies += plain.latencies
    info.update(ops=res.ops, rounds=w.trace_rounds, spans=len(tracer.spans),
                fail_ratio=len(res.failures) / res.ops, **_digest_info(w, plain, expected))
    info["kernel_report"] = baseline_report({k: v for k, v in metrics.items()
                                             if k.startswith("rings.") and k.endswith("_us")})
    return res, metrics, info


def _print_table(name, trace, res, metrics, info):
    print(f"== {name} (trace {trace}) ==")
    for key in ("seed", "python", "git_revision", "nproc", "pinned_cpus", "loadavg_1m",
                "ops", "rounds",
                "tail_percentile", "spans", "digest", "digest_matches_record",
                "reference_ms_median", "raw_wall_clock"):
        if key in info:
            print(f"  {key:22s} {info[key]}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:40s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':40s} {info['fail_ratio']:14.6g} ratio "
          f"({len(res.failures)}/{res.ops})")
    for idx, reason in res.failures[:5]:
        print(f"  failed op {idx}: {reason}")
    for line in info.get("kernel_report", []):
        print("  " + line)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _load_library()
    from workloads import WORKLOADS

    # one core for the benchmark and its children, so that the reference
    # timings run where the ops run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            ap.error(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)} or all")

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        if args.trace:
            res, metrics, info = traced(name, args.seed)
        else:
            res, metrics, info = end_to_end(name, args.seed, args.seconds)
        _print_table(name, args.trace, res, metrics, info)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump({"workload": name, "trace": args.trace, "provenance": info,
                       "failures": res.failures,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                      fh, indent=1)
        total["attempted"] += res.ops
        total["failed"] += len(res.failures)
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in metrics.items():
            total["metrics"][prefix + key] = {"value": value, "unit": unit}
    total["correct"] = total["failed"] == 0
    sys.stdout.flush()
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
