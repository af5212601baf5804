#!/usr/bin/env python3
"""Benchmark launcher for the specblend pipeline.

    python3 perfbench/run.py --workload sd_fold_long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

A named workload runs in this process and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload in its own
process, untraced, prints each metric by name and unit, and with
``--trace 1`` also a traced run per workload and its overhead.

The program is imported from ``src/`` beside this directory and nowhere
else; without it the launcher exits 2.  BLAS threads are pinned to one
before NumPy loads, which never exceeds the usable cores: on a shared
two-core machine two BLAS threads widened the run-to-run spread of
``protocol_s`` for a gain of a few percent.
"""

import time

T_LAUNCH = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = 1
sys.path.insert(0, ROOT)
from perfbench.workloads import WORKLOADS  # noqa: E402  (no NumPy import)

NAMES = tuple(WORKLOADS)


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def run_child(args, name, trace):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"workload {name} (trace {trace}) exited {proc.returncode}")
    return last_json(proc.stdout)


def run_all(args):
    from perfbench.bench import END_TO_END
    combined = {}
    for name in NAMES:
        res = run_child(args, name, 0)
        print(f"== {name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
        for key in END_TO_END:
            m = res["metrics"].get(key)
            print(f"   {key:16s} {m['value']:.6g} {m['unit']}" if m else f"   {key} missing",
                  flush=True)
        entry = {"untraced": res}
        if args.trace:
            traced = run_child(args, name, 1)
            overhead = (traced["metrics"]["trace.protocol_s"]["value"]
                        - res["metrics"]["protocol_s"]["value"])
            print(f"   traced: correct={traced['correct']} "
                  f"{len(traced['metrics'])} per-layer metrics, "
                  f"tracing overhead {overhead:+.3f} s on protocol_s", flush=True)
            entry["traced"] = traced
            entry["trace_overhead_s"] = overhead
        combined[name] = entry
    print(json.dumps(combined))
    return 0 if all(e["untraced"]["correct"] for e in combined.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    if not os.path.isfile(os.path.join(ROOT, "src", "specblend", "__init__.py")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.probe_setup:
        from perfbench.bench import probe_setup
        probe_setup(args.workload, args.seed, T_LAUNCH)
        return 0
    if args.workload == "all":
        return run_all(args)

    from perfbench.bench import END_TO_END, OUT_DIR, environment, run_workload
    result, info, tracer = run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), T_LAUNCH)
    env = environment(BLAS_THREADS)
    units = dict(END_TO_END)
    if args.trace:
        from perfbench.trace import per_layer_units
        units = per_layer_units()
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in result["metrics"].items()}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}_seed{args.seed}_trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "info": info, "result": result,
                   "written": time.strftime("%Y-%m-%dT%H:%M:%S")}, fh, indent=1)
    if tracer is not None:
        tracer.write_jsonl(stem + "_spans.jsonl")

    print("env " + json.dumps(env))
    for fold in info.get("folds", []):
        print("fold " + json.dumps(fold))
    if info.get("baseline"):
        print("classical baseline " + json.dumps(info["baseline"]))
    for failure in info["failures"]:
        print("FAIL " + failure)
    for key in info.get("unmeasured", []):
        print("unmeasured " + key)
    for key, m in result["metrics"].items():
        print(f"metric {key} {m['value']!r} {m['unit']}")
    print(f"rounds {info['rounds']} attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
