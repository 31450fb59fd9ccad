"""Seeded benchmark of the XBioSiP reproduction: ``sweep``, ``rerun``, ``stream``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

or, for all six end-to-end metrics of all three workloads::

    for w in sweep rerun stream; do python3 perfbench/run.py --workload $w --seed 1; done

Each workload runs in fresh single processes (``perfbench/workload.py``)
that use only the package's public API: a serial runtime, no worker
threads, one closed-loop caller.

* ``sweep``  one op = a fresh ``ExplorationRuntime(executor="serial")``
  evaluating the Fig. 12 set (A2 + B1..B14) on one seeded 10 s record,
  result cache bypassed.
* ``rerun``  the same op over a SQLite signal store that an untimed process
  filled from the same seed: every stage node is a warm hit.
* ``stream`` one op = one 50-sample ``StreamSession.push`` for B10 with
  ground-truth quality on; sessions over one seeded 60 s record run back to
  back.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` and ``cold_s``
(medians over seven fresh processes), ``p50_ms``, ``tail_ms`` (per block of
>= 100 ops the highest percentile with ten samples beyond it, median over
blocks), ``per_s`` (work per second over the run) and ``peak_mb``.  This
CPU can run the same code up to ~1.9x slower for seconds to minutes, so
timings are scaled to a reference machine speed measured by fixed kernels
run between ops and around set-up and the cold op
(``perfbench/calibration.py``); raw timings are printed beside them.  ``--trace 1`` prints the per-layer metrics of a run whose windows
alternate between untraced and traced (span wrappers installed from
``perfbench/layers.py``), and writes the traced spans as a Chrome trace
under ``.perfbench_out/``.

Every op's output is checked: ``sweep``/``rerun`` evaluations field for field
against memo-less ``run_design_evaluation`` references, every finished
stream session's beats against the offline pipeline.  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from calibration import bulk_scale

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "rerun", "stream")

#: Fresh processes that only set up and run the cold op, besides the measured
#: one; ``setup_s`` and ``cold_s`` are medians over all of them.
PROBES = 6

#: Every run must end well inside the 180 s limit.
RUN_BUDGET_S = 170.0

PER_LAYER_UNITS = {
    "arithmetic.calls": "count",
    "arithmetic.self_ms": "ms",
    "arithmetic.lut_builds": "count",
    "arithmetic.lut_mb": "MB",
    "dsp.stage_runs": "count",
    "dsp.stage_self_ms": "ms",
    "dsp.detect_calls": "count",
    "dsp.detect_ms": "ms",
    "core.resolves": "count",
    "core.hit_ratio": "ratio",
    "core.warm_hits": "count",
    "core.key_ms": "ms",
    "core.resolve_self_ms": "ms",
    "store.gets": "count",
    "store.puts": "count",
    "store.get_ms": "ms",
    "store.put_ms": "ms",
    "energy.calls": "count",
    "energy.ms": "ms",
    "metrics.calls": "count",
    "metrics.psnr_ms": "ms",
    "metrics.ssim_ms": "ms",
    "metrics.match_ms": "ms",
    "runtime.init_ms": "ms",
    "runtime.self_ms": "ms",
    "streaming.self_ms": "ms",
    "streaming.detect_ms": "ms",
    "streaming.rescans": "count",
    "signals.synth_ms": "ms",
    "repro.import_s": "s",
    "trace.overhead": "ratio",
}


class BenchError(RuntimeError):
    """A workload process failed; the run prints no result."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    source = os.path.join(root, "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Serial runtime: keep numerical libraries from starting thread pools.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(mode: str, args, work_dir: str, out_dir: str, env: dict, deadline: float):
    """Run one workload process; returns (spawn time, its JSON document)."""
    command = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--dir", work_dir,
        "--out", out_dir,
    ]
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    spawned = time.perf_counter()
    try:
        completed = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process timed out") from exc
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise BenchError(f"{mode} process exited with {completed.returncode}")
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed nothing")
    return spawned, json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def fresh_times(document: dict, spawned: float):
    """(setup_s, cold_s) of one fresh process: raw, then at reference speed."""
    setup = document["ready"] - spawned - document["pause_s"]
    cold = document["cold_s"]
    return (
        setup,
        cold,
        setup * bulk_scale(document["setup_kernel_s"]),
        cold * bulk_scale(document["cold_kernel_s"]),
    )


def end_to_end(measured: dict, fresh: list) -> dict:
    return {
        "setup_s": metric(statistics.median(row[2] for row in fresh), "s"),
        "cold_s": metric(statistics.median(row[3] for row in fresh), "s"),
        "p50_ms": metric(measured["p50_s"] * 1e3, "ms"),
        "tail_ms": metric(measured["tail_s"] * 1e3, "ms"),
        "per_s": metric(measured["per_s"], "1/s"),
        "peak_mb": metric(measured["peak_mb"], "MB"),
    }


def per_layer(measured: dict) -> dict:
    trace = measured["trace"]
    ops = trace["ops"]
    self_s = trace["self_s"]
    calls = trace["calls"]
    entries = trace["entries"]
    counts = trace["counts"]

    def ms(*layers):
        return sum(self_s.get(layer, 0.0) for layer in layers) * 1e3 / ops

    def per_op(*names, table=calls):
        return sum(table.get(name, 0) for name in names) / ops

    resolves = counts.get("stage_computes", 0) + counts.get("stage_hits", 0)
    setup_scale = bulk_scale(measured["setup_kernel_s"])
    values = {
        "arithmetic.calls": per_op("arithmetic", table=entries),
        "arithmetic.self_ms": ms("arithmetic"),
        "arithmetic.lut_builds": measured["cold_builds"],
        "arithmetic.lut_mb": measured["lut_mb"],
        "dsp.stage_runs": per_op("run_stage"),
        "dsp.stage_self_ms": ms("dsp.stage"),
        "dsp.detect_calls": per_op("detect_peaks"),
        "dsp.detect_ms": ms("dsp.detect"),
        "core.resolves": resolves / ops,
        "core.hit_ratio": counts.get("stage_hits", 0) / resolves if resolves else 0.0,
        "core.warm_hits": counts.get("warm_hits", 0) / ops,
        "core.key_ms": ms("core.key"),
        "core.resolve_self_ms": ms("core.resolve"),
        "store.gets": per_op("memory_get", "sqlite_get"),
        "store.puts": per_op("memory_put", "sqlite_put"),
        "store.get_ms": ms("store.get"),
        "store.put_ms": ms("store.put"),
        "energy.calls": per_op("energy", table=entries),
        "energy.ms": ms("energy"),
        "metrics.calls": per_op("metrics", table=entries),
        "metrics.psnr_ms": ms("metrics.psnr"),
        "metrics.ssim_ms": ms("metrics.ssim"),
        "metrics.match_ms": ms("metrics.match"),
        "runtime.init_ms": trace["incl_s"].get("runtime_init", 0.0) * 1e3 / ops,
        "runtime.self_ms": ms("runtime", "runtime.init"),
        "streaming.self_ms": ms("streaming"),
        "streaming.detect_ms": ms("streaming.detect"),
        "streaming.rescans": measured.get("session_rescans", 0),
        "signals.synth_ms": measured["synth_s"] * 1e3 * setup_scale,
        "repro.import_s": measured["import_s"] * setup_scale,
        "trace.overhead": trace["overhead"],
    }
    return {name: metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def describe(args, measured: dict, fresh: list, metrics: dict) -> None:
    """Human-readable lines before the JSON result."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if args.trace:
        for name, entry in metrics.items():
            print(f"  {name:<24} {entry['value']:>14.6g} {entry['unit']}")
        print(f"  traced ops {measured['trace']['ops']}; spans: {measured['trace']['path']}")
    else:
        samples = measured["samples"]
        raw = {
            "setup_s": statistics.median(row[0] for row in fresh),
            "cold_s": statistics.median(row[1] for row in fresh),
            "p50_ms": measured["raw_p50_s"] * 1e3,
            "tail_ms": measured["raw_tail_s"] * 1e3,
            "per_s": measured["raw_per_s"],
            "peak_mb": measured["peak_mb"],
        }
        notes = {
            "setup_s": f"median of {len(fresh)} fresh processes",
            "cold_s": f"median of {len(fresh)} fresh processes",
            "p50_ms": f"median over {samples} ops",
            "tail_ms": f"p{measured['tail_pct']:.2f}, median of "
            f"{measured['tail_blocks']} blocks of >= 100 ops (10 beyond each)",
            "per_s": f"{measured['unit']} over the same {samples} ops",
            "peak_mb": "peak RSS of the measured process",
        }
        print("  metric    reference-speed      raw  unit")
        for name, entry in metrics.items():
            print(
                f"  {name:<8} {entry['value']:>12.4f} {raw[name]:>12.4f}  "
                f"{entry['unit']:<4} {notes[name]}"
            )
        print(f"  machine speed: measured/reference time x{1 / measured['run_scale']:.3f}")
    if args.workload == "stream":
        print(
            f"  sessions {measured['sessions']}, rescans per session "
            f"{measured['session_rescans']}"
        )
    else:
        print(f"  stage counts per op {measured['cold_counts']}")
    print(f"  tables built by the cold op {measured['cold_builds']}")
    for failure in measured["failures"]:
        print(f"  FAILED: {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        sys.stderr.write("perfbench: run from the repository root (src/repro not found)\n")
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    env = child_env(root)
    out_dir = os.path.join(root, ".perfbench_out")
    work_dir = os.path.join(
        root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    os.makedirs(work_dir)
    try:
        if args.workload == "rerun":
            run_child("fill", args, work_dir, out_dir, env, deadline)
        probes = []
        if not args.trace:
            for _ in range(PROBES):
                probes.append(run_child("probe", args, work_dir, out_dir, env, deadline))
        spawned, measured = run_child("measure", args, work_dir, out_dir, env, deadline)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run is still using it

    fresh = [fresh_times(measured, spawned)]
    failed = measured["failed"]
    attempted = measured["attempted"] + len(probes)
    for probe_spawned, probe in probes:
        fresh.append(fresh_times(probe, probe_spawned))
        if (
            probe["cold_output"] != measured["cold_output"]
            or probe["cold_counts"] != measured["cold_counts"]
            or probe["cold_builds"] != measured["cold_builds"]
        ):
            measured["failures"].append("a fresh process's cold op differs")
            failed += 1

    if args.trace:
        metrics = per_layer(measured)
    else:
        metrics = end_to_end(measured, fresh)
    describe(args, measured, fresh, metrics)
    print(
        json.dumps(
            {
                "correct": failed == 0 and not measured["failures"],
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
