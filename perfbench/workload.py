"""One workload process of the benchmark (started by ``perfbench/run.py``).

Modes
-----
``fill``     untimed: fill the ``rerun`` SQLite signal store from the seed and
             write the memo-less reference evaluations next to it.
``probe``    a fresh process that sets up and runs the cold op, then exits
             (one ``setup_s`` / ``cold_s`` sample).
``measure``  set up, run the cold op, compute or load the reference, then
             run ops closed-loop for ``--seconds``, checking every output.

Every mode prints one JSON document as its last stdout line.  Only the
package's public API is used; ``repro.obs`` tracing stays off.  With
``--trace 1`` the measure loop alternates untraced and traced windows (see
``layers.py``) so per-layer self times and the tracing overhead come from
the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

#: Minimum length of one measurement window.  Traced runs alternate untraced
#: and traced windows; windows end on a unit boundary (an op for
#: ``sweep``/``rerun``, a whole session for ``stream``), so per-layer counts
#: cover whole sessions.
WINDOW_S = 1.0

#: The tail percentile has at least this many samples beyond it.
TAIL_SAMPLES = 10

#: Ops per tail block.  Short bursts of slowness on a shared CPU hit ~1% of
#: ops at random; the tail of one whole run is then mostly a count of those
#: bursts.  Taking the tail in consecutive blocks of at least this many ops
#: and reporting the median over blocks keeps it a property of the program.
TAIL_BLOCK = 100

#: Stream chunk: 50 samples = 250 ms of a 200 Hz recording.
CHUNK_SAMPLES = 50
STREAM_DESIGN = "B10"
STREAM_RECORD_S = 60.0
SWEEP_RECORD_S = 10.0


def record_name(seed: int) -> str:
    """The seeded record name; any name synthesises a deterministic record."""
    return "pb%08x" % random.Random(seed).getrandbits(32)


def evaluation_doc(evaluation) -> dict:
    """Every field of a ``DesignEvaluation`` as plain JSON values."""
    return {
        "design": evaluation.design.name,
        "psnr_db": float(evaluation.psnr_db),
        "ssim_value": float(evaluation.ssim_value),
        "peak_accuracy": float(evaluation.peak_accuracy),
        "detected_peaks": int(evaluation.detected_peaks),
        "true_peaks": int(evaluation.true_peaks),
        "energy_reduction": float(evaluation.energy_reduction),
        "per_record_accuracy": {
            name: float(value)
            for name, value in sorted(evaluation.per_record_accuracy.items())
        },
    }


def canonical(document) -> str:
    # json writes floats with repr, so equal strings mean bit-equal floats.
    return json.dumps(document, sort_keys=True)


# --------------------------------------------------------------- workloads
class Sweep:
    """Fresh serial runtime evaluating the Fig. 12 set, result cache bypassed."""

    unit = "designs/s"

    def __init__(self, seed: int, work_dir: str, store: bool = False) -> None:
        from repro import ExplorationRuntime, load_record
        from repro.core import paper_configuration, paper_configuration_names

        self._runtime_class = ExplorationRuntime
        started = time.perf_counter()
        self.record = load_record(record_name(seed), duration_s=SWEEP_RECORD_S)
        self.synth_s = time.perf_counter() - started
        self.designs = [paper_configuration(n) for n in paper_configuration_names()]
        self.work_per_op = len(self.designs)
        self.array_size = self.record.samples.size
        self.store = None
        if store:
            from repro.runtime import SQLiteSignalStore

            self.store = SQLiteSignalStore(os.path.join(work_dir, "signals.sqlite"))

    def at_boundary(self) -> bool:
        return True

    def op(self):
        started = time.perf_counter()
        runtime = self._runtime_class(
            [self.record], executor="serial", signal_store=self.store
        )
        evaluations = runtime.evaluate_many(self.designs, use_cache=False)
        latency = time.perf_counter() - started
        stats = runtime.stage_stats
        counts = {
            "stage_computes": stats.total_computes,
            "stage_hits": stats.total_hits,
            "warm_hits": stats.total_warm_hits,
        }
        return latency, canonical([evaluation_doc(e) for e in evaluations]), counts

    def check(self, output: str, reference: str) -> bool:
        return output == reference

    def reference(self) -> str:
        """Memo-less evaluations of every design (no stage graph at all)."""
        from repro.core.quality import run_design_evaluation
        from repro.dsp.pan_tompkins import PanTompkinsPipeline

        accurate = {self.record.name: PanTompkinsPipeline().process(self.record.samples)}
        return canonical(
            [
                evaluation_doc(
                    run_design_evaluation(d, [self.record], accurate, stage_memo=None)
                )
                for d in self.designs
            ]
        )

    def close(self) -> None:
        if self.store is not None:
            self.store.close()


class Stream:
    """Back-to-back B10 stream sessions over one seeded record, 50-sample pushes."""

    unit = "samples/s"

    def __init__(self, seed: int, work_dir: str) -> None:
        from repro import load_record
        from repro.core import paper_configuration
        from repro.streaming import StreamSession

        self._session_class = StreamSession
        started = time.perf_counter()
        self.record = load_record(record_name(seed), duration_s=STREAM_RECORD_S)
        self.synth_s = time.perf_counter() - started
        self.design = paper_configuration(STREAM_DESIGN)
        samples = self.record.samples
        self.chunks = [
            samples[i : i + CHUNK_SAMPLES] for i in range(0, samples.size, CHUNK_SAMPLES)
        ]
        self.work_per_op = CHUNK_SAMPLES
        self.array_size = CHUNK_SAMPLES
        self.session = None
        self.index = 0
        self.rescans = 0
        #: (beats, rescanning chunks) of every finished session.
        self.sessions = []
        #: Per-chunk reports of the first session; every later session must
        #: repeat them exactly, chunk for chunk.
        self.first_session = []
        self.last_index = 0

    def at_boundary(self) -> bool:
        return self.session is None

    def op(self):
        if self.session is None:
            self.session = self._session_class(
                design=self.design,
                sample_rate_hz=self.record.sample_rate_hz,
                true_peaks=self.record.r_peak_indices,
            )
            self.rescans = 0
        started = time.perf_counter()
        report = self.session.push(self.chunks[self.index])
        latency = time.perf_counter() - started
        if report.beats_removed:
            self.rescans += 1
        self.index += 1
        output = canonical(
            [
                [int(b) for b in report.beats_added],
                [int(b) for b in report.beats_removed],
                int(report.beat_count),
            ]
        )
        self.last_index = self.index - 1
        if not self.sessions:
            self.first_session.append(output)
        if self.index == len(self.chunks):
            result = self.session.finalize()
            self.sessions.append(
                ([int(b) for b in result.detection.peak_indices], self.rescans)
            )
            self.session = None
            self.index = 0
        return latency, output, {}

    def check(self, output: str, reference: str) -> bool:
        """A chunk report must repeat the first session's report exactly.

        The first session itself is checked as a whole: its final beats
        must equal the offline pipeline's (``reference``).
        """
        return output == self.first_session[self.last_index]

    def reference(self) -> str:
        from repro.dsp.pan_tompkins import PanTompkinsPipeline

        offline = PanTompkinsPipeline(backends=self.design.backends())
        result = offline.process(self.record.samples)
        return canonical([int(b) for b in result.detection.peak_indices])

    def close(self) -> None:
        pass


def make_workload(name: str, seed: int, work_dir: str):
    if name == "stream":
        return Stream(seed, work_dir)
    return Sweep(seed, work_dir, store=name == "rerun")


def registry_builds() -> int:
    from repro.arithmetic.compiled import registry_info

    return int(registry_info()["builds"])


# -------------------------------------------------------------------- modes
def setup(args):
    """Import the package and build the inputs; returns (workload, timings).

    The bulk calibration kernel runs once NumPy is imported and again when
    set-up is done; its own time is excluded from set-up.
    """
    import numpy  # noqa: F401  (set-up work: the package imports it first)

    from calibration import bulk_kernel

    paused = time.perf_counter()
    before = bulk_kernel()
    pause_s = time.perf_counter() - paused
    started = time.perf_counter()
    import repro  # noqa: F401  (timed: the package import is set-up work)

    import_s = time.perf_counter() - started
    workload = make_workload(args.workload, args.seed, args.dir)
    ready = time.perf_counter()
    after = bulk_kernel()
    return workload, {
        "ready": ready,
        "pause_s": pause_s,
        "setup_kernel_s": (before + after) / 2.0,
        "after_setup_kernel_s": after,
        "import_s": import_s,
        "synth_s": workload.synth_s,
    }


def cold_op(workload, timings) -> dict:
    """The first op of a fresh process, lazy LUT compilation included."""
    from calibration import bulk_kernel

    latency, output, counts = workload.op()
    after = bulk_kernel()
    return {
        "cold_s": latency,
        "cold_kernel_s": (timings["after_setup_kernel_s"] + after) / 2.0,
        "cold_output": output,
        "cold_counts": counts,
        "cold_builds": registry_builds(),
    }


def run_fill(args) -> dict:
    """Fill the rerun store from the seed; write the reference evaluations."""
    workload = Sweep(args.seed, args.dir, store=True)
    workload.op()
    workload.close()
    reference = workload.reference()
    with open(os.path.join(args.dir, "reference.json"), "w", encoding="utf-8") as handle:
        handle.write(reference)
    return {"filled": True}


def run_probe(args) -> dict:
    workload, timings = setup(args)
    document = dict(timings, **cold_op(workload, timings))
    workload.close()
    return document


def block_tail(latencies):
    """(tail, percentile): per block, the highest percentile with
    TAIL_SAMPLES beyond it; the median over blocks of >= TAIL_BLOCK ops."""
    blocks = max(1, len(latencies) // TAIL_BLOCK)
    size = len(latencies) / blocks
    tails, percentiles = [], []
    for block in range(blocks):
        values = sorted(latencies[round(block * size) : round((block + 1) * size)])
        index = max(0, len(values) - 1 - TAIL_SAMPLES)
        tails.append(values[index])
        percentiles.append(100.0 * (index + 1) / len(values))
    return statistics.median(tails), statistics.mean(percentiles), blocks


def run_measure(args) -> dict:
    from calibration import Calibration

    workload, timings = setup(args)
    cold = cold_op(workload, timings)
    if args.workload == "rerun":
        with open(os.path.join(args.dir, "reference.json"), encoding="utf-8") as handle:
            reference = handle.read()
    else:
        reference = workload.reference()
    failures = []
    if args.workload != "stream" and cold["cold_output"] != reference:
        failures.append("cold op output differs from the reference")
    if args.workload == "rerun" and (cold["cold_builds"] or cold["cold_counts"]["stage_computes"]):
        failures.append("rerun cold op computed a stage or built a table")

    wrappers = recorder = None
    if args.trace:
        from layers import LayerWrappers, SpanRecorder

        recorder = SpanRecorder()
        wrappers = LayerWrappers(recorder)

    builds_before = registry_builds()
    ops = []  # (latency, index of the kernel sample before it, traced)
    windows = []  # (traced, ops, work, seconds of work, first kernel, last kernel)
    failed_ops = len(failures)
    traced_counts = []
    op_id = 0
    # The kernel runs between consecutive ops, so each op is bracketed by two
    # measurements of the machine's speed.
    calibration = Calibration(workload.array_size)
    scale = calibration.scale
    calibration.measure()
    deadline = time.perf_counter() + args.seconds
    traced = False
    while time.perf_counter() < deadline:
        if wrappers is not None:
            traced = not traced and bool(windows)  # first window untraced
            if traced:
                wrappers.install()
            else:
                wrappers.remove()
            recorder.active = traced
        window_start = time.perf_counter()
        first_op = len(ops)
        spent_before = calibration.spent_s
        first_kernel = len(calibration.samples) - 1
        count = 0
        while True:
            op_id += 1
            if traced:
                recorder.op_id = op_id
                recorder.enter("op", "op")
            latency, output, counts = workload.op()
            if traced:
                recorder.exit()
                traced_counts.append(counts)
            ops.append((latency, len(calibration.samples) - 1, traced))
            calibration.measure()
            count += 1
            bad = not workload.check(output, reference) or counts != cold["cold_counts"]
            if args.workload == "rerun" and counts["stage_computes"]:
                bad = True
            failed_ops += bad
            if time.perf_counter() - window_start >= WINDOW_S and workload.at_boundary():
                break
        work_s = time.perf_counter() - window_start - (calibration.spent_s - spent_before)
        windows.append(
            (
                traced,
                count,
                count * workload.work_per_op,
                work_s,
                first_kernel,
                len(calibration.samples) - 1,
                range(first_op, len(ops)),
            )
        )
    if wrappers is not None:
        wrappers.remove()
        recorder.active = False
    steady_builds = registry_builds() - builds_before
    if steady_builds:
        failures.append(f"{steady_builds} tables built after the cold op")
        failed_ops += 1

    attempted = op_id + 1
    if args.workload == "stream":
        session_rescans = sorted({rescans for _, rescans in workload.sessions})
        for beats, _ in workload.sessions:
            if canonical(beats) != reference:
                failures.append("a stream session's beats differ from offline")
                failed_ops += 1
        if len(session_rescans) > 1:
            failures.append(f"rescans differ between sessions: {session_rescans}")
            failed_ops += 1
        if not workload.sessions:
            failures.append("no stream session finished")
            failed_ops += 1
    workload.close()

    kernels = [value for _, value in calibration.samples]

    def op_scale(index: int) -> float:
        # The kernel samples just before and just after the op.
        return scale((kernels[index] + kernels[index + 1]) / 2.0)

    def rate(want_traced: bool, scaled: bool) -> float:
        """Work per second over the windows of one kind.

        Scaled: each op's latency at the speed bracketing it, plus the time
        between ops at the window's median kernel speed.
        """
        work = seconds = 0.0
        for traced_window, _, window_work, work_s, first, last, op_slice in windows:
            if traced_window != want_traced:
                continue
            work += window_work
            if not scaled:
                seconds += work_s
                continue
            latencies = [ops[i][0] for i in op_slice]
            between = work_s - sum(latencies)
            seconds += sum(ops[i][0] * op_scale(ops[i][1]) for i in op_slice)
            seconds += between * scale(statistics.median(kernels[first : last + 1]))
        return work / seconds

    raw = [latency for latency, _, traced_op in ops if not traced_op]
    scaled = [
        latency * op_scale(index) for latency, index, traced_op in ops if not traced_op
    ]
    tail, tail_pct, tail_blocks = block_tail(scaled)
    run_scale = scale(statistics.median(kernels))
    result = dict(timings)
    result.update(cold)
    result.update(
        {
            "attempted": attempted,
            "failed": failed_ops,
            "failures": failures,
            "samples": len(scaled),
            "p50_s": statistics.median(scaled),
            "tail_s": tail,
            "raw_p50_s": statistics.median(raw),
            "raw_tail_s": block_tail(raw)[0],
            "tail_pct": tail_pct,
            "tail_blocks": tail_blocks,
            "per_s": rate(False, True),
            "raw_per_s": rate(False, False),
            "run_scale": run_scale,
            "unit": workload.unit,
            "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "lut_mb": _lut_mb(),
        }
    )
    if args.workload == "stream":
        result["session_rescans"] = session_rescans[0] if session_rescans else 0
        result["sessions"] = len(workload.sessions)
    if recorder is not None:
        result["trace"] = {
            "ops": sum(1 for _, _, traced_op in ops if traced_op),
            "self_s": {k: v * run_scale for k, v in recorder.self_s.items()},
            "incl_s": {k: v * run_scale for k, v in recorder.incl_by_name.items()},
            "entries": recorder.entries,
            "calls": recorder.calls_by_name,
            "counts": _sum_counts(traced_counts),
            "overhead": 1.0 - rate(True, True) / result["per_s"],
        }
        path = os.path.join(args.out, f"{args.workload}-seed{args.seed}.trace.json")
        recorder.write_chrome_trace(path)
        result["trace"]["path"] = path
    return result


def _sum_counts(counts):
    total = {}
    for row in counts:
        for key, value in row.items():
            total[key] = total.get(key, 0) + value
    return total


def _lut_mb() -> float:
    from repro.arithmetic.compiled import registry_info

    return registry_info()["bytes"] / 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("fill", "probe", "measure"))
    parser.add_argument("--workload", choices=("sweep", "rerun", "stream"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True, help="per-run scratch directory")
    parser.add_argument("--out", default=".", help="where traced runs write spans")
    args = parser.parse_args()
    if args.mode == "fill":
        document = run_fill(args)
    elif args.mode == "probe":
        document = run_probe(args)
    else:
        document = run_measure(args)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
