"""Stage-graph memoization: input-addressed reuse across Fig. 12, counted.

The paper's Fig. 12 hardware configurations share most of their stage work: a
monolithic pipeline runs 5 stages for each of the 16 chains (the accurate
reference, A2 and B1..B14) — 80 stage executions — yet only 47 stage nodes
are distinct once nodes are keyed by *input content* rather than by design
prefix.  Input addressing goes beyond prefix sharing: whenever an upstream
approximation is a bit-exact no-op on this record (the 2- and 4-LSB
derivative settings produce identical outputs here), the downstream nodes
collide and are served from the signal store even though the configurations
differ on paper.  The executor must compute each distinct node exactly once
and stay bit-identical to a cache-less run.

The decision stage and the PSNR/SSIM scores are nodes too, keyed by the
content hashes of their input signals: 16 detections (the reference and 15
designs) and 15 scorings become one ``detect`` node per distinct (MWI, HPF)
output pair and one ``quality`` node per distinct HPF output.

Every check is an exact count.  The cold sweep, from an empty compiled-LUT
registry, builds 72 tables of 35,651,584 bytes, and the LUT gauges agree.
The warm resweep (result cache bypassed, tracing off) computes no node and
builds no table: it detects no peak and scores no signal, hashes one root
signal per design and no stage output, records no span, and makes one
metric-registry child lookup per node resolve (the resolve histogram's)
and none for the batch or the store reads: the runtime's design counters
are bound at import, and each store binds an op's counter on its first
use, here in the cold sweep.
"""

from bench_report import format_row, write_report

from repro.arithmetic import compiled, registry_info
from repro.core import paper_configuration, paper_configuration_names
from repro.core import quality, stage_graph
from repro.core.quality import run_design_evaluation
from repro.core.stage_graph import DETECT, QUALITY
from repro.dsp import pan_tompkins
from repro.dsp.pan_tompkins import PanTompkinsPipeline
from repro.dsp.stages import STAGE_HPF, STAGE_MWI, STAGE_NAMES
from repro.obs import get_tracer
from repro.obs.metrics import _MetricFamily
from repro.runtime import ExplorationRuntime

#: What the cold sweep compiles: 54 per-constant FIR tables, 9 product,
#: 8 add-slice and 1 square table.  Two of the slice tables (1 and 3
#: approximated bits) serve only the 8-bit adds of the 4x4 level inside the
#: product builds.
COLD_TABLES = 72
COLD_TABLE_BYTES = 35_651_584


def _count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper; returns its (growing) call log."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_stage_memoization_reuse(bench_record, monkeypatch):
    designs = [
        paper_configuration(name)
        for name in paper_configuration_names()
        if name == "A2" or name.startswith("B")
    ]
    compiled._REGISTRY.clear()
    runtime = ExplorationRuntime([bench_record])
    evaluations = runtime.evaluate_many(designs)
    tables = registry_info()
    gauges = (compiled._LUT_TABLES.value, compiled._LUT_TABLE_BYTES.value)
    stats = runtime.stage_stats
    nodes = STAGE_NAMES + (DETECT, QUALITY)
    computed = {name: stats.computes_for(name) for name in nodes}
    reused = {name: stats.hits_for(name) for name in nodes}
    total_computes = stats.total_computes
    hit_rate = stats.hit_rate()

    # Distinct node count per stage: walk each configuration's key chain
    # over the nodes the sweep stored.  A2 collapses onto the accurate
    # reference chain (accurate backends fingerprint identically), so the
    # sweep covers all 16 executed chains.  A detection is distinct per
    # (MWI, HPF) output pair, a scoring per HPF output.
    distinct = {name: set() for name in nodes}
    memo = runtime.stage_memo

    def lookup(stage, backend, key, signal, root):
        distinct[stage.name].add(key)
        return memo.store.get(key)

    for design in designs:
        pipeline = PanTompkinsPipeline(backends=design.backends())
        walked, hashes = memo.walk(bench_record.samples, pipeline.stage_plan(), lookup)
        assert len(walked) == len(STAGE_NAMES)
        distinct[DETECT].add((hashes[STAGE_MWI.name], hashes[STAGE_HPF.name]))
        distinct[QUALITY].add(hashes[STAGE_HPF.name])

    # Warm resweep, result cache bypassed, every probe counting.
    tracer = get_tracer()
    monkeypatch.setattr(tracer, "enabled", False)
    spans_before = tracer.info()["finished"]
    root_digests = _count_calls(monkeypatch, stage_graph, "signal_root_key")
    output_hashes = _count_calls(
        monkeypatch, stage_graph, "signal_content_hash"
    )
    detections = _count_calls(monkeypatch, pan_tompkins, "detect_peaks")
    psnrs = _count_calls(monkeypatch, quality, "psnr")
    ssims = _count_calls(monkeypatch, quality, "ssim")
    lookups = _count_calls(monkeypatch, _MetricFamily, "labels")
    builds_before = registry_info()["builds"]
    computes_before, hits_before = stats.total_computes, stats.total_hits
    node_counts_before = {
        name: (stats.computes_for(name), stats.hits_for(name))
        for name in (DETECT, QUALITY)
    }
    warm = runtime.evaluate_many(designs, use_cache=False)
    warm_computes = stats.total_computes - computes_before
    warm_hits = stats.total_hits - hits_before
    warm_node_computes = sum(
        stats.computes_for(name) - node_counts_before[name][0]
        for name in (DETECT, QUALITY)
    )
    warm_node_hits = {
        name: stats.hits_for(name) - node_counts_before[name][1]
        for name in (DETECT, QUALITY)
    }
    warm_builds = registry_info()["builds"] - builds_before
    warm_spans = tracer.info()["finished"] - spans_before
    monkeypatch.undo()

    runs = 1 + len(designs)  # accurate reference + A2 + B1..B14
    monolithic = runs * len(STAGE_NAMES)
    # Every chain is detected on; every design, not the reference, scored.
    node_runs = dict.fromkeys(nodes, runs)
    node_runs[QUALITY] = len(designs)
    widths = (24, 10, 10, 10, 10)
    lines = [
        "Input-addressed stage-graph reuse across the Fig. 12 configurations "
        f"(A2 + {len(designs) - 1} approximate designs, one record)",
        "",
        format_row(("stage", "monolithic", "distinct", "computed", "reused"),
                   widths),
    ]
    for name in nodes:
        lines.append(format_row(
            (name, node_runs[name], len(distinct[name]), computed[name],
             reused[name]), widths))
    lines += [
        "",
        f"stage runs executed : {total_computes} of {monolithic} a monolithic "
        f"pipeline would run ({hit_rate * 100:.1f}% served from the signal "
        "store)",
        f"cold sweep          : {tables['builds']} LUT builds, "
        f"{tables['tables']} tables, {tables['bytes']} bytes",
        f"warm resweep        : {warm_computes} stage computes, {warm_hits} "
        f"hits, {warm_builds} LUT builds, {len(root_digests)} root digests, "
        f"{len(output_hashes)} output hashes, {warm_spans} spans, "
        f"{len(lookups)} metric child lookups",
        f"warm resweep nodes  : {warm_node_hits[DETECT]} detect hits, "
        f"{warm_node_hits[QUALITY]} quality hits, {warm_node_computes} "
        f"computes, {len(detections)} peak detections, {len(psnrs)} PSNR and "
        f"{len(ssims)} SSIM calls",
    ]

    # Memoized results must be bit-identical to a cache-less run.
    accurate = {r.name: runtime.accurate_result(r) for r in runtime.records}
    for design, memoized, rerun in zip(designs, evaluations, warm):
        cold = run_design_evaluation(design, runtime.records, accurate)
        for result in (memoized, rerun):
            assert result.psnr_db == cold.psnr_db
            assert result.ssim_value == cold.ssim_value
            assert result.peak_accuracy == cold.peak_accuracy
            assert result.detected_peaks == cold.detected_peaks
    lines.append("memoized and warm vs cache-less results: bit-identical on "
                 f"all {len(designs)} configurations")
    write_report("stage_memoization", lines)

    # Each distinct node executed exactly once, every chain fully accounted,
    # and input addressing beats the prefix-keyed scheme (which executed 53
    # of the 75 B-only stage runs).
    for name in nodes:
        assert computed[name] == len(distinct[name])
        assert computed[name] + reused[name] == node_runs[name]
    assert len(distinct["low_pass"]) == 3
    assert len(distinct["high_pass"]) == 5
    assert len(distinct[QUALITY]) == 5
    assert total_computes == 47
    for name in ("derivative", "squarer", "moving_window_integral"):
        assert reused[name] > 0

    assert tables == {
        "tables": COLD_TABLES, "builds": COLD_TABLES, "bytes": COLD_TABLE_BYTES,
    }
    assert gauges == (COLD_TABLES, COLD_TABLE_BYTES)

    assert (warm_computes, warm_builds, warm_spans) == (0, 0, 0)
    assert warm_hits == len(designs) * len(STAGE_NAMES)
    assert warm_node_hits == {DETECT: len(designs), QUALITY: len(designs)}
    assert (warm_node_computes, len(detections), len(psnrs), len(ssims)) == (
        0, 0, 0, 0
    )
    assert len(root_digests) == len(designs)
    assert len(output_hashes) == 0
    assert len(lookups) == warm_hits + 2 * len(designs)
