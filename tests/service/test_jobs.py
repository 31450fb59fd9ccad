"""Job model: request validation, content-addressed keys, descriptions."""

from __future__ import annotations

import re

import pytest

from repro.core import paper_configuration
from repro.core.fingerprint import design_point_key
from repro.core.resilience import analyze_stage_resilience
from repro.runtime import ExplorationRuntime
from repro.service import BadRequest, JobCancelled, JobRequest
from repro.service.jobs import execute_resilience
from repro.service.scheduler import RuntimeProvider
from repro.signals import load_record


def parse(payload, **kwargs):
    kwargs.setdefault("default_records", ("16265",))
    kwargs.setdefault("default_duration_s", 4.0)
    return JobRequest.from_payload(payload, **kwargs)


class TestValidation:
    def test_minimal_evaluate_request(self):
        request = parse({"kind": "evaluate", "designs": [{"config": "B9"}]})
        assert request.kind == "evaluate"
        assert request.records == ("16265",)
        assert request.duration_s == 4.0
        assert request.designs[0].name == "B9"

    def test_lsbs_design_spelling(self):
        request = parse(
            {"kind": "evaluate", "designs": [{"lsbs": {"lpf": 4, "hpf": 8}}]}
        )
        design = request.designs[0]
        assert design.lsbs_for("lpf") == 4
        assert design.lsbs_for("hpf") == 8

    def test_explore_defaults(self):
        request = parse({"kind": "explore"})
        assert request.metric == "psnr"
        assert request.threshold == 15.0
        assert request.lsb_step == 2
        assert request.max_designs is None

    def test_resilience_canonicalises_stage_aliases(self):
        request = parse({"kind": "resilience", "stages": ["lpf", "der"]})
        assert request.stages == ("low_pass", "derivative")

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            {},
            {"kind": "bogus"},
            {"kind": "evaluate"},
            {"kind": "evaluate", "designs": []},
            {"kind": "evaluate", "designs": ["not-an-object"]},
            {"kind": "evaluate", "designs": [{}]},
            {"kind": "evaluate", "designs": [{"config": "B9", "lsbs": {"lpf": 1}}]},
            {"kind": "evaluate", "designs": [{"config": "Z99"}]},
            {"kind": "evaluate", "designs": [{"lsbs": {}}]},
            {"kind": "evaluate", "designs": [{"lsbs": {"bogus_stage": 4}}]},
            {"kind": "evaluate", "designs": [{"lsbs": {"lpf": -3}}]},
            {"kind": "evaluate", "designs": [{"lsbs": {"lpf": "many"}}]},
            {"kind": "evaluate", "designs": [{"config": "B9"}], "records": []},
            {"kind": "evaluate", "designs": [{"config": "B9"}], "records": [""]},
            {"kind": "evaluate", "designs": [{"config": "B9"}], "duration_s": 0},
            {"kind": "evaluate", "designs": [{"config": "B9"}], "duration_s": "x"},
            {"kind": "evaluate", "designs": [{"config": "B9"}], "priority": "hi"},
            {"kind": "explore", "metric": "loudness"},
            {"kind": "explore", "lsb_step": 0},
            {"kind": "explore", "max_designs": 0},
            {"kind": "explore", "threshold": "tall"},
            {"kind": "resilience"},
            {"kind": "resilience", "stages": []},
            {"kind": "resilience", "stages": ["warp_core"]},
        ],
    )
    def test_malformed_payloads_raise_bad_request(self, payload):
        with pytest.raises(BadRequest):
            parse(payload)


class TestIntegerFields:
    """Integer fields take whole numbers only; ``int()`` truncated ``2.7``
    to 2 and read ``true`` as 1."""

    @pytest.mark.parametrize(
        "payload, field",
        [
            (
                {"kind": "evaluate", "designs": [{"lsbs": {"lpf": 2.7}}]},
                "designs[0].lsbs.lpf",
            ),
            (
                {"kind": "evaluate", "designs": [{"lsbs": {"hpf": True}}]},
                "designs[0].lsbs.hpf",
            ),
            (
                {"kind": "evaluate", "designs": [{"lsbs": {"lpf": "2.5"}}]},
                "designs[0].lsbs.lpf",
            ),
            ({"kind": "explore", "lsb_step": 2.5}, "lsb_step"),
            ({"kind": "explore", "max_designs": True}, "max_designs"),
            ({"kind": "stream", "chunk_samples": 50.5}, "chunk_samples"),
            (
                {"kind": "evaluate", "designs": [{"config": "B9"}], "priority": False},
                "priority",
            ),
        ],
        ids=[
            "lsbs-fraction", "lsbs-bool", "lsbs-fraction-text", "lsb-step-fraction",
            "max-designs-bool", "chunk-samples-fraction", "priority-bool",
        ],
    )
    def test_booleans_and_fractions_are_refused_by_field(self, payload, field):
        with pytest.raises(BadRequest, match=re.escape(f"{field} must be an integer")):
            parse(payload)

    def test_whole_numbers_parse_from_ints_floats_and_decimal_text(self):
        # Decimal text is how the CLI passes ``--lsbs lpf=10``.
        lsbs = {"lpf": "10", "hpf": 4.0, "der": 2}
        request = parse({"kind": "evaluate", "designs": [{"lsbs": lsbs}]})
        counts = request.designs[0].lsbs_map()
        stages = ("low_pass", "high_pass", "derivative")
        assert [counts[stage] for stage in stages] == [10, 4, 2]
        assert all(type(count) is int for count in counts.values())
        explore = parse({"kind": "explore", "lsb_step": 4.0, "max_designs": "3"})
        assert (explore.lsb_step, explore.max_designs) == (4, 3)


class TestShortestWorkload:
    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "evaluate", "designs": [{"config": "B9"}]},
            {"kind": "stream"},
        ],
        ids=["evaluate", "stream"],
    )
    def test_a_duration_below_one_sample_period_is_refused(self, payload):
        # 0.001 s at 200 Hz synthesises a record of no samples.
        with pytest.raises(BadRequest, match=r"one sample period \(0\.005 s\)"):
            parse({**payload, "duration_s": 0.001})
        assert parse({**payload, "duration_s": 0.005}).duration_s == 0.005

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "evaluate", "designs": [{"config": "B9"}]},
            {"kind": "explore", "max_designs": 2},
            {"kind": "resilience", "stages": ["der"]},
        ],
        ids=["evaluate", "explore", "resilience"],
    )
    def test_a_record_too_short_to_score_is_refused_before_any_design(
        self, payload
    ):
        # Four samples of record 16265 pre-process to a constant signal,
        # which leaves PSNR no peak to score a design against.  The runtime
        # refuses the record as it is built, so no runtime exists to run a
        # design on, and the provider answers the job with BadRequest.
        request = parse({**payload, "records": ["16265"], "duration_s": 0.02})
        with pytest.raises(BadRequest) as info:
            RuntimeProvider(executor="serial").runtime_for(request)
        assert str(info.value) == (
            "record 16265 is too short to score: its accurate pre-processed "
            "output is constant"
        )


class TestJobKeys:
    def test_identical_requests_share_a_key(self):
        a = parse({"kind": "evaluate", "designs": [{"config": "B9"}]})
        b = parse({"kind": "evaluate", "designs": [{"config": "B9"}]})
        assert a.job_key() == b.job_key()

    def test_priority_does_not_change_the_key(self):
        a = parse({"kind": "evaluate", "designs": [{"config": "B9"}]})
        b = parse(
            {"kind": "evaluate", "designs": [{"config": "B9"}], "priority": 7}
        )
        assert a.job_key() == b.job_key()

    def test_design_labels_do_not_change_the_key(self):
        # A named configuration and its explicit LSB spelling are the same
        # content, so the jobs coalesce (design_point_key ignores labels).
        b9 = paper_configuration("B9")
        named = parse({"kind": "evaluate", "designs": [{"config": "B9"}]})
        spelled = parse(
            {
                "kind": "evaluate",
                "designs": [{"lsbs": b9.lsbs_map(), "name": "anything"}],
            }
        )
        assert design_point_key(named.designs[0]) == design_point_key(
            spelled.designs[0]
        )
        assert named.job_key() == spelled.job_key()

    def test_workload_changes_the_key(self):
        a = parse({"kind": "evaluate", "designs": [{"config": "B9"}]})
        other_record = parse(
            {
                "kind": "evaluate",
                "designs": [{"config": "B9"}],
                "records": ["16272"],
            }
        )
        other_duration = parse(
            {
                "kind": "evaluate",
                "designs": [{"config": "B9"}],
                "duration_s": 8.0,
            }
        )
        assert a.job_key() != other_record.job_key()
        assert a.job_key() != other_duration.job_key()

    def test_kind_parameters_change_the_key(self):
        grid_a = parse({"kind": "explore", "max_designs": 4})
        grid_b = parse({"kind": "explore", "max_designs": 5})
        assert grid_a.job_key() != grid_b.job_key()
        sweep_a = parse({"kind": "resilience", "stages": ["lpf"]})
        sweep_b = parse({"kind": "resilience", "stages": ["hpf"]})
        assert sweep_a.job_key() != sweep_b.job_key()


class TestDescriptions:
    def test_describe_round_trips_the_request_shape(self):
        request = parse(
            {
                "kind": "evaluate",
                "designs": [{"lsbs": {"lpf": 4}, "name": "mine"}],
                "priority": 3,
            }
        )
        doc = request.describe()
        assert doc["kind"] == "evaluate"
        assert doc["priority"] == 3
        assert doc["designs"][0]["lsbs"]["low_pass"] == 4

    def test_explore_description_carries_grid_parameters(self):
        request = parse({"kind": "explore", "max_designs": 9, "lsb_step": 4})
        doc = request.describe()
        assert doc["max_designs"] == 9
        assert doc["lsb_step"] == 4


class TestResilienceExecution:
    def test_cancel_stops_the_stage_sweep_after_the_current_design(self):
        # The job polls once before the stage; the second poll, after the
        # sweep's first design, cancels: the other eight LPF points never run.
        runtime = ExplorationRuntime(
            [load_record("16265", duration_s=4.0)], executor="serial"
        )
        polls = []
        events = []

        def cancelled():
            polls.append(len(runtime.cache))  # designs finished so far
            return len(polls) == 2

        with pytest.raises(JobCancelled):
            execute_resilience(
                runtime, ["lpf"], progress=events.append, cancelled=cancelled
            )
        assert polls == [0, 1]
        assert runtime.evaluation_count == 1
        # The job's own progress events stay one per finished stage.
        assert events == []

    def test_finished_job_reports_each_stage_once(self):
        record = load_record("16265", duration_s=4.0)
        runtime = ExplorationRuntime([record], executor="serial")
        polls = []
        events = []

        def cancelled():
            polls.append(None)
            return False

        result = execute_resilience(
            runtime, ["der", "sqr"], progress=events.append, cancelled=cancelled
        )
        assert events == [
            {"type": "progress", "completed": 1, "total": 2, "stage": "derivative"},
            {"type": "progress", "completed": 2, "total": 2, "stage": "squarer"},
        ]
        # One poll before each stage and one after each of the 3 + 5 designs.
        assert len(polls) == 2 + 8
        # The two 0-LSB points are one design: 7 evaluations, not 8.
        assert runtime.evaluation_count == 7
        direct = ExplorationRuntime([record], executor="serial")
        for stage in ("derivative", "squarer"):
            assert result["stages"][stage]["table"] == (
                analyze_stage_resilience(stage, direct).as_table()
            )
