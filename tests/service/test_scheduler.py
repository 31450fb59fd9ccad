"""Scheduler behaviour: lifecycle, coalescing, cancellation, priorities.

These tests drive :class:`JobScheduler` directly on an event loop (no HTTP),
so they can assert on internal counters and runtime telemetry precisely.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import (
    CANCELLED,
    SUCCEEDED,
    JobScheduler,
    RuntimeProvider,
    ServiceBusy,
)


def make_provider() -> RuntimeProvider:
    return RuntimeProvider(
        default_records=("16265",),
        default_duration_s=4.0,
    )


EVALUATE_B9 = {"kind": "evaluate", "designs": [{"config": "B9"}]}

#: Six distinct single-stage designs: a batch slow enough to cancel mid-run.
SLOW_BATCH = {
    "kind": "evaluate",
    "designs": [{"lsbs": {"lpf": k}} for k in (2, 4, 6, 8, 10, 12)],
}


def run(coroutine):
    return asyncio.run(coroutine)


async def wait_until_done(scheduler, job, timeout=300.0):
    after = 0
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not job.done:
        assert loop.time() < deadline, f"job {job.id} still {job.state}"
        events = await scheduler.wait_for_events(job.id, after=after, timeout=2.0)
        after += len(events)
    return job


class TestLifecycle:
    def test_submit_run_succeed(self):
        async def scenario():
            scheduler = JobScheduler(make_provider(), max_concurrency=1)
            await scheduler.start()
            try:
                job, coalesced, cached = await scheduler.submit(EVALUATE_B9)
                assert not coalesced and not cached
                await wait_until_done(scheduler, job)
                assert job.state == SUCCEEDED
                assert job.error is None
                assert job.result["kind"] == "evaluate"
                assert len(job.result["evaluations"]) == 1
                assert job.started_at is not None and job.finished_at is not None
                # The event stream saw every lifecycle step in order.
                states = [
                    e["state"] for e in job.events if e["type"] == "state"
                ]
                assert states == ["submitted", "running", "succeeded"]
                progress = [e for e in job.events if e["type"] == "progress"]
                assert progress and progress[-1]["completed"] == 1
            finally:
                await scheduler.shutdown()

        run(scenario())

    def test_unknown_job_lookup_raises_key_error(self):
        async def scenario():
            scheduler = JobScheduler(make_provider())
            await scheduler.start()
            try:
                with pytest.raises(KeyError):
                    scheduler.get("job-999999")
            finally:
                await scheduler.shutdown()

        run(scenario())


class TestCoalescing:
    def test_concurrent_identical_submissions_execute_once(self):
        """The acceptance criterion: identical in-flight submissions coalesce
        onto one job, the runtime evaluates the design once, and replays of
        the finished job execute nothing."""

        async def scenario():
            scheduler = JobScheduler(make_provider(), max_concurrency=2)
            await scheduler.start()
            try:
                submissions = [
                    await scheduler.submit(EVALUATE_B9) for _ in range(6)
                ]
                first = submissions[0][0]
                assert [s[1] for s in submissions] == [False] + [True] * 5
                assert all(job is first for job, _, _ in submissions)
                assert first.coalesced == 5
                await wait_until_done(scheduler, first)
                assert first.state == SUCCEEDED
                assert scheduler.counters["executed"] == 1
                runtime = scheduler.provider.runtime_for(first.request)
                assert runtime.evaluation_count == 1
                replays = [
                    await scheduler.submit(EVALUATE_B9) for _ in range(6)
                ]
                assert all(cached and not coalesced
                           for _, coalesced, cached in replays)
                assert scheduler.counters["served_from_cache"] == 6
                assert scheduler.counters["executed"] == 1
                assert runtime.evaluation_count == 1
            finally:
                await scheduler.shutdown()

        run(scenario())

    def test_completed_job_serves_duplicates_from_cache(self):
        async def scenario():
            scheduler = JobScheduler(make_provider(), max_concurrency=1)
            await scheduler.start()
            try:
                first, _, _ = await scheduler.submit(EVALUATE_B9)
                await wait_until_done(scheduler, first)
                second, coalesced, cached = await scheduler.submit(EVALUATE_B9)
                assert not coalesced and cached
                assert second.id != first.id
                assert second.state == SUCCEEDED
                assert second.from_cache
                assert second.result == first.result
                assert scheduler.counters["served_from_cache"] == 1
                assert scheduler.counters["executed"] == 1
            finally:
                await scheduler.shutdown()

        run(scenario())

    def test_different_requests_do_not_coalesce(self):
        async def scenario():
            scheduler = JobScheduler(make_provider(), max_concurrency=2)
            await scheduler.start()
            try:
                payloads = [EVALUATE_B9] + [
                    {"kind": "evaluate", "designs": [{"lsbs": {"lpf": lsbs}}]}
                    for lsbs in (2, 4)
                ]
                submissions = [await scheduler.submit(p) for p in payloads]
                assert not any(coalesced or cached
                               for _, coalesced, cached in submissions)
                jobs = [job for job, _, _ in submissions]
                assert len({job.id for job in jobs}) == 3
                for job in jobs:
                    await wait_until_done(scheduler, job)
                assert scheduler.counters["executed"] == 3
            finally:
                await scheduler.shutdown()

        run(scenario())


class TestCancellation:
    def test_cancel_queued_job(self):
        async def scenario():
            # One worker: the second submission waits behind the first.
            scheduler = JobScheduler(make_provider(), max_concurrency=1)
            await scheduler.start()
            try:
                running, _, _ = await scheduler.submit(SLOW_BATCH)
                queued, _, _ = await scheduler.submit(EVALUATE_B9)
                assert scheduler.cancel(queued.id)
                assert queued.state == CANCELLED
                await wait_until_done(scheduler, running)
                # The cancelled job never ran.
                assert queued.started_at is None
                assert scheduler.counters["executed"] == 1
            finally:
                await scheduler.shutdown()

        run(scenario())

    def test_cancel_mid_run_stops_the_batch(self):
        async def scenario():
            scheduler = JobScheduler(make_provider(), max_concurrency=1)
            await scheduler.start()
            try:
                job, _, _ = await scheduler.submit(SLOW_BATCH)
                # Wait for the first per-design progress event, then cancel.
                after = 0
                while not any(e["type"] == "progress" for e in job.events):
                    assert not job.done, "job finished before it could cancel"
                    events = await scheduler.wait_for_events(
                        job.id, after=after, timeout=2.0
                    )
                    after += len(events)
                assert scheduler.cancel(job.id)
                await wait_until_done(scheduler, job)
                assert job.state == CANCELLED
                assert job.result is None
                # The batch stopped early: fewer evaluations than designs.
                runtime = scheduler.provider.runtime_for(job.request)
                assert runtime.evaluation_count < len(
                    job.request.designs
                )
            finally:
                await scheduler.shutdown()

        run(scenario())

    def test_cancel_mid_run_stops_after_the_running_design(self):
        # 64 unseen designs.  After the cancel, only the design running then
        # may finish, and the next when its progress check came just before
        # the cancel: at most 5 stage runs each, with slack for a busy host --
        # not the rest of the batch.
        batch = {
            "kind": "evaluate",
            "designs": [
                {"lsbs": {"lpf": lpf, "hpf": hpf}}
                for lpf in range(2, 18, 2)
                for hpf in range(2, 18, 2)
            ],
        }

        async def scenario():
            provider = make_provider()
            scheduler = JobScheduler(provider, max_concurrency=1)
            await scheduler.start()
            try:
                job, _, _ = await scheduler.submit(batch)
                after = 0
                while not any(e["type"] == "progress" for e in job.events):
                    assert not job.done, "job finished before it could cancel"
                    events = await scheduler.wait_for_events(
                        job.id, after=after, timeout=2.0
                    )
                    after += len(events)
                runtime = provider.runtime_for(job.request)
                computes_at_cancel = runtime.stage_stats.total_computes
                assert scheduler.cancel(job.id)
                await wait_until_done(scheduler, job)
                assert job.state == CANCELLED
            finally:
                await scheduler.shutdown()
            computed_after = (
                runtime.stage_stats.total_computes - computes_at_cancel
            )
            assert computed_after <= 5 * 4

        run(scenario())

    def test_cancel_finished_job_is_a_no_op(self):
        async def scenario():
            scheduler = JobScheduler(make_provider(), max_concurrency=1)
            await scheduler.start()
            try:
                job, _, _ = await scheduler.submit(EVALUATE_B9)
                await wait_until_done(scheduler, job)
                assert not scheduler.cancel(job.id)
                assert job.state == SUCCEEDED
            finally:
                await scheduler.shutdown()

        run(scenario())

    def test_cancel_requested_running_job_is_not_coalesced_onto(self):
        """A new identical submission must not inherit someone else's
        cancellation: once cancel was requested, duplicates run afresh."""

        async def scenario():
            scheduler = JobScheduler(make_provider(), max_concurrency=2)
            await scheduler.start()
            try:
                job, _, _ = await scheduler.submit(SLOW_BATCH)
                # Let it actually start running.
                after = 0
                while job.state != "running" and not job.done:
                    events = await scheduler.wait_for_events(
                        job.id, after=after, timeout=2.0
                    )
                    after += len(events)
                scheduler.cancel(job.id)
                retry, coalesced, cached = await scheduler.submit(SLOW_BATCH)
                assert not coalesced and not cached
                assert retry.id != job.id
                await wait_until_done(scheduler, job)
                await wait_until_done(scheduler, retry)
                assert job.state == CANCELLED
                assert retry.state == SUCCEEDED
            finally:
                await scheduler.shutdown()

        run(scenario())

    def test_cancelled_job_key_is_retried_by_a_new_submission(self):
        async def scenario():
            scheduler = JobScheduler(make_provider(), max_concurrency=1)
            await scheduler.start()
            try:
                blocker, _, _ = await scheduler.submit(SLOW_BATCH)
                victim, _, _ = await scheduler.submit(EVALUATE_B9)
                scheduler.cancel(victim.id)
                retry, coalesced, cached = await scheduler.submit(EVALUATE_B9)
                assert not coalesced and not cached
                assert retry.id != victim.id
                await wait_until_done(scheduler, retry)
                assert retry.state == SUCCEEDED
            finally:
                await scheduler.shutdown()

        run(scenario())


class TestPriorities:
    def test_lower_priority_number_runs_first(self):
        async def scenario():
            scheduler = JobScheduler(make_provider(), max_concurrency=1)
            await scheduler.start()
            try:
                # The blocker occupies the single worker while the two
                # prioritised jobs queue up; the urgent one must run first
                # even though it was submitted last.
                blocker, _, _ = await scheduler.submit(SLOW_BATCH)
                relaxed, _, _ = await scheduler.submit(
                    {**EVALUATE_B9, "priority": 5}
                )
                urgent, _, _ = await scheduler.submit(
                    {
                        "kind": "evaluate",
                        "designs": [{"config": "B2"}],
                        "priority": -5,
                    }
                )
                await wait_until_done(scheduler, relaxed)
                await wait_until_done(scheduler, urgent)
                assert urgent.started_at < relaxed.started_at
            finally:
                await scheduler.shutdown()

        run(scenario())


class TestCapacity:
    def test_full_job_table_rejects_new_work_but_still_coalesces(self):
        async def scenario():
            scheduler = JobScheduler(
                make_provider(), max_concurrency=1, max_jobs=1
            )
            await scheduler.start()
            try:
                job, _, _ = await scheduler.submit(SLOW_BATCH)
                # The table is full, but a duplicate adds no entry: it must
                # still coalesce rather than be rejected.
                dup, coalesced, _ = await scheduler.submit(SLOW_BATCH)
                assert coalesced and dup is job
                with pytest.raises(ServiceBusy):
                    await scheduler.submit(EVALUATE_B9)
                await wait_until_done(scheduler, job)
            finally:
                await scheduler.shutdown()

        run(scenario())


class TestStats:
    def test_stats_report_jobs_and_runtime(self):
        async def scenario():
            scheduler = JobScheduler(make_provider(), max_concurrency=1)
            await scheduler.start()
            try:
                job, _, _ = await scheduler.submit(EVALUATE_B9)
                await wait_until_done(scheduler, job)
                await scheduler.submit(EVALUATE_B9)  # served from cache
                stats = scheduler.stats()
                jobs = stats["jobs"]
                assert jobs["total"] == 2
                assert jobs["submitted"] == 2
                assert jobs["executed"] == 1
                assert jobs["served_from_cache"] == 1
                assert jobs["states"][SUCCEEDED] == 2
                runtime = stats["runtime"]
                assert runtime["result_cache"]["puts"] >= 1
                workloads = runtime["workloads"]
                assert len(workloads) == 1
                assert workloads[0]["records"] == ["16265"]
                assert workloads[0]["telemetry"]["evaluations"] == 1
            finally:
                await scheduler.shutdown()

        run(scenario())

    def test_workload_stage_figures_are_the_stage_graphs(self):
        async def scenario():
            scheduler = JobScheduler(make_provider(), max_concurrency=1)
            await scheduler.start()
            try:
                job, _, _ = await scheduler.submit(SLOW_BATCH)
                await wait_until_done(scheduler, job)
                (workload,) = scheduler.stats()["runtime"]["workloads"]
                stats = scheduler.provider.runtime_for(job.request).stage_stats
                assert stats.total_computes > 0
                telemetry = workload["telemetry"]
                assert telemetry["stage_stats"] == stats.as_dict()
                for figure, value in (
                    ("stage_hit_rate", stats.hit_rate()),
                    ("stage_cross_record_hits", stats.total_cross_record_hits),
                    ("stage_warm_hits", stats.total_warm_hits),
                ):
                    assert workload[figure] == value
                    assert telemetry[figure] == value
            finally:
                await scheduler.shutdown()

        run(scenario())
