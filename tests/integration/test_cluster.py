"""Integration: the multi-process cluster runtime end to end.

The headline equivalence of the cluster: a ``Pipeline.distributed``
deployment — N worker processes each running a single-shard stream
pipeline behind the socket transport — produces bit-identical match
output (reports with their Kleene groups, representative-subset
signatures, the full counter set) to the in-process
:class:`~repro.engine.dispatch.ShardedDispatcher` run over the same
recorded stream; and it still converges counter-exactly after a worker
is SIGKILLed mid-stream and recovered from the last deployment
checkpoint.

Workloads are kept deliberately small: every test here pays real
process spawns and socket round trips.
"""

import pytest

from repro.cluster import ClusterPipeline
from repro.engine import CASES, Pipeline, case_patterns
from repro.engine.dispatch import shard_worker
from repro.obs.metrics import MetricsRegistry
from repro.resilience import Deployment, Recording, run_cell
from repro.testing import full_vectors

TRACES = 5
MAX_EVENTS = 500


@pytest.fixture(scope="module")
def workload():
    """One recorded case-study stream shared by the module (recording
    is in-process and cheap; the cluster runs are the expensive part)."""
    pipeline = Pipeline.for_case("race", traces=TRACES, seed=1)
    recorder = pipeline.record()
    pipeline.run(max_events=MAX_EVENTS)
    return list(recorder.events), list(pipeline.trace_names)


@pytest.fixture(scope="module")
def oracle(workload):
    """The in-process sharded run every cluster result is diffed against."""
    events, names = workload
    pipeline = Pipeline.replay(events, names)
    for name, source in case_patterns(len(names)).items():
        pipeline.watch(name, source)
    return pipeline.run()


def _cluster(workload, **options):
    events, names = workload
    pipeline = Pipeline.distributed(events, names, **options)
    for name, source in case_patterns(len(names)).items():
        pipeline.watch(name, source)
    return pipeline


def _assert_equivalent(result, oracle, patterns, reports=True):
    for name in patterns:
        monitor = oracle[name]
        shard = result[name]
        if reports:
            assert shard.reports == monitor.reports
        assert shard.signature == monitor.subset.signature()
        assert shard.stats == monitor.stats()


class TestClusterEquivalence:
    def test_two_workers_bit_identical(self, workload, oracle):
        result = _cluster(workload, workers=2).run(batch_size=128)
        patterns = case_patterns(TRACES)
        assert result.num_events == len(workload[0])
        assert result.restarts == 0
        assert result.total_reports() == sum(
            len(oracle[name].reports) for name in patterns
        )
        _assert_equivalent(result, oracle, patterns)

    def test_more_workers_than_shards(self, workload, oracle):
        # 6 workers, 4 patterns: at least two workers own no shard and
        # must still handshake, stream, and report an empty RESULT.
        result = _cluster(workload, workers=6).run(batch_size=128)
        assert result.workers == 6
        _assert_equivalent(result, oracle, case_patterns(TRACES))

    def test_encoded_backend_bit_identical(self, workload, oracle):
        # A full-vector recording (what a dump file loads as) shipped to
        # workers that transcode it, against the in-process run on the
        # kernel's native encoded stamps.
        events, names = workload
        result = _cluster(
            (full_vectors(events), names), workers=2
        ).run(batch_size=128)
        _assert_equivalent(result, oracle, case_patterns(TRACES))

    def test_single_worker_degenerate_cluster(self, workload, oracle):
        result = _cluster(workload, workers=1).run(batch_size=256)
        _assert_equivalent(result, oracle, case_patterns(TRACES))

    def test_kleene_groups_cross_the_wire(self):
        # Reports carry each Kleene leaf's expanded group; a worker's
        # RESULT frame must not drop them.
        source = Pipeline.for_case("hotpath", traces=4, seed=0)
        recorder = source.record()
        source.run(max_events=3000)
        events, names = list(recorder.events), source.trace_names
        pattern = CASES["hotpath"].pattern(len(names))
        local = Pipeline.replay(events, names)
        monitor = local.watch("hotpath", pattern)
        local.run()
        assert monitor.reports and all(r.groups for r in monitor.reports)
        cluster = Pipeline.distributed(events, names, workers=1)
        cluster.watch("hotpath", pattern)
        shard = cluster.run()["hotpath"]
        assert shard.reports == monitor.reports


class TestClusterRecovery:
    def test_kill_and_recover_converges(self, workload, oracle):
        patterns = case_patterns(TRACES)
        victim = shard_worker(next(iter(patterns)), 2)
        pipeline = _cluster(workload, workers=2)
        result = pipeline.run(
            batch_size=64, checkpoint_every=2,
            kill_worker_after=(victim, 4),
        )
        assert result.restarts >= 1
        # The recovered shard's post-hoc reports list legitimately
        # holds only post-restore matches (Monitor.restore semantics);
        # signatures and the checkpointed counters are the
        # convergence surface — same contract as the in-process
        # chaos crash cells.
        _assert_equivalent(result, oracle, patterns, reports=False)
        assert result.final_checkpoint is not None

    def test_cell_harness_kill_mode(self):
        row = run_cell(Recording("ordering", 2, traces=4, max_events=400),
                       Deployment(workers=2, kill=True))
        assert row.ok, row.detail
        assert row.restarts >= 1

    def test_cell_harness_plain_mode(self):
        row = run_cell(Recording("deadlock", 0, traces=4, max_events=400),
                       Deployment(workers=3))
        assert row.ok, row.detail
        assert row.restarts == 0


class TestClusterSurface:
    def test_distributed_returns_cluster_pipeline(self, workload):
        events, names = workload
        pipeline = Pipeline.distributed(events, names)
        assert isinstance(pipeline, ClusterPipeline)

    def test_cluster_pipeline_runs_once(self, workload):
        pipeline = _cluster(workload, workers=1)
        pipeline.run(batch_size=256)
        with pytest.raises(RuntimeError, match="runs once"):
            pipeline.run()

    def test_worker_metrics_aggregated(self, workload):
        registry = MetricsRegistry()
        result = _cluster(workload, workers=2, registry=registry).run(
            batch_size=128
        )
        assert result.registry is registry
        snapshot = registry.snapshot()
        names = {metric["name"] for metric in snapshot}
        assert "ocep_cluster_events_sent_total" in names
        worker_labels = {
            metric["labels"]["worker"]
            for metric in snapshot
            if metric.get("labels", {}).get("worker")
        }
        assert worker_labels == {"0", "1"}

    def test_worker_obs_urls_reported(self, workload):
        result = _cluster(
            workload, workers=2, worker_obs=True
        ).run(batch_size=256)
        assert sorted(result.obs_urls) == [0, 1]
        for url in result.obs_urls.values():
            assert url.startswith("http://127.0.0.1:")
            port = int(url.rsplit(":", 1)[1])
            assert port > 0
