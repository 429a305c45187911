"""PipelineTrace and StageMetrics: lookups, drop histogram, summary
lines, and the JSON round trip, on a hand-built two-stage trace."""

from repro.pipeline import PipelineTrace, StageMetrics


def _trace():
    """A six-record run: ``evens`` drops the three odd records, ``name``
    drops one more and misses the cache on the three it sees."""
    return PipelineTrace(
        pipeline="demo",
        stages=[
            StageMetrics(name="evens", n_in=6, n_out=3, wall_time_s=0.25,
                         drops={"odd": 3}),
            StageMetrics(name="name", n_in=3, n_out=2, wall_time_s=0.5,
                         drops={"odd": 1, "long": 1}, cache_misses=3),
        ],
        wall_time_s=1.0,
        meta={"executor": {"mode": "serial", "max_workers": 1},
              "n_input": 6, "cache": {"hits": 0, "misses": 3}},
    )


class TestTrace:
    def test_wall_times_and_counts(self):
        trace = _trace()
        assert [m.name for m in trace.stages] == ["evens", "name"]
        assert trace.stage("evens").n_dropped == 3
        assert trace.stage("name").n_dropped == 1
        assert trace.stage("name").wall_time_s == 0.5
        assert trace.stage("name").cache_hit_rate == 0.0
        assert trace.meta["executor"]["mode"] == "serial"
        assert trace.meta["n_input"] == 6
        assert trace.meta["cache"]["misses"] == 3

    def test_drop_histogram_sums_stages(self):
        assert _trace().drop_histogram() == {"odd": 4, "long": 1}

    def test_json_round_trip(self):
        trace = _trace()
        restored = PipelineTrace.from_json(trace.to_json())
        assert restored.to_dict() == trace.to_dict()
        assert restored.stage("name").cache_misses == 3

    def test_summary_lines_mention_every_stage(self):
        lines = _trace().summary_lines()
        assert lines[0] == "pipeline demo: 1000.0 ms total"
        assert "evens" in lines[1] and "cache" not in lines[1]
        assert "name" in lines[2] and "cache 0h/3m" in lines[2]

    def test_stage_metrics_round_trip(self):
        metrics = StageMetrics(name="s", n_in=4, n_out=2,
                               wall_time_s=0.5, drops={"bad": 2},
                               cache_hits=1, cache_misses=3)
        assert StageMetrics.from_dict(metrics.to_dict()) == metrics

    def test_unknown_stage_lookup_returns_none(self):
        assert _trace().stage("nope") is None
