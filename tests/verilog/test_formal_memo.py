"""The front-end memo's design tier, the one the formal checker uses:
content-addressed keys, exact counters, persistent warmth."""

import pytest

from repro.obs import Observability
from repro.pipeline.diskcache import DiskCache
from repro.verilog import ElaborationError, ParseError
from repro.verilog.frontend import FrontEndMemo, memo_key

MODULE = "module t(input a, output y);\n  assign y = ~a;\nendmodule\n"
OTHER = "module u(input a, output y);\n  assign y = a;\nendmodule\n"


class TestMemoKey:
    def test_content_addressed(self):
        assert memo_key(MODULE) == memo_key(MODULE)
        assert memo_key(MODULE) != memo_key(OTHER)
        assert memo_key(MODULE) != memo_key(MODULE + " ")

    def test_top_and_params_discriminate(self):
        assert memo_key(MODULE, top="t") != memo_key(MODULE)
        assert memo_key(MODULE, params={"W": 8}) != memo_key(MODULE)
        assert (memo_key(MODULE, params={"W": 8, "D": 2})
                == memo_key(MODULE, params={"D": 2, "W": 8}))


class TestMemoryTier:
    def test_hit_miss_counters_are_exact(self):
        memo = FrontEndMemo()
        memo.elaborate(MODULE)          # miss
        memo.elaborate(MODULE)          # hit
        memo.elaborate(OTHER)           # miss
        memo.elaborate(MODULE)          # hit
        memo.elaborate(OTHER)           # hit
        assert memo.stats()["design"] == (3, 2)
        # Each design's source was parsed once, by its miss.
        assert memo.stats()["parse"] == (0, 2)
        assert len(memo) == 2

    def test_same_design_object_returned(self):
        memo = FrontEndMemo()
        assert memo.elaborate(MODULE) is memo.elaborate(MODULE)

    def test_counters_flow_into_observability(self):
        obs = Observability()
        memo = FrontEndMemo()
        with memo.scope(obs):
            memo.elaborate(MODULE)
            memo.elaborate(MODULE)
        counter = obs.registry.counter
        assert counter("verilog.frontend.design.hit").value == 1
        assert counter("verilog.frontend.design.miss").value == 1
        assert counter("verilog.frontend.parse.miss").value == 1

    def test_errors_not_cached(self):
        memo = FrontEndMemo()
        for _ in range(2):
            with pytest.raises(ParseError):
                memo.elaborate("module broken(")
        with pytest.raises(ElaborationError):
            memo.elaborate("")
        # Every failing elaboration was a miss; nothing poisoned the
        # design tier.  The parse tier remembers the parse error.
        assert memo.stats()["design"] == (0, 3)
        assert memo.stats()["parse"] == (1, 2)
        assert len(memo) == 0


class TestDiskTier:
    def test_warmth_survives_memo_instances(self, tmp_path):
        disk = DiskCache(tmp_path / "memo")
        cold = FrontEndMemo(disk=disk)
        cold.elaborate(MODULE)
        assert cold.stats()["design"] == (0, 1)

        warm = FrontEndMemo(disk=DiskCache(tmp_path / "memo"))
        design = warm.elaborate(MODULE)
        # Fresh memory tier, but the disk tier answers: no parse, no
        # re-elaboration, and the counters prove it.
        assert warm.stats() == {"parse": (0, 0), "design": (1, 0)}
        assert design.signals["y"].width == 1

    def test_disk_miss_falls_back_to_elaboration(self, tmp_path):
        memo = FrontEndMemo(disk=DiskCache(tmp_path / "memo"))
        memo.elaborate(MODULE)
        memo2 = FrontEndMemo(disk=DiskCache(tmp_path / "memo"))
        memo2.elaborate(OTHER)  # never seen: true miss through both tiers
        assert memo2.stats()["design"] == (0, 1)
