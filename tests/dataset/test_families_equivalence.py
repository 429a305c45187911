"""Design families are byte-identical however curation is run.

In memory, curation clusters families from the global collision
forest; with survivors spilled to disk, from worker-emitted partial
union-find forests merged parent-side.  These tests pin the bytes: the
FamilyReport document and the family-tagged rows match the digests
taken from the engine-based implementation this dataflow replaced, for
any batch size and any partition count.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import GitHubScrapeSimulator
from repro.dataset.pipeline import CurationPipeline
from repro.dataset.streaming import raw_file_batches

N_FILES = 120
SEED = 7

#: sha256 of the family report and of the dataset rows, seed 7.
GOLDEN_FAMILIES = ("061c7cade84655ce418b9eafe4170d49"
                   "10781d845b6957f99a3d12953b71aa48")
GOLDEN_ROWS = ("096209557539aa71df97741249b203c2"
               "7b4a3257ff170b274885594936c9e328")
#: The same with ``keep_variants`` on.
GOLDEN_KEEP_FAMILIES = ("46c6a5550cc06c6add795349d8981981"
                        "d1594f236c77d89b4a43e2e3c1a07636")
GOLDEN_KEEP_ROWS = ("7b2744083aef85c9a0c031482cb5f162"
                    "29b4a5767a31166b5414583921a42b5e")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rows_digest(dataset) -> str:
    return _sha256("\n".join(json.dumps(entry.to_dict(), sort_keys=True)
                             for entry in dataset))


def _stream(batch_size=64, n_partitions=4, keep_variants=False,
            spill_dir=None):
    scraper = GitHubScrapeSimulator(seed=SEED)
    pipeline = CurationPipeline(
        seed=SEED, batch_size=batch_size, n_partitions=n_partitions,
        keep_variants=keep_variants, spill_dir=spill_dir)
    return pipeline.run_stream(
        raw_file_batches(scraper.iter_scrape(N_FILES,
                                             batch_size=batch_size)),
        source_token=f"families-eq:{batch_size}:{n_partitions}")


class TestByteIdentity:
    @pytest.mark.parametrize("batch_size", [7, 64, 256])
    def test_family_report_identical_across_batch_sizes(self, batch_size):
        streamed = _stream(batch_size=batch_size)
        assert _sha256(streamed.report.families.to_json()) == \
            GOLDEN_FAMILIES
        assert streamed.report.families.n_families > 0

    @given(n_partitions=st.integers(min_value=1, max_value=8))
    @settings(deadline=None, max_examples=8)
    def test_family_report_identical_for_any_partition_count(
            self, n_partitions):
        """The partial-forest merge is partition-count-blind (only a
        spilled run reaches it)."""
        with tempfile.TemporaryDirectory() as spill:
            streamed = _stream(n_partitions=n_partitions,
                               spill_dir=Path(spill) / "spill")
        assert _sha256(streamed.report.families.to_json()) == \
            GOLDEN_FAMILIES

    def test_family_tags_on_rows_identical(self):
        streamed = _stream(batch_size=32)
        assert _rows_digest(streamed.dataset) == GOLDEN_ROWS
        assert any(e.family_role for e in streamed.dataset)

    def test_keep_variants_identical_across_paths(self, tmp_path):
        raw = GitHubScrapeSimulator(seed=SEED).scrape(N_FILES)
        in_memory = CurationPipeline(seed=SEED, keep_variants=True).run(raw)
        spilled = _stream(batch_size=32, keep_variants=True,
                          spill_dir=tmp_path / "spill")
        for result in (in_memory, spilled):
            assert _rows_digest(result.dataset) == GOLDEN_KEEP_ROWS
            assert _sha256(result.report.families.to_json()) == \
                GOLDEN_KEEP_FAMILIES
        assert any(e.family_role == "variant" for e in spilled.dataset)
