"""SamplingService: deterministic seeded batches out of a sharded store.

The service is a *layered source* — it exposes the same
``trainable_layers()`` / ``layer(n)`` / iteration protocol as
:class:`~repro.dataset.records.PyraNetDataset` — so every phase builder
in :mod:`repro.finetune.curriculum` (and therefore every fine-tuning
recipe) consumes it directly in place of an in-memory dataset, reading
shards lazily through the :class:`StoreReader` index.

Three serving modes, all deterministic for a fixed seed:

* :meth:`curriculum_phases` — the paper's order (layers 1→6,
  Basic→Expert inside each), bit-identical to the in-memory
  ``curriculum_phases(dataset, seed)``;
* :meth:`uniform_batches` — a fully shuffled single stream in
  fixed-size batches;
* :meth:`weighted_batches` — samples with replacement with probability
  proportional to the PyraNet layer weights (1.0 … 0.1 by default), so
  Layer-1 rows dominate the served stream the way they dominate the
  loss.

The service is also **family-aware**: :meth:`SamplingService.split`
partitions the store into train/eval sides that never straddle a
design family (see :mod:`repro.dataset.families`) — two near-identical
designs can never land on opposite sides of the split, the leakage
hole a row-level split leaves open.  Each side is served through a
:class:`SplitView`, which implements the same layered-source protocol
plus all three serving modes restricted to its rows, so uniform,
weighted, and curriculum draws are leakage-proof by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from ..dataset.records import DatasetEntry
from ..finetune.curriculum import Phase, curriculum_phases, random_phases
from ..finetune.weighting import WeightSchedule, paper_schedule
from ..obs.reportable import Reportable
from .errors import StoreError
from .reader import StoreReader


@dataclass
class FamilySplit(Reportable):
    """A family-atomic train/eval partition of one store.

    Every design family's members land entirely on one side, so a
    variant can never leak into eval while its canonical trains.
    Groups (families, plus each family-free entry as its own
    singleton) are shuffled with the seeded RNG and assigned to eval
    until the eval side reaches its target row count; family atomicity
    means the achieved fraction can overshoot the target by at most
    one family.
    """

    schema: str = field(default="pyranet/family-split/v1", init=False)
    seed: int = 0
    eval_fraction: float = 0.1
    n_groups: int = 0
    train_ids: List[str] = field(default_factory=list)
    eval_ids: List[str] = field(default_factory=list)

    @property
    def n_train(self) -> int:
        return len(self.train_ids)

    @property
    def n_eval(self) -> int:
        return len(self.eval_ids)

    def to_dict(self) -> Dict[str, Any]:
        data = super().to_dict()
        data.update(n_train=self.n_train, n_eval=self.n_eval)
        return data


def _weighted_phases(source: Union["SamplingService", "SplitView"],
                     n_batches: int, batch_size: int, seed: int,
                     schedule: Optional[WeightSchedule]) -> List[Phase]:
    """Batches drawn with replacement from ``source``'s layers, with
    probability ∝ layer weight × layer size.

    Draws are made up front from one seeded RNG, so the stream is
    independent of shard layout and read order; each referenced layer
    is then fetched once, in layer order.
    """
    if n_batches <= 0 or batch_size <= 0:
        raise ValueError("n_batches and batch_size must be positive")
    schedule = schedule or paper_schedule()
    sizes = {layer: count for layer, count in source.layer_sizes().items()
             if layer > 0 and count > 0}
    layers = sorted(sizes)
    masses = [schedule.weight_for(layer) * sizes[layer] for layer in layers]
    if sum(masses) <= 0:
        raise ValueError(
            f"no servable rows: schedule {schedule.name!r} gives zero "
            f"weight to every populated layer {layers}")

    rng = random.Random(seed)
    n_draws = n_batches * batch_size
    drawn_layers = rng.choices(layers, weights=masses, k=n_draws)
    draws = [(layer, rng.randrange(sizes[layer])) for layer in drawn_layers]

    by_layer: Dict[int, List[DatasetEntry]] = {}
    for layer in sorted({layer for layer, _ in draws}):
        by_layer[layer] = source.layer(layer)
        if len(by_layer[layer]) != sizes[layer]:
            # A lenient reader that skipped a corrupt shard serves
            # fewer rows than the manifest promises; silently
            # re-mapping draw indices would break determinism.
            raise StoreError(
                f"layer {layer} served {len(by_layer[layer])} rows "
                f"but the manifest records {sizes[layer]}; weighted "
                "sampling needs an intact store (repair or re-write "
                "the corrupt shards)")
    stream = [by_layer[layer][index] for layer, index in draws]
    return [
        Phase(0, None, tuple(stream[start:start + batch_size]))
        for start in range(0, n_draws, batch_size)
    ]


class SplitView:
    """One side of a :class:`FamilySplit`, as a layered source.

    Wraps the service with an entry-id filter: iteration, per-layer
    reads, and all three serving modes see only this side's rows.
    Every draw a trainer can make through a view stays inside the
    side, so no strategy can straddle the split.
    """

    def __init__(self, service: "SamplingService",
                 entry_ids: Sequence[str], seed: int = 0) -> None:
        self._service = service
        self._ids = frozenset(entry_ids)
        self.seed = seed
        self._layer_cache: Dict[int, List[DatasetEntry]] = {}

    # -- the layered-source protocol -----------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[DatasetEntry]:
        for entry in self._service:
            if entry.entry_id in self._ids:
                yield entry

    def layer(self, number: int) -> List[DatasetEntry]:
        cached = self._layer_cache.get(number)
        if cached is None:
            cached = [entry for entry in self._service.layer(number)
                      if entry.entry_id in self._ids]
            self._layer_cache[number] = cached
        return cached

    def trainable_layers(self) -> List[int]:
        return [number for number in self._service.trainable_layers()
                if self.layer(number)]

    def layer_sizes(self) -> Dict[int, int]:
        return {number: len(self.layer(number))
                for number in self.trainable_layers()}

    # -- serving modes (restricted to this side) -----------------------

    def curriculum_phases(self, shuffle_within: bool = True,
                          seed: Optional[int] = None) -> List[Phase]:
        return curriculum_phases(
            self, shuffle_within=shuffle_within,
            seed=self.seed if seed is None else seed)

    def uniform_batches(self, batch_size: int = 64,
                        seed: Optional[int] = None) -> List[Phase]:
        return random_phases(
            self, seed=self.seed if seed is None else seed,
            batch_size=batch_size)

    def weighted_batches(
        self,
        n_batches: int,
        batch_size: int = 64,
        seed: Optional[int] = None,
        schedule: Optional[WeightSchedule] = None,
    ) -> List[Phase]:
        """Layer-weighted sampling with replacement over this side
        only (the service-wide draw, restricted to the side's rows)."""
        return _weighted_phases(self, n_batches, batch_size,
                                self.seed if seed is None else seed,
                                schedule)


class SamplingService:
    """Serves a sharded store to trainers and evaluators.

    Args:
        reader: the store to serve from; give it a ``ResultCache`` for
            warm multi-pass reads.
        seed: default seed for the serving modes (each method also
            accepts an explicit override).
    """

    def __init__(self, reader: StoreReader, seed: int = 0) -> None:
        self.reader = reader
        self.seed = seed

    # -- the layered-source protocol -----------------------------------

    def __len__(self) -> int:
        return len(self.reader)

    def __iter__(self) -> Iterator[DatasetEntry]:
        return self.reader.iter_entries()

    def trainable_layers(self) -> List[int]:
        """Layer numbers in the store, best first — from the manifest
        alone, no shard reads."""
        return self.reader.manifest.trainable_layers()

    def layer(self, number: int) -> List[DatasetEntry]:
        """One layer's entries in store order (only covering shards
        are opened)."""
        return self.reader.select(layer=number)

    def layer_sizes(self) -> Dict[int, int]:
        return self.reader.manifest.layer_sizes()

    # -- family-aware splitting ----------------------------------------

    def split(self, eval_fraction: float = 0.1,
              seed: Optional[int] = None) -> FamilySplit:
        """Partition the store into train/eval without straddling a
        family.

        Entries sharing a ``family_id`` move as one atomic group;
        entries without one are singleton groups keyed by entry id.
        Group keys are sorted, shuffled with the seeded RNG, and
        assigned whole to the eval side until it holds at least
        ``round(eval_fraction * n_entries)`` rows.  Deterministic for
        a fixed store + seed, regardless of shard layout.
        """
        if not 0.0 <= eval_fraction <= 1.0:
            raise ValueError(
                f"eval_fraction must be in [0, 1], got {eval_fraction}")
        seed = self.seed if seed is None else seed
        with self.reader.obs.span("store.serve.split",
                                  eval_fraction=eval_fraction) as span:
            groups: Dict[str, List[str]] = {}
            total = 0
            for entry in self:
                family = getattr(entry, "family_id", "")
                key = family if family else f"solo::{entry.entry_id}"
                groups.setdefault(key, []).append(entry.entry_id)
                total += 1
            keys = sorted(groups)
            random.Random(seed).shuffle(keys)
            target = round(eval_fraction * total)
            train_ids: List[str] = []
            eval_ids: List[str] = []
            for key in keys:
                side = eval_ids if len(eval_ids) < target else train_ids
                side.extend(groups[key])
            split = FamilySplit(seed=seed, eval_fraction=eval_fraction,
                                n_groups=len(groups),
                                train_ids=train_ids, eval_ids=eval_ids)
            span.meta["n_groups"] = split.n_groups
            span.meta["n_train"] = split.n_train
            span.meta["n_eval"] = split.n_eval
        return split

    def view(self, entry_ids: Sequence[str],
             seed: Optional[int] = None) -> SplitView:
        """A :class:`SplitView` over the given entry ids (typically one
        side of a :class:`FamilySplit`)."""
        return SplitView(self, entry_ids,
                         seed=self.seed if seed is None else seed)

    def train_view(self, split: FamilySplit) -> SplitView:
        return self.view(split.train_ids, seed=split.seed)

    def eval_view(self, split: FamilySplit) -> SplitView:
        return self.view(split.eval_ids, seed=split.seed)

    def stream_batches(self, batch_size: int = 256,
                       layer: Optional[int] = None) -> Iterator[List[DatasetEntry]]:
        """Store-order batches straight off the shards, memory-bounded.

        The streaming analogue of :meth:`layer` / full iteration: backed
        by :meth:`StoreReader.iter_batches`, so at most one shard plus
        one batch is resident — the feed for streaming curation and
        scan-style evaluation passes that don't need shuffling.
        """
        return self.reader.iter_batches(size=batch_size, layer=layer)

    # -- serving modes -------------------------------------------------

    def curriculum_phases(self, shuffle_within: bool = True,
                          seed: Optional[int] = None) -> List[Phase]:
        """The paper's curriculum, straight off the shards."""
        with self.reader.obs.span("store.serve.curriculum") as span:
            phases = curriculum_phases(
                self, shuffle_within=shuffle_within,
                seed=self.seed if seed is None else seed)
            span.meta["n_phases"] = len(phases)
        return phases

    def uniform_batches(self, batch_size: int = 64,
                        seed: Optional[int] = None) -> List[Phase]:
        """A shuffled single stream chunked into batches (layer-blind)."""
        with self.reader.obs.span("store.serve.uniform",
                                  batch_size=batch_size) as span:
            phases = random_phases(
                self, seed=self.seed if seed is None else seed,
                batch_size=batch_size)
            span.meta["n_phases"] = len(phases)
        return phases

    def weighted_batches(
        self,
        n_batches: int,
        batch_size: int = 64,
        seed: Optional[int] = None,
        schedule: Optional[WeightSchedule] = None,
    ) -> List[Phase]:
        """Batches sampled with replacement, ∝ layer weight × layer size.

        With the default paper schedule a Layer-1 row is served 10× as
        often as a Layer-6 row of equal supply.  Zero-weight layers are
        never served, and the stream does not depend on shard layout
        (see :func:`_weighted_phases`).
        """
        with self.reader.obs.span("store.serve.weighted",
                                  n_batches=n_batches,
                                  batch_size=batch_size):
            return _weighted_phases(self, n_batches, batch_size,
                                    self.seed if seed is None else seed,
                                    schedule)
