"""Frequency masks and their application to spectrograms.

Masked bands are physically removed: kept bands are compacted into a
contiguous array (band order preserved), which is what shrinks the
convolution cost. The mask keeps the mapping back to original band
indices via ``kept_indices``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .audio import Spectrogram
from .data import SpecSet
from .errors import ShapeError

__all__ = ["FrequencyMask", "apply_mask"]


@dataclass
class FrequencyMask:
    keep: np.ndarray  # (F,) bool over original band indices
    origin: str = "full"  # full | importance | backward
    history: list[list[int]] = field(default_factory=list)  # removals per iteration

    def __post_init__(self):
        self.keep = np.asarray(self.keep, dtype=bool)
        if self.keep.ndim != 1:
            raise ShapeError(f"mask must be 1-D, got shape {self.keep.shape}")
        removed_in_history = [i for it in self.history for i in it]
        if len(set(removed_in_history)) != len(removed_in_history):
            raise ValueError("mask history removes a band index twice")
        if set(removed_in_history) != set(np.flatnonzero(~self.keep).tolist()):
            if self.history:  # a bare mask without history is fine
                raise ValueError("mask history does not partition the removed bands")

    @classmethod
    def full(cls, n_bands: int) -> "FrequencyMask":
        return cls(np.ones(n_bands, dtype=bool), origin="full")

    @property
    def n_bands(self) -> int:
        return int(self.keep.size)

    @property
    def n_kept(self) -> int:
        return int(self.keep.sum())

    @property
    def kept_indices(self) -> np.ndarray:
        return np.flatnonzero(self.keep)

    def remove(self, indices, origin: str | None = None) -> "FrequencyMask":
        """New mask with ``indices`` (original band numbering) removed."""
        indices = sorted(int(i) for i in indices)
        keep = self.keep.copy()
        for i in indices:
            if not keep[i]:
                raise ValueError(f"band {i} already removed")
            keep[i] = False
        return FrequencyMask(
            keep, origin=origin or self.origin, history=self.history + [indices]
        )

    def bitstring(self) -> str:
        return "".join("1" if k else "0" for k in self.keep)


def apply_mask(x: Spectrogram | SpecSet, mask: FrequencyMask) -> Spectrogram | SpecSet:
    """Compact a spectrogram, or every clip of a set, to its kept bands.

    Band order is preserved. A mask that keeps every band returns ``x``
    itself.
    """
    if mask.n_bands != x.n_bands:
        raise ShapeError(
            f"mask over {mask.n_bands} bands applied to spectrograms with "
            f"{x.n_bands}"
        )
    if mask.n_kept == mask.n_bands:
        return x
    kept = mask.kept_indices
    return replace(x, values=x.values.take(kept, axis=-1), band_centers=x.band_centers[kept])
