"""Frequency masks and their application to spectrograms.

A masked set indexes its kept bands (band order preserved) in the array
it shares with its parent; batches are gathered to the kept bands alone,
which is what shrinks the convolution cost. The mask keeps the mapping
back to original band indices via ``kept_indices``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

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

    def remove(self, indices) -> "FrequencyMask":
        """New mask with ``indices`` (original band numbering) removed."""
        indices = sorted(int(i) for i in indices)
        keep = self.keep.copy()
        for i in indices:
            if not keep[i]:
                raise ValueError(f"band {i} already removed")
            keep[i] = False
        return FrequencyMask(keep, origin=self.origin, history=self.history + [indices])

    def bitstring(self) -> str:
        return "".join("1" if k else "0" for k in self.keep)


def apply_mask(specs: SpecSet, mask: FrequencyMask) -> SpecSet:
    """``specs`` restricted to the kept bands, sharing ``specs.values``.

    Band order is preserved; nothing is copied. A mask that keeps every
    band returns ``specs`` itself.
    """
    if mask.n_bands != specs.n_bands:
        raise ShapeError(
            f"mask over {mask.n_bands} bands applied to spectrograms with "
            f"{specs.n_bands}"
        )
    if mask.n_kept == mask.n_bands:
        return specs
    kept = mask.kept_indices
    bands = kept if specs.bands is None else specs.bands[kept]
    return replace(specs, bands=bands, band_centers=specs.band_centers[kept])
