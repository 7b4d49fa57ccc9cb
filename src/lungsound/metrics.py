"""Challenge metric suite: Se, Sp, AS, HS, TS (all percentages).

Sensitivity counts adventitious cycles classified into their exact
class (multiclass) or as adventitious (binary); specificity counts
normal cycles classified as normal. Class 0 is the normal class by
convention throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = ["MetricReport", "scores_from_rates", "collapse_to_binary", "NORMAL_CLASS"]

NORMAL_CLASS = 0
_TOL = 1e-9


def scores_from_rates(se: float, sp: float) -> tuple[float, float, float]:
    """(AS, HS, TS) from sensitivity/specificity percentages."""
    as_score = (se + sp) / 2.0
    hs = 0.0 if se + sp == 0 else 2.0 * se * sp / (se + sp)
    ts = (as_score + hs) / 2.0
    return as_score, hs, ts


def collapse_to_binary(labels: np.ndarray) -> np.ndarray:
    """Map any non-normal class to 1 (adventitious), normal to 0."""
    labels = np.asarray(labels)
    return (labels != NORMAL_CLASS).astype(np.int64)


@dataclass
class MetricReport:
    se: float
    sp: float
    as_score: float
    hs: float
    ts: float
    confusion: np.ndarray  # (C, C) counts, rows = truth, cols = prediction
    n_eval: int

    def __post_init__(self):
        self.confusion = np.asarray(self.confusion, dtype=np.int64)
        exp_as, exp_hs, exp_ts = scores_from_rates(self.se, self.sp)
        if (
            abs(self.as_score - exp_as) > _TOL
            or abs(self.hs - exp_hs) > _TOL
            or abs(self.ts - exp_ts) > _TOL
        ):
            raise ValueError(
                f"metric identities violated: AS={self.as_score}, HS={self.hs}, "
                f"TS={self.ts} for Se={self.se}, Sp={self.sp}"
            )
        for v in (self.se, self.sp, self.as_score, self.hs, self.ts):
            if not 0.0 - _TOL <= v <= 100.0 + _TOL:
                raise ValueError(f"metric {v} outside [0, 100]")

    @classmethod
    def from_rates(cls, se: float, sp: float, confusion=None, n_eval: int = 0) -> "MetricReport":
        as_score, hs, ts = scores_from_rates(se, sp)
        if confusion is None:
            confusion = np.zeros((2, 2), dtype=np.int64)
        return cls(se, sp, as_score, hs, ts, confusion, n_eval)

    @classmethod
    def from_confusion(cls, confusion: np.ndarray) -> "MetricReport":
        conf = np.asarray(confusion, dtype=np.int64)
        if conf.ndim != 2 or conf.shape[0] != conf.shape[1]:
            raise DataError(f"confusion matrix must be square, got {conf.shape}")
        n = int(conf.sum())
        if n == 0:
            raise DataError("empty confusion matrix")
        adv = [c for c in range(conf.shape[0]) if c != NORMAL_CLASS]
        adv_total = int(conf[adv, :].sum())
        adv_correct = int(sum(conf[c, c] for c in adv))
        normal_total = int(conf[NORMAL_CLASS, :].sum())
        normal_correct = int(conf[NORMAL_CLASS, NORMAL_CLASS])
        se = 100.0 * adv_correct / adv_total if adv_total else 0.0
        sp = 100.0 * normal_correct / normal_total if normal_total else 0.0
        return cls.from_rates(se, sp, confusion=conf, n_eval=n)

    def to_dict(self) -> dict:
        return {
            "Se": self.se,
            "Sp": self.sp,
            "AS": self.as_score,
            "HS": self.hs,
            "TS": self.ts,
            "n_eval": self.n_eval,
            "confusion": self.confusion.tolist(),
        }
