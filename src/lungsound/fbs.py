"""Frequency Band Selection.

Two strategies produce a binary mask over the Mel bands:

* importance-based: per iteration, train with patient-wise K-fold CV
  under the current mask, attribute each fold's training samples per
  class (Grad-CAM by default), average profiles over samples and folds,
  score every kept band as mean - lambda * maxdiff, and drop the r
  lowest. One CV training per iteration: O(F) selection cost.

* grouped backward selection: per iteration, partition the kept bands
  (in compacted order) into disjoint adjacent groups of 4, tentatively
  remove each group, and keep the removal with the best mean CV score.
  One CV training per candidate group, F/4 groups per iteration:
  O((F/4)^2) cost.

Both stop when the mean CV average score drops more than stop_epsilon
below the best seen so far (or at the kept-band floor) and return the
best-scoring mask. ``FbsResult.train_runs`` counts CV trainings so the
complexity split is directly assertable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .attribution import AttributionMap, band_profile, gradcam, integrated_gradients
from .data import SpecSet
from .errors import ConfigError, DataError
from .masks import FrequencyMask, apply_mask
from .model import ModelConfig
from .seeding import rng_for
from .train import TrainConfig, evaluate, patient_kfold, train

__all__ = [
    "FrequencyMask",
    "apply_mask",
    "ImportanceTable",
    "FbsIteration",
    "FbsResult",
    "per_class_band_attribution",
    "fold_average",
    "importance_scores",
    "eliminate_lowest",
    "fbs_importance",
    "fbs_backward",
]

log = logging.getLogger("lungsound.fbs")

MIN_BANDS = 8
IG_STEPS = 20  # interpolation steps per IG map during selection
GROUP = 4  # adjacent bands per backward-selection candidate


@dataclass
class ImportanceTable:
    """Per-band scores for one iteration, over the kept bands only.

    ``band_indices`` are original band numbers; ``score`` is exactly
    mean - lam * maxdiff.
    """

    band_indices: np.ndarray
    mean: np.ndarray
    maxdiff: np.ndarray
    lam: float

    def __post_init__(self):
        self.band_indices = np.asarray(self.band_indices, dtype=np.int64)
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.maxdiff = np.asarray(self.maxdiff, dtype=np.float64)
        if (self.maxdiff < 0).any():
            raise ValueError("maxdiff is an absolute difference and cannot be negative")

    @property
    def score(self) -> np.ndarray:
        return self.mean - self.lam * self.maxdiff


@dataclass
class FbsIteration:
    index: int
    kept: np.ndarray  # original band indices active during this iteration
    mean_cv_as: float
    fold_as: list[float]
    removed: list[int]  # bands eliminated at the end (empty on the stop iteration)
    table: ImportanceTable | None = None  # importance method only
    candidate_as: list[float] | None = None  # backward method only

    @property
    def n_kept(self) -> int:
        return int(len(self.kept))


@dataclass
class FbsResult:
    mask: FrequencyMask  # best-scoring mask
    final_mask: FrequencyMask  # mask when the loop stopped
    iterations: list[FbsIteration]
    train_runs: int  # counted CV trainings

    def mask_at(self, n_kept: int) -> FrequencyMask:
        """Reconstruct the mask at the point where n_kept bands survived."""
        n_bands = self.final_mask.n_bands
        for it in self.iterations:
            kept = None
            if it.n_kept == n_kept:
                kept = it.kept
            elif it.removed and it.n_kept - len(it.removed) == n_kept:
                kept = np.setdiff1d(it.kept, it.removed)
            if kept is not None:
                keep = np.zeros(n_bands, dtype=bool)
                keep[np.asarray(kept, dtype=np.int64)] = True
                return FrequencyMask(keep, origin=self.final_mask.origin)
        raise KeyError(f"no iteration had {n_kept} kept bands")


# -- score building blocks ---------------------------------------------------------


def per_class_band_attribution(
    attrs: list[AttributionMap],
    class_id: int | None = None,
    fold: int | None = None,
) -> np.ndarray:
    """Mean band profile over all attribution maps of one class/fold."""
    if not attrs:
        where = f" for class {class_id}" if class_id is not None else ""
        where += f" in fold {fold}" if fold is not None else ""
        raise DataError(f"no attribution maps{where}")
    profiles = np.stack([band_profile(a) for a in attrs])
    return profiles.mean(axis=0)


def fold_average(per_fold: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean of per-fold class attribution vectors."""
    if not per_fold:
        raise DataError("no folds to average")
    stacked = np.stack([np.asarray(v, dtype=np.float64) for v in per_fold])
    return stacked.mean(axis=0)


def importance_scores(
    class_profiles: list[np.ndarray],
    lam: float,
    band_indices: np.ndarray | None = None,
) -> ImportanceTable:
    """Combine per-class band attributions into importance scores.

    mean[f] is the class average, maxdiff[f] the largest absolute
    pairwise class difference (0 with a single class), and the score is
    mean - lam * maxdiff.
    """
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"lambda must lie in [0, 1], got {lam}")
    vectors = list(class_profiles)
    if not vectors:
        raise DataError("no class profiles given")
    a = np.stack([np.asarray(v, dtype=np.float64) for v in vectors])  # (C, F')
    mean = a.mean(axis=0)
    maxdiff = a.max(axis=0) - a.min(axis=0)  # == max over pairs |A^c - A^c'|
    if band_indices is None:
        band_indices = np.arange(a.shape[1])
    return ImportanceTable(
        band_indices=band_indices,
        mean=mean,
        maxdiff=maxdiff,
        lam=lam,
    )


def eliminate_lowest(
    table: ImportanceTable,
    mask: FrequencyMask,
    r: int = 4,
    floor: int = MIN_BANDS,
) -> FrequencyMask | None:
    """Remove the r kept bands with the lowest score.

    Ties break toward the lower band index. Returns None (a stop
    signal, not an error) if removal would leave fewer than ``floor``
    bands.
    """
    if mask.n_kept - r < floor:
        return None
    kept = set(mask.kept_indices.tolist())
    rows = [
        (float(s), int(b))
        for s, b in zip(table.score, table.band_indices)
        if int(b) in kept
    ]
    rows.sort()  # ascending score, then ascending band index
    victims = [b for _, b in rows[:r]]
    return mask.remove(victims)


# -- attribution under a mask ---------------------------------------------------------


def _fold_class_profiles(
    model,
    fold_train: SpecSet,
    labels: np.ndarray,
    n_classes: int,
    method: str,
    fold: int,
) -> list[np.ndarray]:
    profiles = []
    for c in range(n_classes):
        specs = fold_train[labels == c]
        if not specs:
            raise DataError(f"no training samples of class {c} in fold {fold}")
        if method == "gradcam":
            maps = gradcam(model, specs, c)
        elif method == "ig":
            maps = [
                integrated_gradients(
                    model, spec, c, baseline=np.zeros_like(spec.values), steps=IG_STEPS
                )
                for spec in specs
            ]
        else:
            raise ConfigError(f"unknown attribution method {method!r}")
        profiles.append(per_class_band_attribution(maps, class_id=c, fold=fold))
    return profiles


def _cv_train_eval(masked: SpecSet, splits, model_cfg: ModelConfig, train_cfg: TrainConfig):
    """One counted CV training on masked clips: the fold models and their val AS."""
    cfg = replace(model_cfg, n_mel_rows_in=masked.n_bands)
    fold_as: list[float] = []
    fold_models = []
    for f, (tr, va) in enumerate(splits):
        # common random numbers across candidate masks: the fold seed
        # depends only on the fold, so AS differences isolate the mask
        fold_seed = int(rng_for(train_cfg.seed, "fbs-train", f).integers(2**31))
        res = train(masked[tr], cfg, replace(train_cfg, seed=fold_seed))
        fold_as.append(evaluate(res.model, masked[va], train_cfg.task).as_score)
        fold_models.append(res.model)
    return fold_as, fold_models


# -- the selection loops ----------------------------------------------------------------


def fbs_importance(
    dataset: SpecSet | list,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    lam: float = 0.5,
    r: int = 4,
    k_folds: int = 5,
    stop_epsilon: float = 0.5,
    min_bands: int = MIN_BANDS,
    attribution_method: str = "gradcam",
) -> FbsResult:
    """Iterative importance-based selection (one CV training per iteration)."""
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"lambda must lie in [0, 1], got {lam}")
    dataset = SpecSet.of(dataset)
    n_bands = dataset.n_bands
    n_classes = 2 if train_cfg.task == "binary" else model_cfg.n_classes
    splits = patient_kfold(dataset, k=k_folds, seed=train_cfg.seed)
    mask = FrequencyMask(np.ones(n_bands, dtype=bool), origin="importance")
    iterations: list[FbsIteration] = []
    train_runs = 0
    best_as = -np.inf
    best_mask = mask
    while True:
        it_idx = len(iterations)
        masked = apply_mask(dataset, mask)
        fold_as, models = _cv_train_eval(masked, splits, model_cfg, train_cfg)
        mean_as = float(np.mean(fold_as))
        train_runs += 1
        record = FbsIteration(
            index=it_idx,
            kept=mask.kept_indices.copy(),
            mean_cv_as=mean_as,
            fold_as=fold_as,
            removed=[],
        )
        iterations.append(record)
        log.info("fbs[is] iter %d: %d bands, CV AS %.2f", it_idx, mask.n_kept, mean_as)
        if mean_as > best_as:
            best_as, best_mask = mean_as, mask
        elif mean_as < best_as - stop_epsilon:
            break
        all_labels = masked.targets(train_cfg.task)
        per_fold = []
        for f, (model, (tr, _)) in enumerate(zip(models, splits)):
            profiles = _fold_class_profiles(
                model,
                masked[tr],
                all_labels[tr],
                n_classes,
                attribution_method,
                fold=f,
            )
            per_fold.append(np.stack(profiles))  # (C, F')
        per_class = fold_average(per_fold)  # (C, F')
        record.table = importance_scores(
            list(per_class),
            lam,
            band_indices=mask.kept_indices,
        )
        nxt = eliminate_lowest(record.table, mask, r=r, floor=min_bands)
        if nxt is None:
            break
        record.removed = nxt.history[-1]
        mask = nxt
    return FbsResult(mask=best_mask, final_mask=mask, iterations=iterations, train_runs=train_runs)


def fbs_backward(
    dataset: SpecSet | list,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    k_folds: int = 5,
    stop_epsilon: float = 0.5,
    min_bands: int = MIN_BANDS,
) -> FbsResult:
    """Grouped backward selection (one CV training per candidate group).

    Candidates are the disjoint adjacent groups of ``GROUP`` bands in
    compacted kept order (F/4 groups per iteration, which is what keeps
    the total cost at O((F/4)^2) trainings); after removals, "adjacent"
    means adjacent among the survivors. Ties on the best candidate
    break toward the lowest group start. Raises ``ConfigError``, before
    any training, when ``min_bands`` leaves no group to remove.
    """
    dataset = SpecSet.of(dataset)
    n_bands = dataset.n_bands
    if n_bands - GROUP < min_bands:
        raise ConfigError(f"min_bands {min_bands} leaves no group of {GROUP} to remove from {n_bands} bands")
    splits = patient_kfold(dataset, k=k_folds, seed=train_cfg.seed)
    mask = FrequencyMask(np.ones(n_bands, dtype=bool), origin="backward")
    iterations: list[FbsIteration] = []
    train_runs = 0
    best_as = -np.inf
    best_mask = mask
    while mask.n_kept - GROUP >= min_bands:
        it_idx = len(iterations)
        kept = mask.kept_indices
        candidates = [kept[i * GROUP : (i + 1) * GROUP] for i in range(len(kept) // GROUP)]
        cand_as: list[float] = []
        for cand in candidates:
            fold_as, _ = _cv_train_eval(
                apply_mask(dataset, mask.remove(cand)), splits, model_cfg, train_cfg
            )
            train_runs += 1
            cand_as.append(float(np.mean(fold_as)))
        pick = int(np.argmax(cand_as))  # first occurrence wins ties
        chosen_as = cand_as[pick]
        record = FbsIteration(
            index=it_idx,
            kept=kept.copy(),
            mean_cv_as=chosen_as,
            fold_as=[],
            removed=[],
            candidate_as=cand_as,
        )
        iterations.append(record)
        log.info(
            "fbs[bs] iter %d: %d bands, best candidate AS %.2f over %d windows",
            it_idx, mask.n_kept, chosen_as, len(candidates),
        )
        if chosen_as < best_as - stop_epsilon:
            break
        mask = mask.remove(candidates[pick])
        record.removed = mask.history[-1]
        if chosen_as > best_as:
            best_as, best_mask = chosen_as, mask
    return FbsResult(mask=best_mask, final_mask=mask, iterations=iterations, train_runs=train_runs)
