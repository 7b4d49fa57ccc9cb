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

Each fold of each CV training is one job, a pure function of (kept
bands, fold). A sweep runs its jobs on a ``fork`` process pool sized to
the CPUs and the available memory (in this process when that size is
one) and reduces their results in job order, so every score is the
float a serial loop computes.
"""

from __future__ import annotations

import contextlib
import logging
import mmap
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

import numpy as np

from .attribution import AttributionMap, band_profile, gradcam, integrated_gradients
from .data import SpecSet
from .errors import ConfigError, DataError, DivergenceError, WorkerError
from .masks import FrequencyMask, apply_mask
from .model import POOL, ModelConfig
from .seeding import rng_for
from .tensor import EPILOGUE_BYTES, IM2COL_BYTES, UNITS, _openblas, thread_budget
from .train import EVAL_BATCH, TrainConfig, evaluate, patient_kfold, train

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


# -- one CV job --------------------------------------------------------------------------

# live float32 copies of every conv block's output, per clip, in one training
# step: the smallest count whose estimate is at least 1.15 times the peak RSS
# of one ICBHI-preset step at B=128 on 249x64 input (1,880 against 1,558 MiB)
ACTIVATION_COPIES = 2


@dataclass(frozen=True)
class _Sweep:
    """What every job of one sweep reads; pool workers inherit it when they fork."""

    dataset: SpecSet
    splits: list[tuple[np.ndarray, np.ndarray]]
    model_cfg: ModelConfig
    train_cfg: TrainConfig
    attribution: str | None  # None: the jobs only score (backward selection)


def _cv_job(sweep: _Sweep, keep: np.ndarray, fold: int):
    """One fold of a CV training under the kept bands ``keep``.

    Trains the fold model and returns its validation AS and, for
    importance selection, the fold's (C, F') class band profiles over
    its training clips. It is a pure function of (keep, fold): the fold
    seed depends only on the fold, so across candidate masks (common
    random numbers) AS differences isolate the mask. An attribution
    error comes back in place of the profiles, so that the caller
    raises it only if the iteration goes on to score bands.
    """
    masked = apply_mask(sweep.dataset, FrequencyMask(keep))
    tr, va = sweep.splits[fold]
    fold_train = masked[tr]
    task = sweep.train_cfg.task
    fold_seed = int(rng_for(sweep.train_cfg.seed, "fbs-train", fold).integers(2**31))
    model = train(
        fold_train,
        replace(sweep.model_cfg, n_mel_rows_in=masked.n_bands),
        replace(sweep.train_cfg, seed=fold_seed),
    ).model
    fold_as = evaluate(model, masked[va], task).as_score
    if sweep.attribution is None:
        return fold_as, None
    labels = fold_train.targets(task)
    n_classes = 2 if task == "binary" else sweep.model_cfg.n_classes
    profiles = []
    try:
        for c in range(n_classes):
            specs = fold_train[labels == c]
            if not specs:
                raise DataError(f"no training samples of class {c} in fold {fold}")
            if sweep.attribution == "gradcam":
                maps = gradcam(model, specs, c)
            else:
                maps = [
                    integrated_gradients(
                        model, spec, c, baseline=np.zeros_like(spec.values), steps=IG_STEPS
                    )
                    for spec in specs
                ]
            profiles.append(per_class_band_attribution(maps, class_id=c, fold=fold))
    except (DataError, DivergenceError) as exc:
        return fold_as, exc
    return fold_as, np.stack(profiles)


# -- running a sweep's jobs ---------------------------------------------------------------


def _training_bytes(sweep: _Sweep) -> int:
    """Estimated peak memory of one job.

    The larger of a training step, every conv block's output at the
    training batch ``ACTIVATION_COPIES`` times, and ``evaluate``, which
    runs its batch depth first (``CnnTsa.features``): every block's conv
    output for one chunk of as many clips as fit block 1's in
    ``IM2COL_BYTES``, plus every block's transformed kernel (64 C C'
    floats), which the call keeps for all its chunks. Then one im2col
    chunk, one gathered batch of clips, and the engine's scratch: the
    units of a conv hold at most one more chunk between them, and each
    of the engine's threads (at most ``UNITS``) two batchnorm blocks.
    """
    t, f = sweep.dataset.n_frames, sweep.dataset.n_bands
    channels = sweep.model_cfg.channels
    gather = 4 * max(sweep.train_cfg.batch_size, EVAL_BATCH) * t * f
    chunk = min(EVAL_BATCH, max(1, IM2COL_BYTES // (4 * channels[0] * t * f)))
    conv = kernels = 0  # floats: every block's conv output per clip; every block's U
    cin = 1
    for c in channels:
        conv += c * t * f
        kernels += 64 * cin * c
        t, f, cin = t // POOL, f // POOL, c
    step = 4 * ACTIVATION_COPIES * conv * sweep.train_cfg.batch_size
    inference = 4 * (conv * chunk + kernels)
    scratch = IM2COL_BYTES + 2 * UNITS * EPILOGUE_BYTES
    return max(step, inference) + IM2COL_BYTES + gather + scratch


def _available_bytes() -> int:
    """MemAvailable from /proc/meminfo; 0 where the system has none."""
    try:
        with open("/proc/meminfo") as fh:
            return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("MemAvailable:"))
    except (OSError, StopIteration):
        return 0


def _pool_size(sweep: _Sweep, n_jobs: int) -> int:
    """Workers for a sweep whose largest round has ``n_jobs`` jobs.

    No more than the CPUs this process may run on, the jobs, or the
    trainings that fit in the available memory; at least one.
    """
    fit = _available_bytes() // _training_bytes(sweep)
    if fit < 2:
        return 1
    return min(len(os.sched_getaffinity(0)), n_jobs, fit)


_WORKER = None  # (sweep, started) inside a pool worker; set by _adopt


def _adopt(sweep: _Sweep, started: np.ndarray) -> None:
    global _WORKER
    _WORKER = (sweep, started)


def _pool_job(j: int, keep: np.ndarray, fold: int):
    """``_cv_job`` in a pool worker; ``started[j]`` holds the worker's pid while it runs."""
    sweep, started = _WORKER
    started[j] = os.getpid()
    try:
        return _cv_job(sweep, keep, fold)
    finally:
        started[j] = 0


class _Jobs:
    """Runs a sweep's (keep, fold) jobs and returns their results in job order.

    With one worker (see ``_pool_size``), or no way to set the workers'
    BLAS threads (see ``tensor._openblas``), the jobs run in this process.
    Otherwise they run on a ``fork`` process pool that lives as long as
    the ``with`` block, forked inside ``thread_budget(cpus // workers)``
    (at least one), so each worker's engine threads and OpenBLAS take its
    share of the CPUs. The workers inherit the sweep copy-on-write, so a
    job ships only its mask bits and fold. A job's exception is raised
    here; a worker that dies mid-job raises ``WorkerError`` naming the job.
    """

    def __init__(self, sweep: _Sweep, n_jobs: int):
        self.sweep = sweep
        self.pool = None
        self.budget = contextlib.ExitStack()
        size = _pool_size(sweep, n_jobs)
        if size > 1 and _openblas() is not None:
            # the workers fork with this process's thread budget, so it is
            # their share while the pool lives; set inside a forked worker,
            # OpenBLAS would restart its threads there, and an idle one
            # spins for about 0.1 s of CPU
            self.budget.enter_context(thread_budget(max(1, len(os.sched_getaffinity(0)) // size)))
            # the pid of the worker running job j, 0 when none; shared with the workers
            self.started = np.frombuffer(mmap.mmap(-1, 8 * n_jobs), dtype=np.int64)
            self.pool = ProcessPoolExecutor(
                size,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_adopt,
                initargs=(sweep, self.started),
            )
            self.workers = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)
        self.budget.close()

    def run(self, jobs: list[tuple[np.ndarray, int]]) -> list:
        if self.pool is None:
            return [_cv_job(self.sweep, keep, fold) for keep, fold in jobs]
        futures = [self.pool.submit(_pool_job, j, keep, fold) for j, (keep, fold) in enumerate(jobs)]
        if not self.workers:  # a fork pool starts all its workers on the first submit
            self.workers = multiprocessing.active_children()
        try:
            return [f.result() for f in futures]
        except BrokenProcessPool:
            self.pool.shutdown()  # joins every worker
            raise WorkerError(self._death(jobs)) from None

    def _death(self, jobs) -> str:
        """Names the job whose worker died.

        The pool sends SIGTERM to the workers that outlive a dead one, so
        a job whose worker ended that way is not the cause.
        """
        codes = {p.pid: p.exitcode for p in self.workers}
        running = [(j, int(pid)) for j, pid in enumerate(self.started[: len(jobs)]) if pid]
        cause = [(j, pid) for j, pid in running if codes.get(pid) != -signal.SIGTERM] or running
        if not cause:
            return "a worker process died between jobs"
        j, pid = cause[0]
        code = codes.get(pid)
        if code is not None and code < 0:
            how = f"was killed by {signal.Signals(-code).name}"
        else:
            how = f"exited with status {code}"
        keep, fold = jobs[j]
        return f"worker process {pid} {how} while running job (mask {FrequencyMask(keep).bitstring()}, fold {fold})"


# -- the selection loops ----------------------------------------------------------------


def fbs_importance(
    dataset: SpecSet,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    lam: float = 0.5,
    r: int = 4,
    k_folds: int = 5,
    stop_epsilon: float = 0.5,
    min_bands: int = MIN_BANDS,
    attribution_method: str = "gradcam",
) -> FbsResult:
    """Iterative importance-based selection (one CV training per iteration).

    An iteration is k (mask, fold) jobs. Selection keeps at least
    ``min_bands`` bands, and at least the model's ``min_input_size``.
    Raises ``ConfigError``, before any training, for r < 1 (removing no
    band would retrain the same mask forever), for an unknown
    attribution method, and for a NaN or negative ``stop_epsilon``
    (``math.inf`` turns the stop rule off).
    """
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"lambda must lie in [0, 1], got {lam}")
    if not stop_epsilon >= 0:
        raise ConfigError(f"stop_epsilon must be >= 0, got {stop_epsilon}")
    if r < 1:
        raise ConfigError(f"r must be >= 1 band per iteration, got {r}")
    if attribution_method not in ("gradcam", "ig"):
        raise ConfigError(f"unknown attribution method {attribution_method!r}")
    floor = max(min_bands, model_cfg.min_input_size)
    n_bands = dataset.n_bands
    splits = patient_kfold(dataset.patient_ids, k=k_folds, seed=train_cfg.seed)
    sweep = _Sweep(dataset, splits, model_cfg, train_cfg, attribution_method)
    mask = FrequencyMask(np.ones(n_bands, dtype=bool), origin="importance")
    iterations: list[FbsIteration] = []
    train_runs = 0
    best_as = -np.inf
    best_mask = mask
    with _Jobs(sweep, len(splits)) as jobs:
        while True:
            it_idx = len(iterations)
            results = jobs.run([(mask.keep, f) for f in range(len(splits))])
            fold_as = [a for a, _ in results]
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
            per_fold = []
            for _, profiles in results:
                if isinstance(profiles, Exception):
                    raise profiles
                per_fold.append(profiles)  # (C, F')
            record.table = importance_scores(
                list(fold_average(per_fold)),
                lam,
                band_indices=mask.kept_indices,
            )
            nxt = eliminate_lowest(record.table, mask, r=r, floor=floor)
            if nxt is None:
                break
            record.removed = nxt.history[-1]
            mask = nxt
    return FbsResult(mask=best_mask, final_mask=mask, iterations=iterations, train_runs=train_runs)


def fbs_backward(
    dataset: SpecSet,
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
    means adjacent among the survivors. An iteration is groups x k
    (mask, fold) jobs. Ties on the best candidate break toward the
    lowest group start. Selection keeps at least ``min_bands`` bands, and
    at least the model's ``min_input_size``. Raises ``ConfigError``,
    before any training, for a NaN or negative ``stop_epsilon`` and when
    that floor leaves no group to remove.
    """
    if not stop_epsilon >= 0:
        raise ConfigError(f"stop_epsilon must be >= 0, got {stop_epsilon}")
    n_bands = dataset.n_bands
    floor = max(min_bands, model_cfg.min_input_size)
    if n_bands - GROUP < floor:
        raise ConfigError(
            f"min_bands {min_bands} (floor {floor} for a {model_cfg.n_conv_blocks}-block model) "
            f"leaves no group of {GROUP} to remove from {n_bands} bands"
        )
    splits = patient_kfold(dataset.patient_ids, k=k_folds, seed=train_cfg.seed)
    k = len(splits)
    sweep = _Sweep(dataset, splits, model_cfg, train_cfg, None)
    mask = FrequencyMask(np.ones(n_bands, dtype=bool), origin="backward")
    iterations: list[FbsIteration] = []
    train_runs = 0
    best_as = -np.inf
    best_mask = mask
    with _Jobs(sweep, n_bands // GROUP * k) as jobs:
        while mask.n_kept - GROUP >= floor:
            it_idx = len(iterations)
            kept = mask.kept_indices
            candidates = [kept[i * GROUP : (i + 1) * GROUP] for i in range(len(kept) // GROUP)]
            results = jobs.run([(mask.remove(c).keep, f) for c in candidates for f in range(k)])
            train_runs += len(candidates)
            cand_as = [
                float(np.mean([a for a, _ in results[i * k : (i + 1) * k]]))
                for i in range(len(candidates))
            ]
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
