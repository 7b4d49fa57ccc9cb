"""Frequency Band Selection.

Two strategies produce a binary mask over the Mel bands, as wrapper
selection on one loop (``_select``): from all bands, each iteration
scores candidate masks by patient-wise K-fold CV, picks the one of best
mean CV average score (AS), and takes the strategy's next mask.

* importance-based: the one candidate is the current mask; the next
  drops the r bands of lowest mean - lambda * maxdiff of the folds'
  per-class attribution profiles (Grad-CAM by default). One CV training
  per iteration: O(F) selection cost.

* grouped backward selection: the candidates drop each disjoint adjacent
  group of 4 kept bands (in compacted order); the next mask is the
  picked one. One CV training per candidate, F/4 candidates per
  iteration: O((F/4)^2) cost.

The loop stops when the picked AS drops more than stop_epsilon below
the best seen so far (or at the kept-band floor) and returns the
best-scoring mask. ``FbsResult.train_runs`` counts CV trainings so the
complexity split is directly assertable.

Each fold of each CV training is one job, a pure function of (kept
bands, fold). A sweep runs its jobs on a ``fork`` process pool sized to
the CPUs and the available memory over one measured job (in this process
when that size is one), and reduces their results in job order, so
every score is the float a serial loop computes.
"""

from __future__ import annotations

import contextlib
import logging
import mmap
import multiprocessing
import os
import signal
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

import numpy as np

from .attribution import AttributionMap, band_profile, gradcam, integrated_gradients
from .data import SpecSet
from .errors import ConfigError, DataError, DivergenceError, WorkerError
from .masks import FrequencyMask, apply_mask
from .model import ModelConfig
from .seeding import rng_for
from .tensor import _openblas, thread_budget
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
    mean_cv_as: float  # the picked candidate's mean CV AS
    fold_as: list[float]  # the picked candidate's AS per fold
    removed: list[int]  # bands eliminated at the end (empty on the stop iteration)
    candidate_as: list[float]  # every candidate's mean CV AS; importance has one candidate
    table: ImportanceTable | None = None  # importance only; None on an iteration that stops

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

# the memory a pool gives each worker over the growth its one-epoch probe
# measured; whole jobs at six epochs, and on other folds, grew within 1%
JOB_MARGIN = 1.25

_JOB_BYTES: dict = {}  # ``_job_bytes`` by job shape, for the life of the process


def _proc_bytes(path: str, field: str) -> int:
    """The ``field: n kB`` line of a /proc file in bytes; 0 where the system has none."""
    try:
        with open(path) as fh:
            return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(field + ":"))
    except (OSError, StopIteration):
        return 0


def _available_bytes() -> int:
    return _proc_bytes("/proc/meminfo", "MemAvailable")


def _probe(sweep: _Sweep, grown: np.ndarray) -> None:
    """In a forked child, ``grown[0]``: the VmHWM growth over VmRSS of one epoch of the job on all bands, fold 0."""
    start = _proc_bytes("/proc/self/status", "VmRSS")
    with contextlib.suppress(Exception):  # the memory up to the error, which the sweep's jobs raise
        _cv_job(replace(sweep, train_cfg=replace(sweep.train_cfg, epochs=1)), np.ones(sweep.dataset.n_bands, bool), 0)
    grown[0] = _proc_bytes("/proc/self/status", "VmHWM") - start


def _job_bytes(sweep: _Sweep) -> int:
    """The memory one job adds to a worker: ``_probe`` once per job shape and process, forked in
    a two-worker pool's thread share (the largest a pool gives). ``WorkerError`` if it dies."""
    key = (sweep.model_cfg, sweep.train_cfg, sweep.attribution, len(sweep.splits),
           len(sweep.dataset), sweep.dataset.n_frames, sweep.dataset.n_bands)
    if key not in _JOB_BYTES:
        grown = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)
        child = multiprocessing.get_context("fork").Process(target=_probe, args=(sweep, grown), daemon=True)
        with thread_budget(max(1, len(os.sched_getaffinity(0)) // 2)):
            child.start()
        child.join()
        if child.exitcode:
            raise WorkerError(f"memory probe {child.pid} {_ended(child.exitcode)} in fold 0 on all bands")
        _JOB_BYTES[key] = int(grown[0])
    return _JOB_BYTES[key]


def _pool_size(sweep: _Sweep, n_jobs: int) -> int:
    """Workers for a sweep whose largest round has ``n_jobs`` jobs: at most the CPUs, the jobs,
    and the jobs that fit in MemAvailable at ``_job_bytes`` times ``JOB_MARGIN``; at least one.
    Measures only where a pool would start: two CPUs and jobs, OpenBLAS control, MemAvailable."""
    most = min(len(os.sched_getaffinity(0)), n_jobs)
    available = _available_bytes()
    if most < 2 or _openblas() is None or not available:
        return 1
    return max(1, min(most, available // max(1, int(_job_bytes(sweep) * JOB_MARGIN))))


def _ended(code: int | None) -> str:
    """How a process that ended with exit code ``code`` ended."""
    return f"was killed by {signal.Signals(-code).name}" if (code or 0) < 0 else f"exited with status {code}"


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

    With one worker (see ``_pool_size``), the jobs run in this process.
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
        if size > 1:
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
        keep, fold = jobs[j]
        return (f"worker process {pid} {_ended(codes.get(pid))} while running job "
                f"(mask {FrequencyMask(keep).bitstring()}, fold {fold})")


# -- the selection loop -----------------------------------------------------------------


def _select(dataset: SpecSet, model_cfg: ModelConfig, train_cfg: TrainConfig, k: int, stop_epsilon: float,
            origin: str, attribution: str | None, candidates: Callable, next_mask: Callable) -> FbsResult:
    """Wrapper selection from all bands, with a method's two rules.

    Each iteration scores the masks ``candidates(mask)`` by k-fold CV,
    one (candidate, fold) job each, candidate-major, and picks the first
    of highest mean AS; the best mask is the picked candidate of the
    highest AS so far. It stops when there is no candidate, when the
    picked AS falls more than ``stop_epsilon`` below the best, or when
    ``next_mask(picked, its fold results, the record)`` returns None.
    Raises ``ConfigError``, before any training, for a NaN or negative
    ``stop_epsilon`` (``math.inf`` turns the stop rule off).
    """
    if not stop_epsilon >= 0:
        raise ConfigError(f"stop_epsilon must be >= 0, got {stop_epsilon}")
    splits = patient_kfold(dataset.patient_ids, k=k, seed=train_cfg.seed)
    sweep = _Sweep(dataset, splits, model_cfg, train_cfg, attribution)
    mask = best_mask = FrequencyMask(np.ones(dataset.n_bands, dtype=bool), origin=origin)
    best_as = -np.inf
    iterations: list[FbsIteration] = []
    train_runs = 0
    cands = candidates(mask)
    with _Jobs(sweep, len(cands) * k) as jobs:
        while cands:
            results = jobs.run([(c.keep, f) for c in cands for f in range(k)])
            train_runs += len(cands)
            cand_as = [float(np.mean([a for a, _ in results[i : i + k]])) for i in range(0, len(results), k)]
            pick = int(np.argmax(cand_as))  # first occurrence wins ties
            picked, picked_results = cands[pick], results[pick * k : (pick + 1) * k]
            record = FbsIteration(len(iterations), mask.kept_indices.copy(), cand_as[pick],
                                  [a for a, _ in picked_results], removed=[], candidate_as=cand_as)
            iterations.append(record)
            log.info("fbs[%s] iter %d: %d bands, best of %d candidates CV AS %.2f",
                     origin, record.index, mask.n_kept, len(cands), record.mean_cv_as)
            if record.mean_cv_as < best_as - stop_epsilon:
                break
            if record.mean_cv_as > best_as:
                best_as, best_mask = record.mean_cv_as, picked
            nxt = next_mask(picked, picked_results, record)
            if nxt is None:
                break
            mask, record.removed = nxt, nxt.history[-1]
            cands = candidates(mask)
    return FbsResult(mask=best_mask, final_mask=mask, iterations=iterations, train_runs=train_runs)


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

    Its one candidate is the current mask. Selection keeps at least
    ``min_bands`` bands, and at least the model's ``min_input_size``.
    Raises ``ConfigError``, before any training, for r < 1 (removing no
    band would retrain the same mask forever), when that floor leaves no
    r bands to remove, for an unknown attribution method, and as
    ``_select`` does.
    """
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"lambda must lie in [0, 1], got {lam}")
    if r < 1:
        raise ConfigError(f"r must be >= 1 band per iteration, got {r}")
    if attribution_method not in ("gradcam", "ig"):
        raise ConfigError(f"unknown attribution method {attribution_method!r}")
    floor = max(min_bands, model_cfg.min_input_size)
    if dataset.n_bands - r < floor:
        raise ConfigError(
            f"min_bands {min_bands} (floor {floor} for a {model_cfg.n_conv_blocks}-block model) "
            f"leaves no r={r} bands to remove from {dataset.n_bands} bands"
        )

    def eliminate(mask, results, record):
        for _, profiles in results:
            if isinstance(profiles, Exception):
                raise profiles
        per_fold = [profiles for _, profiles in results]  # (C, F') each
        record.table = importance_scores(list(fold_average(per_fold)), lam, band_indices=mask.kept_indices)
        return eliminate_lowest(record.table, mask, r=r, floor=floor)

    return _select(dataset, model_cfg, train_cfg, k_folds, stop_epsilon, "importance", attribution_method,
                   lambda mask: [mask], eliminate)


def fbs_backward(
    dataset: SpecSet,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    k_folds: int = 5,
    stop_epsilon: float = 0.5,
    min_bands: int = MIN_BANDS,
) -> FbsResult:
    """Grouped backward selection (one CV training per candidate group).

    Candidates drop each disjoint adjacent group of ``GROUP`` bands in
    compacted kept order (F/4 groups per iteration, which is what keeps
    the total cost at O((F/4)^2) trainings); after removals, "adjacent"
    means adjacent among the survivors. The next mask is the picked
    candidate. Selection keeps at least ``min_bands`` bands, and at least
    the model's ``min_input_size``. Raises ``ConfigError``, before any
    training, when that floor leaves no group to remove, and as
    ``_select`` does.
    """
    n_bands = dataset.n_bands
    floor = max(min_bands, model_cfg.min_input_size)
    if n_bands - GROUP < floor:
        raise ConfigError(
            f"min_bands {min_bands} (floor {floor} for a {model_cfg.n_conv_blocks}-block model) "
            f"leaves no group of {GROUP} to remove from {n_bands} bands"
        )

    def without_each_group(mask):
        kept = mask.kept_indices
        groups = range(len(kept) // GROUP) if mask.n_kept - GROUP >= floor else ()
        return [mask.remove(kept[i * GROUP : (i + 1) * GROUP]) for i in groups]

    return _select(dataset, model_cfg, train_cfg, k_folds, stop_epsilon, "backward", None,
                   without_each_group, lambda picked, results, record: picked)
