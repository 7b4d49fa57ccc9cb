"""Training loop, patient-wise cross-validation splits, evaluation,
and age-stratified training.

Training uses weighted categorical cross-entropy (inverse class-count
weights), Adam with coupled L2 weight decay, a per-epoch cosine
learning-rate schedule, and SpecAugment on training batches only.
Runs for a fixed seed are bit-identical at any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .audio import _augment_values
from .data import SpecSet
from .errors import ConfigError, DataError, DivergenceError
from .masks import apply_mask  # noqa: F401  unused; perfbench's tracer patches it by name
from .metrics import MetricReport, collapse_to_binary
from .model import CnnTsa, ModelConfig
from .optim import AdamState, adam_step, cosine_lr
from .seeding import rng_for
from .tensor import Tensor, frozen, softmax

__all__ = [
    "TrainConfig",
    "EpochStats",
    "TrainResult",
    "AgeSpecificResult",
    "wcce_loss",
    "patient_kfold",
    "train",
    "evaluate",
    "train_age_specific",
    "combine_reports",
]

LOG_CLAMP = 1e-12
# SpecAugment on training batches: (time masks, frequency masks, max
# frames per time mask, max bands per frequency mask)
SPECAUGMENT = (2, 2, 20, 8)
# each age stratum sees fewer records, so it trains at half the pooled batch
AGE_BATCH_SIZE = 64
EVAL_BATCH = 128  # clips per forward pass in evaluate()


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 128
    lr0: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0
    task: str = "multiclass"  # or "binary"
    age_split: float = 18.0  # years; child < threshold <= adult
    specaugment: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.task not in ("binary", "multiclass"):
            raise ConfigError(f"unknown task {self.task!r}")
        for name in ("lr0", "weight_decay"):  # lr0 = 0 keeps the init, as criterion 9's loss check needs
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


@dataclass
class EpochStats:
    epoch: int
    lr: float
    loss: float
    train_as: float  # from predictions accumulated over (augmented) batches


@dataclass
class TrainResult:
    model: CnnTsa
    history: list[EpochStats]
    class_counts: np.ndarray


# -- loss -------------------------------------------------------------------------


def wcce_loss(logits: Tensor, labels: np.ndarray, class_counts: np.ndarray) -> Tensor:
    """Weighted categorical cross-entropy with w_c = 1 / count(c).

    ``class_counts`` are dataset-level counts; every class present in
    ``labels`` must have a positive count. Probabilities come from a
    softmax over the logits, with the log argument clamped at 1e-12.
    """
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.asarray(class_counts, dtype=np.float64)
    n, n_classes = logits.shape
    if labels.shape != (n,):
        raise ConfigError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    present = np.unique(labels)
    if (counts[present] <= 0).any():
        bad = [int(c) for c in present if counts[c] <= 0]
        raise DataError(f"zero class count for present classes {bad}")
    weights = np.zeros(n_classes, dtype=np.float32)
    nz = counts > 0
    weights[nz] = (1.0 / counts[nz]).astype(np.float32)
    onehot = np.zeros((n, n_classes), dtype=np.float32)
    onehot[np.arange(n), labels] = 1.0
    sample_w = weights[labels][:, None] * onehot  # (N, C)
    logp = softmax(logits, axis=1).clamp_min(LOG_CLAMP).log()
    return (logp * Tensor(sample_w)).sum() * (-1.0 / n)


# -- splits -----------------------------------------------------------------------


def patient_kfold(patient_ids, k: int = 5, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Patient-wise K-fold split over a SpecSet's ``patient_ids`` column.

    Every patient's records land in exactly one validation fold; folds
    are balanced greedily by record count. Returns (train_idx, val_idx)
    pairs of sorted index arrays. Raises ``ConfigError`` for k < 2.
    """
    if k < 2:
        raise ConfigError(f"k-fold split needs k >= 2, got {k}")
    by_patient: dict[str, list[int]] = {}
    for i, pid in enumerate(patient_ids):
        if pid is None:
            raise DataError(f"record {i} has no patient id; patient-wise split impossible")
        by_patient.setdefault(str(pid), []).append(i)
    if len(by_patient) < k:
        raise DataError(f"only {len(by_patient)} patients for {k}-fold split")
    pids = sorted(by_patient)
    order = rng_for(seed, "patient-kfold").permutation(len(pids))
    shuffled = [pids[i] for i in order]
    shuffled.sort(key=lambda p: -len(by_patient[p]))  # stable: seed breaks ties
    fold_members: list[list[str]] = [[] for _ in range(k)]
    fold_sizes = [0] * k
    for pid in shuffled:
        tgt = min(range(k), key=lambda f: (fold_sizes[f], f))
        fold_members[tgt].append(pid)
        fold_sizes[tgt] += len(by_patient[pid])
    splits = []
    all_idx = set(range(len(patient_ids)))
    for members in fold_members:
        val = sorted(i for p in members for i in by_patient[p])
        train = sorted(all_idx.difference(val))
        splits.append((np.asarray(train, dtype=np.int64), np.asarray(val, dtype=np.int64)))
    return splits


# -- training -----------------------------------------------------------------------


def train(dataset: SpecSet, model_cfg: ModelConfig, train_cfg: TrainConfig) -> TrainResult:
    """Train a model on labeled spectrograms.

    The clips are used as given: to train under a frequency mask, pass
    ``masks.apply_mask(dataset, mask)`` and a config built for its band
    count. Only batches are copied out of the set's shared array. The
    returned model holds no gradients and no reference to any
    activation. Raises DivergenceError with the offending epoch if the
    loss goes non-finite.
    """
    if not dataset:
        raise DataError("empty training dataset")
    labels = dataset.targets(train_cfg.task)
    n_classes = model_cfg.n_classes
    if labels.max() >= n_classes:
        raise ConfigError(
            f"label {labels.max()} out of range for a {n_classes}-class model "
            f"(task={train_cfg.task})"
        )
    n, t_dim, f_dim = len(dataset), dataset.n_frames, dataset.n_bands
    counts = np.bincount(labels, minlength=n_classes)
    model = CnnTsa(model_cfg, seed=train_cfg.seed)
    state = AdamState()
    time_masks, freq_masks, max_t, max_f = SPECAUGMENT
    max_t, max_f = min(max_t, t_dim), min(max_f, f_dim)
    history: list[EpochStats] = []
    last_epoch = train_cfg.epochs - 1
    for epoch in range(train_cfg.epochs):
        lr = cosine_lr(epoch, last_epoch, train_cfg.lr0)
        perm = rng_for(train_cfg.seed, "shuffle", epoch).permutation(n)
        sa_rng = rng_for(train_cfg.seed, "specaugment", epoch)
        loss_sum = 0.0
        conf = np.zeros((n_classes, n_classes), dtype=np.int64)
        for start in range(0, n, train_cfg.batch_size):
            idx = perm[start : start + train_cfg.batch_size]
            xb = dataset.clips(idx)[:, None]  # a fresh array: SpecAugment may write into it
            yb = labels[idx]
            if train_cfg.specaugment:
                for row in xb:
                    _augment_values(row[0], time_masks, freq_masks, max_t, max_f, sa_rng)
            logits = model.forward(Tensor(xb))
            loss = wcce_loss(logits, yb, counts)
            if not np.isfinite(loss.data):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}", epoch=epoch
                )
            model.zero_grad()
            loss.backward()
            adam_step(
                model.params,
                model.grads(),
                state,
                lr,
                weight_decay=train_cfg.weight_decay,
            )
            loss_sum += loss.item() * len(idx)
            preds = logits.data.argmax(axis=1)
            np.add.at(conf, (yb, preds), 1)
        train_as = MetricReport.from_confusion(conf).as_score if conf.sum() else 0.0
        history.append(EpochStats(epoch, lr, loss_sum / n, train_as))
    model.zero_grad()
    return TrainResult(model=model, history=history, class_counts=counts)


# -- evaluation ----------------------------------------------------------------------


def evaluate(
    model: CnnTsa,
    dataset: SpecSet,
    task: str,
    batch_size: int = EVAL_BATCH,
) -> MetricReport:
    """Score a frozen model; labels and predictions follow ``task``.

    Every batch runs in one ``tensor.frozen`` block over the model's
    parameters: no graph is built, so ``CnnTsa.forward`` runs each batch
    depth first, each chunk of clips through every block and the head
    before the next, and holds one chunk's maps at a time; each Winograd
    kernel's transform is built once per call, for every batch. A clip's
    logits, and so its prediction, do not depend on ``batch_size``. A
    batch whose logits are not all finite raises ``DivergenceError``.

    A multiclass model evaluated on the binary task has its argmax
    predictions collapsed (anything non-normal counts as adventitious).
    """
    if not dataset:
        raise DataError("empty evaluation set")
    labels = dataset.targets(task)
    n_classes = 2 if task == "binary" else model.cfg.n_classes
    if labels.max() >= n_classes:
        raise ConfigError(
            f"label {labels.max()} out of range for {n_classes}-class evaluation"
        )
    preds = np.empty(len(dataset), dtype=np.int64)
    with frozen(model.params.values()):
        for start in range(0, len(dataset), batch_size):
            logits = model.forward(Tensor(dataset.clips(slice(start, start + batch_size))[:, None]))
            if not np.isfinite(logits.data).all():
                raise DivergenceError(f"non-finite logits for clips {start}..{start + logits.shape[0] - 1}")
            preds[start : start + logits.shape[0]] = logits.data.argmax(axis=1)
    if task == "binary" and model.cfg.n_classes > 2:
        preds = collapse_to_binary(preds)
    conf = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(conf, (labels, preds), 1)
    return MetricReport.from_confusion(conf)


# -- age-specific models ---------------------------------------------------------------


@dataclass
class AgeSpecificResult:
    child: TrainResult
    adult: TrainResult
    child_report: MetricReport
    adult_report: MetricReport
    combined: MetricReport
    threshold: float


def split_by_age(dataset: SpecSet, threshold: float) -> tuple[SpecSet, SpecSet]:
    """(child, adult) strata; records without a known age are dropped."""
    ages = dataset.ages  # an unknown age is NaN, which falls in neither stratum
    return dataset[ages < threshold], dataset[ages >= threshold]


def combine_reports(child: MetricReport, adult: MetricReport) -> MetricReport:
    """Unweighted average of the two strata's Se/Sp.

    AS of the combined report equals the mean of the strata's AS; HS
    and TS are recomputed from the averaged rates so the metric
    identities keep holding.
    """
    se = (child.se + adult.se) / 2.0
    sp = (child.sp + adult.sp) / 2.0
    conf = child.confusion + adult.confusion
    return MetricReport.from_rates(se, sp, confusion=conf, n_eval=child.n_eval + adult.n_eval)


def train_age_specific(dataset: SpecSet, model_cfg: ModelConfig, train_cfg: TrainConfig) -> AgeSpecificResult:
    """Train one model per age stratum and report the averaged metrics.

    The clips are used as given, like ``train``'s. Each stratum trains
    at ``AGE_BATCH_SIZE``, whatever ``train_cfg.batch_size`` says.
    Reported metrics here are on each stratum's own training data;
    ``evaluate`` on a stratum checkpoint scores a held-out split.
    """
    threshold = train_cfg.age_split
    child_data, adult_data = split_by_age(dataset, threshold)
    if not child_data or not adult_data:
        raise DataError(
            f"empty {'child' if not child_data else 'adult'} stratum at "
            f"threshold {threshold}; choose a different age_split"
        )
    results = []
    reports = []
    for tag, data in (("child", child_data), ("adult", adult_data)):
        cfg = replace(
            train_cfg,
            batch_size=AGE_BATCH_SIZE,
            seed=int(rng_for(train_cfg.seed, "age", tag).integers(2**31)),
        )
        res = train(data, model_cfg, cfg)
        results.append(res)
        reports.append(evaluate(res.model, data, train_cfg.task))
    combined = combine_reports(reports[0], reports[1])
    return AgeSpecificResult(
        child=results[0],
        adult=results[1],
        child_report=reports[0],
        adult_report=reports[1],
        combined=combined,
        threshold=threshold,
    )

