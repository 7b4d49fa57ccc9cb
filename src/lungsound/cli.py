"""Batch command-line interface.

Commands: preprocess, train, fbs, evaluate, attribute, flops. Every
command resolves paths against --workdir and is byte-deterministic for
fixed seed/config/inputs. A command returns its run record (config,
seed, input hash, outputs), which ``main`` appends to the manifest with
the wall-clock time (manifests carry timestamps and are exempt); a
preprocess cache hit returns None and writes no record.

A JSON config file (flat keys matching the long option names with
underscores) can prefill any option; its values are parsed like flags,
and explicit flags win. ``main`` returns 0 on success and maps each
error a command raises to its exit code through ``EXIT_CODES``; a usage
error exits 2 from argparse. Every error is one stderr line.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from dataclasses import asdict, replace
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import __version__
from .audio import LOG_FLOOR, TARGET_RATE, fit_duration, mel_edges, mel_spectrogram, read_wav, standardize
from .data import ICBHI_CLASSES, SPRSOUND_CLASSES, SpecSet, SynthSpec, parse_icbhi, parse_sprsound, synth_corpus
from .errors import ConfigError, DataError, DivergenceError, WorkerError
from .fbs import MIN_BANDS, FbsResult, fbs_backward, fbs_importance
from .flops import count_flops
from .io import (
    append_manifest,
    config_hash,
    load_checkpoint,
    read_mask_file,
    read_spec_cache,
    sha256_file,
    save_checkpoint,
    write_file,
    write_mask_file,
    write_spec_cache,
)
from .masks import FrequencyMask, apply_mask
from .metrics import MetricReport
from .model import PRESETS, CnnTsa, ModelConfig
from .attribution import gradcam, integrated_gradients, band_profile
from .train import (
    AGE_BATCH_SIZE,
    TrainConfig,
    evaluate,
    split_by_age,
    train,
    train_age_specific,
)
from .svg import heatmap_svg, line_chart_svg
from .tensor import Tensor, _each, _lanes, frozen

log = logging.getLogger("lungsound.cli")

# the exit code and stderr prefix of each error a command may raise
EXIT_CODES = {
    ConfigError: (2, "config error"),
    DataError: (3, "data error"),
    DivergenceError: (4, "numerical abort"),
    WorkerError: (5, "worker error"),
}

# what a command returns for its manifest line: (config, seed, input hash, outputs)
Record = tuple[dict, int, str, list[Path]]


# -- option plumbing -----------------------------------------------------------------


def _apply_config_file(
    parser: argparse.ArgumentParser, args: argparse.Namespace, argv: list[str], workdir: Path
) -> argparse.Namespace:
    """Parse ``argv`` again with the --config JSON keys as flags right after the subcommand.

    argparse then converts and checks each value as it does a flag's,
    and explicit flags win because they come later. An on/off option's
    key takes ``true`` (flag given) or ``false``.
    """
    if not args.config:
        return args
    path = _resolve(workdir, args.config)
    try:
        values = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path} does not hold a JSON object")
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        o[2:].replace("-", "_"): a for a in sub.choices[args.command]._actions for o in a.option_strings
    }
    tokens = []
    for key, value in values.items():
        action = options.get(key)
        if action is None or action.dest == "help":
            raise ConfigError(f"config key {key!r} is not an option of this command")
        flag = "--" + key.replace("_", "-")
        if action.nargs != 0:
            tokens.append(f"{flag}={value}")
        elif not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} takes true or false, got {value!r}")
        elif value:
            tokens.append(flag)
    i = 0  # top-level options precede the subcommand; of them only --workdir takes a value
    while argv[i] != args.command:
        i += 2 if argv[i].startswith("--w") and "=" not in argv[i] else 1
    return parser.parse_args(argv[: i + 1] + tokens + argv[i + 1 :])


def _resolve(workdir: Path, value: str | None) -> Path | None:
    if value is None:
        return None
    p = Path(value)
    return p if p.is_absolute() else workdir / p


def _output(workdir: Path, value: str, flag: str) -> Path:
    """``value`` against ``workdir``, checked as a place ``flag`` can write to.

    --out names a file; --out-dir and --workdir name a directory, which
    the writer makes as the first file lands in it. Refuses a path of
    the other kind, or one under a file, before any work.
    """
    path = _resolve(workdir, value)
    want_dir = flag != "--out"
    if path.exists():
        if path.is_dir() != want_dir:
            raise ConfigError(f"{flag} {path} is {'not ' if want_dir else ''}a directory")
    elif not (ancestor := next(p for p in path.parents if p.exists())).is_dir():
        raise ConfigError(f"{flag} {path} lies under {ancestor}, which is not a directory")
    return path


def _comma_list(item):
    """An argparse ``type``: a comma-separated list of ``item`` values, as a tuple."""

    def parse(text: str) -> tuple:
        return tuple(item(v) for v in text.split(","))

    # argparse turns the ValueError of a bad item into a usage error (exit 2) naming this
    parse.__name__ = f"comma-separated {item.__name__}"
    return parse


def _model_config(args, n_classes: int, n_frames: int, n_bands: int) -> ModelConfig:
    """The --preset or --channels model for n_frames x n_bands clips."""
    cfg = ModelConfig(
        channels=args.channels or PRESETS[args.preset],
        n_classes=n_classes,
        attention_placement=args.placement,
        n_mel_rows_in=n_bands,
    )
    _check_frames(cfg, n_frames)
    return cfg


def _check_frames(cfg: ModelConfig, n_frames: int) -> None:
    if n_frames < cfg.min_input_size:
        raise ConfigError(f"a {cfg.n_conv_blocks}-block model needs at least {cfg.min_input_size} frames, got {n_frames}")


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr0=args.lr0,
        weight_decay=args.weight_decay,
        seed=args.seed,
        task=args.task,
        specaugment=not args.no_specaugment,
    )


def _open_cache(args, workdir: Path):
    """(cache path, --out-dir, whole cache, its --split clips, preproc config, hash)."""
    cache_path = _resolve(workdir, args.cache)
    out_dir = _output(workdir, args.out_dir, "--out-dir")
    specs, preproc, chash = read_spec_cache(cache_path)
    split = getattr(args, "split", "all")
    data = specs if split == "all" else specs[specs.splits == split]
    if not data:
        raise DataError(f"no records with split {split!r}; cache has {sorted(set(specs.splits))}")
    return cache_path, out_dir, specs, data, preproc, chash


def _n_classes(preproc_config: dict, specs: SpecSet) -> int:
    """The dataset's class count, from the cache header.

    Not ``max(label) + 1`` of the selected split: a split that lacks the
    top class would train a model that other splits' labels overflow.
    A cache written outside ``preprocess`` falls back to its whole label
    range, across every split.
    """
    dataset = preproc_config.get("dataset")
    if dataset == "icbhi":
        return len(ICBHI_CLASSES)
    if dataset == "sprsound":
        return len(SPRSOUND_CLASSES)
    if dataset == "synth":
        classes = (preproc_config.get("synth") or {}).get("classes")
        if not isinstance(classes, int) or classes < 1:
            raise DataError(f"synth cache header has no valid class count: {classes!r}")
        return classes
    return int(specs.labels.max()) + 1


def _check_mask_length(mask: FrequencyMask, n_bands: int, against: str) -> None:
    """Refuse a mask that does not cover ``n_bands`` bands (``against``: "the cache has")."""
    if mask.n_bands != n_bands:
        raise ConfigError(f"mask covers {mask.n_bands} bands but {against} {n_bands}")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return write_file(path, [("\n".join(lines) + "\n").encode()])


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def _report_json(report: MetricReport) -> bytes:
    return (json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n").encode()


# -- preprocess -------------------------------------------------------------------------


def _preproc_config(args) -> dict:
    """What a cache's values depend on, hashed into its ``data_config_hash``:
    the synth spec for synth data, which reads no front-end setting."""
    if args.dataset == "synth":
        return {
            "dataset": "synth",
            "synth": {
                "classes": args.synth_classes,
                "per_class": args.synth_per_class,
                "bands": args.synth_bands,
                "frames": args.synth_frames,
                "snr_db": args.synth_snr_db,
                "seed": args.seed,
            },
        }
    return {
        "dataset": args.dataset,
        "target_seconds": args.target_seconds,
        "pad_mode": args.pad_mode,
        "n_mels": args.n_mels,
        "win": args.win,
        "hop": args.hop,
        "f_min": args.f_min,
        "f_max": args.f_max,
        "sprsound_edition": args.sprsound_edition,
        "synth": None,
    }


def _check_frontend(args) -> None:
    """Refuse log-Mel settings that give no clip or no band."""
    if not 0 < args.target_seconds < math.inf:
        raise ConfigError(f"--target-seconds must be finite and > 0, got {args.target_seconds}")
    for dest in ("n_mels", "win", "hop"):
        if getattr(args, dest) < 1:
            raise ConfigError(f"--{dest.replace('_', '-')} must be >= 1, got {getattr(args, dest)}")
    if not 0 <= args.f_min < args.f_max <= TARGET_RATE / 2:
        raise ConfigError(f"need 0 <= --f-min < --f-max <= {TARGET_RATE // 2}, got {args.f_min} and {args.f_max}")
    if round(args.target_seconds * TARGET_RATE) < args.win:
        raise ConfigError(f"--target-seconds {args.target_seconds} is shorter than one --win of {args.win} samples")


def cmd_preprocess(args, workdir: Path, argv: list[str]) -> Record | None:
    _check_frontend(args)
    out_path = _output(workdir, args.out, "--out")
    cfg = _preproc_config(args)
    chash = config_hash(cfg)
    if out_path.exists():
        try:
            _, _, existing_hash = read_spec_cache(out_path)
        except DataError:
            existing_hash = None
        if existing_hash == chash:
            print(f"cache hit: {out_path} already holds config {chash}")
            return None
    if args.dataset == "synth":
        spec = SynthSpec(
            n_classes=args.synth_classes,
            n_bands=args.synth_bands,
            n_frames=args.synth_frames,
            n_per_class=args.synth_per_class,
            snr_db=args.synth_snr_db,
            seed=args.seed,
        )
        specs = synth_corpus(spec)
        input_hash = config_hash({"synth": asdict(spec) | {"planted_bands": None}})
    else:
        root = _resolve(workdir, args.data_root)
        if root is None:
            raise ConfigError("--data-root is required for icbhi/sprsound")
        if args.dataset == "icbhi":
            records = parse_icbhi(root)
        else:
            records = parse_sprsound(root, edition=args.sprsound_edition)
        specs = _spectrograms(records, args)
        input_hash = config_hash({"records": specs.clip_ids.tolist()})
    write_spec_cache(out_path, specs, cfg)
    names = ICBHI_CLASSES if args.dataset == "icbhi" else SPRSOUND_CLASSES
    counts = np.bincount(specs.labels)
    print(f"wrote {len(specs)} spectrograms to {out_path} (config {chash})")
    for c, n in enumerate(counts):
        label = names[c] if args.dataset in ("icbhi", "sprsound") and c < len(names) else f"class {c}"
        print(f"  {label}: {n}")
    return cfg, args.seed, input_hash, [out_path]


def _spectrograms(records, args) -> SpecSet:
    """Log-Mel clips of ``records``, by sorted WAV path and then annotation order.

    ``fit_duration`` makes every cycle ``--target-seconds`` long, so the
    (N, T, F) block is allocated before any file is read. Each WAV file
    is one unit on the engine's threads (``tensor._each``): it reads,
    standardizes, cuts, fits and transforms its cycles into its own
    rows, so the block's bytes do not depend on the thread count. A
    file's error waits in its slot until every file is done; then the
    first failing file in sorted order raises, as a loop over the files
    would. Two cycles of one clip id are refused before any file is read.
    """
    if not records:
        raise DataError("no annotated cycles to preprocess")
    first: dict = {}  # clip id -> the first record of that id
    for rec in records:
        if (other := first.setdefault(rec.clip_id, rec)) is not rec:
            raise DataError(f"clip id {rec.clip_id!r} names a cycle of both {other.audio_path} and {rec.audio_path}")
    by_wav: dict[str, list] = {}
    for rec in records:
        by_wav.setdefault(rec.audio_path, []).append(rec)
    wavs = sorted(by_wav)
    ordered = [rec for wav_path in wavs for rec in by_wav[wav_path]]
    first_row = list(accumulate((len(by_wav[wav_path]) for wav_path in wavs), initial=0))
    n_frames = (round(args.target_seconds * TARGET_RATE) - args.win) // args.hop + 1
    values = np.empty((len(ordered), n_frames, args.n_mels), dtype=np.float32)
    errors: list[Exception | None] = [None] * len(wavs)

    def unit(i: int, lane: int) -> None:
        wav_path = wavs[i]
        try:
            mono = standardize(read_wav(wav_path))
            for row, rec in enumerate(by_wav[wav_path], start=first_row[i]):
                a = int(rec.onset_s * mono.sample_rate)
                b = min(int(rec.offset_s * mono.sample_rate), mono.samples.shape[0])
                if b - a <= 0:
                    raise DataError(f"cycle {rec.clip_id} lies outside {wav_path}")
                cycle = replace(mono, samples=mono.samples[a:b].copy())
                cycle = fit_duration(cycle, args.target_seconds, args.pad_mode)
                values[row] = mel_spectrogram(
                    cycle,
                    n_mels=args.n_mels,
                    win=args.win,
                    hop=args.hop,
                    f_min=args.f_min,
                    f_max=args.f_max,
                ).values
        except Exception as exc:  # any error: the one a loop over the files meets first is raised below
            errors[i] = exc

    _each(_lanes(len(wavs) > 1), unit, range(len(wavs)))
    for exc in errors:
        if exc is not None:
            raise exc
    return SpecSet(
        values, mel_edges(args.n_mels, args.f_min, args.f_max)[1:-1], args.hop / TARGET_RATE,
        labels=[-1 if rec.label is None else rec.label for rec in ordered],
        patient_ids=[rec.patient_id for rec in ordered],
        ages=[np.nan if rec.age_years is None else rec.age_years for rec in ordered],
        splits=[rec.split for rec in ordered],
        clip_ids=[rec.clip_id for rec in ordered],
    )


# -- train ------------------------------------------------------------------------------


def cmd_train(args, workdir: Path, argv: list[str]) -> Record:
    cache_path, out_dir, specs, data, preproc, cache_hash = _open_cache(args, workdir)
    mask = None
    mask_hash = ""
    if args.mask:
        mask, mask_hash = read_mask_file(_resolve(workdir, args.mask))
        _check_mask_length(mask, specs.n_bands, "the cache has")
        data = apply_mask(data, mask)
    n_classes = 2 if args.task == "binary" else _n_classes(preproc, specs)
    model_cfg = _model_config(args, n_classes, data.n_frames, data.n_bands)
    train_cfg = replace(_train_config(args), age_split=args.age_split)
    meta_common = {
        "task": args.task,
        "data_config_hash": cache_hash,
        "mask": mask.bitstring() if mask else None,
        "mask_config_hash": mask_hash,
        "split": args.split,
    }
    if args.age_specific:
        train_cfg = replace(train_cfg, batch_size=AGE_BATCH_SIZE)  # what each stratum trains at
        result = train_age_specific(data, model_cfg, train_cfg)
        strata = (("child", result.child, result.child_report), ("adult", result.adult, result.adult_report))
        # (file suffix, training result, checkpoint meta) of each model
        runs = [(f"_{tag}", res, {"age_stratum": tag, "age_split": result.threshold}) for tag, res, _ in strata]
        for tag, _, report in strata:
            print(f"{tag}: train AS {report.as_score:.2f} (Se {report.se:.2f}, Sp {report.sp:.2f})")
        print(f"combined train AS {result.combined.as_score:.2f}")
        outputs = [write_file(out_dir / "report_combined.json", [_report_json(result.combined)])]
    else:
        result = train(data, model_cfg, train_cfg)
        runs, outputs = [("", result, {})], []
        print(
            f"trained {train_cfg.epochs} epochs; final loss "
            f"{result.history[-1].loss:.4f}, train AS {result.history[-1].train_as:.2f}"
        )
    for suffix, res, meta in runs:
        rows = [[h.epoch, h.lr, h.loss, h.train_as] for h in res.history]
        outputs += [
            save_checkpoint(out_dir / f"checkpoint{suffix}.ckpt", res.model.state_dict(), asdict(res.model.cfg),
                            meta_common | meta),
            _write_csv(out_dir / f"history{suffix}.csv", ["epoch", "lr", "loss", "train_as"], rows),
        ]
    config = {"argv": argv, "model": asdict(model_cfg), "train": asdict(train_cfg)}
    return config, args.seed, sha256_file(cache_path), outputs


# -- fbs --------------------------------------------------------------------------------


def _emit_fbs_outputs(result: FbsResult, out_dir: Path, cache_hash: str, tag: str = "") -> list[Path]:
    suffix = f"_{tag}" if tag else ""
    rows = [
        [it.index, it.n_kept, it.mean_cv_as, len(it.candidate_as), " ".join(str(b) for b in it.removed)]
        for it in result.iterations
    ]
    outputs = [
        write_mask_file(out_dir / f"mask{suffix}.txt", result.mask, cache_hash),
        _write_csv(out_dir / f"iterations{suffix}.csv",
                   ["iteration", "n_kept", "mean_cv_as", "cv_trainings", "removed"], rows),
    ]
    outputs += [
        _write_csv(out_dir / f"importance{suffix}_iter{it.index:02d}.csv", ["band", "mean", "maxdiff", "score"],
                   [[int(b), float(m), float(d), float(s)] for b, m, d, s in
                    zip(it.table.band_indices, it.table.mean, it.table.maxdiff, it.table.score)])
        for it in result.iterations if it.table is not None
    ]
    xs = [it.n_kept for it in result.iterations]
    ys = [it.mean_cv_as for it in result.iterations]
    curve = line_chart_svg(xs, {"mean CV AS": ys}, title="retention vs AS", x_label="kept bands", y_label="AS")
    keep = heatmap_svg(result.mask.keep.astype(float)[None, :], cell=6)
    return outputs + [
        _write_csv(out_dir / f"retention_curve{suffix}.csv", ["n_kept", "mean_cv_as"], list(map(list, zip(xs, ys)))),
        write_file(out_dir / f"retention_curve{suffix}.svg", [curve.encode()]),
        write_file(out_dir / f"mask{suffix}.svg", [keep.encode()]),
    ]


# fbs options that only importance selection reads, by dest: the flag a
# refusal names and the value taken when it is not given. The parser
# leaves them None, so that --method backward can refuse them.
IMPORTANCE_ONLY = {
    "lambda_sweep": ("--lambda-sweep", None),
    "fbs_lambda": ("--lambda", 0.5),
    "r": ("--r", 4),
    "attribution": ("--attribution", "gradcam"),
}


def cmd_fbs(args, workdir: Path, argv: list[str]) -> Record:
    given = [dest for dest in IMPORTANCE_ONLY if getattr(args, dest) is not None]
    if args.method == "backward" and given:
        flags = ", ".join(IMPORTANCE_ONLY[dest][0] for dest in given)
        raise ConfigError(f"--method backward takes no {flags}: only importance selection reads them")
    opt = {dest: getattr(args, dest) if dest in given else default
           for dest, (_, default) in IMPORTANCE_ONLY.items()}
    cache_path, out_dir, specs, data, preproc, cache_hash = _open_cache(args, workdir)
    n_classes = 2 if args.task == "binary" else _n_classes(preproc, specs)
    model_cfg = _model_config(args, n_classes, specs.n_frames, specs.n_bands)
    train_cfg = _train_config(args)
    lams = opt["lambda_sweep"] or (opt["fbs_lambda"],)
    sweep = {"k_folds": args.k_folds, "stop_epsilon": args.stop_epsilon, "min_bands": args.min_bands}
    outputs = []
    sweep_scores = []
    for lam in lams:
        if args.method == "importance":
            result = fbs_importance(
                data, model_cfg, train_cfg, lam=lam, r=opt["r"], attribution_method=opt["attribution"],
                **sweep,
            )
        else:
            result = fbs_backward(data, model_cfg, train_cfg, **sweep)
        tag = f"lam{lam:g}" if len(lams) > 1 else ""
        outputs += _emit_fbs_outputs(result, out_dir, cache_hash, tag)
        best_as = max(it.mean_cv_as for it in result.iterations)
        sweep_scores.append(best_as)
        label = f" lambda={lam:g}" if args.method == "importance" else ""
        print(
            f"fbs[{args.method}]{label}: best mask keeps "
            f"{result.mask.n_kept}/{result.mask.n_bands} bands, best CV AS "
            f"{best_as:.2f}, {result.train_runs} CV trainings"
        )
    if len(lams) > 1:
        chart = line_chart_svg(lams, {"best CV AS": sweep_scores}, title="lambda sweep", x_label="lambda", y_label="AS")
        rows = list(map(list, zip(lams, sweep_scores)))
        outputs += [
            _write_csv(out_dir / "lambda_sweep.csv", ["lambda", "best_cv_as"], rows),
            write_file(out_dir / "lambda_sweep.svg", [chart.encode()]),
        ]
    config = {"argv": argv, "model": asdict(model_cfg), "train": asdict(train_cfg)}
    return config, args.seed, sha256_file(cache_path), outputs


# -- evaluate --------------------------------------------------------------------------


def _load_model(ckpt_path: Path) -> tuple[CnnTsa, dict]:
    state, model_cfg_dict, meta = load_checkpoint(ckpt_path)
    try:
        cfg = ModelConfig(
            channels=tuple(model_cfg_dict["channels"]),
            n_classes=model_cfg_dict["n_classes"],
            attention_placement=model_cfg_dict["attention_placement"],
            n_mel_rows_in=model_cfg_dict["n_mel_rows_in"],
        )
        model = CnnTsa(cfg, state=state)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{ckpt_path}: tensors do not fit the model config ({exc})") from exc
    if not isinstance(meta, dict):
        raise DataError(f"{ckpt_path}: meta is not a JSON object")
    return model, meta


def _open_checkpoint(args, workdir: Path):
    """(cache path, --out-dir, model, meta, mask, cache hash, clips) for a checkpoint reader.

    Refuses a checkpoint trained on another cache config, a stored mask
    of another length than the cache's bands and a model that does not
    read the bands the mask keeps or is too deep for the clips' frames.
    The clips are the --split clips (all of them for ``attribute``),
    narrowed to the checkpoint's age stratum when it has one; they are
    not masked yet.
    """
    cache_path, out_dir, specs, data, _, cache_hash = _open_cache(args, workdir)
    model, meta = _load_model(_resolve(workdir, args.checkpoint))
    if meta.get("data_config_hash") and meta["data_config_hash"] != cache_hash:
        raise ConfigError(
            f"checkpoint was trained on cache config {meta['data_config_hash']} "
            f"but this cache has {cache_hash}; refusing mismatched preprocessing"
        )
    bits = str(meta.get("mask") or "1" * specs.n_bands)
    mask = FrequencyMask(np.array([ch == "1" for ch in bits], dtype=bool))
    _check_mask_length(mask, specs.n_bands, "the cache has")
    if model.cfg.n_mel_rows_in != mask.n_kept:
        raise ConfigError(
            f"checkpoint model reads {model.cfg.n_mel_rows_in} bands but the cache gives "
            f"{mask.n_kept} (after the checkpoint's mask)"
        )
    _check_frames(model.cfg, specs.n_frames)
    if meta.get("age_stratum"):
        child, adult = split_by_age(data, float(meta["age_split"]))
        data = child if meta["age_stratum"] == "child" else adult
        if not data:
            raise DataError(f"no {meta['age_stratum']} records in split {getattr(args, 'split', 'all')}")
    return cache_path, out_dir, model, meta, mask, cache_hash, data


def cmd_evaluate(args, workdir: Path, argv: list[str]) -> Record:
    cache_path, out_dir, model, meta, mask, _, data = _open_checkpoint(args, workdir)
    report = evaluate(model, apply_mask(data, mask), args.task or meta.get("task", "multiclass"))
    outputs = [
        write_file(out_dir / "report.json", [_report_json(report)]),
        _write_csv(
            out_dir / "confusion.csv",
            ["true\\pred"] + [str(c) for c in range(report.confusion.shape[1])],
            [[str(r)] + [int(v) for v in row] for r, row in enumerate(report.confusion)],
        ),
    ]
    print(
        f"Se {report.se:.2f}  Sp {report.sp:.2f}  AS {report.as_score:.2f}  "
        f"HS {report.hs:.2f}  TS {report.ts:.2f}  (n={report.n_eval})"
    )
    return {"argv": argv}, 0, sha256_file(cache_path), outputs


# -- attribute -------------------------------------------------------------------------


def cmd_attribute(args, workdir: Path, argv: list[str]) -> Record:
    for flag, value in (("--ig-steps", args.ig_steps), ("--first", args.first)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    cache_path, out_dir, model, meta, mask, cache_hash, data = _open_checkpoint(args, workdir)
    if not 0 <= args.class_id < model.cfg.n_classes:
        raise ConfigError(f"--class-id {args.class_id} is not a class of the {model.cfg.n_classes}-class checkpoint")
    if args.samples:
        wanted = set(args.samples.split(","))
        picked = data[np.isin(data.clip_ids, sorted(wanted))]
        missing = wanted.difference(picked.clip_ids)
        if missing:
            stratum = f" ({meta['age_stratum']} stratum)" if meta.get("age_stratum") else ""
            raise DataError(f"sample ids not in the cache{stratum}: {sorted(missing)}")
    else:
        picked = data[: args.first]
    if not picked:
        raise DataError("no samples selected for attribution")
    picked = apply_mask(picked, mask)

    if args.method == "gradcam":
        maps = gradcam(model, picked, args.class_id)
    else:
        maps = [integrated_gradients(model, s, args.class_id, steps=args.ig_steps) for s in picked]
    dump_path = save_checkpoint(
        out_dir / "attributions.ckpt",
        {m.sample_id or f"sample{i}": m.values for i, m in enumerate(maps)},
        {},
        {"method": args.method, "class_id": args.class_id, "data_config_hash": cache_hash},
    )
    outputs = [dump_path]
    profile_rows = []
    for i, m in enumerate(maps):
        if args.svg:
            outputs.append(write_file(out_dir / f"attr_{i:03d}_{m.sample_id or 'sample'}.svg",
                                      [heatmap_svg(m.values).encode()]))
        profile_rows.append([m.sample_id, *[float(v) for v in band_profile(m)]])
    outputs.append(_write_csv(
        out_dir / "band_profiles.csv",
        ["clip_id"] + [f"band{b}" for b in range(picked.n_bands)],
        profile_rows,
    ))
    if args.method == "ig":
        s = picked[0]
        x_score = _score_of(model, s.values, args.class_id)
        b_score = _score_of(model, np.full_like(s.values, float(np.log(LOG_FLOOR))), args.class_id)
        total = float(maps[0].values.sum())
        gap = abs(total - (x_score - b_score))
        denom = max(abs(x_score - b_score), 1e-12)
        print(
            f"IG completeness on {s.clip_id}: sum {total:.4f} vs score gap "
            f"{x_score - b_score:.4f} (rel err {100 * gap / denom:.2f}%)"
        )
    print(f"wrote {len(maps)} attribution maps to {dump_path}")
    return {"argv": argv}, 0, sha256_file(cache_path), outputs


def _score_of(model: CnnTsa, values: np.ndarray, class_id: int) -> float:
    with frozen(model.params.values()):
        logits = model.forward(Tensor(values[None, None]), training=False)
    return float(logits.data[0, class_id])


# -- flops ------------------------------------------------------------------------------


def cmd_flops(args, workdir: Path, argv: list[str]) -> Record:
    out_path = _output(workdir, args.out, "--out")
    mask = None
    if args.mask:
        mask, _ = read_mask_file(_resolve(workdir, args.mask))
        _check_mask_length(mask, args.n_mels, "--n-mels is")
    full_cfg = _model_config(args, args.n_classes, args.n_frames, args.n_mels)
    full = count_flops(full_cfg, n_frames=args.n_frames)
    rows = [[name, flops] for name, flops in full.rows]
    rows.append(["total", full.total])
    if mask is not None:
        masked_cfg = replace(full_cfg, n_mel_rows_in=mask.n_kept)
        masked = count_flops(masked_cfg, n_frames=args.n_frames)
        ratio = masked.total / full.total
        rows.append(["total_masked", masked.total])
    outputs = [_write_csv(out_path, ["layer", "flops"], rows)]
    print(f"total FLOPs: {full.total / 1e9:.3f} G ({full.n_frames}x{full.n_bands} input)")
    if mask is not None:
        print(f"masked/full FLOPs ratio at {mask.n_kept}/{mask.n_bands} bands: {ratio:.4f}")
    return {"argv": argv}, 0, "", outputs


# -- parser -----------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error: one stderr line, without the usage text, and exit 2."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lungsound",
        description="Respiratory sound classification pipeline (batch commands)",
    )
    parser.add_argument("--workdir", default=".", help="root for all relative paths")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    tasks = ("binary", "multiclass")

    def add_model_opts(p):
        p.add_argument("--preset", choices=tuple(PRESETS), default="icbhi")
        p.add_argument("--channels", type=_comma_list(int), default=None,
                       help="comma-separated conv widths (overrides preset)")
        p.add_argument("--placement", default="after_aggregation")

    def add_train_opts(p):
        p.add_argument("--task", choices=tasks, default="multiclass")
        add_model_opts(p)
        p.add_argument("--epochs", type=int, default=200)
        p.add_argument("--batch-size", type=int, default=128)
        p.add_argument("--lr0", type=float, default=1e-3)
        p.add_argument("--weight-decay", type=float, default=1e-4)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--no-specaugment", action="store_true")

    p = sub.add_parser("preprocess", help="parse a dataset and build the spectrogram cache")
    p.add_argument("--dataset", choices=("icbhi", "sprsound", "synth"), required=True)
    p.add_argument("--data-root", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--target-seconds", type=float, default=8.0)
    p.add_argument("--pad-mode", choices=("circular", "repeat_fade"), default="circular")
    p.add_argument("--n-mels", type=int, default=64)
    p.add_argument("--win", type=int, default=1024)
    p.add_argument("--hop", type=int, default=512)
    p.add_argument("--f-min", type=float, default=50.0)
    p.add_argument("--f-max", type=float, default=2000.0)
    p.add_argument("--sprsound-edition", type=int, default=2022)
    p.add_argument("--synth-classes", type=int, default=2)
    p.add_argument("--synth-per-class", type=int, default=50)
    p.add_argument("--synth-bands", type=int, default=64)
    p.add_argument("--synth-frames", type=int, default=64)
    p.add_argument("--synth-snr-db", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model from a cache")
    p.add_argument("--cache", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mask", default=None, help="frequency mask file")
    p.add_argument("--age-specific", action="store_true")
    p.add_argument("--age-split", type=float, default=18.0)
    p.add_argument("--split", default="all", help="official_train | official_test | all")
    add_train_opts(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fbs", help="run frequency band selection")
    p.add_argument("--cache", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--method", choices=("importance", "backward"), required=True)
    p.add_argument("--fbs-lambda", "--lambda", dest="fbs_lambda", type=float, default=None,
                   help="importance only")
    p.add_argument("--lambda-sweep", type=_comma_list(float), default=None,
                   help="comma-separated lambdas; importance only")
    p.add_argument("--r", type=int, default=None, help="bands removed per iteration; importance only")
    p.add_argument("--k-folds", type=int, default=5)
    p.add_argument("--stop-epsilon", type=float, default=0.5)
    p.add_argument("--min-bands", type=int, default=MIN_BANDS)
    p.add_argument("--attribution", choices=("gradcam", "ig"), default=None, help="importance only")
    p.add_argument("--split", default="all")
    add_train_opts(p)
    p.set_defaults(func=cmd_fbs)

    p = sub.add_parser("evaluate", help="score a checkpoint on a cache split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--split", default="official_test")
    p.add_argument("--task", choices=tasks, default=None, help="defaults to the checkpoint's task")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("attribute", help="dump attribution maps for samples")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--method", choices=("gradcam", "ig"), default="gradcam")
    p.add_argument("--class-id", type=int, required=True)
    p.add_argument("--samples", default=None, help="comma-separated clip ids")
    p.add_argument("--first", type=int, default=4, help="attribute the first N samples")
    p.add_argument("--ig-steps", type=int, default=200)
    p.add_argument("--svg", action="store_true", help="also emit heatmap SVGs")
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("flops", help="per-layer FLOPs breakdown")
    p.add_argument("--out", required=True)
    add_model_opts(p)
    p.add_argument("--n-classes", type=int, default=4)
    p.add_argument("--n-frames", type=int, default=249)
    p.add_argument("--n-mels", type=int, default=64)
    p.add_argument("--mask", default=None)
    p.set_defaults(func=cmd_flops)

    for p in sub.choices.values():
        p.add_argument("--config", default=None, help="JSON config file; flags override")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(name)s: %(message)s",
    )
    try:
        workdir = _output(Path(), args.workdir, "--workdir")
        args = _apply_config_file(parser, args, argv, workdir)
        t0 = time.time()
        # a non-finite value ends a command through its own checks, not a numpy warning
        with np.errstate(all="ignore"):
            record = args.func(args, workdir, argv)
        if record is not None:  # None: preprocess found its cache already built
            config, seed, input_hash, outputs = record
            append_manifest(
                workdir, args.command, config, seed, input_hash, outputs, time.time() - t0, __version__
            )
    except tuple(EXIT_CODES) as exc:
        code, what = next(v for cls, v in EXIT_CODES.items() if isinstance(exc, cls))
        print(f"{what}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
