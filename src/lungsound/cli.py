"""Batch command-line interface.

Commands: preprocess, train, fbs, evaluate, attribute, flops. Every
command resolves paths against --workdir, emits one manifest line, and
is byte-deterministic for fixed seed/config/inputs (manifests carry
timestamps and are exempt).

A JSON config file (flat keys matching the long option names with
underscores) can prefill any option; explicit flags win. Exit codes:
0 success, 2 config error, 3 data error, 4 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .audio import fit_duration, mel_spectrogram, read_wav, standardize
from .data import ICBHI_CLASSES, SPRSOUND_CLASSES, SynthSpec, parse_icbhi, parse_sprsound, synth_corpus
from .errors import ConfigError, DataError, DivergenceError
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
    write_mask_file,
    write_spec_cache,
)
from .masks import FrequencyMask, apply_mask
from .metrics import MetricReport
from .model import CnnTsa, ModelConfig, icbhi_config, sprsound_config
from .attribution import gradcam, integrated_gradients, band_profile
from .train import (
    TrainConfig,
    evaluate,
    split_by_age,
    train,
    train_age_specific,
)
from .svg import heatmap_svg, line_chart_svg
from .tensor import Tensor, no_grad

log = logging.getLogger("lungsound.cli")

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# -- option plumbing -----------------------------------------------------------------


def _apply_config_file(args: argparse.Namespace, argv: list[str], workdir: Path) -> None:
    """Fill options from --config JSON; explicit flags keep priority."""
    if not getattr(args, "config", None):
        return
    path = _resolve(workdir, args.config)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        values = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    explicit = set()
    for tok in argv:
        if tok.startswith("--"):
            explicit.add(tok[2:].split("=")[0].replace("-", "_"))
    for key, value in values.items():
        if key in explicit:
            continue
        if not hasattr(args, key):
            raise ConfigError(f"config key {key!r} is not an option of this command")
        setattr(args, key, value)


def _resolve(workdir: Path, value: str | None) -> Path | None:
    if value is None:
        return None
    p = Path(value)
    return p if p.is_absolute() else workdir / p


def _model_config(args, n_bands: int, n_classes: int) -> ModelConfig:
    if getattr(args, "channels", None):
        channels = tuple(int(c) for c in str(args.channels).split(","))
        return ModelConfig(
            channels=channels,
            n_classes=n_classes,
            attention_placement=args.placement,
            n_mel_rows_in=n_bands,
        )
    preset = getattr(args, "preset", "icbhi")
    if preset == "icbhi":
        return icbhi_config(n_classes, attention_placement=args.placement, n_mel_rows_in=n_bands)
    if preset == "sprsound":
        return sprsound_config(n_classes, attention_placement=args.placement, n_mel_rows_in=n_bands)
    if preset == "tiny":
        return ModelConfig(
            channels=(8,),
            n_classes=n_classes,
            attention_placement=args.placement,
            n_mel_rows_in=n_bands,
        )
    raise ConfigError(f"unknown model preset {preset!r}")


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr0=args.lr0,
        weight_decay=args.weight_decay,
        seed=args.seed,
        task=args.task,
        age_split=args.age_split,
        specaugment=not args.no_specaugment,
    )


def _select_split(specs, split: str):
    if split == "all":
        return list(specs)
    subset = [s for s in specs if s.split == split]
    if not subset:
        tags = sorted({s.split for s in specs})
        raise DataError(f"no records with split {split!r}; cache has {tags}")
    return subset


def _load_cache(path: Path):
    if not path.exists():
        raise DataError(f"cache {path} does not exist")
    return read_spec_cache(path)


def _n_classes(preproc_config: dict, specs) -> int:
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
    return int(max(s.label for s in specs)) + 1


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def _report_json(report: MetricReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


# -- preprocess -------------------------------------------------------------------------


def _preproc_config(args) -> dict:
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
        "synth": {
            "classes": args.synth_classes,
            "per_class": args.synth_per_class,
            "bands": args.synth_bands,
            "frames": args.synth_frames,
            "snr_db": args.synth_snr_db,
            "seed": args.seed,
        }
        if args.dataset == "synth"
        else None,
    }


def cmd_preprocess(args, workdir: Path, argv: list[str]) -> int:
    t0 = time.time()
    out_path = _resolve(workdir, args.out)
    cfg = _preproc_config(args)
    chash = config_hash(cfg)
    if out_path.exists():
        try:
            _, _, existing_hash = _load_cache(out_path)
        except DataError:
            existing_hash = None
        if existing_hash == chash:
            print(f"cache hit: {out_path} already holds config {chash}")
            return 0
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
        specs = []
        by_wav: dict[str, list] = {}
        for rec in records:
            by_wav.setdefault(rec.audio_path, []).append(rec)
        for wav_path in sorted(by_wav):
            clip = read_wav(wav_path)
            mono = standardize(clip)
            for rec in by_wav[wav_path]:
                a = int(rec.onset_s * mono.sample_rate)
                b = int(rec.offset_s * mono.sample_rate)
                b = min(b, mono.samples.shape[0])
                if b - a <= 0:
                    raise DataError(f"cycle {rec.clip_id} lies outside {wav_path}")
                cycle = replace(mono, samples=mono.samples[a:b].copy())
                cycle = fit_duration(cycle, args.target_seconds, args.pad_mode)
                specs.append(
                    mel_spectrogram(
                        cycle,
                        n_mels=args.n_mels,
                        win=args.win,
                        hop=args.hop,
                        f_min=args.f_min,
                        f_max=args.f_max,
                        provenance=rec,
                        label=rec.label,
                    )
                )
        input_hash = config_hash({"records": [s.clip_id for s in specs]})
    write_spec_cache(out_path, specs, cfg)
    names = ICBHI_CLASSES if args.dataset == "icbhi" else SPRSOUND_CLASSES
    counts = np.bincount([s.label for s in specs])
    print(f"wrote {len(specs)} spectrograms to {out_path} (config {chash})")
    for c, n in enumerate(counts):
        label = names[c] if args.dataset in ("icbhi", "sprsound") and c < len(names) else f"class {c}"
        print(f"  {label}: {n}")
    append_manifest(
        workdir, "preprocess", cfg, args.seed, input_hash, [out_path], time.time() - t0, __version__
    )
    return 0


# -- train ------------------------------------------------------------------------------


def _history_rows(history):
    return [[h.epoch, h.lr, h.loss, h.train_as] for h in history]


def cmd_train(args, workdir: Path, argv: list[str]) -> int:
    t0 = time.time()
    cache_path = _resolve(workdir, args.cache)
    out_dir = _resolve(workdir, args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    specs, preproc, cache_hash = _load_cache(cache_path)
    data = _select_split(specs, args.split)
    mask = None
    mask_hash = ""
    if args.mask:
        mask, mask_hash = read_mask_file(_resolve(workdir, args.mask))
    n_classes = 2 if args.task == "binary" else _n_classes(preproc, specs)
    n_bands = mask.n_kept if mask else data[0].n_bands
    model_cfg = _model_config(args, n_bands, n_classes)
    train_cfg = _train_config(args)
    outputs = []
    meta_common = {
        "task": args.task,
        "data_config_hash": cache_hash,
        "mask": mask.bitstring() if mask else None,
        "mask_config_hash": mask_hash,
        "split": args.split,
    }
    if args.age_specific:
        result = train_age_specific(data, model_cfg, train_cfg, mask=mask)
        for tag, res, report in (
            ("child", result.child, result.child_report),
            ("adult", result.adult, result.adult_report),
        ):
            ckpt = out_dir / f"checkpoint_{tag}.ckpt"
            save_checkpoint(
                ckpt,
                res.model.state_dict(),
                asdict(res.model.cfg),
                meta_common | {"age_stratum": tag, "age_split": result.threshold},
            )
            _write_csv(
                out_dir / f"history_{tag}.csv",
                ["epoch", "lr", "loss", "train_as"],
                _history_rows(res.history),
            )
            outputs += [ckpt, out_dir / f"history_{tag}.csv"]
            print(f"{tag}: train AS {report.as_score:.2f} (Se {report.se:.2f}, Sp {report.sp:.2f})")
        (out_dir / "report_combined.json").write_text(_report_json(result.combined))
        outputs.append(out_dir / "report_combined.json")
        print(f"combined train AS {result.combined.as_score:.2f}")
    else:
        result = train(data, model_cfg, train_cfg, mask=mask)
        ckpt = out_dir / "checkpoint.ckpt"
        save_checkpoint(ckpt, result.model.state_dict(), asdict(result.model.cfg), meta_common)
        _write_csv(
            out_dir / "history.csv",
            ["epoch", "lr", "loss", "train_as"],
            _history_rows(result.history),
        )
        outputs += [ckpt, out_dir / "history.csv"]
        print(
            f"trained {train_cfg.epochs} epochs; final loss "
            f"{result.history[-1].loss:.4f}, train AS {result.history[-1].train_as:.2f}"
        )
    append_manifest(
        workdir,
        "train",
        {"argv": argv, "model": asdict(model_cfg), "train": asdict(train_cfg)},
        args.seed,
        sha256_file(cache_path),
        outputs,
        time.time() - t0,
        __version__,
    )
    return 0


# -- fbs --------------------------------------------------------------------------------


def _emit_fbs_outputs(result: FbsResult, out_dir: Path, cache_hash: str, tag: str = "") -> list[Path]:
    suffix = f"_{tag}" if tag else ""
    outputs = []
    mask_path = out_dir / f"mask{suffix}.txt"
    write_mask_file(mask_path, result.mask, cache_hash)
    outputs.append(mask_path)
    rows = []
    for it in result.iterations:
        rows.append(
            [
                it.index,
                it.n_kept,
                it.mean_cv_as,
                len(it.candidate_as) if it.candidate_as is not None else 1,
                " ".join(str(b) for b in it.removed),
            ]
        )
    it_path = out_dir / f"iterations{suffix}.csv"
    _write_csv(it_path, ["iteration", "n_kept", "mean_cv_as", "cv_trainings", "removed"], rows)
    outputs.append(it_path)
    for it in result.iterations:
        if it.table is None:
            continue
        tab_path = out_dir / f"importance{suffix}_iter{it.index:02d}.csv"
        _write_csv(
            tab_path,
            ["band", "mean", "maxdiff", "score"],
            [
                [int(b), float(m), float(d), float(s)]
                for b, m, d, s in zip(
                    it.table.band_indices, it.table.mean, it.table.maxdiff, it.table.score
                )
            ],
        )
        outputs.append(tab_path)
    xs = [it.n_kept for it in result.iterations]
    ys = [it.mean_cv_as for it in result.iterations]
    curve_path = out_dir / f"retention_curve{suffix}.csv"
    _write_csv(curve_path, ["n_kept", "mean_cv_as"], list(map(list, zip(xs, ys))))
    outputs.append(curve_path)
    svg_path = out_dir / f"retention_curve{suffix}.svg"
    svg_path.write_text(
        line_chart_svg(xs, {"mean CV AS": ys}, title="retention vs AS", x_label="kept bands", y_label="AS")
    )
    outputs.append(svg_path)
    mask_svg = out_dir / f"mask{suffix}.svg"
    mask_svg.write_text(heatmap_svg(result.mask.keep.astype(float)[None, :], cell=6))
    outputs.append(mask_svg)
    return outputs


def cmd_fbs(args, workdir: Path, argv: list[str]) -> int:
    t0 = time.time()
    cache_path = _resolve(workdir, args.cache)
    out_dir = _resolve(workdir, args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    specs, preproc, cache_hash = _load_cache(cache_path)
    data = _select_split(specs, args.split)
    n_classes = 2 if args.task == "binary" else _n_classes(preproc, specs)
    model_cfg = _model_config(args, data[0].n_bands, n_classes)
    train_cfg = _train_config(args)
    lams = (
        [float(v) for v in args.lambda_sweep.split(",")]
        if args.lambda_sweep
        else [args.fbs_lambda]
    )
    outputs = []
    sweep_scores = []
    for lam in lams:
        if args.method == "importance":
            result = fbs_importance(
                data,
                model_cfg,
                train_cfg,
                lam=lam,
                r=args.r,
                k_folds=args.k_folds,
                stop_epsilon=args.stop_epsilon,
                min_bands=args.min_bands,
                attribution_method=args.attribution,
            )
        else:
            result = fbs_backward(
                data,
                model_cfg,
                train_cfg,
                k_folds=args.k_folds,
                stop_epsilon=args.stop_epsilon,
                min_bands=args.min_bands,
            )
        tag = f"lam{lam:g}" if len(lams) > 1 else ""
        outputs += _emit_fbs_outputs(result, out_dir, cache_hash, tag)
        best_as = max(it.mean_cv_as for it in result.iterations)
        sweep_scores.append(best_as)
        print(
            f"fbs[{args.method}] lambda={lam:g}: best mask keeps "
            f"{result.mask.n_kept}/{result.mask.n_bands} bands, best CV AS "
            f"{best_as:.2f}, {result.train_runs} CV trainings"
        )
    if len(lams) > 1:
        sweep_path = out_dir / "lambda_sweep.csv"
        _write_csv(sweep_path, ["lambda", "best_cv_as"], list(map(list, zip(lams, sweep_scores))))
        svg_path = out_dir / "lambda_sweep.svg"
        svg_path.write_text(
            line_chart_svg(lams, {"best CV AS": sweep_scores}, title="lambda sweep", x_label="lambda", y_label="AS")
        )
        outputs += [sweep_path, svg_path]
    append_manifest(
        workdir,
        "fbs",
        {"argv": argv, "model": asdict(model_cfg), "train": asdict(train_cfg)},
        args.seed,
        sha256_file(cache_path),
        outputs,
        time.time() - t0,
        __version__,
    )
    return 0


# -- evaluate --------------------------------------------------------------------------


def _load_model(ckpt_path: Path) -> tuple[CnnTsa, dict]:
    state, model_cfg_dict, meta = load_checkpoint(ckpt_path)
    cfg = ModelConfig(
        channels=tuple(model_cfg_dict["channels"]),
        n_classes=model_cfg_dict["n_classes"],
        attention_placement=model_cfg_dict["attention_placement"],
        n_mel_rows_in=model_cfg_dict["n_mel_rows_in"],
    )
    model = CnnTsa(cfg, seed=0)
    model.load_state_dict(state)
    return model, meta


def cmd_evaluate(args, workdir: Path, argv: list[str]) -> int:
    t0 = time.time()
    cache_path = _resolve(workdir, args.cache)
    out_dir = _resolve(workdir, args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    specs, _, cache_hash = _load_cache(cache_path)
    model, meta = _load_model(_resolve(workdir, args.checkpoint))
    if meta.get("data_config_hash") and meta["data_config_hash"] != cache_hash:
        raise ConfigError(
            f"checkpoint was trained on cache config {meta['data_config_hash']} "
            f"but this cache has {cache_hash}; refusing to evaluate mismatched "
            f"preprocessing"
        )
    data = _select_split(specs, args.split)
    if meta.get("age_stratum"):
        child, adult = split_by_age(data, float(meta["age_split"]))
        data = child if meta["age_stratum"] == "child" else adult
        if not data:
            raise DataError(f"no {meta['age_stratum']} records in split {args.split}")
    if meta.get("mask"):
        keep = np.array([ch == "1" for ch in meta["mask"]], dtype=bool)
        data = [apply_mask(s, FrequencyMask(keep)) for s in data]
    task = args.task or meta.get("task", "multiclass")
    report = evaluate(model, data, task)
    report_path = out_dir / "report.json"
    report_path.write_text(_report_json(report))
    conf_path = out_dir / "confusion.csv"
    _write_csv(
        conf_path,
        ["true\\pred"] + [str(c) for c in range(report.confusion.shape[1])],
        [[str(r)] + [int(v) for v in row] for r, row in enumerate(report.confusion)],
    )
    print(
        f"Se {report.se:.2f}  Sp {report.sp:.2f}  AS {report.as_score:.2f}  "
        f"HS {report.hs:.2f}  TS {report.ts:.2f}  (n={report.n_eval})"
    )
    append_manifest(
        workdir,
        "evaluate",
        {"argv": argv},
        0,
        sha256_file(cache_path),
        [report_path, conf_path],
        time.time() - t0,
        __version__,
    )
    return 0


# -- attribute -------------------------------------------------------------------------


def cmd_attribute(args, workdir: Path, argv: list[str]) -> int:
    t0 = time.time()
    cache_path = _resolve(workdir, args.cache)
    out_dir = _resolve(workdir, args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    specs, _, cache_hash = _load_cache(cache_path)
    model, meta = _load_model(_resolve(workdir, args.checkpoint))
    if meta.get("mask"):
        keep = np.array([ch == "1" for ch in meta["mask"]], dtype=bool)
        specs = [apply_mask(s, FrequencyMask(keep)) for s in specs]
    if args.samples:
        wanted = set(args.samples.split(","))
        picked = [s for s in specs if s.clip_id in wanted]
        missing = wanted - {s.clip_id for s in picked}
        if missing:
            raise DataError(f"sample ids not in cache: {sorted(missing)}")
    else:
        picked = specs[: args.first]
    if not picked:
        raise DataError("no samples selected for attribution")

    if args.method == "gradcam":
        maps = gradcam(model, picked, args.class_id)
    else:
        maps = [integrated_gradients(model, s, args.class_id, steps=args.ig_steps) for s in picked]
    dump_path = out_dir / "attributions.ckpt"
    save_checkpoint(
        dump_path,
        {m.sample_id or f"sample{i}": m.values for i, m in enumerate(maps)},
        {},
        {"method": args.method, "class_id": args.class_id, "data_config_hash": cache_hash},
    )
    outputs = [dump_path]
    profile_rows = []
    for i, (s, m) in enumerate(zip(picked, maps)):
        if args.svg:
            svg_path = out_dir / f"attr_{i:03d}_{m.sample_id or 'sample'}.svg"
            svg_path.write_text(heatmap_svg(m.values))
            outputs.append(svg_path)
        profile_rows.append([m.sample_id, *[float(v) for v in band_profile(m)]])
    prof_path = out_dir / "band_profiles.csv"
    _write_csv(
        prof_path,
        ["clip_id"] + [f"band{b}" for b in range(picked[0].n_bands)],
        profile_rows,
    )
    outputs.append(prof_path)
    if args.method == "ig":
        s = picked[0]
        x_score = _score_of(model, s, args.class_id)
        base = np.full_like(s.values, float(np.log(1e-10)))
        from dataclasses import replace as dc_replace

        base_spec = dc_replace(s, values=base)
        b_score = _score_of(model, base_spec, args.class_id)
        total = float(maps[0].values.sum())
        gap = abs(total - (x_score - b_score))
        denom = max(abs(x_score - b_score), 1e-12)
        print(
            f"IG completeness on {s.clip_id}: sum {total:.4f} vs score gap "
            f"{x_score - b_score:.4f} (rel err {100 * gap / denom:.2f}%)"
        )
    print(f"wrote {len(maps)} attribution maps to {dump_path}")
    append_manifest(
        workdir,
        "attribute",
        {"argv": argv},
        0,
        sha256_file(cache_path),
        outputs,
        time.time() - t0,
        __version__,
    )
    return 0


def _score_of(model: CnnTsa, spec, class_id: int) -> float:
    with no_grad():
        logits = model.forward(Tensor(spec.values[None, None]), training=False)
    return float(logits.data[0, class_id])


# -- flops ------------------------------------------------------------------------------


def cmd_flops(args, workdir: Path, argv: list[str]) -> int:
    t0 = time.time()
    out_path = _resolve(workdir, args.out)
    n_bands = args.n_mels
    mask = None
    if args.mask:
        mask, _ = read_mask_file(_resolve(workdir, args.mask))
        if mask.n_bands != n_bands:
            raise ConfigError(
                f"mask covers {mask.n_bands} bands but --n-mels is {n_bands}"
            )
    full_cfg = _model_config(args, n_bands, args.n_classes)
    full = count_flops(full_cfg, n_frames=args.n_frames)
    rows = [[name, flops] for name, flops in full.rows]
    rows.append(["total", full.total])
    ratio = 1.0
    if mask is not None:
        masked_cfg = replace(full_cfg, n_mel_rows_in=mask.n_kept)
        masked = count_flops(masked_cfg, n_frames=args.n_frames)
        ratio = masked.total / full.total
        rows.append(["total_masked", masked.total])
    _write_csv(out_path, ["layer", "flops"], rows)
    print(f"total FLOPs: {full.total / 1e9:.3f} G ({full.n_frames}x{full.n_bands} input)")
    if mask is not None:
        print(f"masked/full FLOPs ratio at {mask.n_kept}/{mask.n_bands} bands: {ratio:.4f}")
    append_manifest(
        workdir, "flops", {"argv": argv}, 0, "", [out_path], time.time() - t0, __version__
    )
    return 0


# -- parser -----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lungsound",
        description="Respiratory sound classification pipeline (batch commands)",
    )
    parser.add_argument("--workdir", default=".", help="root for all relative paths")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_train_opts(p):
        p.add_argument("--task", choices=("binary", "multiclass"), default="multiclass")
        p.add_argument("--preset", choices=("icbhi", "sprsound", "tiny"), default="icbhi")
        p.add_argument("--channels", default=None, help="comma-separated conv widths (overrides preset)")
        p.add_argument("--placement", default="after_aggregation")
        p.add_argument("--epochs", type=int, default=200)
        p.add_argument("--batch-size", type=int, default=128)
        p.add_argument("--lr0", type=float, default=1e-3)
        p.add_argument("--weight-decay", type=float, default=1e-4)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--age-split", type=float, default=18.0)
        p.add_argument("--no-specaugment", action="store_true")
        p.add_argument("--config", default=None, help="JSON config file; flags override")

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
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model from a cache")
    p.add_argument("--cache", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mask", default=None, help="frequency mask file")
    p.add_argument("--age-specific", action="store_true")
    p.add_argument("--split", default="all", help="official_train | official_test | all")
    add_common_train_opts(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fbs", help="run frequency band selection")
    p.add_argument("--cache", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--method", choices=("importance", "backward"), required=True)
    p.add_argument("--fbs-lambda", "--lambda", dest="fbs_lambda", type=float, default=0.5)
    p.add_argument("--lambda-sweep", default=None, help="comma-separated lambdas")
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--k-folds", type=int, default=5)
    p.add_argument("--stop-epsilon", type=float, default=0.5)
    p.add_argument("--min-bands", type=int, default=MIN_BANDS)
    p.add_argument("--attribution", choices=("gradcam", "ig"), default="gradcam")
    p.add_argument("--split", default="all")
    add_common_train_opts(p)
    p.set_defaults(func=cmd_fbs)

    p = sub.add_parser("evaluate", help="score a checkpoint on a cache split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--split", default="official_test")
    p.add_argument("--task", default=None, help="defaults to the checkpoint's task")
    p.add_argument("--config", default=None)
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
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("flops", help="per-layer FLOPs breakdown")
    p.add_argument("--out", required=True)
    p.add_argument("--preset", choices=("icbhi", "sprsound", "tiny"), default="icbhi")
    p.add_argument("--channels", default=None)
    p.add_argument("--placement", default="after_aggregation")
    p.add_argument("--n-classes", type=int, default=4)
    p.add_argument("--n-frames", type=int, default=249)
    p.add_argument("--n-mels", type=int, default=64)
    p.add_argument("--mask", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_flops)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(name)s: %(message)s",
    )
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _apply_config_file(args, argv, workdir)
        return args.func(args, workdir, argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
