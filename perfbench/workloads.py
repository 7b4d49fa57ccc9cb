"""The three benchmark workloads.

Each workload builds all of its inputs from the seed in ``setup`` and
runs two stages. A stage call returns ``(timings, output)``: the
seconds each timed part took and an output the stage's ``check``
verifies and reduces to a fingerprint. Equal fingerprints mean equal
outputs, which is how reruns and traced runs are compared.

Input sizes do not depend on the seed, only the values do, so the
cost of a run is the same for every seed.

Every workload takes one untimed warm-up pass before its timed ones:
a user's FBS sweep or training run spreads its first calls over many
steps, and for the CLI the warm-up is where the first-call cost is
counted (see ExplainSprsound). ``pass_s`` is the nominal time of one
untraced pass on the reference machine (2 vCPU, OpenBLAS with 2
threads); run.py fixes the number of timed passes from it.

Library calls go through the module attribute (``fbs.fbs_importance``,
not a name imported here) so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import struct
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.io import wavfile

from importlib import import_module

from lungsound.cli import main as cli_main
from lungsound.data import SPRSOUND_CLASSES, SynthSpec
from lungsound.model import CnnTsa, ModelConfig, icbhi_config, sprsound_config
from lungsound.train import TrainConfig

# lungsound re-exports the function train(), which hides the submodule
# of the same name from attribute access, so modules come from import_module
data, fbs, lsio, train = (
    import_module(f"lungsound.{m}") for m in ("data", "fbs", "io", "train")
)


class CheckFailed(Exception):
    """An output check did not hold."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


# -- fbs-synth ----------------------------------------------------------------------

# Criterion 7's planted-band corpus at a quarter of its size (2 x 50
# clips of 10 x 64), so that a run holds a warm-up and two timed passes of one
# importance sweep (64 -> 32 bands, 9 CV trainings) and one backward
# iteration (64 -> 60 bands, 16 CV trainings).
PLANTED = (12, 13, 14, 15, 40, 41, 42, 43)
FBS_PER_CLASS = 50
IMPORTANCE_FLOOR = 32
BACKWARD_FLOOR = 60
RECOVERY_THRESHOLDS = {"fbs_importance": 7, "fbs_backward": 6}  # of 8 planted bands


class FbsSynth:
    name = "fbs-synth"
    pass_s = 10.0  # nominal untraced pass on the reference machine: 2 passes at 20 s
    stage_names = ("fbs_importance", "fbs_backward")
    extra_stages = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.notes: dict = {}  # extra facts for the run record

    def setup(self):
        corpus = data.synth_corpus(
            SynthSpec(
                n_classes=2, n_bands=64, n_frames=10, n_per_class=FBS_PER_CLASS,
                snr_db=10.0, planted_bands=(PLANTED, PLANTED), amp_jitter=(0.05, 2.0),
                jitter_log=True, seed=self.seed,
            )
        )
        mcfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=64)
        tcfg = TrainConfig(epochs=6, batch_size=32, lr0=1e-2, weight_decay=0.0,
                           seed=self.seed, task="multiclass", specaugment=False)
        self.corpus, self.mcfg, self.tcfg = corpus, mcfg, tcfg

    def stage(self, i: int):
        t0 = perf_counter()
        if i == 0:
            out = fbs.fbs_importance(
                self.corpus, self.mcfg, self.tcfg, lam=0.0, r=4, k_folds=2,
                stop_epsilon=math.inf, min_bands=IMPORTANCE_FLOOR,
            )
        else:
            out = fbs.fbs_backward(
                self.corpus, self.mcfg, self.tcfg, k_folds=2,
                stop_epsilon=math.inf, min_bands=BACKWARD_FLOOR,
            )
        return {self.stage_names[i]: perf_counter() - t0}, out

    def check(self, i: int, result) -> str:
        its = result.iterations
        if i == 0:
            # criterion 8: one CV training per iteration
            expected = (64 - IMPORTANCE_FLOOR) // 4 + 1
            _require(result.train_runs == len(its) == expected,
                     f"importance made {result.train_runs} CV trainings, expected {expected}")
            for it in its:  # each removal is the r lowest scores, ties to the lower band
                if it.removed:
                    rows = sorted(zip(it.table.score.tolist(), it.table.band_indices.tolist()))
                    _require(it.removed == sorted(b for _, b in rows[:4]),
                             f"importance iteration {it.index} removed {it.removed}")
            kept = result.mask_at(IMPORTANCE_FLOOR).kept_indices
        else:
            # criterion 8: one CV training per candidate group
            groups = sum(len(it.candidate_as) for it in its)
            expected = sum(n // 4 for n in range(BACKWARD_FLOOR + 4, 65, 4))
            _require(result.train_runs == groups == expected,
                     f"backward made {result.train_runs} CV trainings over {groups} groups, "
                     f"expected {expected}")
            for it in its:  # each removal is the best-scoring group, ties to the first
                best = int(np.argmax(it.candidate_as))
                _require(it.removed == it.kept[4 * best : 4 * best + 4].tolist(),
                         f"backward iteration {it.index} removed {it.removed}")
            kept = result.final_mask.kept_indices
        scores = [it.mean_cv_as for it in its]
        _require(all(math.isfinite(s) for s in scores), "non-finite CV score")
        self._record_hits(self.stage_names[i], len(set(PLANTED) & set(kept.tolist())))
        return _digest(
            result.mask.bitstring().encode(),
            result.final_mask.bitstring().encode(),
            struct.pack(f"<{len(scores)}d", *scores),
        )

    def _record_hits(self, stage: str, hits: int) -> None:
        """Criterion 7's per-seed thresholds, recorded rather than failed.

        Criterion 7 passes when 4 of 5 seeds meet them, so a single seed
        may miss with a correct program (seed 3 kept 4/8 in the importance
        sweep). The selection rules checked above must hold on every seed.
        """
        threshold = RECOVERY_THRESHOLDS[stage]
        self.notes.setdefault("planted_hits", {}).setdefault(stage, []).append(hits)
        self.notes["planted_hit_thresholds"] = RECOVERY_THRESHOLDS
        if hits < threshold:
            print(f"{stage}: kept {hits}/8 planted bands, below criterion 7's per-seed "
                  f"threshold {threshold}", file=sys.stderr)

    def user_metrics(self, med: dict) -> dict:
        return {
            "fbs_importance_s": (med["fbs_importance"], "s/sweep"),
            "fbs_backward_s": (med["fbs_backward"], "s/sweep"),
        }

    def close(self):
        pass


# -- train-icbhi ----------------------------------------------------------------------

# ICBHI preset (4 blocks 64..512, 4 classes) on 249 x 64 inputs at the
# paper's input size. B=16 keeps peak RSS near 3 GB on a 7 GB machine:
# every im2col buffer of the step stays alive until backward.
ICBHI_BATCH = 16


class TrainIcbhi:
    name = "train-icbhi"
    pass_s = 11.0  # 2 passes at 20 s
    stage_names = ("train_step", "eval_batch")
    extra_stages = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.notes: dict = {}  # extra facts for the run record

    def setup(self):
        self.specs = data.synth_corpus(
            SynthSpec(n_classes=4, n_bands=64, n_frames=249,
                      n_per_class=ICBHI_BATCH // 4, snr_db=10.0, seed=self.seed)
        )
        self.mcfg = icbhi_config(4)
        self.tcfg = TrainConfig(epochs=1, batch_size=ICBHI_BATCH, seed=self.seed,
                                specaugment=True)
        self.model = CnnTsa(self.mcfg, seed=self.seed)

    def stage(self, i: int):
        t0 = perf_counter()
        if i == 0:
            out = train.train(self.specs, self.mcfg, self.tcfg)
        else:
            out = train.evaluate(self.model, self.specs, "multiclass",
                                           batch_size=ICBHI_BATCH)
        return {self.stage_names[i]: perf_counter() - t0}, out

    def check(self, i: int, result) -> str:
        if i == 0:
            losses = [h.loss for h in result.history]
            _require(all(math.isfinite(v) for v in losses), f"non-finite loss {losses}")
            return _digest(struct.pack(f"<{len(losses)}d", *losses))
        total = int(result.confusion.sum())
        _require(total == len(self.specs),
                 f"confusion matrix sums to {total}, expected {len(self.specs)}")
        return _digest(np.ascontiguousarray(result.confusion, dtype="<i8").tobytes())

    def user_metrics(self, med: dict) -> dict:
        return {
            "train_samples_per_s": (ICBHI_BATCH / med["train_step"], "samples/s"),
            "eval_samples_per_s": (ICBHI_BATCH / med["eval_batch"], "samples/s"),
        }

    def close(self):
        pass


# -- explain-sprsound -----------------------------------------------------------------

# A SPRSound-layout tree: <root>/{train,test}_wav/<patient>_<age>_*.wav
# with same-stem JSON event annotations. File i always has the same
# rate, sample format, channel count, duration and event bounds, so
# only the signal and the event types depend on the seed. Events cover
# clips shorter and longer than the 8 s the frontend fits them to.
RATES = (4000, 8000, 11025, 16000, 22050, 44100)
FORMATS = ("pcm16", "pcm24", "pcm32", "float32")
LAYOUTS = (  # (duration s, event bounds s)
    (4.0, ((0.2, 1.8), (2.0, 3.9))),
    (7.5, ((0.1, 3.0), (3.2, 7.4))),
    (12.0, ((0.3, 11.8), (2.0, 4.0))),
    (10.0, ((0.5, 9.0), (9.1, 9.9))),
)
FILES_PER_SPLIT = 8  # 16 events per split: evaluate's split stays <= 32 clips
GRADCAM_MAPS = 4
IG_STEPS = 20


def _write_pcm24(path: Path, rate: int, x: np.ndarray) -> None:
    """24-bit PCM WAV, which scipy reads but does not write."""
    channels = 1 if x.ndim == 1 else x.shape[1]
    ints = np.clip(np.round(x * 2**23), -(2**23), 2**23 - 1).astype("<i4")
    data = ints.reshape(-1, 1).view(np.uint8)[:, :3].tobytes()
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * channels * 3, channels * 3, 24)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<I", len(fmt)) + fmt)
        fh.write(b"data" + struct.pack("<I", len(data)) + data)


def write_sprsound_tree(root: Path, seed: int) -> int:
    """Synthesize the tree; returns the number of annotated events."""
    rng = np.random.default_rng([seed, 0x5A5])
    n_events = 0
    for s, split in enumerate(("train_wav", "test_wav")):
        folder = root / split
        folder.mkdir(parents=True)
        for i in range(FILES_PER_SPLIT):
            k = s * FILES_PER_SPLIT + i
            rate, fmt = RATES[k % len(RATES)], FORMATS[k % len(FORMATS)]
            duration, events = LAYOUTS[k % len(LAYOUTS)]
            n = int(duration * rate)
            t = np.arange(n) / rate
            tone = 0.3 * np.sin(2 * np.pi * rng.uniform(100, min(1800, rate / 2.5)) * t)
            x = (tone + rng.normal(0, 0.05, n)).astype(np.float32)
            if (k // 4) % 2:
                x = np.stack([x, 0.5 * x + rng.normal(0, 0.01, n).astype(np.float32)], axis=1)
            stem = f"{split[:2]}{k:03d}_{3 + k}_{'MF'[k % 2]}_P{k % 3}"
            path = folder / f"{stem}.wav"
            if fmt == "pcm16":
                wavfile.write(path, rate, np.round(x * 32767).astype(np.int16))
            elif fmt == "pcm32":
                wavfile.write(path, rate, np.round(x * (2**31 - 1)).astype(np.int32))
            elif fmt == "float32":
                wavfile.write(path, rate, x)
            else:
                _write_pcm24(path, rate, x)
            annotation = {
                "event_annotation": [
                    {
                        "start": str(int(a * 1000)),
                        "end": str(int(b * 1000)),
                        "type": SPRSOUND_CLASSES[int(rng.integers(len(SPRSOUND_CLASSES)))],
                    }
                    for a, b in events
                ]
            }
            (folder / f"{stem}.json").write_text(json.dumps(annotation))
            n_events += len(events)
    return n_events


class ExplainSprsound:
    name = "explain-sprsound"
    # every CLI command is a new process for its user, but in this
    # process only the first pays the first-call costs: the warm-up pass
    # takes them and is reported as warmup_s, not in the stage times
    pass_s = 4.0  # 5 passes at 20 s
    stage_names = ("preprocess_evaluate", "gradcam")
    # IG runs only in the traced run's passes: its cost depends on the
    # checkpoint's init (subnormal gradients, see README.md), so it
    # cannot be timed steadily across seeds
    extra_stages = ("ig",)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.notes: dict = {}  # extra facts for the run record
        self.root = workdir

    def setup(self):
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.n_events = write_sprsound_tree(self.root / "SPRSound", self.seed)
        model = CnnTsa(sprsound_config(7), seed=self.seed)
        self.ckpt = self.root / "model.ckpt"
        lsio.save_checkpoint(self.ckpt, model.state_dict(), asdict(model.cfg),
                             {"task": "multiclass"})
        self.class_id = self.seed % 7

    def _cli(self, *args: str) -> float:
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["--workdir", str(self.root), *args])
        elapsed = perf_counter() - t0
        _require(code == 0, f"lungsound {args[0]} exited {code}")
        return elapsed

    def stage(self, i: int):
        ckpt = ["--checkpoint", str(self.ckpt), "--cache", "spr.cache"]
        if i == 0:
            (self.root / "spr.cache").unlink(missing_ok=True)  # no cache hit
            timings = {
                "preprocess": self._cli("preprocess", "--dataset", "sprsound",
                                        "--data-root", "SPRSound", "--out", "spr.cache"),
                "evaluate": self._cli("evaluate", *ckpt, "--split", "official_test",
                                      "--out-dir", "eval"),
            }
        elif i == 1:
            timings = {"gradcam": self._cli("attribute", *ckpt, "--method", "gradcam",
                                            "--class-id", str(self.class_id),
                                            "--first", str(GRADCAM_MAPS), "--out-dir", "gradcam")}
        else:
            timings = {"ig": self._cli("attribute", *ckpt, "--method", "ig",
                                       "--class-id", str(self.class_id), "--first", "1",
                                       "--ig-steps", str(IG_STEPS), "--out-dir", "ig")}
        return timings, None

    def check(self, i: int, result) -> str:
        if i == 0:
            report = json.loads((self.root / "eval" / "report.json").read_text())
            n_test = self.n_events // 2
            _require(report["n_eval"] == n_test,
                     f"evaluate scored {report['n_eval']} clips, expected {n_test}")
            outputs = ["spr.cache", "eval/report.json", "eval/confusion.csv"]
        else:
            method, n_maps = ("gradcam", GRADCAM_MAPS) if i == 1 else ("ig", 1)
            specs, _, _ = lsio.read_spec_cache(self.root / "spr.cache")
            maps, _, _ = lsio.load_checkpoint(self.root / method / "attributions.ckpt")
            _require(len(maps) == n_maps, f"{method}: {len(maps)} maps, expected {n_maps}")
            for spec in specs[:n_maps]:
                values = maps.get(spec.clip_id)
                _require(values is not None, f"{method}: no map for {spec.clip_id}")
                _require(values.shape == spec.values.shape,
                         f"{method}: map {values.shape} for input {spec.values.shape}")
                _require(bool(np.isfinite(values).all()), f"{method}: non-finite map")
            outputs = [f"{method}/attributions.ckpt", f"{method}/band_profiles.csv"]
        return _digest(*[(self.root / o).read_bytes() for o in outputs])

    def user_metrics(self, med: dict) -> dict:
        out = {
            "preprocess_clips_per_s": (self.n_events / med["preprocess"], "clips/s"),
            "gradcam_maps_per_s": (GRADCAM_MAPS / med["gradcam"], "maps/s"),
        }
        if "ig" in med:
            out["ig_maps_per_s"] = (1 / med["ig"], f"maps/s@{IG_STEPS}steps")
        return out

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (FbsSynth, TrainIcbhi, ExplainSprsound)}
