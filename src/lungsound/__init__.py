"""Respiratory sound classification with frequency band selection.

Log-Mel frontend, CNN backbone with temporal self-attention,
Grad-CAM / Integrated Gradients attribution, iterative frequency band
selection, patient-wise cross-validated training, and the challenge
metric suite (Se/Sp/AS/HS/TS).
"""

__version__ = "0.1.0"

from .audio import AudioClip, Spectrogram, fit_duration, mel_spectrogram, standardize
from .attribution import AttributionMap, band_profile, gradcam, integrated_gradients
from .data import CycleRecord, SpecSet, SynthSpec, parse_icbhi, parse_sprsound, synth_corpus
from .fbs import (
    FbsResult,
    FrequencyMask,
    ImportanceTable,
    apply_mask,
    eliminate_lowest,
    fbs_backward,
    fbs_importance,
    fold_average,
    importance_scores,
    per_class_band_attribution,
)
from .flops import count_flops
from .metrics import MetricReport
from .model import CnnTsa, ModelConfig, icbhi_config, sprsound_config
from .optim import AdamState, adam_step, cosine_lr
from .tensor import Tensor
from .train import (
    TrainConfig,
    evaluate,
    patient_kfold,
    train,
    train_age_specific,
    wcce_loss,
)

__all__ = [
    "AudioClip",
    "Spectrogram",
    "standardize",
    "fit_duration",
    "mel_spectrogram",
    "AttributionMap",
    "gradcam",
    "integrated_gradients",
    "band_profile",
    "CycleRecord",
    "SpecSet",
    "SynthSpec",
    "parse_icbhi",
    "parse_sprsound",
    "synth_corpus",
    "FrequencyMask",
    "FbsResult",
    "ImportanceTable",
    "apply_mask",
    "eliminate_lowest",
    "fbs_importance",
    "fbs_backward",
    "fold_average",
    "importance_scores",
    "per_class_band_attribution",
    "count_flops",
    "MetricReport",
    "CnnTsa",
    "ModelConfig",
    "icbhi_config",
    "sprsound_config",
    "AdamState",
    "adam_step",
    "cosine_lr",
    "Tensor",
    "TrainConfig",
    "train",
    "evaluate",
    "patient_kfold",
    "train_age_specific",
    "wcce_loss",
]
