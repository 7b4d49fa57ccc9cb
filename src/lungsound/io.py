"""Serialization: ``write_file``, the one writer of every output file;
weight checkpoints, the spectrogram cache, mask files and run manifests.

Binary formats are a fixed magic, a little-endian uint32 header
length, a canonical-JSON header, then raw little-endian float32 blocks
in header order. Writing the same content twice yields identical bytes
(no timestamps, sorted keys), which the determinism tests rely on.

A written file is whole or absent: ``write_file`` fills a temp file
beside the target, fsyncs it and renames it over the target, creating
the target's directory as the first file lands in it. A failed write
is a DataError naming the path ("cannot write"), as a failed read is
("cannot read"). Only the manifest is appended to in place.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import struct
import time
from contextlib import suppress
from itertools import chain
from pathlib import Path

import numpy as np

from .data import SpecSet
from .errors import DataError
from .masks import FrequencyMask

__all__ = [
    "config_hash",
    "sha256_file",
    "write_file",
    "save_checkpoint",
    "load_checkpoint",
    "write_spec_cache",
    "read_spec_cache",
    "write_mask_file",
    "read_mask_file",
    "append_manifest",
]

CKPT_MAGIC = b"LSCKPT01"
CACHE_MAGIC = b"LSCACHE1"
FORMAT_VERSION = 1


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(_canonical_json(config).encode("utf-8")).hexdigest()[:16]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def write_file(path, parts) -> Path:
    """Write the bytes-like ``parts``, in order, as the whole of ``path``; returns ``path``.

    The parts stream into a temp file beside ``path`` (its missing
    directories are made first), which is flushed, fsynced and renamed
    over ``path``. A write that fails or is killed partway leaves the
    old file (or none) and no temp file, never a torn file that a later
    run trusts.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"{path}: cannot write ({exc.strerror or exc})") from exc
    finally:
        with suppress(OSError):  # renamed already, or never made
            tmp.unlink()
    return path


def _write_blob(path, magic: bytes, header: dict, arrays: list[np.ndarray]) -> Path:
    header_bytes = _canonical_json(header).encode("utf-8")
    head = (magic, struct.pack("<I", len(header_bytes)), header_bytes)
    return write_file(path, chain(head, (np.ascontiguousarray(a, dtype="<f4").data for a in arrays)))


def _read_blob(path, magic: bytes):
    with open(path, "rb") as fh:
        if fh.read(len(magic)) != magic:
            raise DataError(f"{path} is not a {magic.decode()} file")
        prefix = fh.read(4)
        hlen = struct.unpack("<I", prefix)[0] if len(prefix) == 4 else -1
        header_bytes = fh.read(max(hlen, 0))
        if len(header_bytes) != hlen:
            raise DataError(f"{path}: truncated header")
        # a writable buffer, so that a cache's clips can be this buffer, not a copy of it
        payload = bytearray(os.fstat(fh.fileno()).st_size - fh.tell())
        del payload[fh.readinto(payload):]
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: corrupt header ({exc})") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported format version {header.get('format_version')}"
        )
    return header, payload


def _fail_closed(reader):
    """Report an unreadable file, or a missing, mistyped or bad field, as a DataError."""

    @functools.wraps(reader)
    def checked(path):
        try:
            return reader(path)
        except DataError:
            raise
        except OSError as exc:
            raise DataError(f"{path}: cannot read ({exc.strerror or exc})") from exc
        except KeyError as exc:
            raise DataError(f"{path}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed field ({exc})") from exc

    return checked


def _block(path, payload: bytearray, offset: int, shape: tuple) -> np.ndarray:
    """The float32 block of ``shape`` at byte ``offset`` of the payload, a view of it."""
    count = math.prod(shape)
    if min(shape, default=0) < 0 or offset < 0 or offset + 4 * count > len(payload):
        raise DataError(
            f"{path}: block of shape {shape} at byte {offset} runs past the "
            f"{len(payload)}-byte payload"
        )
    return np.frombuffer(payload, dtype="<f4", count=count, offset=offset).reshape(shape)


# -- checkpoints ---------------------------------------------------------------------


def save_checkpoint(path, state: dict[str, np.ndarray], model_config: dict, meta: dict | None = None) -> Path:
    """Write name -> float32 array state plus the model config; returns ``path``."""
    names = sorted(state)
    header = {
        "format_version": FORMAT_VERSION,
        "model_config": model_config,
        "meta": meta or {},
        "tensors": [{"name": n, "shape": list(state[n].shape)} for n in names],
    }
    return _write_blob(path, CKPT_MAGIC, header, [state[n] for n in names])


@_fail_closed
def load_checkpoint(path):
    """Returns (state dict, model_config dict, meta dict)."""
    header, payload = _read_blob(path, CKPT_MAGIC)
    state: dict[str, np.ndarray] = {}
    offset = 0
    for entry in header["tensors"]:
        arr = _block(path, payload, offset, tuple(int(d) for d in entry["shape"]))
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: tensor {entry['name']!r} holds non-finite values")
        state[entry["name"]] = arr.copy()
        offset += arr.nbytes
    if offset != len(payload):
        raise DataError(f"{path}: {len(payload) - offset} bytes past the last tensor")
    return state, header["model_config"], header["meta"]


# -- spectrogram cache -----------------------------------------------------------------


def write_spec_cache(path, specs: SpecSet, preproc_config: dict) -> str:
    """Write a labeled spectrogram set; returns the config hash key."""
    if not len(specs):
        raise DataError("refusing to write an empty cache")
    n, t, f = len(specs), specs.n_frames, specs.n_bands
    chash = config_hash(preproc_config)
    entries = [
        {
            "clip_id": specs.clip_ids[i],
            "label": int(specs.labels[i]) if specs.labels[i] >= 0 else None,
            "patient_id": specs.patient_ids[i],
            "age_years": None if np.isnan(specs.ages[i]) else float(specs.ages[i]),
            "split": specs.splits[i],
            "t": t,
            "f": f,
            "offset": i * t * f * 4,
        }
        for i in range(n)
    ]
    header = {
        "format_version": FORMAT_VERSION,
        "preproc_config": preproc_config,
        "config_hash": chash,
        "hop_seconds": specs.hop_seconds,
        "band_centers": [float(c) for c in specs.band_centers],
        "entries": entries,
    }
    _write_blob(path, CACHE_MAGIC, header, [specs.clips()])
    return chash


@_fail_closed
def read_spec_cache(path):
    """Returns (SpecSet, preproc_config, config_hash).

    Every entry must have the same (t, f) and follow the previous one
    in the payload: the clips are read as one (N, T, F) block.
    """
    header, payload = _read_blob(path, CACHE_MAGIC)
    entries = header["entries"]
    if not entries:
        raise DataError(f"{path}: the cache holds no clips")
    t, f = int(entries[0]["t"]), int(entries[0]["f"])
    if any((int(e["t"]), int(e["f"])) != (t, f) for e in entries):
        raise DataError(f"{path}: entries have mixed (t, f) shapes")
    if [int(e["offset"]) for e in entries] != [i * t * f * 4 for i in range(len(entries))]:
        raise DataError(f"{path}: entry offsets are not contiguous")
    values = _block(path, payload, 0, (len(entries), t, f))
    if values.nbytes != len(payload):
        raise DataError(f"{path}: {len(payload) - values.nbytes} bytes past the last clip")
    specs = SpecSet(
        values, header["band_centers"], header["hop_seconds"],
        labels=[-1 if e["label"] is None else int(e["label"]) for e in entries],
        patient_ids=[None if e["patient_id"] is None else str(e["patient_id"]) for e in entries],
        ages=[np.nan if e["age_years"] is None else float(e["age_years"]) for e in entries],
        splits=[e["split"] for e in entries],
        clip_ids=[str(e["clip_id"]) for e in entries],
    )
    preproc_config = header["preproc_config"]
    if not isinstance(preproc_config, dict):
        raise DataError(f"{path}: preproc_config is not a JSON object")
    return specs, preproc_config, header["config_hash"]


# -- mask files ------------------------------------------------------------------------


def write_mask_file(path, mask: FrequencyMask, config_hash_value: str = "") -> Path:
    lines = [
        "lungsound-mask v1",
        f"bands {mask.n_bands}",
        f"origin {mask.origin}",
        f"config_hash {config_hash_value}",
        f"keep {mask.bitstring()}",
    ]
    for i, removed in enumerate(mask.history, start=1):
        lines.append("iter {} removed {}".format(i, " ".join(str(b) for b in removed)))
    return write_file(path, [("\n".join(lines) + "\n").encode("utf-8")])


@_fail_closed
def read_mask_file(path) -> tuple[FrequencyMask, str]:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("lungsound-mask v1"):
        raise DataError(f"{path} is not a v1 mask file")
    fields: dict[str, str] = {}
    history: list[list[int]] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        key, _, rest = line.partition(" ")
        if key == "iter":
            toks = rest.split()
            history.append([int(b) for b in toks[2:]])  # "N removed i j k l"
        else:
            fields[key] = rest.strip()
    n = int(fields["bands"])
    bits = fields["keep"]
    if len(bits) != n or set(bits) - {"0", "1"}:
        raise DataError(f"{path}: keep bitstring does not match {n} bands")
    keep = np.array([b == "1" for b in bits], dtype=bool)
    mask = FrequencyMask(keep, origin=fields.get("origin", "full"), history=history)
    return mask, fields.get("config_hash", "")


# -- manifests ---------------------------------------------------------------------------


def append_manifest(workdir, command: str, config: dict, seed: int,
                    input_hash: str, outputs: list[str], wall_clock_s: float,
                    code_version: str) -> Path:
    """Append one run record to <workdir>/manifests.jsonl, making <workdir> if need be."""
    path = Path(workdir) / "manifests.jsonl"
    record = {
        "command": command,
        "config": config,
        "seed": seed,
        "input_hash": input_hash,
        "code_version": code_version,
        "outputs": [str(o) for o in outputs],
        "wall_clock_s": round(wall_clock_s, 3),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as fh:
            fh.write(_canonical_json(record) + "\n")
    except OSError as exc:
        raise DataError(f"{path}: cannot write ({exc.strerror or exc})") from exc
    return path
