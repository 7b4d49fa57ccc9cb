"""Truncated or bit-flipped input files end in a documented exit code
(0, 2, 3 or 4), never in a traceback.

Each case damages one good file (a synth cache, a checkpoint trained on
it, or a mask file) and runs the CLI command that reads it. A cache or
checkpoint cut short at any byte must give exit 3 (data error).
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lungsound.cli import main
from lungsound.io import write_mask_file
from lungsound.masks import FrequencyMask

TINY = ["--preset", "tiny", "--epochs", "1", "--batch-size", "8", "--no-specaugment"]
READERS = {
    "cache": ["evaluate", "--checkpoint", "t/checkpoint.ckpt", "--cache", "bad",
              "--split", "all", "--out-dir", "out"],
    "checkpoint": ["evaluate", "--checkpoint", "bad", "--cache", "s.cache",
                   "--split", "all", "--out-dir", "out"],
    "mask": ["train", "--cache", "s.cache", "--mask", "bad", "--out-dir", "out", *TINY],
}
FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def run(workdir, *args) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["--workdir", str(workdir), *args])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert run(root, "preprocess", "--dataset", "synth", "--out", "s.cache",
               "--synth-per-class", "4", "--synth-bands", "16", "--synth-frames", "8") == 0
    assert run(root, "train", "--cache", "s.cache", "--out-dir", "t", *TINY) == 0
    mask = FrequencyMask.full(16).remove([0, 1, 2, 3]).remove([8, 9, 10, 11])
    write_mask_file(root / "m.txt", mask, "0123abcd")
    return root


GOOD = {"cache": "s.cache", "checkpoint": "t/checkpoint.ckpt", "mask": "m.txt"}


def damage(workdir, kind: str, data) -> tuple[str, int]:
    """Write a cut or bit-flipped copy of the good file to ``bad``; run its reader."""
    good = (workdir / GOOD[kind]).read_bytes()
    if data.draw(st.booleans(), label="cut"):
        how, bad = "cut", good[: data.draw(st.integers(0, len(good) - 1), label="length")]
    else:
        bit = data.draw(st.integers(0, 8 * len(good) - 1), label="bit")
        flipped = bytearray(good)
        flipped[bit // 8] ^= 1 << (bit % 8)
        how, bad = "flip", bytes(flipped)
    (workdir / "bad").write_bytes(bad)
    return how, run(workdir, *READERS[kind])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a flipped exponent overflows
@pytest.mark.parametrize("kind", ["cache", "checkpoint"])
@FUZZ
@given(data=st.data())
def test_damaged_binary_file(workdir, kind, data):
    how, code = damage(workdir, kind, data)
    assert code == 3 if how == "cut" else code in (0, 2, 3, 4)


@FUZZ
@given(data=st.data())
def test_damaged_mask_file(workdir, data):
    _, code = damage(workdir, "mask", data)
    assert code in (0, 2, 3, 4)
