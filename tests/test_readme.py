"""Every python block of README.md runs against the library as it is,
so the documented API cannot drift from the code."""

import re
from pathlib import Path

from lungsound.data import SynthSpec, synth_corpus
from lungsound.model import CnnTsa, ModelConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[tuple[int, str]]:
    """(first line number, source) of each ```python block, in order."""
    text = README.read_text()
    return [
        (text.count("\n", 0, m.start(1)) + 1, m.group(1))
        for m in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S)
    ]


def test_python_blocks_run():
    """The blocks run in order in one namespace, as a reader would, with
    the names the prose assumes: a small set ``specs``, a tiny model
    ``model`` that reads its bands, and ``class_id``."""
    specs = synth_corpus(SynthSpec(n_classes=2, n_bands=16, n_frames=8, n_per_class=4, seed=0))
    model = CnnTsa(ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=specs.n_bands), seed=0)
    namespace = {"specs": specs, "model": model, "class_id": 1}
    blocks = python_blocks()
    assert len(blocks) >= 3
    for line, source in blocks:
        exec(compile("\n" * (line - 1) + source, str(README), "exec"), namespace)
