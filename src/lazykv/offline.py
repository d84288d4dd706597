"""Corpus-driven pre-selection of streaming layers.

For generation tasks whose prompts are too short for online detection
(every ratio degenerates to 1), layers are chosen ahead of time: each
corpus sample's question and answer are concatenated and run through the
engine's online prefill, the per-sample lazy sets are tallied, and the
layers most often found lazy become the static policy. Counting is a plain
order-independent sum, so permuting the corpus changes nothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .engine import EngineParams, PolicyFile, Session
from .errors import InputError, parse_json
from .lazydetect import DetectParams, IdentifierState
from .model import ModelConfig, Weights

__all__ = ["CorpusSample", "FrequencyTable", "load_corpus", "preselect"]


@dataclass(frozen=True)
class CorpusSample:
    question: Tuple[int, ...]
    answer: Tuple[int, ...]

    def tokens(self) -> np.ndarray:
        joined = np.asarray(self.question + self.answer, dtype=np.int64)
        if joined.size == 0:
            raise InputError("corpus sample has no tokens")
        return joined


@dataclass
class FrequencyTable:
    """How often each layer was identified lazy across the corpus."""

    counts: List[int]
    n_samples: int

    def to_dict(self) -> dict:
        return {"lazy_counts": list(self.counts), "n_samples": self.n_samples}


def is_token_list(data) -> bool:
    """A JSON list of integer token ids; bools are not integers here."""
    return isinstance(data, list) and all(type(t) is int for t in data)


def load_corpus(path) -> List[CorpusSample]:
    """Read JSON-lines samples: {"question": [ints], "answer": [ints]}."""
    samples = []
    with open(path, "rb") as f:
        lines = f.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        raw = parse_json(line, f"{path}:{lineno}")
        try:
            fields = (raw["question"], raw["answer"])
            if not all(map(is_token_list, fields)):
                raise TypeError("question and answer must be lists of integer ids")
            np.asarray(fields[0] + fields[1], dtype=np.int64)  # int64 range
        except (KeyError, TypeError, OverflowError) as exc:
            raise InputError(f"{path}:{lineno}: bad corpus line: {exc}") from exc
        samples.append(CorpusSample(*map(tuple, fields)))
    return samples


def preselect(
    weights: Weights,
    config: ModelConfig,
    corpus: Sequence[CorpusSample],
    detect: DetectParams,
    fingerprint: str = "",
) -> Tuple[FrequencyTable, PolicyFile]:
    """Tally per-sample lazy sets and emit the most-frequent layers as policy.

    Reuses the engine's online prefill verbatim, so offline selection can
    never drift from what a live session would decide. Samples not longer
    than w_sink + w_recent are counted but trigger a warning, since all of
    their ratios sit at 1 and only the tie-break orders them.
    """
    if len(corpus) == 0:
        raise InputError("corpus is empty")
    L = config.n_layers
    counts = np.zeros(L, dtype=np.int64)
    short = 0
    for sample in corpus:
        tokens = sample.tokens()
        if tokens.size <= detect.w_sink + detect.w_recent:
            short += 1
        session = Session(weights, config, EngineParams(detect=detect))
        _, report = session.prefill(tokens)
        counts[report.lazy_layers] += 1
    if short:
        warnings.warn(
            f"{short} of {len(corpus)} samples are no longer than "
            f"w_sink + w_recent = {detect.w_sink + detect.w_recent}; their "
            "lazy ratios all equal 1 and selection rests on the tie-break",
            stacklevel=2,
        )
    # The online queue ranks the counts: highest wins, ties to the deeper layer.
    ranking = IdentifierState(detect.n_full, L)
    for layer, count in enumerate(counts):
        ranking.push(layer, count)
    table = FrequencyTable(counts=[int(c) for c in counts], n_samples=len(corpus))
    return table, PolicyFile.from_detect(detect, ranking.finalize()[1], "preselect", fingerprint)
