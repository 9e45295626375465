"""Corpus containers, budgeted sampling, and corpus file I/O.

Corpora are plain-text files with one document per line. Sampling selects a
seeded, word-budgeted subset of one language's documents and records what it
took in a manifest (a JSON record, see `records`); oversampling weights level
the seen languages' sizes.
"""

from __future__ import annotations

import csv
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from .input_types import InputType
from .records import Record, open_text


class EmptyCorpusError(ValueError):
    """Raised when an operation needs at least one document or word."""


@dataclass(frozen=True)
class Document:
    doc_id: str
    lang: str
    text: str

    def __post_init__(self) -> None:
        if "\n" in self.text:
            raise ValueError(f"document {self.doc_id!r} text contains a "
                             f"newline; one document per line")


@dataclass(frozen=True)
class CorpusManifest(Record):
    """What a sampling pass selected: document and word totals for one
    language in one input type, plus the seed that drove the shuffle."""

    lang: str
    input_type: InputType
    doc_count: int
    word_count: int
    sampling_seed: int
    under_budget: bool

    def __post_init__(self) -> None:
        if self.doc_count < 0 or self.word_count < 0:
            raise ValueError("manifest counts must be non-negative")


def count_words(doc: Document | str) -> int:
    """Whitespace-segmented word count; empty text counts zero."""
    text = doc.text if isinstance(doc, Document) else doc
    return len(text.split())


def word_counts(lines: Iterable[str]) -> Counter:
    """Occurrences of each whitespace word over text lines, keyed in order
    of first occurrence; the one place a corpus is counted into words."""
    return Counter(chain.from_iterable(map(str.split, lines)))


def sample_to_budget(docs: Sequence[Document], budget: int, seed: int,
                     input_type: InputType = InputType.ORTHO,
                     ) -> tuple[CorpusManifest, list[Document]]:
    """Select a word-budgeted subset of one language's documents.

    Documents are put in a canonical order (sorted by doc_id), shuffled with
    a seeded Fisher-Yates pass, and accumulated until the word budget is
    reached. The document that crosses the budget is included, so the
    selection always holds at least budget words when the collection does.
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    if not docs:
        raise EmptyCorpusError("cannot sample from an empty corpus")
    langs = {doc.lang for doc in docs}
    if len(langs) != 1:
        raise ValueError(f"documents span multiple languages: {sorted(langs)}")
    ids = [doc.doc_id for doc in docs]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate doc_id in corpus")

    ordered = sorted(docs, key=lambda d: d.doc_id)
    random.Random(seed).shuffle(ordered)

    selected: list[Document] = []
    total = 0
    for doc in ordered:
        selected.append(doc)
        total += count_words(doc)
        if total >= budget:
            break
    manifest = CorpusManifest(
        lang=docs[0].lang,
        input_type=input_type,
        doc_count=len(selected),
        word_count=total,
        sampling_seed=seed,
        under_budget=total < budget,
    )
    return manifest, selected


def oversampling_weights(manifests: Sequence[CorpusManifest],
                         budget: int) -> dict[str, Fraction]:
    """Per-language repetition weights that level corpus sizes: languages
    below the budget get weight budget/word_count, clamped to at least 1."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    weights: dict[str, Fraction] = {}
    for manifest in manifests:
        if manifest.lang in weights:
            raise ValueError(f"duplicate language {manifest.lang!r}")
        if manifest.word_count == 0:
            raise EmptyCorpusError(
                f"language {manifest.lang!r} has zero words; cannot weight")
        weights[manifest.lang] = max(Fraction(1),
                                     Fraction(budget, manifest.word_count))
    return weights


def repetition_counts(manifests: Sequence[CorpusManifest],
                      budget: int) -> dict[str, int]:
    """Whole-corpus repetition counts: ceil of the oversampling weight, so
    repeating a corpus that many times always meets the budget."""
    weights = oversampling_weights(manifests, budget)
    return {lang: math.ceil(weight) for lang, weight in weights.items()}


# --- File I/O ---------------------------------------------------------------


def read_documents(path: str | Path, lang: str) -> list[Document]:
    """Read a one-document-per-line corpus; blank lines are skipped and
    doc_ids are derived from line numbers. Text that is not UTF-8 raises
    ValueError naming the path."""
    docs = []
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.rstrip("\n")
            if not text.strip():
                continue
            docs.append(Document(f"{lang}-{lineno:08d}", lang, text))
    return docs


class TidyRow(dict):
    """One CSV row keyed by column; `line` is the physical line it ends on,
    as the csv reader counts lines."""

    def __init__(self, fields: Iterable[tuple[str, str]], line: int):
        super().__init__(fields)
        self.line = line


def read_tidy_csv(path: str | Path,
                  required: Iterable[str]) -> list[TidyRow]:
    """Rows of a CSV file with a header line, as dicts keyed by column.

    The header must name every required column and every row must have as
    many fields as the header; either fault, or text that is not UTF-8,
    raises ValueError naming the path, and for a row its line. Blank lines
    are skipped."""
    required = sorted(required)
    with open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        columns = next(reader, None)
        if columns is None or not set(required) <= set(columns):
            raise ValueError(f"{path}: expected columns {required}")
        rows = []
        for fields in reader:
            if not fields:
                continue
            if len(fields) != len(columns):
                raise ValueError(f"{path}:{reader.line_num}: expected "
                                 f"{len(columns)} fields, got {len(fields)}")
            rows.append(TidyRow(zip(columns, fields), reader.line_num))
    return rows


def number_cell(path: str | Path, line: int, text: str) -> float:
    """The finite float in one CSV cell (or one space-separated item of
    it); anything else raises ValueError naming the path and line."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path}:{line}: expected a finite number, "
                         f"got {text!r}")
    return value
