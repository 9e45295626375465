"""Corpus containers, budgeted sampling, and corpus file I/O.

Corpora are plain-text files with one document per line, read into a
`Corpus` that holds the kept lines' texts and line numbers and makes a
Document only on access. Sampling selects a seeded, word-budgeted subset of
one language's documents and records what it took in a manifest (a JSON
record, see `records`); oversampling weights level the seen languages'
sizes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import lt
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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


def word_counts(lines: Iterable[str]) -> Counter:
    """Occurrences of each whitespace word over text lines, keyed in order
    of first occurrence; the one place a corpus is counted into words."""
    return Counter(chain.from_iterable(map(str.split, lines)))


# Documents a digest encodes at a time.
_DIGEST_CHUNK = 256


class Corpus(Sequence[Document]):
    """An immutable sequence of one collection's documents, held as their
    texts.

    A corpus read from a file (`read_documents`) keeps its language and
    each text's line number, and makes a Document only when one is indexed
    or iterated; `Corpus.of` keeps any other documents as given. A corpus
    digests and counts itself once and keeps its latest `(budget, seed)`
    selection, so runs that share it in one process digest, count and
    sample it once."""

    __slots__ = ("texts", "_lang", "_linenos", "_docs", "_digest",
                 "_counts", "_selection")

    def __init__(self, texts: tuple[str, ...], lang: str | None = None,
                 linenos: array | None = None,
                 docs: tuple[Document, ...] | None = None) -> None:
        self.texts = texts
        self._lang = lang
        self._linenos = linenos
        self._docs = docs
        self._digest: str | None = None
        self._counts: Counter | None = None
        self._selection: tuple | None = None

    @classmethod
    def of(cls, docs: Sequence[Document]) -> Corpus:
        """docs itself when it is a Corpus, else a Corpus of its documents."""
        if isinstance(docs, Corpus):
            return docs
        docs = tuple(docs)
        return cls(tuple(doc.text for doc in docs), docs=docs)

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._take(range(len(self))[index])
        if self._docs is not None:
            return self._docs[index]
        return Document(self._id_format() % self._linenos[index],
                        self._lang, self.texts[index])

    def __iter__(self) -> Iterator[Document]:
        if self._docs is not None:
            return iter(self._docs)
        return map(Document, self._ids(), repeat(self._lang), self.texts)

    def _id_format(self) -> str:
        """The %-format of a doc_id read from a file, given its line
        number: `f"{lang}-{lineno:08d}"`."""
        return self._lang.replace("%", "%%") + "-%08d"

    def _ids(self) -> Iterable[str]:
        if self._docs is not None:
            return [doc.doc_id for doc in self._docs]
        return map(self._id_format().__mod__, self._linenos)

    def _take(self, indices: Sequence[int]) -> Corpus:
        """The documents at indices, in that order."""
        if self._docs is not None:
            return Corpus.of([self._docs[i] for i in indices])
        return Corpus(tuple([self.texts[i] for i in indices]), self._lang,
                      array("L", [self._linenos[i] for i in indices]))

    def digest(self) -> str:
        """Digest of the documents' ids and texts, in order: the JSON list
        of ids, then the texts joined by newlines, which no text contains,
        so no two sequences share a digest. Both are fed to the hash a
        chunk of documents at a time, so no copy of the whole is made."""
        if self._digest is None:
            ids = iter(self._ids())
            starts = range(0, len(self), _DIGEST_CHUNK)
            digest = hashlib.sha256(b"[")
            for start in starts:
                if start:
                    digest.update(b", ")
                chunk = json.dumps(list(islice(ids, _DIGEST_CHUNK)))
                digest.update(chunk[1:-1].encode("ascii"))
            digest.update(b"]")
            for start in starts:
                if start:
                    digest.update(b"\n")
                chunk = "\n".join(self.texts[start:start + _DIGEST_CHUNK])
                digest.update(chunk.encode("utf-8"))
            self._digest = digest.hexdigest()
        return self._digest

    def word_counts(self) -> Counter:
        """`word_counts` over the texts, counted once and kept. The table is
        shared by every caller, so none may change it."""
        if self._counts is None:
            self._counts = word_counts(self.texts)
        return self._counts

    def _id_order(self) -> list[int]:
        """Indices in doc_id order, for a corpus that is not empty. One read
        from a file is in that order while its line numbers rise and stay
        below 10**8, the width of the zero padding; documents kept as given
        must be of one language with distinct ids."""
        linenos = self._linenos
        if (linenos is not None and linenos[-1] < 10 ** 8
                and all(map(lt, linenos, islice(linenos, 1, None)))):
            return list(range(len(linenos)))
        ids = list(self._ids())
        if self._docs is not None:
            langs = {doc.lang for doc in self._docs}
            if len(langs) != 1:
                raise ValueError(f"documents span multiple languages: "
                                 f"{sorted(langs)}")
            if len(set(ids)) != len(ids):
                raise ValueError("duplicate doc_id in corpus")
        return sorted(range(len(ids)), key=ids.__getitem__)

    def _select(self, budget: int, seed: int) -> tuple[Corpus, int]:
        """The selection `sample_to_budget` makes from this non-empty
        corpus, and its word count; the latest one is kept."""
        kept = self._selection
        if kept is None or kept[:2] != (budget, seed):
            order = self._id_order()
            random.Random(seed).shuffle(order)
            texts = self.texts
            total = taken = 0
            for index in order:
                taken += 1
                total += len(texts[index].split())
                if total >= budget:
                    break
            kept = self._selection = (budget, seed,
                                      self._take(order[:taken]), total)
        return kept[2], kept[3]


def sample_to_budget(docs: Sequence[Document], budget: int, seed: int,
                     input_type: InputType = InputType.ORTHO,
                     ) -> tuple[CorpusManifest, Sequence[Document]]:
    """Select a word-budgeted subset of one language's documents.

    Documents are put in a canonical order (sorted by doc_id), shuffled with
    a seeded Fisher-Yates pass, and accumulated until the word budget is
    reached. The document that crosses the budget is included, so the
    selection always holds at least budget words when the collection does.
    The selection is a Corpus when docs is one, and a list otherwise.
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    corpus = Corpus.of(docs)
    if not corpus:
        raise EmptyCorpusError("cannot sample from an empty corpus")
    selected, total = corpus._select(budget, seed)
    manifest = CorpusManifest(
        lang=selected[0].lang,
        input_type=input_type,
        doc_count=len(selected),
        word_count=total,
        sampling_seed=seed,
        under_budget=total < budget,
    )
    return manifest, selected if corpus is docs else list(selected)


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


def read_documents(path: str | Path, lang: str) -> Corpus:
    """Read a one-document-per-line corpus; blank lines are skipped and
    doc_ids are derived from line numbers. Text that is not UTF-8 raises
    ValueError naming the path."""
    texts = []
    linenos = array("L")
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.rstrip("\n")
            if text and not text.isspace():
                texts.append(text)
                linenos.append(lineno)
    return Corpus(tuple(texts), lang, linenos)


class TidyRow(dict):
    """One CSV row keyed by column; `line` is the physical line it ends on,
    as the csv reader counts lines."""

    def __init__(self, fields: Iterable[tuple[str, str]], line: int):
        super().__init__(fields)
        self.line = line


def read_tidy_csv(path: str | Path,
                  required: Iterable[str]) -> list[TidyRow]:
    """Rows of a CSV file with a header line, as dicts keyed by column.

    The header must name every required column and no column twice, and
    every row must have as many fields as the header; any of these faults,
    or text that is not UTF-8, raises ValueError naming the path, and for a
    row its line. Blank lines are skipped."""
    required = sorted(required)
    with open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        columns = next(reader, None)
        if columns is None or not set(required) <= set(columns):
            raise ValueError(f"{path}: expected columns {required}")
        repeated = sorted({name for name in columns
                           if columns.count(name) > 1})
        if repeated:
            raise ValueError(f"{path}: repeated columns {repeated}")
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
