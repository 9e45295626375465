"""Token-set overlap and tokenizer-quality metrics.

All ratios are computed as exact fractions; reports render them as decimals
only when serialized. Overlap compares an unseen target language's token set
against the token sets of the languages a tokenizer was trained on. The
quality metrics (unknown-token ratio, fertility, vocabulary coverage) are
projections of one tally per corpus that segments each distinct word once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .input_types import InputType
from .tokenizer import SubwordModel, TokenSet, UNK_SENTINEL, encoder_for


class OverlapVariant(str, Enum):
    """How overlap with the training languages is aggregated.

    MAX_SOURCE scores the single best source language. ALL_SOURCES scores
    the union of every source's tokens. TYPE_RATIO normalizes within each
    token-length class of the best source instead of over all target tokens.
    """

    MAX_SOURCE = "max"
    ALL_SOURCES = "all"
    TYPE_RATIO = "type"


@dataclass(frozen=True)
class OverlapReport:
    target_lang: str
    variant: OverlapVariant
    best_source: str | None
    overall_ratio: Fraction
    by_length: dict[int, Fraction]

    def to_json_dict(self) -> dict:
        return {
            "target_lang": self.target_lang,
            "variant": self.variant.value,
            "best_source": self.best_source,
            "overall_ratio": float(self.overall_ratio),
            "by_length": {str(length): float(ratio)
                          for length, ratio in sorted(self.by_length.items())},
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "OverlapReport":
        return cls(
            target_lang=payload["target_lang"],
            variant=OverlapVariant(payload["variant"]),
            best_source=payload["best_source"],
            overall_ratio=Fraction(payload["overall_ratio"]),
            by_length={int(length): Fraction(ratio) for length, ratio
                       in payload["by_length"].items()},
        )


@dataclass(frozen=True)
class TokenizerQualityReport:
    lang: str
    input_type: InputType
    unk_ratio: Fraction
    fertility: Fraction
    vocab_coverage: Fraction
    coverage_by_length: dict[int, Fraction]
    token_count: int
    word_count: int

    def to_json_dict(self) -> dict:
        return {
            "lang": self.lang,
            "input_type": self.input_type.value,
            "unk_ratio": float(self.unk_ratio),
            "fertility": float(self.fertility),
            "vocab_coverage": float(self.vocab_coverage),
            "coverage_by_length": {
                str(length): float(ratio)
                for length, ratio in sorted(self.coverage_by_length.items())},
            "token_count": self.token_count,
            "word_count": self.word_count,
        }

    def to_csv_rows(self) -> list[list]:
        """Tidy rows: lang, input_type, metric, length, value. Scalar
        metrics leave the length column empty."""
        key = [self.lang, self.input_type.value]
        rows = [key + ["unk_ratio", "", float(self.unk_ratio)],
                key + ["fertility", "", float(self.fertility)],
                key + ["vocab_coverage", "", float(self.vocab_coverage)]]
        rows += [key + ["coverage_by_length", length, float(ratio)]
                 for length, ratio in sorted(self.coverage_by_length.items())]
        return rows

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "TokenizerQualityReport":
        return cls(
            lang=payload["lang"],
            input_type=InputType.parse(payload["input_type"]),
            unk_ratio=Fraction(payload["unk_ratio"]),
            fertility=Fraction(payload["fertility"]),
            vocab_coverage=Fraction(payload["vocab_coverage"]),
            coverage_by_length={int(length): Fraction(ratio) for length, ratio
                                in payload["coverage_by_length"].items()},
            token_count=int(payload["token_count"]),
            word_count=int(payload["word_count"]),
        )


def _check_target_and_sources(target: TokenSet,
                              sources: Sequence[TokenSet]) -> None:
    if not target.tokens:
        raise ValueError(f"target token set for {target.lang!r} is empty")
    if not sources:
        raise ValueError("at least one source token set is required")
    langs = [source.lang for source in sources]
    if len(set(langs)) != len(langs):
        raise ValueError(f"duplicate source languages: {langs}")


def overlap_ratio(target: TokenSet,
                  sources: Sequence[TokenSet]) -> tuple[str, Fraction]:
    """Best source language and its shared-token ratio.

    For each source, the ratio is |source tokens seen in target| over
    |target tokens|; the maximum wins, ties going to the lexicographically
    smallest language code. All token sets must come from one tokenizer.
    """
    _check_target_and_sources(target, sources)
    best_lang = None
    best_ratio = None
    for source in sorted(sources, key=lambda s: s.lang):
        ratio = Fraction(len(source.tokens & target.tokens),
                         len(target.tokens))
        if best_ratio is None or ratio > best_ratio:
            best_lang, best_ratio = source.lang, ratio
    return best_lang, best_ratio


def overlap_by_length(target: TokenSet,
                      sources: Sequence[TokenSet]) -> dict[int, Fraction]:
    """Split the best source's overlap by token length. Each entry is
    |shared tokens of length m| over |target tokens|, so the entries sum to
    the overall ratio exactly; lengths with no shared tokens are omitted."""
    best_lang, _ = overlap_ratio(target, sources)
    best = next(s for s in sources if s.lang == best_lang)
    return _shared_by_length(target, best.tokens)


def overlap_all_sources(target: TokenSet,
                        sources: Sequence[TokenSet]) -> dict[int, Fraction]:
    """Like overlap_by_length but against the union of all source tokens."""
    _check_target_and_sources(target, sources)
    union: set[str] = set()
    for source in sources:
        union |= source.tokens
    return _shared_by_length(target, union)


def _shared_by_length(target: TokenSet,
                      source_tokens: frozenset | set) -> dict[int, Fraction]:
    shared = target.tokens & source_tokens
    counts: dict[int, int] = {}
    for token in shared:
        counts[len(token)] = counts.get(len(token), 0) + 1
    total = len(target.tokens)
    return {length: Fraction(count, total)
            for length, count in sorted(counts.items())}


def overlap_type_ratio(target: TokenSet,
                       sources: Sequence[TokenSet]) -> dict[int, Fraction]:
    """Per-length-class overlap with the best source: shared tokens of
    length m over target tokens of length m. Every length present in the
    target appears, including classes with no overlap."""
    best_lang, _ = overlap_ratio(target, sources)
    best = next(s for s in sources if s.lang == best_lang)
    shared = target.tokens & best.tokens
    ratios: dict[int, Fraction] = {}
    for length, bucket in target.by_length().items():
        hit = sum(1 for token in bucket if token in shared)
        ratios[length] = Fraction(hit, len(bucket))
    return ratios


def overlap_report(target: TokenSet, sources: Sequence[TokenSet],
                   variant: OverlapVariant = OverlapVariant.MAX_SOURCE,
                   ) -> OverlapReport:
    """Assemble an overlap report under the chosen aggregation variant."""
    best_lang, best_ratio = overlap_ratio(target, sources)
    if variant is OverlapVariant.MAX_SOURCE:
        by_length = overlap_by_length(target, sources)
        return OverlapReport(target.lang, variant, best_lang, best_ratio,
                             by_length)
    if variant is OverlapVariant.ALL_SOURCES:
        by_length = overlap_all_sources(target, sources)
        overall = sum(by_length.values(), Fraction(0))
        return OverlapReport(target.lang, variant, None, overall, by_length)
    by_length = overlap_type_ratio(target, sources)
    return OverlapReport(target.lang, variant, best_lang, best_ratio,
                         by_length)


# --- Tokenizer quality ------------------------------------------------------


def _tally(model: SubwordModel, corpus: Iterable[str],
           ) -> tuple[int, int, int, set[str]]:
    """Whitespace words, produced tokens, unknown tokens, and the distinct
    non-unknown tokens of a corpus. Each distinct word is segmented once and
    its counts are weighted by how often it occurs."""
    counts = Counter(word for line in corpus for word in line.split())
    encoder = encoder_for(model)
    tokens = 0
    unk = 0
    produced: set[str] = set()
    for word, count in counts.items():
        symbols = encoder.segment_word(word)
        tokens += count * len(symbols)
        for sym in symbols:
            if sym is UNK_SENTINEL:
                unk += count
            else:
                produced.add(sym)
    return counts.total(), tokens, unk, produced


def _coverage(model: SubwordModel, produced: set[str],
              ) -> tuple[Fraction, dict[int, Fraction]]:
    """Produced tokens over vocab_size_target, overall and split by the
    token's length with the marker stripped."""
    counts = Counter(len(model.strip_marker(token)) for token in produced)
    denom = model.vocab_size_target
    return (Fraction(len(produced), denom),
            {length: Fraction(count, denom)
             for length, count in sorted(counts.items())})


def unk_ratio(model: SubwordModel, corpus: Iterable[str]) -> Fraction:
    """Fraction of produced tokens that are the unknown token."""
    _, tokens, unk, _ = _tally(model, corpus)
    if tokens == 0:
        raise ValueError("corpus produced no tokens")
    return Fraction(unk, tokens)


def fertility(model: SubwordModel, corpus: Iterable[str]) -> Fraction:
    """Tokens produced per whitespace word; at least 1 by construction."""
    words, tokens, _, _ = _tally(model, corpus)
    if words == 0:
        raise ValueError("corpus has no words")
    return Fraction(tokens, words)


def vocab_coverage(model: SubwordModel, corpus: Iterable[str],
                   ) -> tuple[Fraction, dict[int, Fraction]]:
    """Share of the target vocabulary size actually produced on a corpus.

    Returns the overall ratio (distinct non-unknown tokens emitted over
    vocab_size_target) and its exact partition by surface token length,
    where the length of a token is measured with the marker stripped."""
    return _coverage(model, _tally(model, corpus)[3])


def quality_report(model: SubwordModel, corpus: Iterable[str], lang: str,
                   input_type: InputType) -> TokenizerQualityReport:
    """All quality metrics of one corpus from a single read of it."""
    words, tokens, unk, produced = _tally(model, corpus)
    if words == 0:
        raise ValueError(f"corpus for {lang!r} has no words")
    coverage, by_length = _coverage(model, produced)
    return TokenizerQualityReport(
        lang=lang,
        input_type=input_type,
        unk_ratio=Fraction(unk, tokens),
        fertility=Fraction(tokens, words),
        vocab_coverage=coverage,
        coverage_by_length=by_length,
        token_count=tokens,
        word_count=words,
    )


def token_length_histogram(token_sets: Iterable[TokenSet],
                           ) -> dict[str, dict[int, int]]:
    """Distribution of unique token lengths per language."""
    histogram: dict[str, dict[int, int]] = {}
    for ts in token_sets:
        histogram[ts.lang] = {length: len(bucket)
                              for length, bucket in ts.by_length().items()}
    return histogram
