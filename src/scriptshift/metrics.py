"""Token-set overlap and tokenizer-quality metrics: one function each.

All ratios are computed as exact fractions; reports render them as floats
only when serialized through `records`. `overlap_report` compares an unseen
target language's token set against the token sets of the languages a
tokenizer was trained on, under one of three `OverlapVariant`s.
`quality_report` gives a corpus's unknown-token ratio, fertility and
vocabulary coverage from its word table through `tokenizer.tally`, which
segments each distinct word once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .input_types import InputType
from .records import Record
from .tokenizer import SubwordModel, TokenSet, tally


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
class OverlapReport(Record):
    target_lang: str
    variant: OverlapVariant
    best_source: str | None
    overall_ratio: Fraction
    by_length: dict[int, Fraction]


@dataclass(frozen=True)
class TokenizerQualityReport(Record):
    lang: str
    input_type: InputType
    unk_ratio: Fraction
    fertility: Fraction
    vocab_coverage: Fraction
    coverage_by_length: dict[int, Fraction]
    token_count: int
    word_count: int

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


def _check_target_and_sources(target: TokenSet,
                              sources: Sequence[TokenSet]) -> None:
    if not target.tokens:
        raise ValueError(f"target token set for {target.lang!r} is empty")
    if not sources:
        raise ValueError("at least one source token set is required")
    langs = [source.lang for source in sources]
    if len(set(langs)) != len(langs):
        raise ValueError(f"duplicate source languages: {langs}")


def _best_source(target: TokenSet, sources: Sequence[TokenSet],
                 ) -> tuple[TokenSet, Fraction]:
    """The source sharing the most target tokens (ties to the smallest
    language code) and that count over |target tokens|."""
    _check_target_and_sources(target, sources)
    neg_shared, _, best = min(
        (-len(source.tokens & target.tokens), source.lang, source)
        for source in sources)
    return best, Fraction(-neg_shared, len(target.tokens))


def overlap_report(target: TokenSet, sources: Sequence[TokenSet],
                   variant: OverlapVariant = OverlapVariant.MAX_SOURCE,
                   ) -> OverlapReport:
    """Overlap of the target's tokens with the sources' tokens. All token
    sets must come from one tokenizer.

    MAX_SOURCE and TYPE_RATIO score the source sharing the most target
    tokens, ties going to the smallest language code; overall_ratio is that
    count over |target tokens|. By length, MAX_SOURCE gives |shared tokens
    of length m| over |target tokens|, so the entries sum to overall_ratio
    exactly and lengths with no shared token are omitted. ALL_SOURCES does
    the same against the union of every source's tokens and names no best
    source. TYPE_RATIO gives shared tokens of length m over target tokens of
    length m, for every length present in the target."""
    if variant is OverlapVariant.ALL_SOURCES:
        _check_target_and_sources(target, sources)
        by_length = _shared_by_length(
            target, frozenset().union(*(source.tokens for source in sources)))
        overall = sum(by_length.values(), Fraction(0))
        return OverlapReport(target.lang, variant, None, overall, by_length)
    best, ratio = _best_source(target, sources)
    if variant is OverlapVariant.MAX_SOURCE:
        by_length = _shared_by_length(target, best.tokens)
    else:
        by_length = {length: Fraction(len(bucket & best.tokens), len(bucket))
                     for length, bucket in target.by_length().items()}
    return OverlapReport(target.lang, variant, best.lang, ratio, by_length)


def _shared_by_length(target: TokenSet,
                      source_tokens: frozenset | set) -> dict[int, Fraction]:
    counts = Counter(map(len, target.tokens & source_tokens))
    total = len(target.tokens)
    return {length: Fraction(count, total)
            for length, count in sorted(counts.items())}


# --- Tokenizer quality ------------------------------------------------------


def quality_report(model: SubwordModel, counts: Mapping[str, int],
                   lang: str, input_type: InputType,
                   ) -> TokenizerQualityReport:
    """All quality metrics of one corpus from its word table
    (`corpus.word_counts` over its lines).

    unk_ratio is the share of produced tokens that are the unknown token;
    fertility is tokens per whitespace word, at least 1 by construction.
    vocab_coverage is the distinct non-unknown tokens produced over
    vocab_size_target, and coverage_by_length is its exact partition by
    token length with the marker stripped. A corpus with no words is
    rejected."""
    words, tokens, unk, produced = tally(model, counts)
    if words == 0:
        raise ValueError(f"corpus for {lang!r} has no words")
    lengths = Counter(len(model.strip_marker(token)) for token in produced)
    denom = model.vocab_size_target
    return TokenizerQualityReport(
        lang=lang,
        input_type=input_type,
        unk_ratio=Fraction(unk, tokens),
        fertility=Fraction(tokens, words),
        vocab_coverage=Fraction(len(produced), denom),
        coverage_by_length={length: Fraction(count, denom)
                            for length, count in sorted(lengths.items())},
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
