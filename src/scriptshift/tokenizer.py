"""Deterministic subword tokenizer built on greedy pair merging.

Training learns highest-frequency symbol-pair merges over whitespace words,
each word prefixed with a reserved boundary-marker symbol. Training reads
its word table once, holds symbols as ids and a pair as one int, and keeps
a pair's count and the words that hold it in one table entry. A merge
rewrites the words that hold its pair in place and moves pair counts only at
its sites, dropping pairs whose count falls to 0; candidates wait in
per-count buckets, and only the best count's bucket is ordered, in a small
heap. No product is made twice, so ties go by concatenation alone. A model's
merges are in that training order, which the model checks as it is built;
encoding merges the lowest-rank adjacent pair until none is left, which
equals replaying the merge list in order, so a serialized model reproduces
the same segmentation anywhere. Both merge in place, looking for a left
operand only as often as the word holds it.
Characters outside the alphabet are collapsed, one maximal run at a time,
into a single unknown token.
`tally` is the one segmentation walk over a corpus's word table; it reads
the model's segmentation cache itself and segments only the words that
miss it. Token sets and the quality metrics are projections of it. A model
segments its own words (`SubwordModel.segment_word`) and caches them.
Training ends holding every training word's final segmentation, so a model
trained in this process starts with its training words cached; a model
read from disk starts cold.
Models and token sets are read and written by the one JSON codec
(`records`); a model checks its own structure as it is built.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .corpus import EmptyCorpusError, word_counts
from .input_types import InputType
from .records import Record, dumps, from_json, load

UNK_ID = 0
UNK_TOKEN = "<unk>"
UNK_DECODED = "\N{REPLACEMENT CHARACTER}"
BOUNDARY_MARKER = "\N{LOWER ONE EIGHTH BLOCK}"  # "▁", reserved


class _UnkRun:
    """Placeholder symbol for a maximal run of out-of-alphabet characters."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<unk-run>"


UNK_SENTINEL = _UnkRun()


class ModelFormatError(ValueError):
    """Raised when a serialized model fails structural validation."""


# Words a model's segmentation cache holds before it is cleared.
_CACHE_LIMIT = 1 << 16


@dataclass(frozen=True, eq=False)
class SubwordModel(Record):
    """A trained tokenizer: alphabet, ordered merges, and the id table.

    The merges are in training order: each operand is the boundary marker,
    an alphabet character or the product of an earlier merge, and each
    product (the operands' concatenation) is a new symbol. The id table
    follows from them: unknown first (0), boundary marker second (1),
    alphabet characters by code point from 2, then each product the first
    time it appears (one spelled UNK_TOKEN keeps id 0). A model breaking
    either rule is refused when it is built.

    `segment_word` is plain BPE: each step merges every occurrence, left to
    right, of the adjacent pair of lowest rank, rewriting only the ranks of
    the two pairs beside each site, until no adjacent pair has a rank.
    Since the merges are in training order, this gives the segmentation the
    merge list gives when replayed in order over the word, each merge
    applied left to right. Segmentations are cached per word, so a repeated
    word costs a dictionary lookup; the cache is cleared when it reaches
    65,536 words, so its memory stays bounded on any corpus. The cache and
    the pair ranks are kept outside the record's fields, so the record
    codec does not see them and they are freed with the model.
    """

    alphabet: frozenset[str]
    merges: tuple[tuple[str, str], ...]
    vocab: dict[str, int]
    vocab_size_target: int
    boundary_marker: str = BOUNDARY_MARKER
    version: str = "1"

    json_error = ModelFormatError

    def __post_init__(self) -> None:
        if self.vocab_size_target < 1:
            raise ModelFormatError(
                f"malformed SubwordModel.vocab_size_target: expected at "
                f"least 1, got {self.vocab_size_target!r}")
        marker, vocab = self.boundary_marker, self.vocab
        if any(len(char) != 1 for char in self.alphabet):
            raise ModelFormatError("alphabet symbols must be characters")
        if marker in self.alphabet or marker == UNK_TOKEN:
            raise ModelFormatError(
                f"boundary marker cannot be {UNK_TOKEN!r} or in alphabet")
        # The trainer's id table, rebuilt while checking training order.
        table = {UNK_TOKEN: UNK_ID, marker: 1}
        for char in sorted(self.alphabet):
            table[char] = len(table)
        for token, token_id in table.items():
            if vocab.get(token) != token_id:
                raise ModelFormatError(f"{token!r} must have id {token_id}, "
                                       f"got {vocab.get(token)!r}")
        symbols = {marker, *self.alphabet}
        for merge in self.merges:
            if len(merge) != 2:
                raise ModelFormatError(f"malformed SubwordModel.merges: "
                                       f"expected pairs, got {merge!r:.60}")
            left, right = merge
            product = left + right
            if (left not in symbols or right not in symbols
                    or product in symbols):
                raise ModelFormatError(
                    f"merge {merge!r} is out of training order: its "
                    f"operands must be the marker, alphabet symbols or "
                    f"earlier products, and its product {product!r} new")
            symbols.add(product)
            if product not in vocab:
                raise ModelFormatError(f"merge {merge!r} product "
                                       f"{product!r} missing from vocab")
            token_id = table.setdefault(product, len(table))
            if vocab[product] != token_id:
                raise ModelFormatError(
                    f"merge {merge!r} product {product!r} must have id "
                    f"{token_id}, got {vocab[product]!r}")
        if len(vocab) != len(table):
            extra = sorted(vocab.keys() - table.keys())
            raise ModelFormatError(
                f"vocab holds tokens that no merge makes: {extra!r:.60}")

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def id_to_token(self) -> list[str]:
        table = [""] * len(self.vocab)
        for token, token_id in self.vocab.items():
            table[token_id] = token
        return table

    @cached_property
    def _segmentations(self) -> dict[str, tuple]:
        return {}

    @cached_property
    def _pair_rank(self) -> dict[tuple[str, str], int]:
        return {pair: rank for rank, pair in enumerate(self.merges)}

    def segment_word(self, word: str) -> tuple:
        """Emitted symbol sequence for one word: token strings and unknown
        sentinels. A boundary marker left standalone directly before an
        unknown run is dropped, so fully out-of-alphabet words produce
        exactly one unknown token."""
        cache = self._segmentations
        cached = cache.get(word)
        if cached is not None:
            return cached
        merges = self.merges
        end = len(merges)
        rank_of = self._pair_rank.get
        syms = _word_symbols(word, self.alphabet, self.boundary_marker)
        # ranks[i] is the rank of the pair (syms[i], syms[i + 1]), or end.
        ranks = list(map(rank_of, zip(syms, syms[1:]), repeat(end)))
        while ranks:
            rank = min(ranks)
            if rank == end:
                break
            left, right = merges[rank]
            merged = left + right
            todo = syms.count(left)
            j = 0
            while todo:
                j = syms.index(left, j)
                todo -= 1
                if j + 1 < len(syms) and syms[j + 1] == right:
                    if left == right:
                        todo -= 1
                    syms[j] = merged
                    del syms[j + 1], ranks[j]
                    if j:
                        ranks[j - 1] = rank_of((syms[j - 1], merged), end)
                    if j < len(ranks):
                        ranks[j] = rank_of((merged, syms[j + 1]), end)
                j += 1
        result = _emitted(syms, self.boundary_marker)
        if len(cache) >= _CACHE_LIMIT:
            cache.clear()
        cache[word] = result
        return result

    def strip_marker(self, token: str) -> str:
        if token.startswith(self.boundary_marker):
            return token[len(self.boundary_marker):]
        return token


@dataclass(frozen=True)
class TokenSet(Record):
    """The set of surface token strings (boundary markers stripped) a model
    produces on one corpus. Set semantics: duplicates collapse."""

    lang: str
    input_type: InputType
    tokens: frozenset[str]

    def by_length(self) -> dict[int, frozenset[str]]:
        buckets: dict[int, set[str]] = {}
        for token in self.tokens:
            buckets.setdefault(len(token), set()).add(token)
        return {length: frozenset(tokens)
                for length, tokens in sorted(buckets.items())}


# --- Training ---------------------------------------------------------------


def _word_symbols(word: str, alphabet: frozenset[str],
                  marker: str) -> list:
    """Initial symbol sequence: marker, then characters, with each maximal
    out-of-alphabet run collapsed to the unknown sentinel."""
    if alphabet.issuperset(word):
        return [marker, *word]
    syms: list = [marker]
    in_unk_run = False
    for char in word:
        if char in alphabet:
            syms.append(char)
            in_unk_run = False
        elif not in_unk_run:
            syms.append(UNK_SENTINEL)
            in_unk_run = True
    return syms


def _emitted(syms: list, marker: str) -> tuple:
    """The symbols a segmented word emits: a boundary marker left
    standalone directly before an unknown run is dropped, so a fully
    out-of-alphabet word gives exactly one unknown token."""
    if len(syms) > 1 and syms[0] == marker and syms[1] is UNK_SENTINEL:
        return tuple(syms[1:])
    return tuple(syms)


def train_from_word_counts(word_counts: Mapping[str, int], vocab_size: int,
                           min_char_freq: int = 1) -> SubwordModel:
    """Train a model from word frequencies.

    Greedy loop: the most frequent adjacent symbol pair is merged, ties
    broken by the lexicographically smaller concatenation, which no two
    live pairs share (below). Merging stops when the vocabulary reaches
    vocab_size or no pair occurs at least twice.

    Symbols are ids: the unknown sentinel is UNK_ID, the boundary marker 1,
    the alphabet from 2 by codepoint, then each merge product in turn, as
    in the vocab (a product spelled UNK_TOKEN gets an id of its own).
    A pair is one int, left * width + right.

    Lemma: at every step, a span of a word whose two ends no merge has
    crossed is covered by the same symbols wherever it stands. Proof by
    induction over merges. At the start the symbols are characters, the
    marker one of them, and maximal unknown runs, set by the span's text. A
    merge (l, r) with l != r acts on each adjacent l r on its own; one with
    l == r pairs each run of l from the run's left end, as the site loop
    does. A run that enters the span with an odd number of l pairs across its
    left end; with an even number, the span's part pairs as if alone; the
    span's last l pairs across its right end only if left unpaired. So a
    merge that crosses neither end acts on the span as if it stood alone.

    Hence two live pairs never share a concatenation: both would be uncrossed
    spans of one string. Merging (a, b) makes every uncrossed span of a + b
    one symbol, so no later merge makes it again. A product has 2 or more
    characters, the marker and alphabet symbols 1, so each product is a new
    symbol with the next id. A new pair occurs only at the merge's sites, at
    most once at each, so none counts more than the merged pair did.

    Pair counts stay exact without recounting a word. The input is read
    once, into a list of words and a list of their frequencies, and one
    table maps a pair to a list: its count, then the indices of its words.
    A pair lists its words once per occurrence, so its first count is the
    sum of their frequencies. A merge visits each listed word once, finds
    the left operand only as often as the word holds it, and merges each
    site in place, left to right. At a site the left neighbour pair
    (previous symbol, left operand) becomes (previous symbol, merged); when
    the previous site is adjacent, its output stands there and the pair
    given up is still (right operand, left operand). The right neighbour
    pair (right operand, next symbol) becomes (merged, next symbol), unless
    the next symbol starts another site, whose left step then accounts for
    the boundary. Unknowns never form a counted pair. A pair whose count
    falls to 0 is dropped from the counts and from the word lists at once, as
    they are one entry. The merged pair's entry outlives its own sites: a
    site of (a, a) right after an adjacent one gives up (a, a) itself as its
    left neighbour pair, so the entry must still be there to count down.
    The merged sites keep that count above 0, and the entry is dropped once
    the last of them is done.

    Candidates wait in buckets keyed by count. Every pair that occurs at
    least twice has an entry at or above its count: a merge files only
    the pairs whose count grew, and an entry whose count has fallen is
    filed again at the new count, if that is still at least 2, when its
    bucket is reached. The highest bucket is emptied into a heap of the
    pairs still at its count, keyed by concatenation; the heap's first
    entry still at its count is the best pair, and no merge files a pair
    above it.

    Training ends with each word's final segmentation. Those fill the
    model's segmentation cache, up to its limit, so the training words are
    not segmented a second time in this process.
    """
    if min_char_freq < 1:
        raise ValueError(f"min_char_freq must be >= 1, got {min_char_freq}")
    words: list[str] = []
    freqs: list[int] = []
    for word, freq in word_counts.items():
        if word and freq >= 1:
            words.append(word)
            freqs.append(int(freq))
    if not words:
        raise EmptyCorpusError("training corpus has no words")
    if any(BOUNDARY_MARKER in word for word in words):
        raise ValueError(f"boundary marker {BOUNDARY_MARKER!r} occurs in "
                         f"the corpus; it is reserved")

    if min_char_freq == 1:  # every character is in the alphabet
        alphabet = frozenset("".join(words))
    else:
        char_freqs: Counter = Counter()
        for word, freq in zip(words, freqs):
            for char in word:
                char_freqs[char] += freq
        alphabet = frozenset(c for c, f in char_freqs.items()
                             if f >= min_char_freq)
    reserved = 2  # unknown + boundary marker
    if vocab_size <= len(alphabet) + reserved:
        raise ValueError(
            f"vocab_size {vocab_size} leaves no merge room: alphabet has "
            f"{len(alphabet)} symbols plus {reserved} reserved tokens")

    vocab: dict[str, int] = {UNK_TOKEN: UNK_ID, BOUNDARY_MARKER: 1}
    for char in sorted(alphabet):
        vocab[char] = len(vocab)
    names: list = [UNK_SENTINEL, *islice(vocab, 1, None)]  # id -> symbol
    symbol_id = {name: index for index, name in enumerate(names)}.__getitem__
    if min_char_freq == 1:
        word_syms = [[1, *map(symbol_id, word)] for word in words]
    else:
        word_syms = [list(map(symbol_id,
                              _word_symbols(word, alphabet,
                                            BOUNDARY_MARKER)))
                     for word in words]
    # above every id: ids outnumber the vocab by at most one, as products
    # are distinct and only one spelled UNK_TOKEN has no vocab entry
    width = vocab_size + 1

    pairs: dict[int, list[int]] = {}  # pair -> [count, *word indices]
    for index, syms in enumerate(word_syms):
        freq = freqs[index]
        for left, right in zip(syms, islice(syms, 1, None)):
            pair = left * width + right
            found = pairs.get(pair)
            if found is None:
                pairs[pair] = [freq, index]
            else:
                found[0] += freq
                found.append(index)
    for pair in [pair for pair in pairs if pair < width or not pair % width]:
        del pairs[pair]

    buckets: dict[int, list[int]] = {}
    levels: list[int] = []  # the bucket counts, negated: a heap

    def wait(pair: int, count: int) -> None:
        bucket = buckets.get(count)
        if bucket is None:
            buckets[count] = [pair]
            heappush(levels, -count)
        else:
            bucket.append(pair)

    def candidate(pair: int) -> tuple[str, int]:
        return names[pair // width] + names[pair % width], pair

    for pair, found in pairs.items():
        if found[0] >= 2:
            wait(pair, found[0])
    heap: list[tuple[str, int]] = []  # pairs counted top
    top = 0
    merges: list[tuple[str, str]] = []
    while len(vocab) < vocab_size:
        if not heap:
            if not levels:
                break
            top = -heappop(levels)
            for pair in set(buckets.pop(top)):
                found = pairs.get(pair)
                count = found[0] if found else 0
                if count == top:
                    heap.append(candidate(pair))
                elif count >= 2:
                    wait(pair, count)
            heapify(heap)
            continue
        product, pair = heappop(heap)
        found = pairs.get(pair)
        count = found[0] if found else 0
        if count != top:
            if count >= 2:
                wait(pair, count)
            continue
        left, right = divmod(pair, width)
        merges.append((names[left], names[right]))
        merged = len(names)  # a new symbol, by the lemma
        names.append(product)
        vocab.setdefault(product, len(vocab))

        grown = set()
        for index in set(islice(found, 1, None)):
            syms = word_syms[index]
            freq = freqs[index]
            n = len(syms)
            todo = syms.count(left)
            j = 0
            last = -2  # where the previous site's output stands
            while todo:
                j = syms.index(left, j)
                todo -= 1
                if j + 1 < n and syms[j + 1] == right:
                    if left == right:  # the right operand was a left one too
                        todo -= 1
                    if j:
                        before = right if j - 1 == last else syms[j - 1]
                        if before:  # UNK_ID never pairs
                            lost = before * width + left
                            counted = pairs[lost]
                            if counted[0] == freq:
                                del pairs[lost]
                            else:
                                counted[0] -= freq
                            new = syms[j - 1] * width + merged
                            counted = pairs.get(new)
                            if counted is None:
                                pairs[new] = [freq, index]
                            else:
                                counted[0] += freq
                                counted.append(index)
                            grown.add(new)
                    if j + 2 < n:
                        after = syms[j + 2]
                        if after and not (
                                after == left and j + 3 < n
                                and syms[j + 3] == right):
                            lost = right * width + after
                            counted = pairs[lost]
                            if counted[0] == freq:
                                del pairs[lost]
                            else:
                                counted[0] -= freq
                            new = merged * width + after
                            counted = pairs.get(new)
                            if counted is None:
                                pairs[new] = [freq, index]
                            else:
                                counted[0] += freq
                                counted.append(index)
                            grown.add(new)
                    syms[j] = merged
                    del syms[j + 1]
                    n -= 1
                    last = j
                j += 1
        del pairs[pair]  # every site of pair is merged
        for new in grown:  # none counts above top, by the lemma
            count = pairs[new][0]
            if count == top:
                heappush(heap, candidate(new))
            elif count >= 2:
                wait(new, count)
    del pairs, buckets, heap  # before the cache fills

    model = SubwordModel(
        alphabet=alphabet,
        merges=tuple(merges),
        vocab=vocab,
        vocab_size_target=vocab_size,
    )
    cache = model._segmentations
    symbol = names.__getitem__
    for word, syms in zip(islice(words, _CACHE_LIMIT), word_syms):
        cache[word] = _emitted(list(map(symbol, syms)), BOUNDARY_MARKER)
    return model


def train(corpus: Iterable[str], vocab_size: int,
          min_char_freq: int = 1) -> SubwordModel:
    """Train a model on an iterable of text lines."""
    return train_from_word_counts(word_counts(corpus), vocab_size,
                                  min_char_freq)


# --- Encoding ---------------------------------------------------------------


def _symbols(model: SubwordModel, text: str) -> Iterator:
    for word in text.split():
        yield from model.segment_word(word)


def encode(model: SubwordModel, text: str) -> list[int]:
    """Token ids for text; unknown runs map to the unknown id."""
    vocab = model.vocab
    return [UNK_ID if sym is UNK_SENTINEL else vocab[sym]
            for sym in _symbols(model, text)]


def encode_tokens(model: SubwordModel, text: str) -> list[str]:
    """Token strings for text; unknown runs map to the unknown token."""
    return [UNK_TOKEN if sym is UNK_SENTINEL else sym
            for sym in _symbols(model, text)]


def decode(model: SubwordModel, ids: Sequence[int]) -> str:
    """Invert encode for in-alphabet text: boundary markers become word
    separators and unknown ids become the replacement character."""
    table = model.id_to_token()
    marker = model.boundary_marker
    parts = []
    for token_id in ids:
        if not 0 <= token_id < len(table):
            raise ValueError(f"id {token_id} outside vocabulary of size "
                             f"{len(table)}")
        if token_id == UNK_ID:
            parts.append(UNK_DECODED)
            continue
        token = table[token_id]
        if token.startswith(marker):
            parts.append(" " + token[len(marker):])
        else:
            parts.append(token)
    text = "".join(parts)
    return text[1:] if text.startswith(" ") else text


def tally(model: SubwordModel, counts: Mapping[str, int],
          ) -> tuple[int, int, int, set[str]]:
    """Whitespace words, produced tokens, unknown tokens, and the distinct
    non-unknown symbols (markers kept) over a word table, such as
    `corpus.word_counts` gives for a corpus of text lines. Each distinct
    word is segmented once; its counts are weighted by occurrence."""
    cache = model._segmentations
    words = tokens = unk = 0
    produced: set = set()
    for word, count in counts.items():
        symbols = cache.get(word)
        if symbols is None:
            symbols = model.segment_word(word)
        words += count
        tokens += count * len(symbols)
        unk += count * symbols.count(UNK_SENTINEL)
        produced.update(symbols)
    produced.discard(UNK_SENTINEL)
    return words, tokens, unk, produced


def token_set(model: SubwordModel, counts: Mapping[str, int], lang: str,
              input_type: InputType) -> TokenSet:
    """Unique surface tokens (markers stripped, unknowns excluded) the model
    produces over a word table. Only the distinct words matter, so the
    counts do not change the set."""
    surface = {model.strip_marker(sym) for sym in tally(model, counts)[3]}
    return TokenSet(lang=lang, input_type=input_type,
                    tokens=frozenset(surface - {""}))


# --- Serialization ----------------------------------------------------------


def dumps_model(model: SubwordModel) -> str:
    """The model's canonical JSON text (`records.dumps`)."""
    return dumps(model.to_json_dict())


def loads_model(text: str) -> SubwordModel:
    return from_json(SubwordModel, json.loads(text))


def load_model(path: str | Path) -> SubwordModel:
    """Read a model file; an error names the path."""
    return load(SubwordModel, path)
