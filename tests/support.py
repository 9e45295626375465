"""Helpers shared by test modules: synthetic corpora, fixture models, the
artifacts of pipeline runs, a line-by-line rendering of their corpora, the
per-line corpus reader and digest that `corpus.Corpus` replaced, and the
heap trainer that the compact `tokenizer.train_from_word_counts`
replaced."""

import hashlib
import json
import random
from collections import Counter, defaultdict
from heapq import heapify, heappop, heappush
from itertools import islice
from pathlib import Path

from scriptshift import compose_hangul, pipeline, tokenizer
from scriptshift.corpus import Document, EmptyCorpusError, sample_to_budget
from scriptshift.records import open_text
from scriptshift.input_types import InputType
from scriptshift.tokenizer import (BOUNDARY_MARKER, UNK_SENTINEL, UNK_TOKEN,
                                   SubwordModel, TokenSet)
from scriptshift.translit import caesar_encipher, default_registry

CONSONANTS = "bcdfghjklmnpqrstvwxyz"
VOWELS = "aeiou"
PANGRAM = "the quick brown fox jumps over the lazy dog"


def latin_word(rng: random.Random) -> str:
    syllables = rng.randint(1, 4)
    return "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS)
                   for _ in range(syllables))


def latin_lines(rng: random.Random, total_words: int,
                vocabulary: int = 400, words_per_line: int = 12) -> list[str]:
    """Synthetic Latin corpus with heavy word reuse so merges have support.
    Includes a pangram so every ASCII letter is in the alphabet."""
    lexicon = [latin_word(rng) for _ in range(vocabulary)]
    lines = [PANGRAM, PANGRAM]
    produced = len(PANGRAM.split()) * 2
    while produced < total_words:
        count = min(words_per_line, total_words - produced)
        lines.append(" ".join(rng.choice(lexicon) for _ in range(count)))
        produced += count
    return lines


def hangul_word(rng: random.Random) -> str:
    return "".join(compose_hangul(rng.randrange(19), rng.randrange(21),
                                  rng.randrange(28))
                   for _ in range(rng.randint(1, 3)))


def hangul_lines(rng: random.Random, total_words: int,
                 vocabulary: int = 200, words_per_line: int = 10) -> list[str]:
    lexicon = [hangul_word(rng) for _ in range(vocabulary)]
    lines = []
    produced = 0
    while produced < total_words:
        count = min(words_per_line, total_words - produced)
        lines.append(" ".join(rng.choice(lexicon) for _ in range(count)))
        produced += count
    return lines


def make_token_set(lang: str, tokens,
                   input_type: InputType = InputType.ORTHO) -> TokenSet:
    return TokenSet(lang=lang, input_type=input_type,
                    tokens=frozenset(tokens))


def the_cat_model() -> SubwordModel:
    """Hand-built model where "the" is one token and "cat" splits in two."""
    alphabet = frozenset("aceht")
    merges = (("t", "h"), ("th", "e"), (BOUNDARY_MARKER, "the"),
              ("c", "a"), (BOUNDARY_MARKER, "ca"))
    vocab = {UNK_TOKEN: 0, BOUNDARY_MARKER: 1}
    for char in sorted(alphabet):
        vocab[char] = len(vocab)
    for left, right in merges:
        merged = left + right
        if merged not in vocab:
            vocab[merged] = len(vocab)
    return SubwordModel(alphabet=alphabet, merges=merges, vocab=vocab,
                        vocab_size_target=12)


def stored(artifacts_dir, kind: str, lang: str | None = None) -> list[Path]:
    """The artifacts of one kind ("report", "model" or "tokensets") under
    a run's artifacts dir, in the directories of every code version, only
    the token sets of one language when lang is given, sorted; their
    sha256 check files are left out."""
    pattern = f"*/{kind}/" + ("*" if lang is None else f"{lang}-*")
    return sorted(path for path in Path(artifacts_dir).glob(pattern)
                  if path.suffix != ".sha256")


def selected_texts(config, corpora) -> dict[str, list[str]]:
    """Each language's document texts as run_experiment selects them: the
    sampled documents of a seen language, or all of an unseen one."""
    texts = {}
    for lang in config.langs:
        docs = corpora[lang]
        if lang in config.seen_langs:
            docs = sample_to_budget(docs, config.budget, config.seed,
                                    config.input_type)[1]
        texts[lang] = [doc.text for doc in docs]
    return texts


def prepared_lines(config, corpora, registry=None) -> dict[str, list[str]]:
    """Each language's selected texts rendered in the input type one line
    at a time, as the reference for run_experiment's word tables: romanized
    or g2p line by line, then enciphered for Cipher. The seen languages go
    first and then the unseen ones, each in sorted order: the order
    run_experiment transliterates them in, so the first error raised is the
    one a run raises."""
    registry = registry or default_registry()
    texts = selected_texts(config, corpora)
    itype = config.input_type
    keys = pipeline._cipher_keys(config)
    lines = {}
    for lang in config.seen_langs + config.unseen_langs:
        rendered = texts[lang]
        if itype is InputType.IPA:
            rendered = [registry.g2p(lang, line) for line in rendered]
        elif itype in (InputType.ROM, InputType.CIPHER):
            rendered = [registry.romanize(lang, line) for line in rendered]
        if itype is InputType.CIPHER:
            rendered = [caesar_encipher(keys[lang], line)
                        for line in rendered]
        lines[lang] = rendered
    return lines


def read_documents_per_line(path, lang: str) -> list[Document]:
    """The reference reader: one Document per kept line, blank and
    whitespace-only lines skipped, ids from line numbers."""
    docs = []
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.rstrip("\n")
            if not text.strip():
                continue
            docs.append(Document(f"{lang}-{lineno:08d}", lang, text))
    return docs


def sample_sorted_docs(docs, budget: int, seed: int) -> list[Document]:
    """The reference selection: the documents sorted by doc_id, shuffled
    with the seed, taken until their words reach the budget."""
    ordered = sorted(docs, key=lambda doc: doc.doc_id)
    random.Random(seed).shuffle(ordered)
    selected, total = [], 0
    for doc in ordered:
        selected.append(doc)
        total += len(doc.text.split())
        if total >= budget:
            break
    return selected


def docs_digest(docs) -> str:
    """The reference digest: the JSON list of ids, then the texts joined
    by newlines."""
    digest = hashlib.sha256(
        json.dumps([doc.doc_id for doc in docs]).encode("ascii"))
    digest.update("\n".join([doc.text for doc in docs]).encode("utf-8"))
    return digest.hexdigest()


def train_heap(word_counts, vocab_size: int, min_char_freq: int = 1,
               marker: str = BOUNDARY_MARKER) -> SubwordModel:
    """The reference trainer that `tokenizer.train_from_word_counts`
    replaced: string symbols, tuple pairs, dead pairs kept at count 0, and
    every candidate in one heap keyed by (-count, concatenation, pair). A
    popped entry whose count has fallen is pushed back at its count if
    that is still at least 2. It primes the model's segmentation cache the
    same way."""
    if min_char_freq < 1:
        raise ValueError(f"min_char_freq must be >= 1, got {min_char_freq}")
    counts = {word: int(freq) for word, freq in word_counts.items()
              if word and freq >= 1}
    if not counts:
        raise EmptyCorpusError("training corpus has no words")
    if any(marker in word for word in counts):
        raise ValueError(f"boundary marker {marker!r} occurs in the "
                         f"corpus; it is reserved")

    if min_char_freq == 1:  # every character is in the alphabet
        alphabet = frozenset("".join(counts))
        word_syms = [[marker, *word] for word in counts]
    else:
        char_freqs: Counter = Counter()
        for word, freq in counts.items():
            for char in word:
                char_freqs[char] += freq
        alphabet = frozenset(c for c, f in char_freqs.items()
                             if f >= min_char_freq)
        word_syms = [tokenizer._word_symbols(word, alphabet, marker)
                     for word in counts]
    reserved = 2  # unknown + boundary marker
    if vocab_size <= len(alphabet) + reserved:
        raise ValueError(
            f"vocab_size {vocab_size} leaves no merge room: alphabet has "
            f"{len(alphabet)} symbols plus {reserved} reserved tokens")

    vocab: dict[str, int] = {UNK_TOKEN: 0, marker: 1}
    for char in sorted(alphabet):
        vocab[char] = len(vocab)

    freqs = list(counts.values())
    pair_words: defaultdict = defaultdict(list)
    for index, syms in enumerate(word_syms):
        for pair in zip(syms, syms[1:]):
            pair_words[pair].append(index)
    for pair in [pair for pair in pair_words if UNK_SENTINEL in pair]:
        del pair_words[pair]
    pair_counts: defaultdict = defaultdict(int, {
        pair: sum(map(freqs.__getitem__, found))
        for pair, found in pair_words.items()})

    heap = [(-count, left + right, (left, right))
            for (left, right), count in pair_counts.items() if count >= 2]
    heapify(heap)
    merges: list[tuple[str, str]] = []
    while len(vocab) < vocab_size and heap:
        neg_count, merged, pair = heappop(heap)
        count = pair_counts.get(pair, 0)
        if count != -neg_count:
            if count >= 2:
                heappush(heap, (-count, merged, pair))
            continue
        merges.append(pair)
        if merged not in vocab:
            vocab[merged] = len(vocab)

        left, right = pair
        grown = set()
        for index in set(pair_words.pop(pair)):
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
                        if before is not UNK_SENTINEL:
                            pair_counts[before, left] -= freq
                            new = (syms[j - 1], merged)
                            pair_counts[new] += freq
                            pair_words[new].append(index)
                            grown.add(new)
                    if j + 2 < n:
                        after = syms[j + 2]
                        if after is not UNK_SENTINEL and not (
                                after == left and j + 3 < n
                                and syms[j + 3] == right):
                            pair_counts[right, after] -= freq
                            new = (merged, after)
                            pair_counts[new] += freq
                            pair_words[new].append(index)
                            grown.add(new)
                    syms[j] = merged
                    del syms[j + 1]
                    n -= 1
                    last = j
                j += 1
        del pair_counts[pair]  # every site of pair is merged
        for new in grown:
            count = pair_counts[new]
            if count >= 2:
                heappush(heap, (-count, new[0] + new[1], new))

    model = SubwordModel(
        alphabet=alphabet,
        merges=tuple(merges),
        vocab=vocab,
        vocab_size_target=vocab_size,
        boundary_marker=marker,
    )
    cache = model._segmentations
    for word, syms in zip(islice(counts, tokenizer._CACHE_LIMIT), word_syms):
        cache[word] = tokenizer._emitted(syms, marker)
    return model
