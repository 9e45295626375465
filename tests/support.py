"""Helpers shared by test modules: synthetic corpora, fixture models, the
artifacts of pipeline runs, a line-by-line rendering of their corpora, and
the per-line corpus reader and digest that `corpus.Corpus` replaced."""

import hashlib
import json
import random
from pathlib import Path

from scriptshift import compose_hangul, pipeline
from scriptshift.corpus import Document, sample_to_budget
from scriptshift.records import open_text
from scriptshift.input_types import InputType
from scriptshift.tokenizer import BOUNDARY_MARKER, UNK_TOKEN, SubwordModel, TokenSet
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
    """The artifacts of one kind ("report", "model", "words" or
    "tokensets") under a run's artifacts dir, only those of one language
    when lang is given, sorted; their sha256 check files are left out."""
    pattern = "*" if lang is None else f"{lang}-*"
    return sorted(path for path in (Path(artifacts_dir) / kind).glob(pattern)
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
    or g2p line by line, then enciphered for Cipher. Languages go in sorted
    order, the order run_experiment transliterates them in, so the first
    error raised is the one a run raises."""
    registry = registry or default_registry()
    texts = selected_texts(config, corpora)
    itype = config.input_type
    keys = pipeline._cipher_keys(config)
    lines = {}
    for lang in sorted(config.langs):
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
