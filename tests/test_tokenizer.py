"""Subword tokenizer: training, encoding, round-trips, serialization.

The reference implementations here recount pair frequencies from scratch on
every step and replay merges naively, giving an independent check of the
incremental trainer and the model's cached segmentation.
"""

import dataclasses
import gc
import json
import operator
import random
import re
import sys
import tracemalloc
import weakref
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scriptshift import metrics, tokenizer as tok
from scriptshift.corpus import EmptyCorpusError, word_counts
from scriptshift.input_types import InputType
from support import hangul_lines, latin_lines, train_heap

MARKER = tok.BOUNDARY_MARKER


# --- independent reference implementation ------------------------------------

UNK = object()


def ref_symbols(word, alphabet):
    syms = [MARKER]
    for char in word:
        if char in alphabet:
            syms.append(char)
        elif syms[-1] is not UNK:
            syms.append(UNK)
    return syms


def ref_apply(syms, pair, merged):
    out = []
    i = 0
    while i < len(syms):
        if (i + 1 < len(syms) and syms[i] == pair[0]
                and syms[i + 1] == pair[1]):
            out.append(merged)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def ref_train(lines, vocab_size, min_char_freq=1):
    """Recount-everything trainer; returns (alphabet, merges, vocab)."""
    word_counts = Counter()
    for line in lines:
        word_counts.update(line.split())
    char_freqs = Counter()
    for word, freq in word_counts.items():
        for char in word:
            char_freqs[char] += freq
    alphabet = {c for c, f in char_freqs.items() if f >= min_char_freq}
    vocab = {tok.UNK_TOKEN: 0, MARKER: 1}
    for char in sorted(alphabet):
        vocab[char] = len(vocab)
    words = {w: ref_symbols(w, alphabet) for w in word_counts}
    merges = []
    while len(vocab) < vocab_size:
        counts = Counter()
        for word, syms in words.items():
            for left, right in zip(syms, syms[1:]):
                if left is not UNK and right is not UNK:
                    counts[(left, right)] += word_counts[word]
        candidates = [(c, p) for p, c in counts.items() if c >= 2]
        if not candidates:
            break
        best = min(candidates,
                   key=lambda cp: (-cp[0], cp[1][0] + cp[1][1], cp[1]))[1]
        merges.append(best)
        merged = best[0] + best[1]
        if merged not in vocab:
            vocab[merged] = len(vocab)
        words = {w: ref_apply(syms, best, merged)
                 for w, syms in words.items()}
    return frozenset(alphabet), tuple(merges), vocab


def ref_encode_word(model, word):
    syms = ref_symbols(word, model.alphabet)
    for pair in model.merges:
        syms = ref_apply(syms, pair, pair[0] + pair[1])
    if len(syms) > 1 and syms[0] == MARKER and syms[1] is UNK:
        syms = syms[1:]
    return [tok.UNK_ID if s is UNK else model.vocab[s] for s in syms]


def ref_encode(model, text):
    ids = []
    for word in text.split():
        ids.extend(ref_encode_word(model, word))
    return ids


def random_corpus(rng, alphabet="abcd", lines=6, words_per_line=5):
    out = []
    for _ in range(lines):
        words = ["".join(rng.choice(alphabet)
                         for _ in range(rng.randint(1, 6)))
                 for _ in range(rng.randint(1, words_per_line))]
        out.append(" ".join(words))
    return out


def hand_model(alphabet, merges):
    """A model with the given merges in the given order; the id table holds
    the alphabet and then each merge product the first time it appears.
    A merge list out of training order is refused."""
    vocab = {tok.UNK_TOKEN: 0, MARKER: 1}
    for char in sorted(alphabet):
        vocab[char] = len(vocab)
    for left, right in merges:
        vocab.setdefault(left + right, len(vocab))
    return tok.SubwordModel(alphabet=frozenset(alphabet),
                            merges=tuple(merges), vocab=vocab,
                            vocab_size_target=len(vocab))


RARE_CHARS = "".join(chr(0x100 + i) for i in range(200))


def repetitive_corpus(rng, alphabet, rare_rate=0.0, lines=6,
                      words_per_line=5):
    """Words made by repeating a short unit, which gives many overlapping
    merge sites; with rare_rate, characters that occur once are inserted
    so that min_char_freq 2 leaves unknown runs inside words."""
    rare = iter(RARE_CHARS)
    out = []
    for _ in range(lines):
        words = []
        for _ in range(rng.randint(1, words_per_line)):
            unit = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(1, 3)))
            chars = list(unit * rng.randint(2, 8))
            chars = [char + next(rare) if rng.random() < rare_rate else char
                     for char in chars]
            words.append("".join(chars))
        out.append(" ".join(words))
    return out


@st.composite
def merge_lists(draw):
    """Merge lists over "ab" in training order: each operand is the marker,
    a character or an earlier product, and each product is new."""
    symbols = [MARKER, "a", "b"]
    merges = []
    for _ in range(draw(st.integers(1, 8))):
        pair = (draw(st.sampled_from(symbols)),
                draw(st.sampled_from(symbols[1:])))
        if pair[0] + pair[1] not in symbols:
            merges.append(pair)
            symbols.append(pair[0] + pair[1])
    return merges


# --- training -----------------------------------------------------------------


class TestTraining:
    def test_single_repeated_pair(self):
        model = tok.train(["aaaa"], vocab_size=4)
        assert model.merges == (("a", "a"),)
        assert model.vocab == {tok.UNK_TOKEN: 0, MARKER: 1, "a": 2, "aa": 3}
        assert model.alphabet == frozenset("a")

    def test_tie_break_prefers_smaller_concatenation(self):
        # (MARKER, a) and (a, b) both occur three times; "ab" sorts before
        # the marker pair's concatenation, so ("a", "b") merges first.
        model = tok.train(["ab ab", "ab"], vocab_size=5)
        assert model.merges[0] == ("a", "b")

    def test_id_assignment_order(self):
        model = tok.train(["ba ba"], vocab_size=6)
        assert model.vocab == {tok.UNK_TOKEN: 0, MARKER: 1, "a": 2, "b": 3,
                               "ba": 4, MARKER + "ba": 5}
        assert model.merges == (("b", "a"), (MARKER, "ba"))

    def test_stops_when_no_pair_repeats(self):
        model = tok.train(["ab cd"], vocab_size=100)
        assert model.merges == ()
        assert model.vocab_size == 6  # unk, marker, a, b, c, d
        assert model.vocab_size_target == 100

    def test_min_char_freq_prunes_alphabet(self):
        model = tok.train(["aa aa b"], vocab_size=5, min_char_freq=2)
        assert model.alphabet == frozenset("a")
        assert tok.encode(model, "b") == [tok.UNK_ID]

    def test_vocab_size_must_leave_merge_room(self):
        with pytest.raises(ValueError, match="vocab_size"):
            tok.train(["ab"], vocab_size=4)
        model = tok.train(["ab"], vocab_size=5)
        assert model.merges == ()

    def test_empty_corpus_rejected(self):
        for corpus in ([], [""], ["   "]):
            with pytest.raises(EmptyCorpusError):
                tok.train(corpus, vocab_size=10)

    def test_marker_in_corpus_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            tok.train([f"a{MARKER}b"], vocab_size=10)

    def test_line_order_does_not_matter(self):
        first = tok.train(["ab ab cd", "cd ef"], vocab_size=12)
        second = tok.train(["cd ef", "ab ab cd"], vocab_size=12)
        assert tok.dumps_model(first) == tok.dumps_model(second)

    def test_matches_reference_trainer_on_random_corpora(self):
        for seed in range(60):
            rng = random.Random(seed)
            corpus = random_corpus(rng, alphabet="abc")
            alphabet, _, _ = ref_train(corpus, 10)
            vocab_size = len(alphabet) + 3 + rng.randint(0, 8)
            model = tok.train(corpus, vocab_size)
            ref_alpha, ref_merges, ref_vocab = ref_train(corpus, vocab_size)
            assert model.alphabet == ref_alpha, f"seed {seed}"
            assert model.merges == ref_merges, f"seed {seed}"
            assert model.vocab == ref_vocab, f"seed {seed}"

    def test_matches_reference_with_min_char_freq(self):
        for seed in range(20):
            rng = random.Random(1000 + seed)
            corpus = random_corpus(rng, alphabet="abcxyz")
            model = tok.train(corpus, vocab_size=30, min_char_freq=2)
            ref_alpha, ref_merges, ref_vocab = ref_train(corpus, 30, 2)
            assert model.alphabet == ref_alpha
            assert model.merges == ref_merges
            assert model.vocab == ref_vocab

    def test_a_merge_scans_each_word_once(self):
        # The word holds ("a", "a"), the first merge, at 40 sites and is
        # listed for it once per site, yet each merge scans it once: one
        # list.count per word visit.
        scans = 0

        def profile(frame, event, arg):
            nonlocal scans
            if (event == "c_call" and getattr(arg, "__name__", "") == "count"
                    and isinstance(getattr(arg, "__self__", None), list)):
                scans += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            model = tok.train_from_word_counts({"aab" * 40: 1}, 12)
        finally:
            sys.setprofile(previous)
        assert model.merges[:2] == (("a", "a"), ("aa", "b"))
        assert scans == len(model.merges)

    @pytest.mark.parametrize("alphabet,rare_rate,min_char_freq", [
        ("ab", 0.0, 1),
        ("a", 0.0, 1),
        ("abc", 0.0, 1),
        ("ab", 0.15, 2),
        ("abc", 0.15, 2),
    ])
    def test_matches_reference_on_overlapping_sites(self, alphabet,
                                                    rare_rate,
                                                    min_char_freq):
        for seed in range(25):
            rng = random.Random(3000 + seed)
            corpus = repetitive_corpus(rng, alphabet, rare_rate)
            vocab_size = len(alphabet) + 3 + rng.randint(0, 30)
            model = tok.train(corpus, vocab_size, min_char_freq)
            ref_alpha, ref_merges, ref_vocab = ref_train(
                corpus, vocab_size, min_char_freq)
            assert model.alphabet == ref_alpha, f"seed {seed}"
            assert model.merges == ref_merges, f"seed {seed}"
            assert model.vocab == ref_vocab, f"seed {seed}"
            if rare_rate:
                assert any(tok.UNK_ID in tok.encode(model, line)
                           for line in corpus), f"seed {seed}"


# --- encoding -----------------------------------------------------------------


@pytest.fixture(scope="module")
def abc_model():
    return tok.train(["abc abc"], vocab_size=8)


class TestEncoding:
    def test_merges_replay_in_training_order(self):
        model = tok.train(["aaaa"], vocab_size=4)
        assert tok.encode_tokens(model, "aaaa") == [MARKER, "aa", "aa"]
        assert tok.encode(model, "aaaa") == [1, 3, 3]
        # the non-marker content is exactly the merged pairs
        content = [t for t in tok.encode_tokens(model, "aaaa")
                   if t != MARKER]
        assert content == ["aa", "aa"]

    def test_whole_word_token(self, abc_model):
        assert tok.encode_tokens(abc_model, "abc") == [MARKER + "abc"]

    def test_unknown_run_collapses_to_single_unk(self, abc_model):
        assert tok.encode_tokens(abc_model, "안녕") == [tok.UNK_TOKEN]
        assert tok.encode(abc_model, "안녕") == [tok.UNK_ID]

    def test_unknown_runs_split_by_known_chars(self, abc_model):
        assert tok.encode_tokens(abc_model, "안a녕") == \
            [tok.UNK_TOKEN, "a", tok.UNK_TOKEN]

    def test_marker_kept_before_known_prefix(self, abc_model):
        assert tok.encode_tokens(abc_model, "a안녕b") == \
            [MARKER, "a", tok.UNK_TOKEN, "b"]

    def test_ids_match_vocab(self, abc_model):
        ids = tok.encode(abc_model, "abc 안")
        tokens = tok.encode_tokens(abc_model, "abc 안")
        table = abc_model.id_to_token()
        for token_id, token in zip(ids, tokens):
            if token_id == tok.UNK_ID:
                assert token == tok.UNK_TOKEN
            else:
                assert table[token_id] == token

    def test_empty_text_encodes_empty(self, abc_model):
        assert tok.encode(abc_model, "") == []
        assert tok.encode(abc_model, "   ") == []

    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=7),
                    min_size=1, max_size=6))
    @settings(max_examples=80)
    def test_in_alphabet_text_never_produces_unk(self, words):
        model = tok.train(["abc abc ab bc"], vocab_size=9)
        text = " ".join(words)
        assert tok.UNK_ID not in tok.encode(model, text)

    def test_matches_reference_encoder_on_random_input(self):
        for seed in range(40):
            rng = random.Random(2000 + seed)
            corpus = random_corpus(rng, alphabet="abcd")
            model = tok.train(corpus, vocab_size=12 + rng.randint(0, 6))
            sample = " ".join(random_corpus(rng, alphabet="abcde", lines=2))
            assert tok.encode(model, sample) == ref_encode(model, sample), \
                f"seed {seed}"

    @pytest.mark.parametrize("merges,words", [
        # TestTrainingOrder's refused lists, put in training order
        ([("a", "b"), ("ab", "c")], ["abc", "abcabc", "cab"]),
        ([("x", "a"), ("b", "c"), ("a", "bc"), ("abc", "d")],
         ["abcd", "xabcd", "abcdabcd", "bcd"]),
        ([("a", "b")], ["ab", "abab", "aab"]),
        # long runs
        ([("a", "a"), ("aa", "aa"), (MARKER, "aaaa"), ("aa", "a")],
         ["a", "aa", "aaa", "aaaaaaa", "aaaaaaaaaaa"]),
        ([("a", "b"), ("b", "a"), ("ab", "ab"), (MARKER, "abab"),
          ("ba", "ba"), ("abab", "a")],
         ["abababa", "bababab", "ababababab", "aba"]),
        # unknown characters between known ones
        ([(MARKER, "a"), ("a", "b"), ("b", "a")],
         ["a안b", "안ab", "ab안", "ba안ab안", "안", "a안안b"]),
    ])
    def test_hand_built_models_match_replay(self, merges, words):
        alphabet = {c for pair in merges for part in pair for c in part
                    if c != MARKER} | set("ab")
        model = hand_model(alphabet, merges)
        for word in words:
            assert tok.encode(model, word) == ref_encode_word(model, word), \
                word

    @given(merge_lists(), st.lists(st.text("ab안", min_size=1, max_size=12),
                                   min_size=1, max_size=6))
    # odd and even runs of one character: both operands equal
    @example([("a", "a"), ("aa", "a")], ["aaaaa", "aaaaaa", "aaa"])
    # adjacent sites
    @example([("a", "b"), ("b", "a"), ("ab", "ab")],
             ["abababa", "bababab", "aabb"])
    # unknown runs right beside merge sites
    @example([("a", "a"), (MARKER, "aa"), ("aa", "b")],
             ["안aa안", "aa안aab", "b안안aa"])
    @settings(max_examples=150, deadline=None)
    def test_drawn_hand_built_models_match_replay(self, merges, words):
        model = hand_model("ab", merges)
        for word in words:
            assert tok.encode(model, word) == ref_encode_word(model, word), \
                word

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_trained_models_match_replay_on_unseen_words(self, data):
        alphabet = data.draw(st.text(alphabet="abcdef", min_size=1,
                                     max_size=6), label="alphabet")
        word = st.text(alphabet=alphabet, min_size=1, max_size=12)
        corpus = data.draw(st.lists(word, min_size=1, max_size=30),
                           label="corpus")
        vocab_size = data.draw(st.integers(9, 60), label="vocab_size")
        min_char_freq = data.draw(st.integers(1, 2), label="min_char_freq")
        model = tok.train([" ".join(corpus)], vocab_size, min_char_freq)
        unseen = data.draw(st.lists(
            st.text(alphabet=alphabet + "g안", min_size=1, max_size=16),
            min_size=1, max_size=10), label="unseen")
        for word in unseen:
            assert tok.encode(model, word) == ref_encode_word(model, word)

    def test_encoder_cache_consistent(self, abc_model):
        cold = tok.loads_model(tok.dumps_model(abc_model))
        fresh = tok.encode(cold, "abc abc 안")
        cached = tok.encode(abc_model, "abc abc 안")
        again = tok.encode(abc_model, "abc abc 안")
        assert fresh == cached == again


class TestTrainingOrder:
    """A model's merges are in training order and its id table follows
    from them; a hand-made model that breaks either is refused."""

    @pytest.mark.parametrize("merges,named", [
        # an operand that only a later merge makes
        ([("ab", "c"), ("a", "b")], ("ab", "c")),
        ([("x", "a"), ("b", "c"), ("abc", "d"), ("a", "bc"), ("abc", "d")],
         ("abc", "d")),
        ([("ab", "b"), ("a", "b"), ("b", "a"), ("ab", "b")], ("ab", "b")),
        # a pair listed twice
        ([("a", "b"), ("a", "b")], ("a", "b")),
        # one product made by two pairs
        ([("a", "b"), ("b", "c"), ("ab", "c"), ("a", "bc")], ("a", "bc")),
    ])
    def test_out_of_order_merges_rejected(self, merges, named):
        with pytest.raises(tok.ModelFormatError,
                           match=re.escape(f"merge {named!r} is out of "
                                           f"training order")):
            hand_model("abcdx", merges)

    @pytest.mark.parametrize("change,message", [
        # product ids swapped
        ({"ab": 5, "ba": 4},
         "merge ('a', 'b') product 'ab' must have id 4, got 5"),
        # alphabet ids swapped
        ({"a": 3, "b": 2}, "'a' must have id 2, got 3"),
        # a token that no merge makes
        ({"bb": 6}, "vocab holds tokens that no merge makes: ['bb']"),
    ])
    def test_id_table_must_follow_from_the_merges(self, change, message):
        model = hand_model("ab", [("a", "b"), ("b", "a")])
        with pytest.raises(tok.ModelFormatError, match=re.escape(message)):
            dataclasses.replace(model, vocab={**model.vocab, **change})

    @pytest.mark.parametrize("alphabet,marker", [
        ({"a", "bc"}, MARKER),  # not a character
        ({"a", MARKER}, MARKER),
        ({"a"}, tok.UNK_TOKEN),
    ])
    def test_alphabet_and_marker_must_be_distinct_characters(self, alphabet,
                                                             marker):
        vocab = {tok.UNK_TOKEN: 0, marker: 1}
        for char in sorted(alphabet):
            vocab.setdefault(char, len(vocab))
        with pytest.raises(tok.ModelFormatError):
            tok.SubwordModel(alphabet=frozenset(alphabet), merges=(),
                             vocab=vocab, vocab_size_target=5,
                             boundary_marker=marker)


class TestDecoding:
    @given(st.lists(st.text(alphabet="abcd", min_size=1, max_size=7),
                    min_size=1, max_size=6))
    @settings(max_examples=80)
    def test_round_trip_for_in_alphabet_text(self, words):
        model = tok.train(["abcd dcba abc bcd ab cd"], vocab_size=12)
        text = " ".join(words)
        assert tok.decode(model, tok.encode(model, text)) == text

    def test_unknown_id_decodes_to_replacement(self, abc_model):
        assert tok.decode(abc_model, [tok.UNK_ID]) == tok.UNK_DECODED

    def test_out_of_range_id_rejected(self, abc_model):
        with pytest.raises(ValueError, match="outside"):
            tok.decode(abc_model, [999])
        with pytest.raises(ValueError, match="outside"):
            tok.decode(abc_model, [-1])

    def test_empty_ids_decode_to_empty(self, abc_model):
        assert tok.decode(abc_model, []) == ""


class TestTokenSet:
    def test_markers_stripped_and_unk_excluded(self, abc_model):
        ts = tok.token_set(abc_model, word_counts(["abc a안"]), "eng",
                           InputType.ORTHO)
        assert ts.tokens == frozenset({"abc", "a"})
        assert ts.lang == "eng"
        assert ts.input_type is InputType.ORTHO

    def test_set_semantics(self, abc_model):
        once = tok.token_set(abc_model, word_counts(["abc"]), "eng",
                             InputType.ORTHO)
        many = tok.token_set(abc_model, word_counts(["abc abc", "abc"]),
                             "eng", InputType.ORTHO)
        assert once.tokens == many.tokens

    def test_empty_corpus_gives_empty_set(self, abc_model):
        ts = tok.token_set(abc_model, word_counts([]), "eng",
                           InputType.ORTHO)
        assert ts.tokens == frozenset()

    def test_matches_stripped_encode_tokens(self):
        for seed in range(20):
            rng = random.Random(4000 + seed)
            model = tok.train(random_corpus(rng, alphabet="abcd"),
                              vocab_size=10 + rng.randint(0, 10))
            lines = random_corpus(rng, alphabet="abcde안", lines=4)
            lines += lines[:2] + [""]
            cold = tok.loads_model(tok.dumps_model(model))
            expected = set()
            for line in lines:
                for token in tok.encode_tokens(cold, line):
                    stripped = model.strip_marker(token)
                    if token != tok.UNK_TOKEN and stripped:
                        expected.add(stripped)
            ts = tok.token_set(model, word_counts(lines), "eng",
                               InputType.ORTHO)
            assert ts.tokens == expected, f"seed {seed}"

    @given(st.lists(st.one_of(
        st.lists(st.text(alphabet="abcde안", min_size=1, max_size=5),
                 max_size=6).map(" ".join),
        st.sampled_from(["", "   ", "\t\u3000"])), max_size=8))
    @settings(max_examples=100)
    def test_table_keys_give_the_lines_token_set(self, lines):
        model = tok.train(["abcd abc ab dab bcd", "cab abcd"], vocab_size=14)
        cold = tok.loads_model(tok.dumps_model(model))
        expected = set()
        for line in lines:
            for token in tok.encode_tokens(cold, line):
                stripped = model.strip_marker(token)
                if token != tok.UNK_TOKEN and stripped:
                    expected.add(stripped)
        from_lines = tok.token_set(model, word_counts(lines), "eng",
                                   InputType.ORTHO)
        from_keys = tok.token_set(model,
                                  word_counts(word_counts(lines).keys()),
                                  "eng", InputType.ORTHO)
        assert from_keys == from_lines
        assert from_keys.tokens == expected

    def test_by_length_partitions_tokens(self):
        ts = tok.TokenSet("eng", InputType.ORTHO,
                          frozenset({"a", "b", "ab", "abc"}))
        buckets = ts.by_length()
        assert buckets == {1: frozenset({"a", "b"}), 2: frozenset({"ab"}),
                           3: frozenset({"abc"})}
        assert sum(len(bucket) for bucket in buckets.values()) == \
            len(ts.tokens)

    def test_json_round_trip(self, abc_model):
        ts = tok.token_set(abc_model, word_counts(["abc ab"]), "eng",
                           InputType.ROM)
        assert tok.TokenSet.from_json_dict(ts.to_json_dict()) == ts


@st.composite
def training_tables(draw):
    """Word tables to train on: words over a one- to three-letter alphabet,
    often a short unit repeated so that merge sites overlap, and words
    holding, or made only of, rarer characters that a min_char_freq of 2
    or 3 prunes into unknown runs."""
    alphabet = draw(st.sampled_from(["a", "ab", "abc"]))
    plain = st.text(alphabet, min_size=1, max_size=8)
    repeated = st.builds(operator.mul, st.text(alphabet, min_size=1,
                                               max_size=3),
                         st.integers(2, 6))
    rare = st.text("xy안", min_size=1, max_size=3)
    word = st.one_of(plain, repeated, rare,
                     st.builds(operator.add, plain, rare),
                     st.builds(operator.add, rare, plain))
    return draw(st.dictionaries(word, st.integers(1, 4), min_size=1,
                                max_size=20))


def train_with_room(table, min_char_freq, extra,
                    trainer=tok.train_from_word_counts):
    """Train on table with vocab room for `extra` merges past the
    alphabet; a small extra stops training before pairs run out."""
    char_freqs = Counter()
    for word, count in table.items():
        for char in word:
            char_freqs[char] += count
    alphabet = [c for c, f in char_freqs.items() if f >= min_char_freq]
    return trainer(table, len(alphabet) + 3 + extra, min_char_freq)


@st.composite
def weighted_tables(draw):
    """Word tables with counts 1-50 over a one- to three-letter alphabet.
    Many words are a short unit repeated, so ties and overlapping sites
    (aaaa, abab) are common; a few words hold a character that occurs
    once, which a min_char_freq of 2 prunes into an unknown run."""
    alphabet = draw(st.sampled_from(["a", "ab", "abc"]))
    plain = st.text(alphabet, min_size=1, max_size=8)
    repeated = st.builds(operator.mul, st.text(alphabet, min_size=1,
                                               max_size=3),
                         st.integers(2, 5))
    table = draw(st.dictionaries(st.one_of(plain, repeated),
                                 st.integers(1, 50), min_size=1,
                                 max_size=12))
    holders = draw(st.lists(st.tuples(plain, st.integers(0, 8)),
                            max_size=3))
    for rare, (word, cut) in zip(RARE_CHARS, holders):
        table[word[:cut] + rare + word[cut:]] = 1
    return table


class TestTrainingMatchesReference:
    @given(weighted_tables(), st.sampled_from([1, 2]), st.integers(0, 40))
    # overlapping sites
    @example({"aaaa": 7, "abab": 12, "aaa": 3, "ab": 1}, 1, 20)
    # popped counts that have fallen are filed again
    @example({"abc": 9, "ab": 6, "bc": 6, "abcbc": 2, "aabc": 3}, 1, 20)
    # characters that occur once, pruned into unknown runs
    @example({"abab": 20, "a\u0100b": 1, "\u0101": 1, "ba\u0102": 1}, 2, 20)
    # training stopped by the vocab size
    @example({"abcabc": 30, "bcab": 20, "cab": 20}, 1, 0)
    # odd and even runs of one character: both operands equal
    @example({"aaaaa": 3, "aaaaaa": 2, "aaa": 1}, 1, 20)
    # adjacent sites: a site's output stands where the next site starts
    @example({"abababa": 4, "bababab": 3, "aab": 2}, 1, 20)
    # unknown runs right beside merge sites
    @example({"aa": 6, "a\u0100a": 1, "\u0101aa\u0102": 1,
              "aa\u0103aa": 1, "ab": 2}, 2, 20)
    @settings(deadline=None)
    def test_weighted_tables(self, table, min_char_freq, extra):
        model = train_with_room(table, min_char_freq, extra)
        lines = [" ".join([word] * count) for word, count in table.items()]
        assert (model.alphabet, model.merges, model.vocab) == ref_train(
            lines, model.vocab_size_target, min_char_freq)
        cold = tok.loads_model(tok.dumps_model(model))
        for word in table:
            assert model._segmentations[word] == cold.segment_word(word), \
                word


class TestTrainingMatchesHeapTrainer:
    """The trainer against the heap trainer it replaced, kept as
    `support.train_heap`: the same model bytes and the same primed
    segmentation cache, on weighted tables, on unknown runs under a
    min_char_freq of 2 or 3, and from stops after a few merges to tables
    whose pairs all run out."""

    @given(st.one_of(weighted_tables(), training_tables()),
           st.integers(1, 3), st.integers(0, 60))
    # no pair occurs twice: training stops before a merge
    @example({"ab": 1, "cd": 1, "e": 1}, 1, 10)
    # words made only of pruned characters
    @example({"abab": 3, "a안b": 1, "안": 1, "xy": 1, "y안ab": 1}, 2, 60)
    @settings(deadline=None)
    def test_same_model_bytes_and_primed_cache(self, table, min_char_freq,
                                               extra):
        model = train_with_room(table, min_char_freq, extra)
        heap = train_with_room(table, min_char_freq, extra, train_heap)
        assert tok.dumps_model(model) == tok.dumps_model(heap)
        assert model._segmentations == heap._segmentations

    def test_a_product_spelled_like_the_unknown_token(self):
        model = tok.train_from_word_counts({"<unk>": 5, "<unk>s": 3}, 30)
        assert "<unk>" in [left + right for left, right in model.merges]
        assert model.vocab[tok.UNK_TOKEN] == tok.UNK_ID
        assert model._segmentations["<unk>"] == (MARKER + "<unk>",)
        assert tok.dumps_model(model) == tok.dumps_model(
            train_heap({"<unk>": 5, "<unk>s": 3}, 30))


class TestMergeProducts:
    """The invariant `train_from_word_counts` rests on: no product is made
    twice, and none is the marker or an alphabet symbol, so every merge
    makes a new symbol."""

    @given(st.one_of(weighted_tables(), training_tables()),
           st.integers(1, 3), st.integers(0, 60))
    @settings(deadline=None)
    def test_every_product_is_a_new_symbol(self, table, min_char_freq,
                                           extra):
        model = train_with_room(table, min_char_freq, extra)
        products = [left + right for left, right in model.merges]
        assert len(set(products)) == len(products)
        assert not set(products) & (model.alphabet | {MARKER})

    @given(st.one_of(weighted_tables(), training_tables()),
           st.integers(1, 3), st.integers(0, 60))
    # training stopped by the vocab size
    @example({"abcabc": 30, "bcab": 20, "cab": 20}, 1, 0)
    # no pair occurs twice: training stops before a merge
    @example({"ab": 1, "cd": 1, "e": 1}, 1, 10)
    # unknown runs, and words made only of pruned characters
    @example({"abab": 3, "a안b": 1, "안": 1, "xy": 1, "y안ab": 1}, 2, 60)
    @example({"aba": 2, "x": 2, "xab": 2, "안y": 1}, 3, 30)
    @settings(deadline=None)
    def test_trained_models_pass_the_model_check(self, table, min_char_freq,
                                                 extra):
        # building the model ran the check; reading it back runs it again
        model = train_with_room(table, min_char_freq, extra)
        text = tok.dumps_model(model)
        loaded = tok.loads_model(text)
        assert (loaded.alphabet, loaded.merges, loaded.vocab) == \
            (model.alphabet, model.merges, model.vocab)
        assert tok.dumps_model(loaded) == text


class TestPrimedEncoder:
    @given(training_tables(), st.integers(1, 3), st.integers(0, 30))
    # overlapping merge sites
    @example({"aaaaaaa": 2, "aaa": 1, "ababab": 3, "aab": 2}, 1, 30)
    # unknown runs inside words, and words made only of pruned characters
    @example({"abab": 3, "a안b": 1, "안": 1, "xy": 1, "y안ab": 1}, 2, 30)
    @example({"aba": 2, "x": 2, "xab": 2, "안y": 1}, 3, 30)
    # training stopped by the vocab size
    @example({"abcabc": 3, "bcab": 2, "cab": 2}, 1, 0)
    # odd and even runs of one character: both operands equal
    @example({"aaaaa": 2, "aaaaaa": 1, "aa": 1}, 1, 30)
    # adjacent sites
    @example({"abababa": 2, "bababab": 2, "aab": 1}, 1, 30)
    # unknown runs right beside merge sites
    @example({"aa": 3, "xaay": 1, "aa안aa": 1}, 2, 30)
    @settings(max_examples=200, deadline=None)
    def test_training_words_match_replay_and_a_cold_encoder(
            self, table, min_char_freq, extra):
        model = train_with_room(table, min_char_freq, extra)
        assert model._segmentations.keys() == table.keys()
        cold = tok.loads_model(tok.dumps_model(model))
        for word in table:
            symbols = model.segment_word(word)
            assert symbols == cold.segment_word(word), word
            ids = [tok.UNK_ID if sym is tok.UNK_SENTINEL
                   else model.vocab[sym] for sym in symbols]
            assert ids == ref_encode_word(model, word), word

    def test_cache_limit_bounds_priming(self, monkeypatch):
        rng = random.Random(5)
        corpus = random_corpus(rng, alphabet="abcd", lines=12)
        table = word_counts(corpus)
        limit = len(table) // 2
        monkeypatch.setattr(tok, "_CACHE_LIMIT", limit)
        model = tok.train_from_word_counts(table, vocab_size=16)
        assert 0 < len(model._segmentations) <= limit
        measured = word_counts(corpus + random_corpus(rng, "abcde안", 4))

        def measure(model):
            return (tok.token_set(model, measured, "eng", InputType.ORTHO),
                    metrics.quality_report(model, measured, "eng",
                                           InputType.ORTHO))

        cold = tok.loads_model(tok.dumps_model(model))
        assert not cold._segmentations
        assert measure(model) == measure(cold)

    def test_tally_segments_only_cache_misses(self, monkeypatch):
        table = word_counts(random_corpus(random.Random(7), "abcd",
                                          lines=12))
        model = tok.train_from_word_counts(table, vocab_size=16)
        calls = Counter()
        segment_word = tok.SubwordModel.segment_word

        def counted(self, word):
            calls[word] += 1
            return segment_word(self, word)

        monkeypatch.setattr(tok.SubwordModel, "segment_word", counted)
        trained = tok.tally(model, table)
        assert not calls
        loaded = tok.loads_model(tok.dumps_model(model))
        assert tok.tally(loaded, table) == trained
        assert calls == Counter(table.keys())


class TestModelLifetime:
    def test_trained_model_is_freed(self):
        model = tok.train(["abc abc ab"], 8)
        assert model._segmentations
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None

    def test_trained_model_is_freed_without_a_collection(self):
        # the segmentation cache holds no reference to the model, so no
        # cycle keeps a dropped model and its cache alive
        gc.disable()
        try:
            model = tok.train(["abc abc ab"], 8)
            assert model._segmentations
            ref = weakref.ref(model)
            del model
            assert ref() is None
        finally:
            gc.enable()

    def test_training_in_a_loop_keeps_memory_flat(self):
        table = word_counts(random_corpus(random.Random(11), "abcdef",
                                          lines=60, words_per_line=8))
        peaks = [0] * 20
        tracemalloc.start()
        try:
            for index in range(len(peaks)):
                tracemalloc.reset_peak()
                model = tok.train_from_word_counts(table, 60)
                tok.token_set(model, table, "eng", InputType.ORTHO)
                del model
                gc.collect()
                peaks[index] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A kept model with its cache would add tens of kilobytes a round.
        assert peaks[-1] <= peaks[1] * 1.05, peaks


class TestTrainingMemory:
    def test_working_state_per_word_type(self):
        # 2,913 word types over 1,156 characters; the heap trainer's state
        # peaked at about 1,200 bytes a type here, the compact one's with a
        # count table beside its word lists at 613, and the one-table
        # trainer's at 465.
        rng = random.Random(4)
        table = word_counts(latin_lines(rng, 30_000, vocabulary=3000)
                            + hangul_lines(rng, 6_000, vocabulary=600))
        vocab_size = len(set("".join(table))) + 2 + 1000
        gc.collect()
        tracemalloc.start()
        try:
            model = tok.train_from_word_counts(table, vocab_size)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(model.merges) == 1000
        # the model and its primed cache are kept; the rest was training's
        assert (peak - kept) / len(table) <= 510, (peak, kept, len(table))


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path, abc_model):
        path = tmp_path / "model.json"
        path.write_text(tok.dumps_model(abc_model), encoding="utf-8")
        loaded = tok.load_model(path)
        assert tok.dumps_model(loaded) == tok.dumps_model(abc_model)
        assert loaded.merges == abc_model.merges
        assert loaded.vocab == abc_model.vocab
        assert loaded.alphabet == abc_model.alphabet

    def test_serialization_is_byte_stable(self, abc_model):
        assert tok.dumps_model(abc_model) == tok.dumps_model(abc_model)

    def test_loaded_model_encodes_identically(self, tmp_path, abc_model):
        path = tmp_path / "model.json"
        path.write_text(tok.dumps_model(abc_model), encoding="utf-8")
        loaded = tok.load_model(path)
        for text in ("abc", "ab ab", "안녕 abc"):
            assert tok.encode(loaded, text) == tok.encode(abc_model, text)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(tok.ModelFormatError):
            tok.load_model(path)

    def test_missing_field_rejected(self):
        with pytest.raises(tok.ModelFormatError):
            tok.loads_model('{"alphabet": ["a"]}')

    def test_unknown_field_rejected(self, abc_model):
        # an extra key used to be read as if it were absent
        payload = json.loads(tok.dumps_model(abc_model))
        payload["merge"] = []
        with pytest.raises(tok.ModelFormatError,
                           match="^malformed SubwordModel: unknown fields "
                                 "'merge'$"):
            tok.loads_model(json.dumps(payload))

    def test_unk_must_have_id_zero(self):
        payload = {"alphabet": ["a"], "merges": [],
                   "vocab": {"<unk>": 1, MARKER: 0, "a": 2},
                   "vocab_size_target": 5}
        with pytest.raises(tok.ModelFormatError):
            tok.SubwordModel.from_json_dict(payload)

    def test_non_contiguous_ids_rejected(self):
        payload = {"alphabet": ["a"], "merges": [],
                   "vocab": {"<unk>": 0, MARKER: 1, "a": 5},
                   "vocab_size_target": 5}
        with pytest.raises(tok.ModelFormatError):
            tok.SubwordModel.from_json_dict(payload)

    def test_merge_product_missing_from_vocab_rejected(self):
        payload = {"alphabet": ["a", "b"], "merges": [["a", "b"]],
                   "vocab": {"<unk>": 0, MARKER: 1, "a": 2, "b": 3},
                   "vocab_size_target": 5}
        with pytest.raises(tok.ModelFormatError, match="product"):
            tok.SubwordModel.from_json_dict(payload)

    @pytest.mark.parametrize("merge", [["a"], ["a", "a", "a"]])
    def test_merge_that_is_not_a_pair_rejected(self, merge):
        payload = {"alphabet": ["a"], "merges": [merge],
                   "vocab": {"<unk>": 0, MARKER: 1, "a": 2, "aa": 3},
                   "vocab_size_target": 5}
        with pytest.raises(tok.ModelFormatError, match="expected pairs"):
            tok.SubwordModel.from_json_dict(payload)

    def test_merge_referencing_unknown_token_rejected(self):
        payload = {"alphabet": ["a"], "merges": [["a", "q"]],
                   "vocab": {"<unk>": 0, MARKER: 1, "a": 2},
                   "vocab_size_target": 5}
        with pytest.raises(tok.ModelFormatError):
            tok.SubwordModel.from_json_dict(payload)
