"""Overlap and tokenizer-quality metrics against brute-force recomputation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scriptshift import metrics, tokenizer as tok
from scriptshift.corpus import word_counts
from scriptshift.input_types import InputType
from scriptshift.metrics import (OverlapReport, OverlapVariant,
                                 TokenizerQualityReport)

from support import make_token_set, the_cat_model


def ref_quality(model, corpus):
    """Oracle: the per-running-word loop, segmenting every occurrence of
    every word with the model read back from its own text, so a model's
    primed cache is not read. Returns the report fields; ratios over zero
    are None."""
    cold = tok.loads_model(tok.dumps_model(model))
    words = tokens = unk = 0
    produced = set()
    for line in corpus:
        for word in line.split():
            words += 1
            for sym in cold.segment_word(word):
                tokens += 1
                if sym is tok.UNK_SENTINEL:
                    unk += 1
                else:
                    produced.add(sym)
    denom = model.vocab_size_target
    by_length = {}
    for token in produced:
        length = len(model.strip_marker(token))
        by_length[length] = by_length.get(length, 0) + Fraction(1, denom)
    return {
        "unk_ratio": Fraction(unk, tokens) if tokens else None,
        "fertility": Fraction(tokens, words) if words else None,
        "vocab_coverage": Fraction(len(produced), denom),
        "coverage_by_length": dict(sorted(by_length.items())),
        "token_count": tokens,
        "word_count": words,
    }


@st.composite
def quality_corpora(draw):
    """Lines drawn from a small lexicon, so words repeat; 'z' and '한' are
    outside the model alphabet and make unknown runs. Blank and
    whitespace-only lines are mixed in."""
    lexicon = draw(st.lists(st.text(alphabet="abcz한", min_size=1,
                                    max_size=6), min_size=1, max_size=6))
    line = st.one_of(
        st.lists(st.sampled_from(lexicon), max_size=8).map(" ".join),
        st.sampled_from(["", "   ", "\t \t"]))
    return draw(st.lists(line, max_size=6))


def brute_overlap(target, sources):
    scored = sorted(
        ((Fraction(len(s.tokens & target.tokens), len(target.tokens)), s.lang)
         for s in sources),
        key=lambda pair: (-pair[0], pair[1]))
    ratio, lang = scored[0]
    return lang, ratio


def random_family(rng, n_sources=3):
    def some_tokens():
        pool = ["a", "b", "ab", "ba", "abb", "bab", "aabb", "bbaa", "abab"]
        k = rng.randint(1, len(pool))
        return frozenset(rng.sample(pool, k))

    target = make_token_set("tgt", some_tokens())
    sources = [make_token_set(f"s{i:02d}", some_tokens())
               for i in range(n_sources)]
    return target, sources


class TestOverlapRatio:
    def test_best_source_by_shared_count(self):
        target = make_token_set("tgt", {"ab", "cd", "zz"})
        fra = make_token_set("fra", {"ab", "cd", "ef"})
        spa = make_token_set("spa", {"ab", "xy"})
        report = metrics.overlap_report(target, [fra, spa])
        assert (report.best_source, report.overall_ratio) == \
            ("fra", Fraction(2, 3))

    def test_tie_goes_to_lexicographically_smaller_lang(self):
        target = make_token_set("tgt", {"ab", "cd"})
        zzz = make_token_set("zzz", {"ab"})
        aaa = make_token_set("aaa", {"cd"})
        report = metrics.overlap_report(target, [zzz, aaa])
        assert (report.best_source, report.overall_ratio) == \
            ("aaa", Fraction(1, 2))

    def test_zero_overlap(self):
        target = make_token_set("tgt", {"qq"})
        src = make_token_set("src", {"ab"})
        report = metrics.overlap_report(target, [src])
        assert (report.best_source, report.overall_ratio) == \
            ("src", Fraction(0))

    def test_source_order_does_not_matter(self):
        target, sources = random_family(random.Random(7))
        forward = metrics.overlap_report(target, sources)
        backward = metrics.overlap_report(target, list(reversed(sources)))
        assert forward == backward

    def test_empty_target_rejected(self):
        target = make_token_set("tgt", set())
        src = make_token_set("src", {"ab"})
        with pytest.raises(ValueError, match="empty"):
            metrics.overlap_report(target, [src])

    def test_no_sources_rejected(self):
        target = make_token_set("tgt", {"ab"})
        with pytest.raises(ValueError, match="source"):
            metrics.overlap_report(target, [])

    def test_duplicate_source_langs_rejected(self):
        target = make_token_set("tgt", {"ab"})
        src = make_token_set("src", {"ab"})
        with pytest.raises(ValueError, match="duplicate"):
            metrics.overlap_report(target, [src, src])

    def test_matches_brute_force_on_random_families(self):
        for seed in range(120):
            rng = random.Random(seed)
            target, sources = random_family(rng, n_sources=rng.randint(1, 5))
            report = metrics.overlap_report(target, sources)
            assert (report.best_source, report.overall_ratio) == \
                brute_overlap(target, sources), f"seed {seed}"


class TestOverlapVariants:
    def test_by_length_splits_best_source(self):
        target = make_token_set("tgt", {"ab", "cd", "zz"})
        fra = make_token_set("fra", {"ab", "cd", "ef"})
        spa = make_token_set("spa", {"ab", "xy"})
        assert metrics.overlap_report(target, [fra, spa]).by_length == \
            {2: Fraction(2, 3)}

    def test_by_length_sums_to_overall(self):
        for seed in range(100):
            rng = random.Random(500 + seed)
            target, sources = random_family(rng)
            report = metrics.overlap_report(target, sources)
            assert sum(report.by_length.values(), Fraction(0)) == \
                report.overall_ratio, f"seed {seed}"

    def test_all_sources_uses_union(self):
        target = make_token_set("tgt", {"ab", "cd", "zz"})
        fra = make_token_set("fra", {"ab"})
        spa = make_token_set("spa", {"cd"})
        report = metrics.overlap_report(target, [fra, spa],
                                        OverlapVariant.ALL_SOURCES)
        assert report.by_length == {2: Fraction(2, 3)}

    def test_all_sources_dominates_best_single_source(self):
        for seed in range(60):
            rng = random.Random(900 + seed)
            target, sources = random_family(rng)
            best = metrics.overlap_report(target, sources).overall_ratio
            union_total = sum(
                metrics.overlap_report(target, sources,
                                       OverlapVariant.ALL_SOURCES)
                .by_length.values(), Fraction(0))
            assert union_total >= best, f"seed {seed}"

    def test_all_sources_equals_max_for_single_source(self):
        target, sources = random_family(random.Random(3), n_sources=1)
        best = metrics.overlap_report(target, sources).overall_ratio
        union_total = sum(
            metrics.overlap_report(target, sources,
                                   OverlapVariant.ALL_SOURCES)
            .by_length.values(), Fraction(0))
        assert union_total == best

    def test_type_ratio_normalizes_within_length_class(self):
        target = make_token_set("tgt", {"a", "bb", "cc"})
        src = make_token_set("src", {"bb"})
        report = metrics.overlap_report(target, [src],
                                        OverlapVariant.TYPE_RATIO)
        assert report.by_length == {1: Fraction(0), 2: Fraction(1, 2)}

    def test_type_ratio_covers_every_target_length(self):
        for seed in range(60):
            rng = random.Random(1300 + seed)
            target, sources = random_family(rng)
            ratios = metrics.overlap_report(
                target, sources, OverlapVariant.TYPE_RATIO).by_length
            assert set(ratios) == {len(t) for t in target.tokens}, \
                f"seed {seed}"
            assert all(0 <= r <= 1 for r in ratios.values())

    def test_report_max_source(self):
        target = make_token_set("tgt", {"ab", "cd", "zz"})
        fra = make_token_set("fra", {"ab", "cd", "ef"})
        report = metrics.overlap_report(target, [fra],
                                        OverlapVariant.MAX_SOURCE)
        assert report.best_source == "fra"
        assert report.overall_ratio == Fraction(2, 3)
        assert report.by_length == {2: Fraction(2, 3)}
        assert report.variant is OverlapVariant.MAX_SOURCE

    def test_report_all_sources_has_no_best(self):
        target = make_token_set("tgt", {"ab", "cd"})
        fra = make_token_set("fra", {"ab"})
        spa = make_token_set("spa", {"cd"})
        report = metrics.overlap_report(target, [fra, spa],
                                        OverlapVariant.ALL_SOURCES)
        assert report.best_source is None
        assert report.overall_ratio == Fraction(1)

    def test_report_type_ratio_keeps_max_overall(self):
        target = make_token_set("tgt", {"a", "bb", "cc"})
        src = make_token_set("src", {"bb"})
        report = metrics.overlap_report(target, [src],
                                        OverlapVariant.TYPE_RATIO)
        assert report.overall_ratio == Fraction(1, 3)
        assert report.by_length == {1: Fraction(0), 2: Fraction(1, 2)}

    def test_report_json_round_trip(self):
        target = make_token_set("tgt", {"ab", "cd", "zz", "qq"})
        src = make_token_set("src", {"ab", "cd"})
        report = metrics.overlap_report(target, [src])
        # ratios here are dyadic, so float serialization is lossless
        assert OverlapReport.from_json_dict(report.to_json_dict()) == report


@pytest.fixture(scope="module")
def abc_model():
    return tok.train(["abc abc"], vocab_size=8)


# no lines, and lines that hold only whitespace
EMPTY_CORPORA = [[], ["", "   ", "\t"]]


@pytest.fixture(scope="module")
def quality_model():
    return tok.train(["abc abc ab bc ca cab"], vocab_size=11)


class TestQualityMetrics:
    def test_unk_ratio_counts_unknown_runs(self, abc_model):
        for corpus, expected in ((["abc 안"], Fraction(1, 2)),
                                 (["abc"], Fraction(0)),
                                 (["안 녕"], Fraction(1))):
            report = metrics.quality_report(abc_model, word_counts(corpus),
                                            "eng", InputType.ORTHO)
            assert report.unk_ratio == expected

    def test_fertility_fixture(self):
        report = metrics.quality_report(the_cat_model(),
                                        word_counts(["the cat"]), "eng",
                                        InputType.ORTHO)
        assert report.fertility == Fraction(3, 2)

    def test_fertility_single_token_words(self, abc_model):
        report = metrics.quality_report(abc_model,
                                        word_counts(["abc abc abc"]), "eng",
                                        InputType.ORTHO)
        assert report.fertility == Fraction(1)

    def test_fertility_at_least_one(self):
        model = tok.train(["ab ba abba"], vocab_size=10)
        for seed in range(30):
            rng = random.Random(seed)
            words = ["".join(rng.choice("abc한")
                             for _ in range(rng.randint(1, 8)))
                     for _ in range(rng.randint(1, 10))]
            report = metrics.quality_report(model,
                                            word_counts([" ".join(words)]),
                                            "eng", InputType.ORTHO)
            assert report.fertility >= 1

    def test_vocab_coverage_fixture(self, abc_model):
        report = metrics.quality_report(abc_model, word_counts(["abc 안"]),
                                        "eng", InputType.ORTHO)
        assert report.vocab_coverage == Fraction(1, 8)
        assert report.coverage_by_length == {3: Fraction(1, 8)}

    def test_vocab_coverage_counts_distinct_tokens(self, abc_model):
        # "ab" segments to [marker, ab]: the bare marker counts as length 0
        report = metrics.quality_report(abc_model, word_counts(["abc ab"]),
                                        "eng", InputType.ORTHO)
        assert report.vocab_coverage == Fraction(3, 8)
        assert report.coverage_by_length == {0: Fraction(1, 8),
                                             2: Fraction(1, 8),
                                             3: Fraction(1, 8)}

    def test_vocab_coverage_partitions_exactly(self):
        model = tok.train(["abcd dcba abc bcd ab cd"], vocab_size=14)
        for seed in range(40):
            rng = random.Random(2100 + seed)
            words = ["".join(rng.choice("abcde")
                             for _ in range(rng.randint(1, 6)))
                     for _ in range(rng.randint(1, 12))]
            report = metrics.quality_report(model,
                                            word_counts([" ".join(words)]),
                                            "eng", InputType.ORTHO)
            assert sum(report.coverage_by_length.values(), Fraction(0)) == \
                report.vocab_coverage

    def test_quality_report_counts(self, abc_model):
        report = metrics.quality_report(abc_model, word_counts(["abc 안"]),
                                        "eng", InputType.ORTHO)
        assert report.word_count == 2
        assert report.token_count == 2
        assert report.unk_ratio == Fraction(1, 2)

    def test_quality_report_empty_corpus_rejected(self, abc_model):
        for corpus in EMPTY_CORPORA:
            with pytest.raises(ValueError, match="'eng' has no words"):
                metrics.quality_report(abc_model, word_counts(corpus), "eng",
                                       InputType.ORTHO)

    def test_quality_report_json_round_trip(self, abc_model):
        report = metrics.quality_report(abc_model, word_counts(["abc ab"]),
                                        "kor", InputType.ROM)
        restored = TokenizerQualityReport.from_json_dict(
            report.to_json_dict())
        # every ratio in this fixture is dyadic, so the trip is exact
        assert restored == report

    @given(st.lists(st.text(alphabet="abc한", min_size=1, max_size=6),
                    min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_quality_report_invariants(self, words):
        model = tok.train(["abc abc ab bc"], vocab_size=9)
        corpus = [" ".join(words)]
        report = metrics.quality_report(model, word_counts(corpus), "eng",
                                        InputType.ORTHO)
        assert 0 <= report.unk_ratio <= 1
        assert report.fertility >= 1
        assert 0 <= report.vocab_coverage <= 1
        assert sum(report.coverage_by_length.values(), Fraction(0)) == \
            report.vocab_coverage

    def test_encoder_cache_limit_does_not_change_results(self,
                                                         quality_model,
                                                         monkeypatch):
        corpus = ["abc ab bc ca cab abc", "cab z한 ab abc bc", "", "bc bc"]

        def measure(model):
            return (tok.token_set(model, word_counts(corpus), "eng",
                                  InputType.ORTHO),
                    metrics.quality_report(model, word_counts(corpus), "eng",
                                           InputType.ORTHO))

        unbounded = measure(quality_model)
        monkeypatch.setattr(tok, "_CACHE_LIMIT", 2)
        fresh = tok.loads_model(tok.dumps_model(quality_model))
        assert measure(fresh) == unbounded
        assert len(fresh._segmentations) <= 2

    @given(quality_corpora())
    @settings(max_examples=150)
    def test_quality_matches_per_word_loop(self, quality_model, corpus):
        ref = ref_quality(quality_model, corpus)
        if ref["word_count"] == 0:
            # the empty-corpus errors are pinned in the tests above
            with pytest.raises(ValueError, match="eng"):
                metrics.quality_report(quality_model, word_counts(corpus),
                                       "eng", InputType.ORTHO)
            return
        report = metrics.quality_report(quality_model,
                                        word_counts(iter(corpus)), "eng",
                                        InputType.ORTHO)
        assert {field: getattr(report, field) for field in ref} == ref


class TestTokenLengthHistogram:
    def test_counts_unique_tokens_per_length(self):
        sets = [make_token_set("eng", {"a", "b", "ab"}),
                make_token_set("kor", {"xyz"})]
        assert metrics.token_length_histogram(sets) == \
            {"eng": {1: 2, 2: 1}, "kor": {3: 1}}

    def test_empty_iterable(self):
        assert metrics.token_length_histogram([]) == {}
