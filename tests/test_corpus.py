"""Corpus sampling, oversampling weights, and corpus file I/O."""

import gc
import random
import tracemalloc
from array import array
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scriptshift import corpus as cp
from scriptshift.input_types import InputType
from scriptshift.pipeline import (ExperimentConfig, LanguageSpec,
                                  dumps_report, run_experiment)
from support import (docs_digest, latin_lines, read_documents_per_line,
                     sample_sorted_docs)


def docs_of(*texts, lang="eng"):
    return [cp.Document(f"{lang}-{i:04d}", lang, text)
            for i, text in enumerate(texts)]


word_lists = st.lists(
    st.text(alphabet="abcdef", min_size=1, max_size=5), max_size=12)


def manifest_of(lang, words, budget=100, seed=0):
    return cp.CorpusManifest(lang, InputType.ORTHO, 1, words, seed,
                             words < budget)


class TestCountWords:
    @pytest.mark.parametrize("text,expected", [
        ("", 0),
        ("   ", 0),
        ("hello world", 2),
        ("a  b\tc", 3),
        (" leading and trailing ", 3),
    ])
    def test_whitespace_segmentation(self, text, expected):
        assert cp.word_counts([text]).total() == expected


class TestWordCounts:
    def test_splits_on_tabs_and_ideographic_space(self):
        counts = cp.word_counts(["b\ta  b", "c\u3000a\tb"])
        assert counts == {"a": 2, "b": 3, "c": 1}
        assert list(counts) == ["b", "a", "c"]  # first occurrence order

    def test_empty_and_whitespace_only_lines_count_nothing(self):
        assert cp.word_counts([]) == {}
        counts = cp.word_counts(["", "   ", "\t\u3000", "x", ""])
        assert counts == {"x": 1}
        assert counts.total() == 1

    def test_reads_a_one_shot_iterator_once(self):
        lines = iter(["x y", "", "y z y"])
        assert cp.word_counts(lines) == {"x": 1, "y": 3, "z": 1}
        assert next(lines, None) is None

    @given(st.lists(st.text(alphabet="ab \t\u3000\n", max_size=8),
                    max_size=6))
    @settings(max_examples=100)
    def test_matches_per_line_loop(self, lines):
        expected = {}
        for line in lines:
            for word in line.split():
                expected[word] = expected.get(word, 0) + 1
        counts = cp.word_counts(lines)
        assert counts == expected
        assert list(counts) == list(expected)
        assert counts.total() == sum(len(line.split()) for line in lines)


class TestSampling:
    def test_crossing_document_included(self):
        docs = docs_of("a b c d e", "f g h i j", "k l m n o")
        manifest, selected = cp.sample_to_budget(docs, budget=12, seed=3)
        assert manifest.doc_count == 3
        assert manifest.word_count == 15
        assert manifest.word_count >= 12
        assert not manifest.under_budget
        assert len(selected) == 3

    def test_under_budget_flag(self):
        docs = docs_of("a b", "c d")
        manifest, selected = cp.sample_to_budget(docs, budget=100, seed=0)
        assert manifest.under_budget
        assert manifest.word_count == 4
        assert manifest.doc_count == 2

    def test_exactly_at_budget_is_not_under(self):
        docs = docs_of("a b c", "d e f")
        manifest, _ = cp.sample_to_budget(docs, budget=6, seed=0)
        assert manifest.word_count == 6
        assert not manifest.under_budget

    def test_stop_after_crossing(self):
        # each doc has 4 words; budget 5 needs exactly two docs
        docs = docs_of("a a a a", "b b b b", "c c c c", "d d d d")
        manifest, selected = cp.sample_to_budget(docs, budget=5, seed=11)
        assert manifest.doc_count == 2
        assert manifest.word_count == 8

    def test_same_seed_same_selection(self):
        docs = docs_of(*[f"w{i} " * (i + 1) for i in range(20)])
        first = cp.sample_to_budget(docs, budget=30, seed=7)
        second = cp.sample_to_budget(docs, budget=30, seed=7)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_input_order_does_not_matter(self):
        docs = docs_of(*[f"w{i} " * (i + 1) for i in range(20)])
        forward = cp.sample_to_budget(docs, budget=30, seed=7)
        backward = cp.sample_to_budget(list(reversed(docs)), budget=30,
                                       seed=7)
        assert forward[0] == backward[0]
        assert forward[1] == backward[1]

    def test_seed_changes_selection(self):
        docs = docs_of(*[f"w{i}" for i in range(50)])
        _, first = cp.sample_to_budget(docs, budget=10, seed=1)
        _, second = cp.sample_to_budget(docs, budget=10, seed=2)
        assert [d.doc_id for d in first] != [d.doc_id for d in second]

    def test_errors(self):
        docs = docs_of("a b")
        with pytest.raises(cp.EmptyCorpusError):
            cp.sample_to_budget([], budget=10, seed=0)
        with pytest.raises(ValueError):
            cp.sample_to_budget(docs, budget=0, seed=0)
        dup = [cp.Document("x", "eng", "a"), cp.Document("x", "eng", "b")]
        with pytest.raises(ValueError, match="duplicate"):
            cp.sample_to_budget(dup, budget=10, seed=0)
        mixed = [cp.Document("x", "eng", "a"), cp.Document("y", "fra", "b")]
        with pytest.raises(ValueError, match="languages"):
            cp.sample_to_budget(mixed, budget=10, seed=0)

    @given(st.lists(word_lists, min_size=1, max_size=10),
           st.integers(1, 40), st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_manifest_counts_match_selection(self, lists, budget, seed):
        docs = [cp.Document(f"d{i:03d}", "eng", " ".join(words))
                for i, words in enumerate(lists)]
        manifest, selected = cp.sample_to_budget(docs, budget, seed)
        assert manifest.word_count == sum(len(d.text.split())
                                          for d in selected)
        assert manifest.doc_count == len(selected)
        selected_ids = [d.doc_id for d in selected]
        assert len(set(selected_ids)) == len(selected_ids)
        assert set(selected_ids) <= {d.doc_id for d in docs}
        if manifest.under_budget:
            assert manifest.doc_count == len(docs)
            assert manifest.word_count < budget
        else:
            assert manifest.word_count >= budget


class TestOversamplingWeights:
    def test_exact_fractions(self):
        manifests = [manifest_of("aaa", 10), manifest_of("bbb", 5),
                     manifest_of("ccc", 40), manifest_of("ddd", 3)]
        weights = cp.oversampling_weights(manifests, budget=10)
        assert weights == {
            "aaa": Fraction(1),
            "bbb": Fraction(2),
            "ccc": Fraction(1),  # clamped, corpus already over budget
            "ddd": Fraction(10, 3),
        }

    @given(st.lists(st.integers(1, 500), min_size=1, max_size=8,
                    unique=True),
           st.integers(1, 1000))
    @settings(max_examples=60)
    def test_weighted_size_meets_budget(self, counts, budget):
        manifests = [manifest_of(f"l{i}", count, budget)
                     for i, count in enumerate(counts)]
        weights = cp.oversampling_weights(manifests, budget)
        for manifest in manifests:
            weight = weights[manifest.lang]
            assert weight >= 1
            assert weight * manifest.word_count >= budget

    def test_repetition_counts_are_ceilings(self):
        manifests = [manifest_of("aaa", 3), manifest_of("bbb", 10),
                     manifest_of("ccc", 12)]
        reps = cp.repetition_counts(manifests, budget=10)
        assert reps == {"aaa": 4, "bbb": 1, "ccc": 1}

    def test_errors(self):
        with pytest.raises(cp.EmptyCorpusError):
            cp.oversampling_weights([manifest_of("aaa", 0)], budget=10)
        with pytest.raises(ValueError, match="duplicate"):
            cp.oversampling_weights(
                [manifest_of("aaa", 5), manifest_of("aaa", 5)], budget=10)
        with pytest.raises(ValueError):
            cp.oversampling_weights([manifest_of("aaa", 5)], budget=0)


class TestDocumentIO:
    def test_round_trip_skips_blank_lines(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("one two\n\nthree\n   \nfour\n", encoding="utf-8")
        docs = cp.read_documents(path, "eng")
        assert [d.text for d in docs] == ["one two", "three", "four"]
        assert len({d.doc_id for d in docs}) == 3

    def test_document_rejects_newline(self):
        with pytest.raises(ValueError):
            cp.Document("d", "eng", "two\nlines")

    def test_manifest_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            cp.CorpusManifest("kor", InputType.ORTHO, -1, 0, 0, True)


@st.composite
def corpus_files(draw):
    """Bytes of a corpus file: blank and whitespace-only lines, LF or CRLF
    endings, a final newline or none, and in-line characters that
    str.splitlines would split on (U+2028, U+0085, \\x0b) but a file's
    lines do not."""
    lines = draw(st.lists(
        st.text(alphabet="ab\u00e9 \t\u3000\u2028\x85\x0b", max_size=8),
        max_size=12))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(lines)
    if lines and draw(st.booleans()):
        text += ending
    return text.encode("utf-8")


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus") / "eng.txt"


def selection_of(corpus, budget, seed):
    manifest, selected = cp.sample_to_budget(corpus, budget, seed)
    return manifest, list(selected)


class TestCorpus:
    @given(corpus_files())
    @settings(max_examples=200)
    def test_reads_the_per_line_documents(self, corpus_path, data):
        corpus_path.write_bytes(data)
        corpus = cp.read_documents(corpus_path, "eng")
        expected = read_documents_per_line(corpus_path, "eng")
        assert isinstance(corpus, cp.Corpus)
        assert list(corpus) == expected
        assert [corpus[i] for i in range(-len(corpus), len(corpus))] == \
            expected * 2
        assert corpus.texts == tuple(doc.text for doc in expected)
        assert corpus.digest() == docs_digest(expected)

    @given(corpus_files(), st.integers(1, 12), st.integers(0, 1000),
           st.integers(1, 12), st.integers(0, 1000))
    @settings(max_examples=200)
    def test_sampling_matches_a_list(self, corpus_path, data, budget, seed,
                                     other_budget, other_seed):
        corpus_path.write_bytes(data)
        corpus = cp.read_documents(corpus_path, "eng")
        assume(corpus)
        docs = list(corpus)
        for b, s in ((budget, seed), (other_budget, other_seed),
                     (budget, seed), (budget, seed)):
            manifest, selected = cp.sample_to_budget(corpus, b, s)
            assert isinstance(selected, cp.Corpus)
            assert (manifest, list(selected)) == selection_of(docs, b, s)
            assert list(selected) == sample_sorted_docs(docs, b, s)
            assert selected.digest() == docs_digest(list(selected))

    @given(corpus_files(), st.integers(1, 12), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_run_reports_the_bytes_of_a_list(self, corpus_path, data,
                                             budget, seed):
        corpus_path.write_bytes(data)
        corpora = {lang: cp.read_documents(corpus_path, lang)
                   for lang in ("eng", "spa")}
        assume(corpora["eng"])
        config = ExperimentConfig(
            languages=(LanguageSpec("eng", True), LanguageSpec("spa", False)),
            input_type=InputType.ORTHO, vocab_size=12, budget=budget,
            seed=seed)
        lists = {lang: list(docs) for lang, docs in corpora.items()}
        assert dumps_report(run_experiment(config, corpora)) == \
            dumps_report(run_experiment(config, lists))

    def test_selection_is_kept_for_the_latest_budget_and_seed(self):
        corpus = cp.Corpus(("a b", "c", "d e f", "g"), "eng",
                           array("L", [1, 2, 4, 5]))
        first = cp.sample_to_budget(corpus, 3, 1)[1]
        assert cp.sample_to_budget(corpus, 3, 1)[1] is first
        assert cp.sample_to_budget(corpus, 3, 2)[1] is not first
        assert cp.sample_to_budget(corpus, 3, 1)[1] is not first

    def test_of_keeps_a_corpus_and_wraps_documents(self):
        docs = docs_of("a b", "c", lang="kor")
        corpus = cp.Corpus.of(docs)
        assert cp.Corpus.of(corpus) is corpus
        assert list(corpus) == docs and corpus[1] is docs[1]
        assert list(corpus[::-1]) == docs[::-1]
        assert corpus.digest() == docs_digest(docs)

    def test_ids_past_eight_digits_sort_as_text(self):
        linenos = [99_999_998, 99_999_999, 100_000_000, 100_000_001]
        corpus = cp.Corpus(tuple(f"w{n % 7} x" for n in linenos), "eng",
                           array("L", linenos))
        docs = list(corpus)
        assert [doc.doc_id for doc in docs][-1] == "eng-100000001"
        for seed in range(8):
            assert selection_of(corpus, 3, seed) == selection_of(docs, 3,
                                                                 seed)
            assert selection_of(corpus, 3, seed)[1] == \
                sample_sorted_docs(docs, 3, seed)

    def test_a_shuffled_selection_samples_like_a_list(self):
        texts = tuple(f"w{i} " * (i % 3 + 1) for i in range(30))
        corpus = cp.Corpus(texts, "eng", array("L", range(1, 31)))
        selected = cp.sample_to_budget(corpus, 20, 5)[1]
        assert [doc.doc_id for doc in selected] != \
            sorted(doc.doc_id for doc in selected)
        assert selection_of(selected, 9, 3) == \
            selection_of(list(selected), 9, 3)

    def test_reading_retains_under_half_the_per_line_documents(
            self, tmp_path, monkeypatch):
        lines = latin_lines(random.Random(3), 24_000, vocabulary=300,
                            words_per_line=6)
        lines[5::7] = [""] * len(lines[5::7])
        path = tmp_path / "eng.txt"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        built = []
        monkeypatch.setattr(cp.Document, "__post_init__",
                            lambda doc: built.append(doc.doc_id))

        def retained(read):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                docs = read(path, "eng")
                return tracemalloc.get_traced_memory()[0] - before, docs
            finally:
                tracemalloc.stop()

        new, corpus = retained(cp.read_documents)
        assert built == []
        monkeypatch.undo()
        old, docs = retained(read_documents_per_line)
        assert list(corpus) == docs
        assert new <= old / 2, (new, old)

    def test_digest_hashes_a_chunk_at_a_time(self, tmp_path):
        lines = latin_lines(random.Random(5), 60_000, vocabulary=300,
                            words_per_line=12)
        path = tmp_path / "eng.txt"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        corpus = cp.read_documents(path, "eng")
        gc.collect()
        tracemalloc.start()
        try:
            digest = corpus.digest()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(corpus) == 5001  # many chunks
        assert digest == docs_digest(list(corpus))
        # Hashing the whole id list and text in one piece peaked at more
        # than twice the file's size.
        assert peak <= path.stat().st_size / 4, (peak, path.stat().st_size)


class TestTidyCsv:
    def test_rows_by_column_skipping_blank_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('lang,note,value\naaa,"two\nlines",1\n\nbbb,,2\n',
                        encoding="utf-8")
        assert cp.read_tidy_csv(path, ["value", "lang"]) == [
            {"lang": "aaa", "note": "two\nlines", "value": "1"},
            {"lang": "bbb", "note": "", "value": "2"}]

    def test_missing_column_names_the_path(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("lang,value\naaa,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"t\.csv: expected columns "
                                             r"\['lang', 'score'\]"):
            cp.read_tidy_csv(path, ("score", "lang"))
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="expected columns"):
            cp.read_tidy_csv(path, ("lang",))

    def test_rows_carry_their_end_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('lang,note,value\naaa,"two\nlines",1\n\nbbb,,2\n',
                        encoding="utf-8")
        assert [row.line for row in cp.read_tidy_csv(path, ["lang"])] == \
            [3, 5]

    def test_long_row_names_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("lang,value\naaa,1\nbbb,2,9\n", encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"t\.csv:3: expected 2 fields, got 3"):
            cp.read_tidy_csv(path, ("lang",))

    @pytest.mark.parametrize("text", ["x", "", "nan", "inf", "-1e999"])
    def test_number_cell_rejects_non_finite(self, text):
        with pytest.raises(ValueError, match=r"^t\.csv:7: expected a finite "
                                             r"number, got "):
            cp.number_cell("t.csv", 7, text)

    def test_number_cell_reads_floats(self):
        assert cp.number_cell("t.csv", 2, " 0.25 ") == 0.25
        assert cp.number_cell("t.csv", 2, "-3") == -3.0

    def test_short_row_names_its_line(self, tmp_path):
        # the quoted field spans two physical lines, so the short row is
        # on line 5
        path = tmp_path / "t.csv"
        path.write_text('lang,note,value\naaa,"two\nlines",1\n\nbbb,x\n',
                        encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"t\.csv:5: expected 3 fields, got 2"):
            cp.read_tidy_csv(path, ("lang",))
