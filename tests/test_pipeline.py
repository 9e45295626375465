"""End-to-end experiment runs, caching, and cross-input-type comparison."""

import dataclasses
import hashlib
import json
import random
import shutil
import weakref
from collections import Counter
from fractions import Fraction
from importlib.machinery import SourceFileLoader
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scriptshift import corpus as corpus_module
from scriptshift import pipeline as pl
from scriptshift import translit
from scriptshift.corpus import (Corpus, Document, read_documents,
                                repetition_counts, sample_to_budget,
                                word_counts)
from scriptshift.input_types import InputType
from scriptshift.metrics import (OverlapReport, OverlapVariant,
                                 overlap_report, quality_report,
                                 token_length_histogram)
from scriptshift.tokenizer import (dumps_model, loads_model, token_set,
                                   train_from_word_counts)
from scriptshift.pipeline import (AnalysisReport, ComparisonTable,
                                  ConfigError, ExperimentConfig,
                                  LanguageSpec, PipelineStageError,
                                  compare_input_types, dumps_report,
                                  load_config, load_report, run_experiment)
from scriptshift.translit import (LATIN_LOWER, CipherKey, Passthrough,
                                  RewriteRule, RuleMode, RuleTable,
                                  TableRegistry, UnmatchedCharacterError,
                                  caesar_encipher, packaged_table_root)

from support import (hangul_lines, latin_lines, prepared_lines,
                     selected_texts, stored)


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def as_documents(lang, lines):
    return [Document(doc_id=f"{lang}-{i:04d}", lang=lang, text=line)
            for i, line in enumerate(lines)]


@pytest.fixture(scope="module")
def corpora():
    rng = random.Random(42)
    return {
        "eng": as_documents("eng", latin_lines(rng, 400, vocabulary=80)),
        "spa": as_documents("spa", latin_lines(rng, 30, vocabulary=15,
                                               words_per_line=6)),
        "kor": as_documents("kor", hangul_lines(rng, 120, vocabulary=40)),
    }


def make_config(input_type, **overrides):
    settings = {
        "languages": (LanguageSpec("eng", True), LanguageSpec("spa", True),
                      LanguageSpec("kor", False)),
        "input_type": input_type,
        "vocab_size": 60,
        "budget": 120,
        "seed": 7,
    }
    settings.update(overrides)
    return ExperimentConfig(**settings)


class TestConfig:
    def test_lang_splits(self):
        config = make_config(InputType.ORTHO)
        assert config.langs == ("eng", "spa", "kor")
        assert config.seen_langs == ("eng", "spa")
        assert config.unseen_langs == ("kor",)

    def test_validation(self):
        with pytest.raises(ConfigError, match="no languages"):
            make_config(InputType.ORTHO, languages=())
        with pytest.raises(ConfigError, match="duplicate"):
            make_config(InputType.ORTHO,
                        languages=(LanguageSpec("eng", True),
                                   LanguageSpec("eng", False)))
        with pytest.raises(ConfigError, match="seen"):
            make_config(InputType.ORTHO,
                        languages=(LanguageSpec("eng", False),))
        with pytest.raises(ConfigError, match="vocab_size"):
            make_config(InputType.ORTHO, vocab_size=2)
        with pytest.raises(ConfigError, match="budget"):
            make_config(InputType.ORTHO, budget=0)
        with pytest.raises(ConfigError, match="min_char_freq"):
            make_config(InputType.ORTHO, min_char_freq=0)

    def test_cipher_shift_validation(self):
        with pytest.raises(ConfigError, match="missing languages"):
            make_config(InputType.CIPHER, cipher_shifts={"eng": 1})
        with pytest.raises(ValueError, match="shift"):
            make_config(InputType.CIPHER,
                        cipher_shifts={"eng": 1, "spa": 2, "kor": 99})
        make_config(InputType.CIPHER,
                    cipher_shifts={"eng": 0, "spa": 0, "kor": 0})

    def test_json_round_trip(self):
        config = make_config(InputType.CIPHER,
                             cipher_shifts={"eng": 1, "spa": 2, "kor": 3})
        restored = ExperimentConfig.from_json_dict(config.to_json_dict())
        assert restored == config

    def test_digest_tracks_content(self):
        base = make_config(InputType.ORTHO)
        assert base.digest() == make_config(InputType.ORTHO).digest()
        assert base.digest() != make_config(InputType.ROM).digest()
        assert base.digest() != make_config(InputType.ORTHO, seed=8).digest()

    def test_malformed_payload(self):
        with pytest.raises(ConfigError, match="malformed"):
            ExperimentConfig.from_json_dict({"languages": "nope"})

    def test_load_json_config(self, tmp_path):
        path = tmp_path / "config.json"
        config = make_config(InputType.ROM)
        path.write_text(json.dumps(config.to_json_dict()), encoding="utf-8")
        assert load_config(path) == config

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("edit, where", [
        (lambda payload: payload.update(vocab_sise=500),
         "ExperimentConfig: unknown fields 'vocab_sise'"),
        (lambda payload: payload["languages"][0].update(sen=False),
         "ExperimentConfig.languages: LanguageSpec: unknown fields 'sen'"),
    ], ids=["config", "language"])
    def test_unknown_key_rejected(self, edit, where):
        # a misspelled key used to be read as absent, so its default ran
        payload = make_config(InputType.ROM).to_json_dict()
        edit(payload)
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig.from_json_dict(payload)
        assert str(excinfo.value) == f"malformed {where}"

    @pytest.mark.parametrize("lang", ["../esc", "sub/x", "", ".", "-eng",
                                      "_eng", "en g", "eng\n", "e\\x",
                                      "\u00e9ng"])
    def test_language_code_that_is_no_plain_name_rejected(self, lang):
        # a code names files, so one like "../esc" used to write outside
        # the artifacts dir
        with pytest.raises(ConfigError, match="language code"):
            LanguageSpec(lang, False)
        payload = make_config(InputType.ORTHO).to_json_dict()
        payload["languages"][2]["lang"] = lang
        with pytest.raises(ConfigError, match="language code"):
            ExperimentConfig.from_json_dict(payload)

    @pytest.mark.parametrize("lang", ["eng", "x", "7", "zh-Hant", "eng_1"])
    def test_language_code_accepted(self, lang):
        assert LanguageSpec(lang, True).lang == lang


class TestRunExperiment:
    def test_ortho_report_structure(self, corpora):
        report = run_experiment(make_config(InputType.ORTHO), corpora)
        assert set(report.quality) == {"eng", "spa", "kor"}
        assert set(report.overlap) == {"kor"}
        assert set(report.manifests) == {"eng", "spa"}
        assert set(report.token_lengths) == {"eng", "spa", "kor"}
        assert report.seen_langs == ("eng", "spa")
        assert report.unseen_langs == ("kor",)
        assert report.input_type is InputType.ORTHO
        assert report.vocab_size == 60

    def test_ortho_disjoint_script_is_all_unknown(self, corpora):
        report = run_experiment(make_config(InputType.ORTHO), corpora)
        kor = report.quality["kor"]
        assert kor.unk_ratio == Fraction(1)
        assert report.overlap["kor"].overall_ratio == Fraction(0)
        assert report.overlap["kor"].best_source is None
        assert report.overlap["kor"].by_length == {}
        assert report.token_lengths["kor"] == {}

    def test_romanization_removes_unknowns(self, corpora):
        report = run_experiment(make_config(InputType.ROM), corpora)
        assert report.quality["kor"].unk_ratio == Fraction(0)
        assert report.overlap["kor"].best_source in ("eng", "spa")
        assert report.token_lengths["kor"] != {}

    def test_shared_script_unseen_overlaps(self, corpora):
        # under Ortho the Latin-script languages share the model alphabet,
        # so making spa the unseen language must yield nonzero overlap
        config = make_config(
            InputType.ORTHO,
            languages=(LanguageSpec("eng", True), LanguageSpec("spa", False),
                       LanguageSpec("kor", False)))
        report = run_experiment(config, corpora)
        assert report.overlap["spa"].overall_ratio > 0
        assert report.overlap["spa"].best_source == "eng"

    def test_seen_manifests_and_oversampling(self, corpora):
        report = run_experiment(make_config(InputType.ORTHO), corpora)
        eng = report.manifests["eng"]
        spa = report.manifests["spa"]
        assert not eng.under_budget
        assert eng.word_count >= 120
        assert spa.under_budget
        assert spa.word_count == 30

    def test_deterministic_byte_identical(self, corpora):
        config = make_config(InputType.ROM)
        first = run_experiment(config, corpora)
        second = run_experiment(config, corpora)
        assert dumps_report(first) == dumps_report(second)

    def test_zero_shift_cipher_matches_rom_model(self, corpora):
        rom = run_experiment(make_config(InputType.ROM), corpora)
        cipher = run_experiment(
            make_config(InputType.CIPHER,
                        cipher_shifts={"eng": 0, "spa": 0, "kor": 0}),
            corpora)
        assert cipher.model_digest == rom.model_digest
        assert cipher.config_digest != rom.config_digest

    def test_nonzero_cipher_changes_model(self, corpora):
        rom = run_experiment(make_config(InputType.ROM), corpora)
        cipher = run_experiment(make_config(InputType.CIPHER), corpora)
        assert cipher.model_digest != rom.model_digest

    def test_missing_corpus_rejected(self, corpora):
        partial = {k: v for k, v in corpora.items() if k != "spa"}
        with pytest.raises(ConfigError, match="spa"):
            run_experiment(make_config(InputType.ORTHO), partial)

    def test_missing_table_reports_stage_and_lang(self, corpora, tmp_path):
        config = make_config(
            InputType.IPA,
            languages=(LanguageSpec("spa", True), LanguageSpec("kor", False)))
        # The run digest reads every table before anything is sampled, so
        # the missing table fails first, even where an empty corpus would
        # fail the sample stage.
        empty_kor = dict(corpora, kor=[])
        for artifacts_dir, docs in ((None, corpora), (tmp_path, corpora),
                                    (None, empty_kor)):
            with pytest.raises(PipelineStageError) as excinfo:
                run_experiment(config, docs, artifacts_dir=artifacts_dir)
            assert excinfo.value.stage == "transliterate"
            assert excinfo.value.lang == "kor"

    def test_empty_unseen_corpus_fails_in_sample_stage(self, corpora):
        augmented = dict(corpora)
        augmented["kor"] = []
        with pytest.raises(PipelineStageError) as excinfo:
            run_experiment(make_config(InputType.ORTHO), augmented)
        assert excinfo.value.stage == "sample"
        assert excinfo.value.lang == "kor"

    @pytest.mark.parametrize("name, stage, lang", [
        ("train_from_word_counts", "train", None),
        ("token_set", "token-sets", None),
        ("quality_report", "metrics", "eng"),
        ("overlap_report", "metrics", "kor"),
    ])
    def test_each_stage_names_itself(self, corpora, monkeypatch, name, stage,
                                     lang):
        failure = RuntimeError(f"{name} failed")

        def fail(*args, **kwargs):
            raise failure

        monkeypatch.setattr(pl, name, fail)
        with pytest.raises(PipelineStageError) as excinfo:
            run_experiment(make_config(InputType.ROM), corpora)
        assert (excinfo.value.stage, excinfo.value.lang) == (stage, lang)
        assert excinfo.value.__cause__ is failure


def ref_run(config, corpora, prepared):
    """Reference for the stages after transliteration: training on counts
    summed line by line and word by word, each word weighted by its
    language's repetition count, then token_set and quality_report over the
    word table counted from the prepared lines. Returns the model and report
    JSON."""
    manifests = {lang: sample_to_budget(corpora[lang], config.budget,
                                        config.seed, config.input_type)[0]
                 for lang in config.seen_langs}
    reps = repetition_counts(list(manifests.values()), config.budget)
    counts = Counter()
    for lang in config.seen_langs:
        for line in prepared[lang]:
            for word in line.split():
                counts[word] += reps[lang]
    model = train_from_word_counts(counts, config.vocab_size,
                                   config.min_char_freq)
    itype = config.input_type
    tables = {lang: word_counts(prepared[lang]) for lang in config.langs}
    token_sets = {lang: token_set(model, tables[lang], lang, itype)
                  for lang in sorted(config.langs)}
    seen_sets = [token_sets[lang] for lang in config.seen_langs]
    overlap = {}
    for lang in config.unseen_langs:
        target = token_sets[lang]
        overlap[lang] = (
            overlap_report(target, seen_sets, config.overlap_variant)
            if target.tokens else OverlapReport(
                lang, config.overlap_variant, None, Fraction(0), {}))
    model_json = dumps_model(model)
    report = AnalysisReport(
        config_digest=config.digest(),
        model_digest=hashlib.sha256(model_json.encode("utf-8")).hexdigest(),
        input_type=itype, seed=config.seed, vocab_size=config.vocab_size,
        seen_langs=config.seen_langs, unseen_langs=config.unseen_langs,
        manifests=manifests,
        quality={lang: quality_report(model, tables[lang], lang, itype)
                 for lang in sorted(config.langs)},
        overlap=overlap,
        token_lengths=token_length_histogram(token_sets.values()))
    return model_json, dumps_report(report), token_sets


@pytest.fixture(scope="module")
def ragged_corpora():
    """Corpora with words repeated within and across languages, and blank
    and whitespace-only documents among the rest."""
    rng = random.Random(11)
    blanks = ["", "   ", "\t \t", "\u3000"]
    shared = ["the", "quick", "dog", "casa"]

    def ragged(lines):
        lines = [line + " " + rng.choice(shared) for line in lines]
        for blank in blanks:
            lines.insert(rng.randrange(len(lines) + 1), blank)
        return lines

    return {
        "eng": as_documents("eng", ragged(latin_lines(rng, 300,
                                                      vocabulary=40))),
        "spa": as_documents("spa", ragged(latin_lines(rng, 40, vocabulary=12,
                                                      words_per_line=5))),
        "kor": as_documents("kor", ragged(hangul_lines(rng, 90,
                                                       vocabulary=30))),
    }


class TestWordTablesMatchLinePasses:
    """run_experiment counts each corpus into one word table and transforms
    the table; its model, report and token sets equal those of rendering
    the corpus line by line and counting the lines."""

    @pytest.mark.parametrize("input_type, seen, unseen", [
        (InputType.ORTHO, ("eng", "spa"), ("kor",)),
        (InputType.ROM, ("eng", "kor"), ("spa",)),
        (InputType.CIPHER, ("eng", "spa"), ("kor",)),
        (InputType.IPA, ("spa",), ()),
    ])
    def test_byte_equal_to_reference(self, ragged_corpora, tmp_path,
                                     input_type, seen, unseen):
        languages = tuple(LanguageSpec(lang, True) for lang in seen) + \
            tuple(LanguageSpec(lang, False) for lang in unseen)
        config = make_config(input_type, languages=languages)
        corpora = {lang: ragged_corpora[lang] for lang in seen + unseen}
        report = run_experiment(config, corpora, artifacts_dir=tmp_path)
        prepared = prepared_lines(config, corpora)
        assert any(not line.strip() for line in prepared["spa"])
        model_json, report_json, token_sets = ref_run(config, corpora,
                                                      prepared)
        [model_path] = stored(tmp_path, "model")
        assert model_path.read_text(encoding="utf-8") == model_json
        assert dumps_report(report) == report_json
        for lang, ts in token_sets.items():
            [path] = stored(tmp_path, "tokensets", lang)
            written = json.loads(path.read_text(encoding="utf-8"))
            assert written == ts.to_json_dict()
        warm = run_experiment(config, corpora, artifacts_dir=tmp_path)
        assert dumps_report(warm) == report_json
        assert dumps_report(run_experiment(config, corpora)) == report_json


IDENTITY_RULES = "".join(f"{char}\t{char}\t\t\t{i}\n"
                         for i, char in enumerate(LATIN_LOWER, start=1))


def rom_registry(tmp_path, eng_rules, passthrough=Passthrough.KEEP):
    """A registry over a copy of the packaged tables whose rom table for
    eng holds eng_rules."""
    root = tmp_path / "tables"
    shutil.copytree(packaged_table_root(), root)
    (root / "rom" / "eng.tsv").write_text(eng_rules, encoding="utf-8")
    return TableRegistry(root, passthrough)


class TestLineUnitPath:
    """A rule table that does not rewrite word by word is applied to each
    distinct line; one that does, to each distinct word. Either way the
    model and report equal those of the line-by-line rendering."""

    @pytest.mark.parametrize("eng_rules, passthrough, by_word", [
        (IDENTITY_RULES, Passthrough.DROP, False),
        ("e\t3\t\t \t1\n", Passthrough.KEEP, False),
        (" \t-\t\t\t1\nk\tq\t\t\t2\n", Passthrough.KEEP, False),
        ("ba\tb a\t\t\t1\n", Passthrough.KEEP, True),
        ("e\t\t\t\t1\nka\t\t\t\t2\n", Passthrough.KEEP, True),
    ], ids=["drop", "space-in-context", "space-in-source", "space-in-target",
            "empty-target"])
    @pytest.mark.parametrize("input_type", [InputType.ROM, InputType.CIPHER])
    def test_byte_equal_to_line_by_line(self, corpora, tmp_path,
                                        romanize_calls, eng_rules,
                                        passthrough, by_word, input_type):
        registry = rom_registry(tmp_path, eng_rules, passthrough)
        table = registry.table(RuleMode.ROMANIZE, "eng")
        assert table.rewrites_by_word is by_word
        config = make_config(input_type, languages=(
            LanguageSpec("eng", True), LanguageSpec("kor", False)))
        corpora = {lang: corpora[lang] for lang in config.langs}
        report = run_experiment(config, corpora, registry=registry,
                                artifacts_dir=tmp_path / "artifacts")
        texts = selected_texts(config, corpora)["eng"]
        # a by-word table converts the whole word table in one call
        assert romanize_calls["eng"] == (1 if by_word else len(set(texts)))
        prepared = prepared_lines(config, corpora, registry)
        assert word_counts(prepared["eng"]) != word_counts(texts)
        model_json, report_json, _ = ref_run(config, corpora, prepared)
        [model_path] = stored(tmp_path / "artifacts", "model")
        assert model_path.read_text(encoding="utf-8") == model_json
        assert dumps_report(report) == report_json
        warm = run_experiment(config, corpora, registry=registry,
                              artifacts_dir=tmp_path / "artifacts")
        assert dumps_report(warm) == report_json
        assert dumps_report(run_experiment(config, corpora,
                                           registry=registry)) == report_json

    def test_error_passthrough_fails_on_the_first_multi_word_line(
            self, corpora, tmp_path):
        registry = rom_registry(tmp_path, IDENTITY_RULES, Passthrough.ERROR)
        config = make_config(InputType.ROM)
        with pytest.raises(UnmatchedCharacterError) as expected:
            prepared_lines(config, corpora, registry)
        assert expected.value.char == " "
        with pytest.raises(PipelineStageError) as excinfo:
            run_experiment(config, corpora, registry=registry)
        assert (excinfo.value.stage, excinfo.value.lang) == \
            ("transliterate", "eng")
        assert str(excinfo.value) == \
            f"stage 'transliterate', language 'eng': {expected.value}"


def converted_per_unit(units, convert):
    """The reference for `_converted`: one call per unit."""
    table = Counter()
    for unit, count in units.items():
        for word in convert(unit).split():
            table[word] += count
    return table


@st.composite
def by_word_tables(draw):
    """Rule tables that rewrite word by word, over Latin letters and the
    jamo of 가 and 각, whose targets may hold a space or be empty."""
    jamo = "ab\u1100\u1161\u11a8"
    specs = draw(st.lists(
        st.tuples(st.text(jamo, min_size=1, max_size=2),
                  st.text("xy ", max_size=3),
                  st.text(jamo, max_size=1), st.text(jamo, max_size=1)),
        max_size=6, unique_by=lambda spec: (spec[0], spec[2], spec[3])))
    rules = tuple(RewriteRule(source, target, left, right, priority)
                  for priority, (source, target, left, right)
                  in enumerate(specs))
    return RuleTable("xx", RuleMode.ROMANIZE, rules)


# word tables: words over Latin letters and Hangul syllables, in the
# order drawn, each with a positive count
word_tables = st.dictionaries(st.text("abc가각", min_size=1, max_size=4),
                              st.integers(min_value=1, max_value=9),
                              max_size=12)


class TestConvertedInOneCall:
    """`_converted` converts a word table in one call and gives the table,
    in its order, that converting each word on its own gives."""

    @given(by_word_tables(), word_tables)
    def test_romanized_table_equals_per_word(self, table, units):
        assert table.rewrites_by_word
        registry = TableRegistry()
        registry._cache[RuleMode.ROMANIZE, "xx"] = table
        calls = []

        def convert(text):
            calls.append(text)
            return registry.romanize("xx", text)

        expected = converted_per_unit(units, convert)
        calls.clear()
        result = pl._converted(units, convert)
        assert list(result.items()) == list(expected.items())
        assert len(calls) == min(1, len(units))

    @given(st.integers(min_value=0, max_value=25), word_tables)
    def test_enciphered_table_equals_per_word(self, shift, units):
        key = CipherKey("xx", shift)
        calls = []

        def convert(text):
            calls.append(text)
            return caesar_encipher(key, text)

        expected = converted_per_unit(units, convert)
        calls.clear()
        result = pl._converted(units, convert)
        assert list(result.items()) == list(expected.items())
        assert len(calls) == min(1, len(units))


class TestArtifacts:
    def test_artifact_files_written(self, corpora, tmp_path):
        config = make_config(InputType.ROM)
        run_experiment(config, corpora, artifacts_dir=tmp_path)
        [report_path] = stored(tmp_path, "report")
        assert len(stored(tmp_path, "model")) == 1
        # each token set takes its report's digest; nothing else is stored
        assert sorted(path.name for path in stored(tmp_path, "tokensets")) \
            == [f"{lang}-{report_path.name}" for lang in ("eng", "kor", "spa")]
        [code_dir] = tmp_path.iterdir()
        assert sorted(path.name for path in code_dir.iterdir()) == \
            ["model", "report", "tokensets"]
        for kind in ("report", "model", "tokensets"):
            for path in stored(tmp_path, kind):
                assert path.is_file(), path
                assert path.with_name(path.name + ".sha256").is_file(), path

    def test_rerun_reuses_cache_byte_identically(self, corpora, tmp_path):
        config = make_config(InputType.ROM)
        first = run_experiment(config, corpora, artifacts_dir=tmp_path)
        [model_path] = stored(tmp_path, "model")
        [report_path] = stored(tmp_path, "report")
        model_before = model_path.read_bytes()
        report_before = report_path.read_bytes()
        second = run_experiment(config, corpora, artifacts_dir=tmp_path)
        assert dumps_report(second) == dumps_report(first)
        assert model_path.read_bytes() == model_before
        assert report_path.read_bytes() == report_before

    def test_downstream_rebuild_from_cached_stages(self, corpora, tmp_path):
        config = make_config(InputType.ROM)
        first = run_experiment(config, corpora, artifacts_dir=tmp_path)
        [report_path] = stored(tmp_path, "report")
        report_bytes = report_path.read_bytes()
        report_path.unlink()
        second = run_experiment(config, corpora, artifacts_dir=tmp_path)
        assert dumps_report(second) == dumps_report(first)
        assert report_path.read_bytes() == report_bytes

    def test_custom_tables_do_not_leak_into_packaged_run(self, corpora,
                                                         tmp_path):
        tables = tmp_path / "tables"
        shutil.copytree(packaged_table_root(), tables)
        (tables / "rom" / "eng.tsv").write_text("e\t3\t\t\t1\n",
                                                encoding="utf-8")
        custom_registry = TableRegistry(tables)
        config = make_config(InputType.ROM)
        artifacts = tmp_path / "artifacts"
        custom = run_experiment(config, corpora, registry=custom_registry,
                                artifacts_dir=artifacts)
        packaged = run_experiment(config, corpora, artifacts_dir=artifacts)
        fresh = run_experiment(config, corpora)
        assert custom.model_digest != fresh.model_digest
        assert dumps_report(packaged) == dumps_report(fresh)
        assert len(stored(artifacts, "report")) == 2
        # each run stored the model it reports, and neither read the other's
        assert sorted(sha256_of(path) for path in stored(artifacts, "model")) \
            == sorted([custom.model_digest, fresh.model_digest])
        assert dumps_report(run_experiment(
            config, corpora, registry=custom_registry)) == dumps_report(custom)

    def test_failed_write_leaves_no_artifact(self, tmp_path, monkeypatch):
        store = pl._StageStore(tmp_path)
        # A lone surrogate cannot be encoded, so the write fails before a
        # file is opened; a failed rename fails after the temporary file
        # is written, which must then be removed.
        with pytest.raises(UnicodeEncodeError):
            store.save_text("prepared/eng.txt", "abc\ud800")
        assert list((store.root / "prepared").iterdir()) == []
        store.save_text("model.json", "whole\n")
        with pytest.raises(UnicodeEncodeError):
            store.save_text("model.json", "abc\ud800")

        def refuse(src, dst):
            raise OSError("rename refused")

        with monkeypatch.context() as patch:
            patch.setattr(pl.os, "replace", refuse)
            with pytest.raises(OSError, match="rename refused"):
                store.save_text("model.json", "other\n")
        assert store.load_text("model.json") == "whole\n"
        assert sorted(path.name for path in store.root.iterdir()) == \
            ["model.json", "model.json.sha256", "prepared"]

    def test_different_configs_use_distinct_digests(self, corpora, tmp_path):
        run_experiment(make_config(InputType.ROM), corpora,
                       artifacts_dir=tmp_path)
        run_experiment(make_config(InputType.ORTHO), corpora,
                       artifacts_dir=tmp_path)
        assert len(stored(tmp_path, "report")) == 2


def _truncate_to_third(path):
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:len(text) // 3], encoding="utf-8")


def _truncate_to_100_bytes(path):
    path.write_bytes(path.read_bytes()[:100])


def _edit_report(path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["quality"]["eng"]["word_count"] += 1
    path.write_text(json.dumps(payload), encoding="utf-8")


def _drop_check(path):
    path.with_name(path.name + ".sha256").unlink()


class TestCorruptCache:
    """A damaged artifact is a miss: the stage recomputes and the run gives
    the fresh report's bytes, never an error or a wrong answer."""

    @pytest.mark.parametrize("kind, lang, damage", [
        ("model", None, _truncate_to_100_bytes),
        ("report", None, _edit_report),
        ("report", None, _drop_check),
        ("model", None, _drop_check),
    ])
    def test_damaged_artifact_is_recomputed(self, corpora, tmp_path, kind,
                                            lang, damage):
        config = make_config(InputType.ROM)
        fresh = dumps_report(run_experiment(config, corpora))
        run_experiment(config, corpora, artifacts_dir=tmp_path)
        [path] = stored(tmp_path, kind, lang)
        before = path.read_bytes()
        damage(path)
        if kind != "report":
            # the report would be served before the damaged stage is read
            stored(tmp_path, "report")[0].unlink()
        again = run_experiment(config, corpora, artifacts_dir=tmp_path)
        assert dumps_report(again) == fresh
        assert path.read_bytes() == before
        assert dumps_report(run_experiment(config, corpora,
                                           artifacts_dir=tmp_path)) == fresh

    def test_checked_artifact_that_does_not_decode_is_a_miss(self, corpora,
                                                              tmp_path):
        config = make_config(InputType.ROM)
        fresh = dumps_report(run_experiment(config, corpora))
        run_experiment(config, corpora, artifacts_dir=tmp_path)
        store = pl._StageStore(tmp_path)
        for kind in ("report", "model"):
            [path] = stored(tmp_path, kind)
            store.save_text(f"{kind}/{path.name}", "{}\n")
        again = run_experiment(config, corpora, artifacts_dir=tmp_path)
        assert dumps_report(again) == fresh


@pytest.fixture
def romanize_calls(monkeypatch):
    """Counts TableRegistry.romanize calls per language."""
    calls = Counter()
    romanize = TableRegistry.romanize

    def counted(self, lang, text):
        calls[lang] += 1
        return romanize(self, lang, text)

    monkeypatch.setattr(TableRegistry, "romanize", counted)
    return calls


class TestSharedStore:
    """Stages keyed by their own inputs are shared between runs that read
    the same inputs, with the bytes of runs into an empty store."""

    @pytest.mark.parametrize("change", ["text", "ids", "budget"])
    def test_changed_input_is_a_miss(self, corpora, tmp_path, change):
        config = make_config(InputType.ROM)
        first = dumps_report(run_experiment(config, corpora,
                                            artifacts_dir=tmp_path))
        changed = dict(corpora)
        eng = corpora["eng"]
        if change == "text":
            changed["eng"] = [dataclasses.replace(doc, text=doc.text + " zz")
                              for doc in eng]
        elif change == "ids":
            changed["eng"] = [dataclasses.replace(doc,
                                                  doc_id=eng[-1 - i].doc_id)
                              for i, doc in enumerate(eng)]
        else:
            config = make_config(InputType.ROM, budget=200)
        fresh = dumps_report(run_experiment(config, changed))
        assert fresh != first
        again = run_experiment(config, changed, artifacts_dir=tmp_path)
        assert dumps_report(again) == fresh

    def test_rerun_returns_stored_report_before_any_stage(self, corpora,
                                                          tmp_path,
                                                          monkeypatch):
        config = make_config(InputType.CIPHER)
        cold = dumps_report(run_experiment(config, corpora,
                                           artifacts_dir=tmp_path))

        def fail(*args, **kwargs):
            raise AssertionError("a stage ran")

        for name in ("sample_to_budget", "caesar_encipher", "loads_model",
                     "train_from_word_counts", "quality_report"):
            monkeypatch.setattr(pl, name, fail)
        monkeypatch.setattr(TableRegistry, "romanize", fail)
        warm = run_experiment(config, corpora, artifacts_dir=tmp_path)
        assert dumps_report(warm) == cold

    def test_budget_sweep_over_whole_corpora_retrains(self, corpora,
                                                      tmp_path):
        # Both seen corpora are under either budget, so each selection and
        # its text is the same; only the repetition counts, and with them
        # the model, differ.
        languages = (LanguageSpec("spa", True), LanguageSpec("kor", True),
                     LanguageSpec("eng", False))
        budgets = (200, 300)
        cold = {budget: run_experiment(
                    make_config(InputType.ROM, languages=languages,
                                budget=budget), corpora,
                    artifacts_dir=tmp_path / f"cold-{budget}")
                for budget in budgets}
        assert cold[200].model_digest != cold[300].model_digest
        for budget in budgets:
            warm = run_experiment(
                make_config(InputType.ROM, languages=languages,
                            budget=budget), corpora,
                artifacts_dir=tmp_path / "shared")
            assert dumps_report(warm) == dumps_report(cold[budget])
        assert len(stored(tmp_path / "shared", "model")) == 2


@pytest.fixture
def load_hits(monkeypatch):
    """Records each _StageStore.load_text call as a hit (True) or a miss."""
    hits = []
    load_text = pl._StageStore.load_text

    def recorded(self, name, *args, **kwargs):
        result = load_text(self, name, *args, **kwargs)
        hits.append(result is not None)
        return result

    monkeypatch.setattr(pl._StageStore, "load_text", recorded)
    return hits


class TestModelKeyedByTable:
    """The model is keyed by the merged training table. The packaged eng
    and spa rom tables rewrite nothing, so Ortho and Rom over them train
    the same model: once in a store, and once in memory for runs without
    one."""

    ITYPES = (InputType.ORTHO, InputType.ROM, InputType.CIPHER)

    def test_grid_without_store_trains_twice(self, corpora, monkeypatch):
        fresh = []
        for itype in self.ITYPES:
            monkeypatch.setattr(pl, "_last_model", None)
            fresh.append(run_experiment(make_config(itype), corpora))
        assert fresh[0].model_digest == fresh[1].model_digest
        monkeypatch.setattr(pl, "_last_model", None)
        rom_model = []
        trainings = []
        train = pl.train_from_word_counts

        def counted(*args, **kwargs):
            # whether Rom's model is freed when this training starts
            trainings.append([ref() is None for ref in rom_model])
            return train(*args, **kwargs)

        monkeypatch.setattr(pl, "train_from_word_counts", counted)
        for itype, expected in zip(self.ITYPES, fresh):
            report = run_experiment(make_config(itype), corpora)
            assert dumps_report(report) == dumps_report(expected)
            if itype is InputType.ROM:
                rom_model.append(weakref.ref(pl._last_model[1]))
        # Ortho trains, Rom reuses its model, Cipher trains with Rom's
        # model already freed
        assert trainings == [[], [True]]

    def test_stored_run_after_runs_without_store_writes_its_model(
            self, corpora, tmp_path):
        unstored = [run_experiment(make_config(itype), corpora)
                    for itype in self.ITYPES[:2]]
        rom = run_experiment(make_config(InputType.ROM), corpora,
                             artifacts_dir=tmp_path)
        assert dumps_report(rom) == dumps_report(unstored[1])
        [model_path] = stored(tmp_path, "model")
        assert hashlib.sha256(model_path.read_bytes()).hexdigest() == \
            rom.model_digest
        assert pl._last_model is None

    def test_ortho_and_rom_share_one_stored_model(self, corpora, tmp_path,
                                                  load_hits):
        ortho = run_experiment(make_config(InputType.ORTHO), corpora,
                               artifacts_dir=tmp_path)
        load_hits.clear()
        rom = run_experiment(make_config(InputType.ROM), corpora,
                             artifacts_dir=tmp_path)
        # Rom misses its report and reads Ortho's model
        assert load_hits == [False, True]
        assert rom.model_digest == ortho.model_digest
        assert len(stored(tmp_path, "model")) == 1
        assert dumps_report(rom) == dumps_report(
            run_experiment(make_config(InputType.ROM), corpora))


class TestStoreLoads:
    """What each run reads from the store, and what makes it a miss."""

    def test_rom_then_cipher_cold_then_warm(self, corpora, tmp_path,
                                            load_hits):
        # a cold run misses its report and its model; a warm run reads only
        # its report
        counts = []
        for itype in (InputType.ROM, InputType.CIPHER) * 2:
            load_hits.clear()
            run_experiment(make_config(itype), corpora,
                           artifacts_dir=tmp_path)
            counts.append(Counter(load_hits))
        assert counts == [Counter({False: 2}), Counter({False: 2}),
                          Counter({True: 1}), Counter({True: 1})]

    def test_other_code_digest_misses_every_load(self, corpora, tmp_path,
                                                 monkeypatch, load_hits):
        config = make_config(InputType.ROM)
        first = dumps_report(run_experiment(config, corpora,
                                            artifacts_dir=tmp_path))
        code, other = pl._CODE_DIGEST, "0" * 64
        monkeypatch.setattr(pl, "_CODE_DIGEST", other)
        load_hits.clear()
        again = run_experiment(config, corpora, artifacts_dir=tmp_path)
        assert load_hits == [False] * 2
        assert dumps_report(again) == first
        # the first code's entries stay beside the new ones, each code's in
        # its own directory and nothing else at the top
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            sorted([code, other])
        assert len(stored(tmp_path, "report")) == 2
        assert len(stored(tmp_path, "model")) == 2
        # pruning is deleting the other code's directory; the first code's
        # entries are then all that a warm run of it reads
        shutil.rmtree(tmp_path / other)
        monkeypatch.setattr(pl, "_CODE_DIGEST", code)
        load_hits.clear()
        warm = run_experiment(config, corpora, artifacts_dir=tmp_path)
        assert load_hits == [True]
        assert dumps_report(warm) == first

    def test_code_digest_reads_every_module_in_name_order(self,
                                                          monkeypatch):
        read = []
        get_data = SourceFileLoader.get_data

        def recorded(self, path):
            read.append(Path(path).name)
            return get_data(self, path)

        monkeypatch.setattr(SourceFileLoader, "get_data", recorded)
        assert pl._code_digest() == pl._CODE_DIGEST
        modules = sorted(path.name for path in
                         Path(pl.__file__).parent.glob("*.py"))
        modules.remove("__init__.py")
        # cli is read although the package does not import it
        assert "cli.py" in modules
        assert read == ["__init__.py"] + modules

    def test_checked_text_that_does_not_decode_is_a_miss(self, tmp_path):
        store = pl._StageStore(tmp_path)
        store.save_text("a.json", "{}\n")
        assert store.load_text("a.json") == "{}\n"
        assert store.load_text("a.json", json.loads) == {}

        def reject(text):
            raise ValueError("does not decode")

        assert store.load_text("a.json", reject) is None

    def test_checked_text_nested_too_deep_is_a_miss(self, tmp_path):
        # json.loads raises RecursionError, not ValueError, on this text
        store = pl._StageStore(tmp_path)
        store.save_text("model/deep.json", "[" * 200000)
        assert store.load_text("model/deep.json", loads_model) is None

    def test_grid_renders_each_rule_table_once(self, corpora, monkeypatch):
        renders = Counter()
        render = translit.format_rule_table

        def counted(table):
            renders[table.lang] += 1
            return render(table)

        monkeypatch.setattr(translit, "format_rule_table", counted)
        registry = TableRegistry()
        for itype in (InputType.ORTHO, InputType.ROM, InputType.CIPHER):
            run_experiment(make_config(itype), corpora, registry=registry)
        assert renders == Counter({"eng": 1, "spa": 1, "kor": 1})


class TestRunWithoutStore:
    """A run without an artifacts dir keys its stages as a stored run does,
    but renders and writes nothing, and gives the stored run's bytes."""

    @pytest.mark.parametrize("itype", [InputType.ORTHO, InputType.ROM,
                                       InputType.CIPHER])
    def test_renders_nothing_and_matches_stored_run(self, corpora, tmp_path,
                                                    monkeypatch, itype):
        calls = Counter()

        def counted(name, original):
            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return call

        for name in ("dumps_report", "dumps"):
            monkeypatch.setattr(pl, name, counted(name, getattr(pl, name)))
        monkeypatch.setattr(pl._StageStore, "save_text",
                            counted("save_text", pl._StageStore.save_text))
        config = make_config(itype)
        unstored = run_experiment(config, corpora)
        assert calls == Counter()
        stored_run = run_experiment(config, corpora, artifacts_dir=tmp_path)
        # the same counters see every render and write of a stored run:
        # three token sets, the report (dumps_report calls dumps too) and
        # the model
        assert calls == Counter({"dumps_report": 1, "dumps": 4,
                                 "save_text": 5})
        monkeypatch.undo()
        assert dumps_report(unstored) == dumps_report(stored_run)


GRID = (InputType.ORTHO, InputType.ROM, InputType.CIPHER)


@pytest.fixture
def corpus_files(corpora, tmp_path):
    """The corpora read back from files, as one Corpus per language, and
    the grid's reports from runs given lists of their documents."""
    files = {}
    for lang, docs in corpora.items():
        path = tmp_path / f"{lang}.txt"
        path.write_text("".join(f"{doc.text}\n\n" for doc in docs),
                        encoding="utf-8")
        files[lang] = read_documents(path, lang)
    expected = [dumps_report(run_experiment(
                    make_config(itype),
                    {lang: list(docs) for lang, docs in files.items()}))
                for itype in GRID]
    return files, expected


class TestSharedCorpora:
    """Runs given the same Corpus per language digest, sample and count
    each corpus once, and give the bytes of runs given lists of its
    documents."""

    def test_grid_digests_and_samples_each_corpus_once(self, corpus_files,
                                                       tmp_path,
                                                       monkeypatch):
        files, expected = corpus_files
        calls = Counter()

        def counted(name):
            original = getattr(Corpus, name)

            def call(self, *args):
                calls[name] += 1
                return original(self, *args)
            return call

        # every digest made lists the ids; every selection made orders them
        for name in ("_ids", "_id_order"):
            monkeypatch.setattr(Corpus, name, counted(name))
        for store in (None, tmp_path / "artifacts"):
            for itype, report in zip(GRID, expected):
                assert dumps_report(run_experiment(
                    make_config(itype), files, artifacts_dir=store)) == report
        # three corpora digested once each; two selections made once each
        assert calls == Counter({"_ids": 3, "_id_order": 2})

    def test_grid_without_store_counts_each_corpus_once(self, corpus_files,
                                                        monkeypatch):
        files, expected = corpus_files
        counted = []
        count = corpus_module.word_counts

        def recorded(lines):
            counted.append(lines)
            return count(lines)

        monkeypatch.setattr(corpus_module, "word_counts", recorded)
        for itype, report in zip(GRID, expected):
            assert dumps_report(run_experiment(make_config(itype),
                                               files)) == report
        # two seen selections and one unseen corpus, each counted by the
        # first run and read from the corpus by the other two
        assert len(counted) == 3


@pytest.fixture
def table_root(tmp_path):
    """A copy of the packaged tables with eng's rom table replaced by one
    that rewrites e as 3."""
    root = tmp_path / "tables"
    shutil.copytree(packaged_table_root(), root)
    (root / "rom" / "eng.tsv").write_text("e\t3\t\t\t1\n", encoding="utf-8")
    return root


def _without_config_digest(report):
    return dumps_report(dataclasses.replace(report, config_digest=""))


class TestTableRoot:
    """A config's table_root replaces the packaged tables for that run."""

    def test_run_reads_the_roots_tables(self, corpora, tmp_path, table_root):
        artifacts = tmp_path / "artifacts"
        rooted = run_experiment(
            make_config(InputType.ROM, table_root=str(table_root)), corpora,
            artifacts_dir=artifacts)
        explicit = run_experiment(make_config(InputType.ROM), corpora,
                                  registry=TableRegistry(table_root))
        packaged = run_experiment(make_config(InputType.ROM), corpora,
                                  artifacts_dir=artifacts)
        assert _without_config_digest(rooted) == \
            _without_config_digest(explicit)
        assert rooted.model_digest != packaged.model_digest
        # each run stored its own report and model under the one store
        assert len(stored(artifacts, "report")) == 2
        assert sorted(sha256_of(path) for path in stored(artifacts, "model")) \
            == sorted([rooted.model_digest, packaged.model_digest])

    def test_packaged_tables_are_not_consulted(self, corpora, table_root):
        (table_root / "rom" / "kor.tsv").unlink()
        config = make_config(InputType.ROM, table_root=str(table_root))
        with pytest.raises(PipelineStageError) as excinfo:
            run_experiment(config, corpora)
        assert (excinfo.value.stage, excinfo.value.lang) == \
            ("transliterate", "kor")
        assert str(table_root) in str(excinfo.value)

    def test_relative_root_resolves_against_working_directory(
            self, corpora, tmp_path, table_root, monkeypatch):
        absolute = run_experiment(
            make_config(InputType.ROM, table_root=str(table_root)), corpora)
        monkeypatch.chdir(tmp_path)
        relative = run_experiment(
            make_config(InputType.ROM, table_root="tables"), corpora)
        assert _without_config_digest(relative) == \
            _without_config_digest(absolute)


class TestReportSerialization:
    def test_json_save_load_is_byte_stable(self, corpora, tmp_path):
        report = run_experiment(make_config(InputType.ROM), corpora)
        path = tmp_path / "report.json"
        path.write_text(dumps_report(report), encoding="utf-8")
        loaded = load_report(path)
        assert dumps_report(loaded) == dumps_report(report)

    def test_overlap_keys_must_match_unseen(self, corpora):
        report = run_experiment(make_config(InputType.ROM), corpora)
        payload = report.to_json_dict()
        payload["overlap"] = {}
        with pytest.raises(ValueError, match="unseen"):
            AnalysisReport.from_json_dict(payload)

    def test_quality_entries_must_match_key_and_input_type(self, corpora):
        payload = run_experiment(make_config(InputType.ROM),
                                 corpora).to_json_dict()
        for field, value in (("lang", "spa"), ("input_type", "Ortho")):
            bad = json.loads(json.dumps(payload))
            bad["quality"]["eng"][field] = value
            with pytest.raises(ValueError, match="quality report under"):
                AnalysisReport.from_json_dict(bad)

    def test_csv_rows_shape(self, corpora):
        report = run_experiment(make_config(InputType.ROM), corpora)
        rows = report.to_csv_rows()
        assert all(len(row) == 5 for row in rows)
        metrics = {(row[0], row[2]) for row in rows}
        for lang in ("eng", "spa", "kor"):
            assert (lang, "unk_ratio") in metrics
            assert (lang, "fertility") in metrics
            assert (lang, "vocab_coverage") in metrics
        assert ("kor", "overlap_ratio") in metrics
        assert ("eng", "overlap_ratio") not in metrics
        assert all(row[1] == "Rom" for row in rows)

    def test_csv_rows_exact(self, corpora):
        report = run_experiment(make_config(InputType.ROM), corpora)
        expected = []
        for lang in ("eng", "kor", "spa"):
            quality = report.quality[lang]
            expected += [
                [lang, "Rom", "unk_ratio", "", float(quality.unk_ratio)],
                [lang, "Rom", "fertility", "", float(quality.fertility)],
                [lang, "Rom", "vocab_coverage", "",
                 float(quality.vocab_coverage)]]
            expected += [[lang, "Rom", "coverage_by_length", length,
                          float(ratio)] for length, ratio
                         in sorted(quality.coverage_by_length.items())]
        overlap = report.overlap["kor"]
        expected.append(["kor", "Rom", "overlap_ratio", "",
                         float(overlap.overall_ratio)])
        expected += [["kor", "Rom", "overlap_by_length", length,
                      float(ratio)] for length, ratio
                     in sorted(overlap.by_length.items())]
        assert report.to_csv_rows() == expected

    def test_csv_rows_start_with_each_quality_report_in_order(self, corpora):
        report = run_experiment(make_config(InputType.ROM), corpora)
        quality_rows = [row for lang in sorted(report.quality)
                        for row in report.quality[lang].to_csv_rows()]
        assert report.to_csv_rows()[:len(quality_rows)] == quality_rows


@pytest.fixture(scope="module")
def reports(corpora):
    return [run_experiment(make_config(itype), corpora)
            for itype in (InputType.ORTHO, InputType.ROM)]


class TestCompareInputTypes:
    def test_row_shape(self, reports):
        table = compare_input_types(reports)
        assert table.input_types == ("Ortho", "Rom")
        assert table.langs == ("eng", "kor", "spa")
        assert len(table.rows) == len(table.langs) * 4

    def test_baseline_deltas_are_zero(self, reports):
        table = compare_input_types(reports)
        for row in table.rows:
            if row.values["Ortho"] is not None:
                assert row.deltas["Ortho"] == 0.0

    def test_unk_delta_direction(self, reports):
        table = compare_input_types(reports)
        kor_unk = next(row for row in table.rows
                       if row.lang == "kor" and row.metric == "unk_ratio")
        assert kor_unk.values["Ortho"] == 1.0
        assert kor_unk.values["Rom"] == 0.0
        assert kor_unk.deltas["Rom"] == -1.0

    def test_overlap_rows_empty_for_seen(self, reports):
        table = compare_input_types(reports)
        eng_overlap = next(row for row in table.rows
                           if row.lang == "eng"
                           and row.metric == "overlap_ratio")
        assert eng_overlap.values == {"Ortho": None, "Rom": None}
        assert eng_overlap.deltas == {"Ortho": None, "Rom": None}

    def test_coverage_matrix_types(self, reports):
        table = compare_input_types(reports)
        assert set(table.coverage_by_length) == {"Ortho", "Rom"}
        for lengths in table.coverage_by_length.values():
            assert all(value >= 0 for value in lengths.values())

    def test_csv_layout(self, reports):
        rows = compare_input_types(reports).to_csv_rows()
        assert rows[0] == ["lang", "metric", "value_Ortho", "value_Rom",
                           "delta_Ortho", "delta_Rom"]
        assert len(rows) == 1 + 3 * 4

    def test_json_dict_shape(self, reports):
        payload = compare_input_types(reports).to_json_dict()
        assert payload["input_types"] == ["Ortho", "Rom"]
        assert len(payload["rows"]) == 12

    def test_identical_reports_rejected(self, reports):
        with pytest.raises(ValueError, match="duplicate"):
            compare_input_types([reports[0], reports[0]])

    def test_single_report_rejected(self, reports):
        with pytest.raises(ValueError, match="two"):
            compare_input_types([reports[0]])

    def test_mismatched_runs_rejected(self, corpora, reports):
        other_seed = run_experiment(make_config(InputType.ROM, seed=8),
                                    corpora)
        with pytest.raises(ValueError, match="seed"):
            compare_input_types([reports[0], other_seed])
        other_vocab = run_experiment(make_config(InputType.ROM,
                                                 vocab_size=70), corpora)
        with pytest.raises(ValueError, match="vocab"):
            compare_input_types([reports[0], other_vocab])
        other_langs = run_experiment(
            make_config(InputType.ROM,
                        languages=(LanguageSpec("eng", True),
                                   LanguageSpec("kor", False))),
            {k: corpora[k] for k in ("eng", "kor")})
        with pytest.raises(ValueError, match="language"):
            compare_input_types([reports[0], other_langs])

    def test_other_overlap_variant_rejected(self, corpora, reports):
        # "all" divides by the union of every source, "max" by the best
        # single source: their ratios are different metrics
        other_variant = run_experiment(
            make_config(InputType.ROM,
                        overlap_variant=OverlapVariant.ALL_SOURCES), corpora)
        with pytest.raises(ValueError,
                           match="different variants: 'all', 'max'"):
            compare_input_types([reports[0], other_variant])


class TestStageError:
    def test_carries_context(self):
        cause = ValueError("boom")
        error = PipelineStageError("train", None, cause)
        assert error.stage == "train"
        assert error.lang is None
        assert error.cause is cause
        assert "train" in str(error)
        located = PipelineStageError("sample", "kor", cause)
        assert "kor" in str(located)
