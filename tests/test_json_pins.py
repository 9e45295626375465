"""Byte pins on the JSON form of every record kind.

Each record is rendered with the CLI's canonical JSON writer and its
sha256 is pinned on fixed fixtures; records holding exact fractions must
read back to the same bytes, the others to an equal record.
"""

import hashlib
import json
import random

import pytest

from scriptshift.cli import write_report
from scriptshift.corpus import CorpusManifest, Document
from scriptshift.input_types import InputType
from scriptshift.metrics import OverlapReport, TokenizerQualityReport
from scriptshift.pipeline import (AnalysisReport, ExperimentConfig,
                                  LanguageSpec, compare_input_types,
                                  dumps_report, run_experiment)
from scriptshift.tokenizer import TokenSet, dumps_model

from support import hangul_lines, latin_lines, the_cat_model


def dumps(payload) -> str:
    return write_report(payload, "json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def as_documents(lang, lines):
    return [Document(doc_id=f"{lang}-{i:04d}", lang=lang, text=line)
            for i, line in enumerate(lines)]


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


@pytest.fixture(scope="module")
def reports():
    rng = random.Random(42)
    corpora = {
        "eng": as_documents("eng", latin_lines(rng, 400, vocabulary=80)),
        "spa": as_documents("spa", latin_lines(rng, 30, vocabulary=15,
                                               words_per_line=6)),
        "kor": as_documents("kor", hangul_lines(rng, 120, vocabulary=40)),
    }
    return {itype: run_experiment(make_config(InputType.parse(itype)),
                                  corpora)
            for itype in ("Ortho", "Rom", "Cipher")}


REPORT_PINS = {
    "Ortho":
        "ad94e49907cfd251165f77e5b3b76b4ee9121e6cfc76afd055849c6bef374bdc",
    "Rom":
        "2655c4f9dcfb1dde8fd17cc9c9c389632a439ac515c0fa762992d3aca6012118",
    "Cipher":
        "1c0f9cff6b57b8ec0fbf71704a65c7342731c7378b0af81f3b28a6a175cd13b8",
}


@pytest.mark.parametrize("itype", sorted(REPORT_PINS))
def test_report_bytes_and_round_trip(reports, itype):
    report = reports[itype]
    text = dumps(report.to_json_dict())
    assert text == dumps_report(report)
    assert sha256(text) == REPORT_PINS[itype]
    for payload in (report.to_json_dict(), json.loads(text)):
        assert dumps(AnalysisReport.from_json_dict(payload)
                     .to_json_dict()) == text


def test_ortho_report_has_unseen_language_with_empty_overlap(reports):
    overlap = reports["Ortho"].overlap["kor"]
    assert overlap.best_source is None and overlap.by_length == {}


SUB_REPORT_PINS = {
    ("Rom", "quality", "eng"):
        "a6a74bd08a17828c538230f6d53065f22a54bf924fad128b319003330e52e491",
    ("Rom", "quality", "kor"):
        "d81bfd5836e61c48110dea40ede26fef04bdf7b1aed8fc253c171c0e51712cb9",
    ("Rom", "overlap", "kor"):
        "6b5dcc4a9ef41f81f5f6993a9a6ef71c4b3c28141561610a62aa1a63c69a82de",
    ("Ortho", "overlap", "kor"):
        "5dd9361185d63f9f1a6ffb9e8451eb3c0d303232784865404c4c99de947286e1",
}


@pytest.mark.parametrize("itype, kind, lang", sorted(SUB_REPORT_PINS))
def test_sub_report_bytes_and_round_trip(reports, itype, kind, lang):
    record = getattr(reports[itype], kind)[lang]
    cls = {"quality": TokenizerQualityReport, "overlap": OverlapReport}[kind]
    text = dumps(record.to_json_dict())
    assert sha256(text) == SUB_REPORT_PINS[itype, kind, lang]
    assert dumps(cls.from_json_dict(json.loads(text)).to_json_dict()) == text


def test_config_bytes_and_round_trip():
    config = make_config(InputType.CIPHER, table_root="tables/custom",
                         cipher_shifts={"spa": 2, "eng": 1, "kor": 25})
    text = dumps(config.to_json_dict())
    assert sha256(text) == \
        "accc79e5d860e2bdb086f4fb4b12efd2a5eda7e4031c85bd691c0f49fdded6ed"
    assert config.digest() == \
        "40cc06f91ae36a3aaf22ae10d4f2577c33fba38b4964c685513a1eaa855558c4"
    assert ExperimentConfig.from_json_dict(json.loads(text)) == config


def test_token_set_bytes_and_round_trip():
    ts = TokenSet("kor", InputType.ROM,
                  frozenset({"an", "a", "한", "café", "z"}))
    text = dumps(ts.to_json_dict())
    assert sha256(text) == \
        "e28457a9401132fdc9177b30c936cd0d156a803de519ddb733731c01721e3561"
    assert TokenSet.from_json_dict(json.loads(text)) == ts


def test_manifest_bytes_and_round_trip():
    manifest = CorpusManifest("spa", InputType.IPA, doc_count=12,
                              word_count=340, sampling_seed=7,
                              under_budget=True)
    text = dumps(manifest.to_json_dict())
    assert sha256(text) == \
        "84888916b4e1d491fedf7ed63f62b94347bc6be5e8628632a507e07b463e78f7"
    assert CorpusManifest.from_json_dict(json.loads(text)) == manifest


def test_comparison_table_bytes(reports):
    table = compare_input_types([reports[t] for t in ("Ortho", "Rom",
                                                      "Cipher")])
    assert sha256(dumps(table.to_json_dict())) == \
        "f502af4cebded980477d436f095546497a2c22940572c2099bf6fedd56169af5"


def test_comparison_of_reports_read_back_has_the_same_bytes(reports):
    runs = [reports[t] for t in ("Ortho", "Rom", "Cipher")]
    read_back = [AnalysisReport.from_json_dict(json.loads(dumps_report(r)))
                 for r in runs]
    assert dumps(compare_input_types(read_back).to_json_dict()) == \
        dumps(compare_input_types(runs).to_json_dict())


def test_model_bytes():
    assert sha256(dumps_model(the_cat_model())) == \
        "0b76416d4a46bab0df9a25ebd95665cb79b5feb7b9444c3fa83af787302a558e"
