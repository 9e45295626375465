"""The shared JSON codec: the canonical text, type-checked reads, and
errors that name the record and the field."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scriptshift.corpus import Document
from scriptshift.input_types import InputType
from scriptshift.metrics import OverlapReport, OverlapVariant
from scriptshift.pipeline import (AnalysisReport, ConfigError,
                                  ExperimentConfig, LanguageSpec,
                                  run_experiment)
from scriptshift.records import RecordError, dumps
from scriptshift.tokenizer import (ModelFormatError, SubwordModel, TokenSet,
                                   train)

from support import hangul_lines, latin_lines

CONFIG = {"languages": [{"lang": "eng", "seen": True},
                        {"lang": "kor", "seen": False}],
          "input_type": "Cipher", "vocab_size": 50, "budget": 100, "seed": 7,
          "cipher_shifts": {"eng": 1, "kor": 2}, "table_root": "tables"}
TOKEN_SET = {"lang": "kor", "input_type": "Rom",
             "tokens": ["a", "an", "\ud55c"]}


@pytest.fixture(scope="module")
def report_payload():
    rng = random.Random(3)
    corpora = {lang: [Document(f"{lang}-{i}", lang, line)
                      for i, line in enumerate(lines)]
               for lang, lines in (("eng", latin_lines(rng, 200, 40)),
                                   ("kor", hangul_lines(rng, 60, 20)))}
    config = ExperimentConfig.from_json_dict(
        dict(CONFIG, input_type="Rom", cipher_shifts=None, table_root=None))
    return run_experiment(config, corpora).to_json_dict()


@pytest.fixture(scope="module")
def model_payload():
    return train(["abab abab", "abab ab"], 8).to_json_dict()


def test_dumps_is_the_canonical_text():
    payload = {"b": [1, 0.5], "a": "\u00e9"}
    assert dumps(payload) == ('{\n  "a": "\\u00e9",\n  "b": [\n    1,\n'
                              '    0.5\n  ]\n}\n')
    for constant in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            dumps({"t": constant})


def test_encoding_rule():
    report = OverlapReport("kor", OverlapVariant.TYPE_RATIO, "eng",
                           Fraction(1, 4), {10: Fraction(1, 8),
                                            2: Fraction(1, 8)})
    assert report.to_json_dict() == {
        "target_lang": "kor", "variant": "type", "best_source": "eng",
        "overall_ratio": 0.25, "by_length": {"10": 0.125, "2": 0.125}}
    ts = TokenSet("kor", InputType.ROM, frozenset({"b", "a"}))
    assert ts.to_json_dict()["tokens"] == ["a", "b"]


def test_reads_parse_keys_and_fill_defaults():
    report = OverlapReport.from_json_dict(
        {"target_lang": "kor", "variant": "max", "best_source": None,
         "overall_ratio": 1, "by_length": {"3": 0.5, "1": 0.5}})
    assert report.by_length == {3: Fraction(1, 2), 1: Fraction(1, 2)}
    assert report.overall_ratio == 1
    config = ExperimentConfig.from_json_dict(
        {"languages": [{"lang": "eng", "seen": True}], "input_type": "Rom"})
    assert config == ExperimentConfig((LanguageSpec("eng", True),),
                                      InputType.ROM)


@pytest.mark.parametrize("keys", [["01"], ["1", "01"], ["1_0"], [" 2"],
                                  ["+1"], ["-0"], ["\u0661"]])
def test_int_keys_read_only_as_written(keys):
    # int() reads each of these, so "1" and "01" used to read as one key
    with pytest.raises(RecordError,
                       match=r"^malformed OverlapReport\.by_length: "):
        OverlapReport.from_json_dict(
            {"target_lang": "kor", "variant": "max", "best_source": None,
             "overall_ratio": 1, "by_length": dict.fromkeys(keys, 0.5)})


def test_input_type_keeps_the_parse_rule():
    ts = TokenSet.from_json_dict(dict(TOKEN_SET, input_type=" cIPHER "))
    assert ts.input_type is InputType.CIPHER
    with pytest.raises(RecordError) as caught:
        TokenSet.from_json_dict(dict(TOKEN_SET, input_type="Latin"))
    assert str(caught.value) == (
        "malformed TokenSet.input_type: unknown input type 'Latin'; "
        "expected one of ['Ortho', 'IPA', 'Rom', 'Cipher']")


@pytest.mark.parametrize("change, message", [
    ({"languages": [{"lang": "eng", "seen": "false"}]},
     "languages: LanguageSpec.seen: expected bool, got 'false'"),
    ({"languages": [{"lang": "eng", "seen": 1}]},
     "languages: LanguageSpec.seen: expected bool, got 1"),
    ({"seed": True}, "seed: expected int, got True"),
    ({"seed": 1.0}, "seed: expected int, got 1.0"),
    ({"vocab_size": "2000"}, "vocab_size: expected int, got '2000'"),
    ({"table_root": 3}, "table_root: expected str, got 3"),
    ({"cipher_shifts": {"eng": 1, "kor": "2"}},
     "cipher_shifts: expected int, got '2'"),
    ({"overlap_variant": "best"},
     "overlap_variant: 'best' is not a valid OverlapVariant"),
    ({"input_type": None}, "input_type: expected str, got None"),
])
def test_config_type_errors_name_the_field(change, message):
    with pytest.raises(ConfigError) as caught:
        ExperimentConfig.from_json_dict(dict(CONFIG, **change))
    assert str(caught.value) == f"malformed ExperimentConfig.{message}"


def test_config_checks_pass_through_unwrapped():
    with pytest.raises(ConfigError) as caught:
        ExperimentConfig.from_json_dict(
            dict(CONFIG, languages=[{"lang": "eng", "seen": False}]))
    assert str(caught.value) == "config needs at least one seen language"
    with pytest.raises(ConfigError, match="malformed ExperimentConfig: "
                                          "shift must be in 0..25"):
        ExperimentConfig.from_json_dict(
            dict(CONFIG, cipher_shifts={"eng": 1, "kor": 26}))


@pytest.mark.parametrize("value", ["0.5", float("nan"), float("inf"),
                                   10 ** 400, False, None])
def test_ratios_take_only_finite_numbers(value):
    with pytest.raises(RecordError,
                       match=r"^malformed OverlapReport\.overall_ratio: "):
        OverlapReport.from_json_dict(
            {"target_lang": "kor", "variant": "max", "best_source": None,
             "overall_ratio": value, "by_length": {}})


def test_nested_errors_name_each_record(report_payload):
    bad = copy.deepcopy(report_payload)
    bad["quality"]["eng"]["coverage_by_length"] = {"one": 0.5}
    with pytest.raises(RecordError) as caught:
        AnalysisReport.from_json_dict(bad)
    assert str(caught.value).startswith(
        "malformed AnalysisReport.quality: "
        "TokenizerQualityReport.coverage_by_length: ")
    del bad["quality"]
    with pytest.raises(RecordError, match=r"AnalysisReport\.quality: "
                                          r"missing$"):
        AnalysisReport.from_json_dict(bad)


@pytest.mark.parametrize("kind", ["report", "token-set", "nested"])
def test_unknown_field_rejected(report_payload, kind):
    # a misspelled key used to be read as if it were absent
    cls, payload, error, where = {
        "report": (AnalysisReport, report_payload, RecordError,
                   "AnalysisReport"),
        "token-set": (TokenSet, TOKEN_SET, RecordError, "TokenSet"),
        "nested": (AnalysisReport, report_payload, RecordError,
                   "AnalysisReport.quality: TokenizerQualityReport"),
    }[kind]
    payload = copy.deepcopy(payload)
    if kind == "nested":
        payload["quality"]["eng"]["fertilty"] = 1.0
    else:
        payload.update(zeta=1, alpha=None)
    with pytest.raises(error) as caught:
        cls.from_json_dict(payload)
    unknown = "'fertilty'" if kind == "nested" else "'alpha', 'zeta'"
    assert str(caught.value) == f"malformed {where}: unknown fields {unknown}"


# --- Mutations -----------------------------------------------------------------

JSON_VALUES = [None, True, 0, 2, 1.5, "", "x", [], [1], {}, {"k": 1}]


def _mutate(payload, data):
    """Walk to a random node, then drop it from its object or replace it
    with a value of another JSON type."""
    payload = copy.deepcopy(payload)
    parent, key, node = None, None, payload
    while isinstance(node, (dict, list)) and node \
            and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    other = st.sampled_from([value for value in JSON_VALUES
                             if type(value) is not type(node)])
    if parent is None:
        return data.draw(other)
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(other)
    return payload


@pytest.mark.parametrize("kind", ["report", "token-set", "config", "model"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_payload_reads_or_raises_the_documented_error(
        report_payload, model_payload, kind, data):
    cls, payload, error = {
        "report": (AnalysisReport, report_payload, RecordError),
        "model": (SubwordModel, model_payload, ModelFormatError),
        "token-set": (TokenSet, TOKEN_SET, RecordError),
        "config": (ExperimentConfig, CONFIG, ConfigError),
    }[kind]
    mutated = _mutate(payload, data)
    try:
        record = cls.from_json_dict(mutated)
    except error:
        return
    dumps(record.to_json_dict())  # a record that reads also writes
