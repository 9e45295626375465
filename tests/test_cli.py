"""Command-line interface: subcommands, formats, and exit codes."""

import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import scriptshift
from scriptshift.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_WRITE,
                             main)

from support import hangul_lines, latin_lines, stored


def run_cli(monkeypatch, capsys, argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTranslitCommand:
    def test_cipher_shift(self, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch, capsys,
            ["translit", "--mode", "cipher", "--shift", "4"],
            stdin="apple\n")
        assert code == EXIT_OK
        assert out == "ettpi\n"
        assert err == ""

    def test_cipher_round_trip(self, monkeypatch, capsys):
        _, enciphered, _ = run_cli(
            monkeypatch, capsys,
            ["translit", "--mode", "cipher", "--shift", "11"],
            stdin="the quick brown fox\n")
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["translit", "--mode", "cipher", "--shift", "11", "--decipher"],
            stdin=enciphered)
        assert code == EXIT_OK
        assert out == "the quick brown fox\n"

    def test_cipher_keys_file(self, monkeypatch, capsys, tmp_path):
        keys = tmp_path / "keys.json"
        keys.write_text(json.dumps({"spa": 3}), encoding="utf-8")
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["translit", "--mode", "cipher", "--keys", str(keys),
             "--lang", "spa"],
            stdin="abc\n")
        assert code == EXIT_OK
        assert out == "def\n"

    def test_cipher_flag_conflicts(self, monkeypatch, capsys, tmp_path):
        keys = tmp_path / "keys.json"
        keys.write_text("{}", encoding="utf-8")
        both = ["translit", "--mode", "cipher", "--shift", "1",
                "--keys", str(keys)]
        assert run_cli(monkeypatch, capsys, both)[0] == EXIT_CONFIG
        neither = ["translit", "--mode", "cipher"]
        assert run_cli(monkeypatch, capsys, neither)[0] == EXIT_CONFIG
        no_lang = ["translit", "--mode", "cipher", "--keys", str(keys)]
        assert run_cli(monkeypatch, capsys, no_lang)[0] == EXIT_CONFIG
        missing = ["translit", "--mode", "cipher", "--keys", str(keys),
                   "--lang", "spa"]
        assert run_cli(monkeypatch, capsys, missing)[0] == EXIT_CONFIG

    def _keys_error(self, monkeypatch, capsys, tmp_path, text):
        keys = tmp_path / "keys.json"
        keys.write_text(text, encoding="utf-8")
        code, out, err = run_cli(
            monkeypatch, capsys,
            ["translit", "--mode", "cipher", "--keys", str(keys),
             "--lang", "eng"], stdin="abc\n")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith(f"error: {keys}: ")
        assert err.count("\n") == 1
        return err

    def test_cipher_keys_list_shift_exits_2(self, monkeypatch, capsys,
                                            tmp_path):
        err = self._keys_error(monkeypatch, capsys, tmp_path, '{"eng": [1]}')
        assert err.endswith("expected int, got [1]\n")

    def test_cipher_keys_top_level_string_exits_2(self, monkeypatch, capsys,
                                                  tmp_path):
        err = self._keys_error(monkeypatch, capsys, tmp_path, '"eng"')
        assert err.endswith("expected dict, got 'eng'\n")

    def test_cipher_keys_float_shift_exits_2(self, monkeypatch, capsys,
                                             tmp_path):
        err = self._keys_error(monkeypatch, capsys, tmp_path, '{"eng": 1.7}')
        assert err.endswith("expected int, got 1.7\n")

    def test_cipher_keys_bool_shift_exits_2(self, monkeypatch, capsys,
                                            tmp_path):
        err = self._keys_error(monkeypatch, capsys, tmp_path,
                               '{"eng": true}')
        assert err.endswith("expected int, got True\n")

    def test_cipher_keys_out_of_range_or_not_json_exits_2(
            self, monkeypatch, capsys, tmp_path):
        err = self._keys_error(monkeypatch, capsys, tmp_path, '{"eng": 26}')
        assert err.endswith("shift must be in 0..25, got 26\n")
        err = self._keys_error(monkeypatch, capsys, tmp_path, '{"eng": 3')
        assert err.endswith("Expecting ',' delimiter: line 1 column 10 "
                            "(char 9)\n")

    def test_cipher_keys_nested_too_deep_exits_2(self, monkeypatch, capsys,
                                                 tmp_path):
        # json.loads raises RecursionError here, which used to escape as a
        # traceback with exit 1
        err = self._keys_error(monkeypatch, capsys, tmp_path, "[" * 200000)
        assert "recursion" in err

    def test_g2p_packaged_table(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["translit", "--mode", "g2p", "--lang", "spa"],
            stdin="hotel chica\n")
        assert code == EXIT_OK
        assert out == "otel tʃika\n"

    def test_rom_packaged_table(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["translit", "--mode", "rom", "--lang", "kor"],
            stdin="안녕하세요\n")
        assert code == EXIT_OK
        assert out == "annyeonghaseyo\n"

    def test_unsupported_language(self, monkeypatch, capsys):
        code, _, err = run_cli(
            monkeypatch, capsys,
            ["translit", "--mode", "g2p", "--lang", "zzz"],
            stdin="x\n")
        assert code == EXIT_DATA
        assert "zzz" in err

    def test_mode_needs_lang_or_table(self, monkeypatch, capsys):
        code, _, err = run_cli(monkeypatch, capsys,
                               ["translit", "--mode", "g2p"], stdin="x\n")
        assert code == EXIT_CONFIG
        assert "lang" in err

    def test_error_passthrough_reports_position(self, monkeypatch, capsys):
        code, _, err = run_cli(
            monkeypatch, capsys,
            ["translit", "--mode", "g2p", "--lang", "spa",
             "--passthrough", "error"],
            stdin="ch9\n")
        assert code == EXIT_DATA
        assert "9" in err

    def test_file_input_output(self, monkeypatch, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("apple\nzebra\n", encoding="utf-8")
        dst = tmp_path / "out.txt"
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["translit", "--mode", "cipher", "--shift", "1",
             "--input", str(src), "--output", str(dst)])
        assert code == EXIT_OK
        assert out == ""
        assert dst.read_text(encoding="utf-8") == "bqqmf\nafcsb\n"

    def test_unwritable_output(self, monkeypatch, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("a\n", encoding="utf-8")
        dst = tmp_path / "missing-dir" / "out.txt"
        code, _, err = run_cli(
            monkeypatch, capsys,
            ["translit", "--mode", "cipher", "--shift", "1",
             "--input", str(src), "--output", str(dst)])
        assert code == EXIT_WRITE
        assert "out.txt" in err


@pytest.fixture()
def trained_model(monkeypatch, capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("abab abab\nabab ab\n", encoding="utf-8")
    model_path = tmp_path / "model.json"
    code, _, err = run_cli(
        monkeypatch, capsys,
        ["train-tokenizer", "--input", str(corpus), "--vocab-size", "8",
         "--output", str(model_path)])
    assert code == EXIT_OK, err
    return model_path


class TestTokenizerCommands:
    def test_train_writes_model_json(self, trained_model):
        payload = json.loads(trained_model.read_text(encoding="utf-8"))
        assert payload["vocab"]["<unk>"] == 0
        assert "ab" in payload["vocab"]
        assert payload["vocab_size_target"] == 8

    def test_train_accepts_multiple_inputs(self, monkeypatch, capsys,
                                           tmp_path):
        one = tmp_path / "one.txt"
        one.write_text("xy xy\n", encoding="utf-8")
        two = tmp_path / "two.txt"
        two.write_text("xy yz\n", encoding="utf-8")
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["train-tokenizer", "--input", str(one), str(two),
             "--vocab-size", "7"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["merges"][0] == ["x", "y"]
        assert len(payload["vocab"]) == 7

    def test_train_vocab_too_small(self, monkeypatch, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("abcdef\n", encoding="utf-8")
        code, _, err = run_cli(
            monkeypatch, capsys,
            ["train-tokenizer", "--input", str(corpus),
             "--vocab-size", "4"])
        assert code == EXIT_DATA
        assert "vocab_size" in err

    def test_train_determinism(self, monkeypatch, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("abab abab ab\n", encoding="utf-8")
        argv = ["train-tokenizer", "--input", str(corpus),
                "--vocab-size", "9"]
        _, first, _ = run_cli(monkeypatch, capsys, argv)
        _, second, _ = run_cli(monkeypatch, capsys, argv)
        assert first == second

    def test_encode_stdin(self, monkeypatch, capsys, trained_model):
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["encode", "--model", str(trained_model)],
            stdin="abab\nzz abab\n")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 2
        first = [int(t) for t in lines[0].split()]
        assert 0 not in first
        second = [int(t) for t in lines[1].split()]
        assert second[0] == 0  # zz is outside the alphabet

    def test_encode_bad_model(self, monkeypatch, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        code, _, err = run_cli(monkeypatch, capsys,
                               ["encode", "--model", str(bad)], stdin="x\n")
        assert code == EXIT_DATA
        assert "model" in err.lower()

    def test_encode_model_missing_merge_product(self, monkeypatch, capsys,
                                                tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "alphabet": ["a", "b"], "merges": [["a", "b"]],
            "vocab": {"<unk>": 0, "\u2581": 1, "a": 2, "b": 3},
            "vocab_size_target": 5}), encoding="utf-8")
        code, _, err = run_cli(monkeypatch, capsys,
                               ["encode", "--model", str(bad)], stdin="ab\n")
        assert code == EXIT_DATA
        assert "missing from vocab" in err

    def test_encode_model_out_of_training_order(self, monkeypatch, capsys,
                                                tmp_path):
        # ("ab", "c") uses "ab" before the merge that makes it; the id
        # table follows from the merges as listed
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "alphabet": ["a", "b", "c"], "merges": [["ab", "c"], ["a", "b"]],
            "vocab": {"<unk>": 0, "\u2581": 1, "a": 2, "b": 3, "c": 4,
                      "abc": 5, "ab": 6},
            "vocab_size_target": 7}), encoding="utf-8")
        code, out, err = run_cli(monkeypatch, capsys,
                                 ["encode", "--model", str(bad)],
                                 stdin="abc\n")
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith(f"error: {bad}: ")
        assert "merge ('ab', 'c') is out of training order" in err
        assert err.count("\n") == 1

    def test_token_set_output(self, monkeypatch, capsys, trained_model):
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["token-set", "--model", str(trained_model), "--lang", "eng",
             "--input-type", "Rom"],
            stdin="abab zz\n")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["lang"] == "eng"
        assert payload["input_type"] == "Rom"
        assert "abab" in payload["tokens"]
        assert "<unk>" not in payload["tokens"]


@pytest.fixture()
def token_set_files(monkeypatch, capsys, trained_model, tmp_path):
    paths = {}
    for lang, text in (("tgt", "abab ab\n"), ("fra", "abab\n"),
                       ("spa", "ab\n")):
        path = tmp_path / f"{lang}.tokens.json"
        code, _, err = run_cli(
            monkeypatch, capsys,
            ["token-set", "--model", str(trained_model), "--lang", lang,
             "--output", str(path)],
            stdin=text)
        assert code == EXIT_OK, err
        paths[lang] = path
    return paths


class TestOverlapCommand:
    def test_json_report(self, monkeypatch, capsys, token_set_files):
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["overlap", "--target", str(token_set_files["tgt"]),
             "--sources", f"{token_set_files['fra']},"
                          f"{token_set_files['spa']}"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["target_lang"] == "tgt"
        assert payload["variant"] == "max"
        assert 0.0 <= payload["overall_ratio"] <= 1.0

    def test_variant_flag(self, monkeypatch, capsys, token_set_files):
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["overlap", "--target", str(token_set_files["tgt"]),
             "--sources", str(token_set_files["fra"]),
             "--variant", "type"])
        assert code == EXIT_OK
        assert json.loads(out)["variant"] == "type"

    def test_csv_format(self, monkeypatch, capsys, token_set_files):
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["overlap", "--target", str(token_set_files["tgt"]),
             "--sources", str(token_set_files["fra"]),
             "--format", "csv"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == \
            "target_lang,variant,best_source,metric,length,value"
        assert any("overall_ratio" in line for line in lines[1:])

    def test_csv_bytes(self, monkeypatch, capsys, token_set_files):
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["overlap", "--target", str(token_set_files["tgt"]),
             "--sources", f"{token_set_files['fra']},"
                          f"{token_set_files['spa']}",
             "--format", "csv"])
        assert code == EXIT_OK
        assert out == (
            "target_lang,variant,best_source,metric,length,value\n"
            "tgt,max,fra,overall_ratio,,0.5\n"
            "tgt,max,fra,by_length,4,0.5\n")

    def test_empty_sources_rejected(self, monkeypatch, capsys,
                                    token_set_files):
        code, _, err = run_cli(
            monkeypatch, capsys,
            ["overlap", "--target", str(token_set_files["tgt"]),
             "--sources", ","])
        assert code == EXIT_CONFIG
        assert "sources" in err


class TestQualityCommand:
    def test_json_report(self, monkeypatch, capsys, trained_model, tmp_path):
        corpus = tmp_path / "eval.txt"
        corpus.write_text("abab zz\n", encoding="utf-8")
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["quality", "--model", str(trained_model),
             "--input", str(corpus), "--lang", "eng"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["lang"] == "eng"
        assert payload["unk_ratio"] == 0.5
        assert payload["word_count"] == 2

    def test_csv_report(self, monkeypatch, capsys, trained_model, tmp_path):
        corpus = tmp_path / "eval.txt"
        corpus.write_text("abab ab\n", encoding="utf-8")
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["quality", "--model", str(trained_model),
             "--input", str(corpus), "--lang", "eng", "--format", "csv"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "lang,input_type,metric,length,value"
        metrics = {line.split(",")[2] for line in lines[1:]}
        assert {"unk_ratio", "fertility", "vocab_coverage"} <= metrics

    def test_csv_report_bytes(self, monkeypatch, capsys, trained_model,
                              tmp_path):
        # six words over several lines, a blank and a whitespace-only line;
        # "zz" is one unknown run and "b"/"ba" leave the bare marker
        corpus = tmp_path / "eval.txt"
        corpus.write_text("abab ab zz\n\n   \nb abab ba\n", encoding="utf-8")
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["quality", "--model", str(trained_model),
             "--input", str(corpus), "--lang", "eng", "--input-type", "Rom",
             "--format", "csv"])
        assert code == EXIT_OK
        assert out == (
            "lang,input_type,metric,length,value\n"
            "eng,Rom,unk_ratio,,0.1111111111111111\n"
            "eng,Rom,fertility,,1.5\n"
            "eng,Rom,vocab_coverage,,0.625\n"
            "eng,Rom,coverage_by_length,0,0.125\n"
            "eng,Rom,coverage_by_length,1,0.25\n"
            "eng,Rom,coverage_by_length,2,0.125\n"
            "eng,Rom,coverage_by_length,4,0.125\n")

    def test_missing_corpus_file(self, monkeypatch, capsys, trained_model):
        code, _, _ = run_cli(
            monkeypatch, capsys,
            ["quality", "--model", str(trained_model),
             "--input", "/no/such/file.txt", "--lang", "eng"])
        assert code == EXIT_DATA


@pytest.fixture()
def selection_files(tmp_path):
    features = tmp_path / "features.csv"
    features.write_text(
        "lang,component,values\n"
        "aaa,syntactic,1 0\n"
        "bbb,syntactic,2 1\n"
        "ccc,syntactic,1 2\n"
        "ddd,syntactic,1 3\n"
        "eee,syntactic,0 1\n",
        encoding="utf-8")
    scripts = tmp_path / "scripts.csv"
    scripts.write_text(
        "lang,script\naaa,Latn\nbbb,Latn\nccc,Latn\nddd,Latn\neee,Hang\n",
        encoding="utf-8")
    return features, scripts


class TestSelectLangsCommand:
    def test_sim_same_picks_closest_pair(self, monkeypatch, capsys,
                                         selection_files):
        features, scripts = selection_files
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["select-langs", "--features", str(features),
             "--scripts", str(scripts), "--regime", "sim-same",
             "--set-size", "2", "--script", "Latn"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["langs"] == ["ccc", "ddd"]
        assert payload["pool"] == ["aaa", "bbb", "ccc", "ddd"]
        assert payload["regime"] == "sim-same"

    def test_dissim_same_picks_farthest_pair(self, monkeypatch, capsys,
                                             selection_files):
        features, scripts = selection_files
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["select-langs", "--features", str(features),
             "--scripts", str(scripts), "--regime", "dissim-same",
             "--set-size", "2", "--script", "Latn"])
        assert code == EXIT_OK
        assert json.loads(out)["langs"] == ["aaa", "ddd"]

    def test_explicit_pool(self, monkeypatch, capsys, selection_files):
        features, scripts = selection_files
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["select-langs", "--features", str(features),
             "--scripts", str(scripts), "--regime", "sim-same",
             "--set-size", "2", "--pool", "aaa,bbb,ccc"])
        assert code == EXIT_OK
        assert json.loads(out)["pool"] == ["aaa", "bbb", "ccc"]

    def test_mixed_script_pool_rejected_for_same(self, monkeypatch, capsys,
                                                 selection_files):
        features, scripts = selection_files
        code, _, err = run_cli(
            monkeypatch, capsys,
            ["select-langs", "--features", str(features),
             "--scripts", str(scripts), "--regime", "sim-same",
             "--set-size", "2"])
        assert code == EXIT_DATA
        assert "single-script" in err

    def test_diverse_regime_counts_scripts(self, monkeypatch, capsys,
                                           selection_files):
        features, scripts = selection_files
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["select-langs", "--features", str(features),
             "--scripts", str(scripts), "--regime", "sim-div",
             "--set-size", "2"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["langs"]) == 2

    def test_corpus_dir_supplies_lexical_component(self, monkeypatch,
                                                   capsys, selection_files,
                                                   tmp_path):
        features, scripts = selection_files
        corpus_dir = tmp_path / "corpora"
        corpus_dir.mkdir()
        (corpus_dir / "aaa.txt").write_text("x y z\n", encoding="utf-8")
        (corpus_dir / "bbb.txt").write_text("x y w\n", encoding="utf-8")
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["select-langs", "--features", str(features),
             "--scripts", str(scripts), "--regime", "sim-same",
             "--set-size", "2", "--script", "Latn",
             "--corpus-dir", str(corpus_dir)])
        assert code == EXIT_OK
        assert isinstance(json.loads(out)["objective"], float)

    def test_empty_corpus_file_names_itself(self, monkeypatch, capsys,
                                            selection_files, tmp_path):
        # a blank-only corpus used to exit 3 naming no language or file
        features, scripts = selection_files
        corpus_dir = tmp_path / "corpora"
        corpus_dir.mkdir()
        (corpus_dir / "aaa.txt").write_text("  \n\n", encoding="utf-8")
        (corpus_dir / "bbb.txt").write_text("x y w\n", encoding="utf-8")
        code, out, err = run_cli(
            monkeypatch, capsys,
            ["select-langs", "--features", str(features),
             "--scripts", str(scripts), "--regime", "sim-same",
             "--set-size", "2", "--script", "Latn",
             "--corpus-dir", str(corpus_dir)])
        assert code == EXIT_DATA
        assert out == ""
        assert err == (f"error: {corpus_dir / 'aaa.txt'}: the corpus of "
                       f"'aaa' has no words\n")

    def test_pool_too_small(self, monkeypatch, capsys, selection_files):
        features, scripts = selection_files
        code, _, _ = run_cli(
            monkeypatch, capsys,
            ["select-langs", "--features", str(features),
             "--scripts", str(scripts), "--regime", "sim-same",
             "--script", "Latn"])
        assert code == EXIT_DATA  # default set size 8 exceeds the pool

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exits_2(self, monkeypatch, capsys,
                                      selection_files, alpha):
        # used to exit 0 and print "objective": NaN, which is not JSON
        features, scripts = selection_files
        code, out, err = run_cli(
            monkeypatch, capsys,
            ["select-langs", "--features", str(features),
             "--scripts", str(scripts), "--regime", "sim-div",
             "--set-size", "2", "--alpha", alpha])
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"error: alpha must be finite, got {float(alpha)}\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--set-size", "1", "set_size must be >= 2, got 1"),
        ("--alpha", "-1", "alpha must be >= 0, got -1.0"),
        ("--alpha", "nan", "alpha must be finite, got nan"),
    ])
    def test_flag_out_of_bounds_exits_2_before_any_file_is_read(
            self, monkeypatch, capsys, tmp_path, flag, value, message):
        # used to exit 3, and to report the missing file first
        code, out, err = run_cli(
            monkeypatch, capsys,
            ["select-langs", "--features", str(tmp_path / "missing.csv"),
             "--scripts", str(tmp_path / "missing.csv"),
             "--regime", "sim-div", flag, value])
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("regime, objective", [("sim-div", "inf"),
                                                   ("dissim-div", "-inf")])
    def test_overflowing_objective_exits_3(self, monkeypatch, capsys,
                                           selection_files, regime,
                                           objective):
        # used to exit 0 and print "objective": Infinity, which is not JSON
        features, scripts = selection_files
        code, out, err = run_cli(
            monkeypatch, capsys,
            ["select-langs", "--features", str(features),
             "--scripts", str(scripts), "--regime", regime,
             "--set-size", "2", "--alpha", "1e308"])
        assert code == EXIT_DATA
        assert out == ""
        assert err == (f"error: objective of the {regime} selection with "
                       f"alpha 1e+308 is not finite: {objective}\n")

    def test_vector_length_mismatch_names_component_and_langs(
            self, monkeypatch, capsys, selection_files):
        features, scripts = selection_files
        with open(features, "a", encoding="utf-8") as handle:
            handle.write("aaa,genetic,1 0\nbbb,genetic,2\n")
        code, out, err = run_cli(
            monkeypatch, capsys,
            ["select-langs", "--features", str(features),
             "--scripts", str(scripts), "--regime", "sim-div",
             "--set-size", "2"])
        assert code == EXIT_DATA
        assert out == ""
        assert err == ("error: genetic vectors of 'aaa' and 'bbb': vector "
                       "dimensions differ: 2 vs 1\n")

    def test_nan_feature_cell_exits_3(self, monkeypatch, capsys,
                                      selection_files):
        features, scripts = selection_files
        features.write_text(features.read_text(encoding="utf-8").replace(
            "bbb,syntactic,2 1", "bbb,syntactic,2 nan"), encoding="utf-8")
        code, out, err = run_cli(
            monkeypatch, capsys,
            ["select-langs", "--features", str(features),
             "--scripts", str(scripts), "--regime", "sim-div",
             "--set-size", "2"])
        assert code == EXIT_DATA
        assert out == ""
        assert err == (f"error: {features}:3: expected a finite number, "
                       f"got 'nan'\n")

    def test_non_finite_similarity_exits_3(self, monkeypatch, capsys,
                                           selection_files):
        # finite cells whose products overflow give a NaN cosine
        features, scripts = selection_files
        text = features.read_text(encoding="utf-8")
        for row in ("bbb,syntactic,2 1", "ccc,syntactic,1 2"):
            text = text.replace(row, row[:14] + "1e300 1e300")
        features.write_text(text, encoding="utf-8")
        code, out, err = run_cli(
            monkeypatch, capsys,
            ["select-langs", "--features", str(features),
             "--scripts", str(scripts), "--regime", "sim-div",
             "--set-size", "2"])
        assert code == EXIT_DATA
        assert out == ""
        assert err == ("error: similarity for pair ('bbb', 'ccc') is not "
                       "finite: nan\n")


@pytest.fixture()
def stats_files(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "lang,input_type,score\n"
        "aaa,Ortho,0.5\n"
        "bbb,Ortho,0.7\n"
        "ccc,Ortho,0.9\n"
        "aaa,Rom,0.6\n"
        "bbb,Rom,0.9\n"
        "ccc,Rom,1.0\n",
        encoding="utf-8")
    metric_values = tmp_path / "metrics.csv"
    metric_values.write_text(
        "lang,input_type,metric,length,value\n"
        "aaa,Ortho,unk_ratio,,0.50\n"
        "bbb,Ortho,unk_ratio,,0.30\n"
        "ccc,Ortho,unk_ratio,,0.10\n"
        "aaa,Rom,unk_ratio,,0.40\n"
        "bbb,Rom,unk_ratio,,0.20\n"
        "ccc,Rom,unk_ratio,,0.05\n",
        encoding="utf-8")
    return scores, metric_values


class TestStatsCommand:
    def test_paired_t_tests(self, monkeypatch, capsys, stats_files):
        scores, _ = stats_files
        code, out, _ = run_cli(monkeypatch, capsys,
                               ["stats", "--scores", str(scores)])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["alpha"] == 0.05
        assert len(payload["t_tests"]) == 1
        entry = payload["t_tests"][0]
        assert entry["input_type_a"] == "Ortho"
        assert entry["input_type_b"] == "Rom"
        assert entry["n"] == 3
        assert entry["t"] < 0
        assert payload["correlations"] == []

    def test_correlations_against_scores(self, monkeypatch, capsys,
                                         stats_files):
        scores, metric_values = stats_files
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["stats", "--scores", str(scores),
             "--metrics", str(metric_values)])
        assert code == EXIT_OK
        payload = json.loads(out)
        methods = {c["method"] for c in payload["correlations"]}
        assert methods == {"pearson", "spearman"}
        for entry in payload["correlations"]:
            assert entry["metric"] == "unk_ratio"
            assert entry["n"] == 6
            assert entry["r"] < 0  # lower unk goes with higher scores
            assert entry["significant"] == (entry["p_value"] < 0.05)

    def test_csv_format(self, monkeypatch, capsys, stats_files):
        scores, metric_values = stats_files
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["stats", "--scores", str(scores),
             "--metrics", str(metric_values), "--format", "csv"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("record,input_type_a,input_type_b")
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"t_test", "correlation"}

    def test_alpha_flag_changes_significance(self, monkeypatch, capsys,
                                             stats_files):
        scores, _ = stats_files
        code, strict_out, _ = run_cli(
            monkeypatch, capsys,
            ["stats", "--scores", str(scores), "--alpha", "0.001"])
        assert code == EXIT_OK
        strict = json.loads(strict_out)["t_tests"][0]
        _, loose_out, _ = run_cli(
            monkeypatch, capsys,
            ["stats", "--scores", str(scores), "--alpha", "0.999"])
        loose = json.loads(loose_out)["t_tests"][0]
        assert not strict["significant"]
        assert loose["significant"]

    @pytest.mark.parametrize("alpha", ["0", "1", "2", "nan", "inf"])
    def test_alpha_outside_unit_interval_exits_2(self, monkeypatch, capsys,
                                                 tmp_path, alpha):
        # --alpha 2 used to mark p = 0.205 significant, and --alpha nan to
        # fail writing the JSON; the flag is checked before any file is
        # read, so a scores file that does not exist is never reached
        code, out, err = run_cli(
            monkeypatch, capsys,
            ["stats", "--scores", str(tmp_path / "absent.csv"),
             "--alpha", alpha])
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == (f"error: --alpha must be in (0, 1), got "
                       f"{float(alpha)}\n")

    def test_report_bytes(self, monkeypatch, capsys, tmp_path):
        # a set column, a length column, a type with one label (no t-test),
        # a constant series (no correlation) and a metric row with no score
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "set,lang,input_type,score\n"
            "s1,aaa,Ortho,0.5\ns1,bbb,Ortho,0.7\ns1,ccc,Ortho,0.9\n"
            "s2,aaa,Ortho,0.4\ns1,aaa,Rom,0.6\ns1,bbb,Rom,0.9\n"
            "s1,ccc,Rom,1.0\ns2,aaa,Rom,0.3\ns1,aaa,Cipher,0.2\n",
            encoding="utf-8")
        metric_values = tmp_path / "metrics.csv"
        metric_values.write_text(
            "set,lang,input_type,metric,length,value\n"
            "s1,aaa,Ortho,unk_ratio,,0.50\ns1,bbb,Ortho,unk_ratio,,0.30\n"
            "s1,ccc,Ortho,unk_ratio,,0.10\ns2,aaa,Ortho,unk_ratio,,0.45\n"
            "s1,aaa,Rom,unk_ratio,,0.40\ns3,aaa,Rom,unk_ratio,,0.90\n"
            "s1,aaa,Ortho,coverage_by_length,2,0.1\n"
            "s1,bbb,Ortho,coverage_by_length,2,0.3\n"
            "s1,ccc,Ortho,coverage_by_length,2,0.2\n"
            "s1,aaa,Cipher,coverage_by_length,2,0.7\n"
            "s1,aaa,Rom,fertility,,2.0\ns1,bbb,Rom,fertility,,2.0\n"
            "s1,ccc,Rom,fertility,,2.0\n",
            encoding="utf-8")
        argv = ["stats", "--scores", str(scores),
                "--metrics", str(metric_values)]
        code, out, _ = run_cli(monkeypatch, capsys, argv)
        assert code == EXIT_OK
        t_test = {"input_type_a": "Ortho", "input_type_b": "Rom", "n": 4,
                  "p_value": 0.31893179191277554, "significant": False,
                  "t": -1.192079121358539}
        correlations = [
            ("coverage_by_length", "2", "pearson", -0.7109578726783619,
             0.28904212732163764, 4, False),
            ("coverage_by_length", "2", "spearman", -0.3999999999999999,
             0.6000000000000002, 4, False),
            ("unk_ratio", "", "pearson", -0.9452941770058044,
             0.015233089110024517, 5, True),
            ("unk_ratio", "", "spearman", -0.8999999999999998,
             0.03738607346849875, 5, True),
        ]
        assert out == json.dumps({
            "alpha": 0.05,
            "correlations": [
                {"metric": metric, "length": length, "method": method,
                 "r": r, "p_value": p, "n": n, "significant": sig}
                for metric, length, method, r, p, n, sig in correlations],
            "t_tests": [t_test],
        }, sort_keys=True, indent=2) + "\n"

        code, out, _ = run_cli(monkeypatch, capsys,
                               argv + ["--format", "csv"])
        assert code == EXIT_OK
        assert out == (
            "record,input_type_a,input_type_b,metric,length,method,"
            "statistic,p_value,n,significant\n"
            "t_test,Ortho,Rom,,,paired_t,-1.192079121358539,"
            "0.31893179191277554,4,False\n"
            "correlation,,,coverage_by_length,2,pearson,-0.7109578726783619,"
            "0.28904212732163764,4,False\n"
            "correlation,,,coverage_by_length,2,spearman,-0.3999999999999999,"
            "0.6000000000000002,4,False\n"
            "correlation,,,unk_ratio,,pearson,-0.9452941770058044,"
            "0.015233089110024517,5,True\n"
            "correlation,,,unk_ratio,,spearman,-0.8999999999999998,"
            "0.03738607346849875,5,True\n")

    def _t_test(self, monkeypatch, capsys, tmp_path, ortho, rom):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "lang,input_type,score\n"
            + "".join(f"l{i},Ortho,{a}\nl{i},Rom,{b}\n"
                      for i, (a, b) in enumerate(zip(ortho, rom))),
            encoding="utf-8")
        code, out, err = run_cli(monkeypatch, capsys,
                                 ["stats", "--scores", str(scores)])
        assert (code, err) == (EXIT_OK, "")
        return json.loads(out)["t_tests"][0]

    def test_t_test_squared_deviation_overflow(self, monkeypatch, capsys,
                                               tmp_path):
        # (1e308 - 0)**2 overflows; the test runs on rescaled scores
        entry = self._t_test(monkeypatch, capsys, tmp_path,
                             ["1e308", "-1e308", "0"], ["0", "0", "0"])
        assert (entry["t"], entry["p_value"], entry["n"]) == (0.0, 1.0, 3)

    def test_t_test_difference_overflow(self, monkeypatch, capsys,
                                        tmp_path):
        # 1.7e308 - (-1.7e308) overflows to inf before any sum
        entry = self._t_test(monkeypatch, capsys, tmp_path,
                             ["1.7e308", "-1.7e308", "1"],
                             ["-1.7e308", "1.7e308", "0"])
        assert entry["n"] == 3
        assert entry["t"] == pytest.approx(1 / 3 / (2 * 1.7e308 / 3 ** 0.5),
                                           rel=1e-9)
        assert entry["p_value"] == 1.0

    def test_constant_difference_writes_t_as_null(self, monkeypatch, capsys,
                                                  tmp_path):
        # the differences are all 1, so t is infinite: JSON has no number
        # for it, so it is null there and an empty cell in CSV
        scores = tmp_path / "scores.csv"
        scores.write_text("lang,input_type,score\naaa,Ortho,1\n"
                          "bbb,Ortho,2\naaa,Rom,0\nbbb,Rom,1\n",
                          encoding="utf-8")
        code, out, err = run_cli(monkeypatch, capsys,
                                 ["stats", "--scores", str(scores)])
        assert (code, err) == (EXIT_OK, "")

        def reject(constant):
            raise ValueError(f"not a JSON number: {constant}")
        entry = json.loads(out, parse_constant=reject)["t_tests"][0]
        assert (entry["t"], entry["p_value"], entry["n"]) == (None, 0.0, 2)
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["stats", "--scores", str(scores), "--format", "csv"])
        assert code == EXIT_OK
        assert out.splitlines()[1] == "t_test,Ortho,Rom,,,paired_t,,0.0,2,True"

    def test_correlation_with_overflowing_deviations(self, monkeypatch,
                                                     capsys, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("lang,input_type,score\naaa,Ortho,1\n"
                          "bbb,Ortho,2\nccc,Ortho,3\nddd,Ortho,5\n",
                          encoding="utf-8")
        metric_values = tmp_path / "metrics.csv"
        metric_values.write_text(
            "lang,input_type,metric,length,value\n"
            "aaa,Ortho,m,,1e200\nbbb,Ortho,m,,-1e200\n"
            "ccc,Ortho,m,,5e199\nddd,Ortho,m,,3e199\n", encoding="utf-8")
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["stats", "--scores", str(scores),
             "--metrics", str(metric_values)])
        assert code == EXIT_OK
        pearson = json.loads(out)["correlations"][0]
        assert pearson["method"] == "pearson"
        assert pearson["r"] == pytest.approx(-2 / (218 * 8.75) ** 0.5,
                                             rel=1e-12)

    def test_missing_columns(self, monkeypatch, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("lang,score\naaa,1\n", encoding="utf-8")
        code, _, err = run_cli(monkeypatch, capsys,
                               ["stats", "--scores", str(bad)])
        assert code == EXIT_DATA
        assert "columns" in err


@pytest.fixture(scope="module")
def run_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("run-inputs")
    rng = random.Random(5)
    corpus_dir = root / "corpora"
    corpus_dir.mkdir()
    (corpus_dir / "eng.txt").write_text(
        "\n".join(latin_lines(rng, 300, vocabulary=60)) + "\n",
        encoding="utf-8")
    (corpus_dir / "kor.txt").write_text(
        "\n".join(hangul_lines(rng, 80, vocabulary=30)) + "\n",
        encoding="utf-8")
    config = root / "config.json"
    config.write_text(json.dumps({
        "languages": [{"lang": "eng", "seen": True},
                      {"lang": "kor", "seen": False}],
        "input_type": "Ortho",
        "vocab_size": 50,
        "budget": 100,
        "seed": 7,
    }), encoding="utf-8")
    return config, corpus_dir


class TestRunCommand:
    def test_json_report(self, monkeypatch, capsys, run_inputs):
        config, corpus_dir = run_inputs
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["run", "--config", str(config), "--corpus-dir",
             str(corpus_dir)])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["input_type"] == "Ortho"
        assert payload["quality"]["kor"]["unk_ratio"] == 1.0
        assert payload["seen_langs"] == ["eng"]
        assert payload["unseen_langs"] == ["kor"]

    def test_csv_format(self, monkeypatch, capsys, run_inputs):
        config, corpus_dir = run_inputs
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["run", "--config", str(config), "--corpus-dir",
             str(corpus_dir), "--format", "csv"])
        assert code == EXIT_OK
        assert out.splitlines()[0] == "lang,input_type,metric,length,value"

    def test_report_bytes(self, monkeypatch, capsys, run_inputs):
        config, corpus_dir = run_inputs
        argv = ["run", "--config", str(config), "--corpus-dir",
                str(corpus_dir)]
        code, out, _ = run_cli(monkeypatch, capsys, argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
            "16c2632e0b30a691102d516a1769733a68ba83c2270ab821ec8557518beff17e"
        code, out, _ = run_cli(monkeypatch, capsys,
                               argv + ["--format", "csv"])
        assert code == EXIT_OK
        assert out == (
            "lang,input_type,metric,length,value\n"
            "eng,Ortho,unk_ratio,,0.0\n"
            "eng,Ortho,fertility,,4.9411764705882355\n"
            "eng,Ortho,vocab_coverage,,0.92\n"
            "eng,Ortho,coverage_by_length,0,0.02\n"
            "eng,Ortho,coverage_by_length,1,0.6\n"
            "eng,Ortho,coverage_by_length,2,0.26\n"
            "eng,Ortho,coverage_by_length,3,0.02\n"
            "eng,Ortho,coverage_by_length,6,0.02\n"
            "kor,Ortho,unk_ratio,,1.0\n"
            "kor,Ortho,fertility,,1.0\n"
            "kor,Ortho,vocab_coverage,,0.0\n"
            "kor,Ortho,overlap_ratio,,0.0\n")

    def test_artifacts_dir_populated(self, monkeypatch, capsys, run_inputs,
                                     tmp_path):
        config, corpus_dir = run_inputs
        artifacts = tmp_path / "artifacts"
        code, _, _ = run_cli(
            monkeypatch, capsys,
            ["run", "--config", str(config), "--corpus-dir",
             str(corpus_dir), "--artifacts-dir", str(artifacts)])
        assert code == EXIT_OK
        [model_path] = stored(artifacts, "model")
        assert model_path.is_file()
        [report_path] = stored(artifacts, "report")
        assert report_path.is_file()

    def test_truncated_model_artifact_is_recomputed(self, monkeypatch,
                                                    capsys, run_inputs,
                                                    tmp_path):
        config, corpus_dir = run_inputs
        argv = ["run", "--config", str(config), "--corpus-dir",
                str(corpus_dir), "--artifacts-dir", str(tmp_path)]
        code, first, _ = run_cli(monkeypatch, capsys, argv)
        assert code == EXIT_OK
        [model_path] = stored(tmp_path, "model")
        model_path.write_bytes(model_path.read_bytes()[:100])
        # the stored report would answer before the model is read
        for path in stored(tmp_path, "report"):
            path.unlink()
        code, again, err = run_cli(monkeypatch, capsys, argv)
        assert (code, err) == (EXIT_OK, "")
        assert again == first

    def test_missing_corpus_file(self, monkeypatch, capsys, run_inputs,
                                 tmp_path):
        config, _ = run_inputs
        empty_dir = tmp_path / "empty"
        empty_dir.mkdir()
        code, _, err = run_cli(
            monkeypatch, capsys,
            ["run", "--config", str(config), "--corpus-dir",
             str(empty_dir)])
        assert code == EXIT_DATA
        assert "eng" in err

    def test_bad_config(self, monkeypatch, capsys, run_inputs, tmp_path):
        _, corpus_dir = run_inputs
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        code, _, _ = run_cli(
            monkeypatch, capsys,
            ["run", "--config", str(bad), "--corpus-dir", str(corpus_dir)])
        assert code == EXIT_CONFIG

    def test_misspelled_key_exits_2(self, monkeypatch, capsys, run_inputs,
                                    tmp_path):
        # the key used to be read as absent, so the run took the default
        config, corpus_dir = run_inputs
        payload = json.loads(config.read_text(encoding="utf-8"))
        payload["vocab_sise"] = payload.pop("vocab_size")
        misspelled = tmp_path / "config.json"
        misspelled.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cli(
            monkeypatch, capsys, ["run", "--config", str(misspelled),
                                  "--corpus-dir", str(corpus_dir)])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == (f"error: {misspelled}: malformed ExperimentConfig: "
                       f"unknown fields 'vocab_sise'\n")

    @pytest.mark.parametrize("lang", ["../esc", "../../../esc", "sub/x"])
    def test_language_code_that_is_a_path_exits_2(self, monkeypatch, capsys,
                                                  run_inputs, tmp_path, lang):
        # such a code used to name a token set outside tokensets/, or
        # outside the artifacts dir
        config, corpus_dir = run_inputs
        payload = json.loads(config.read_text(encoding="utf-8"))
        payload["languages"][1]["lang"] = lang
        escaping = tmp_path / "config.json"
        escaping.write_text(json.dumps(payload), encoding="utf-8")
        corpora = tmp_path / "in" / "d" / "e" / "corpora"
        (corpora / f"{lang}.txt").parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(corpus_dir / "eng.txt", corpora / "eng.txt")
        shutil.copy(corpus_dir / "kor.txt", corpora / f"{lang}.txt")
        code, out, err = run_cli(
            monkeypatch, capsys,
            ["run", "--config", str(escaping), "--corpus-dir", str(corpora),
             "--artifacts-dir", str(tmp_path / "art" / "a" / "b")])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith(f"error: {escaping}: malformed ")
        assert f"language code {lang!r}" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "art").exists()

    @pytest.mark.parametrize("argv", [
        ["--tables", "tables"], ["--seed", "8"], ["--vocab-size", "40"],
        ["--budget", "50"]], ids=lambda argv: argv[0])
    def test_config_is_the_only_way_to_set_a_run(self, monkeypatch, capsys,
                                                 run_inputs, argv):
        config, corpus_dir = run_inputs
        code, out, err = run_cli(
            monkeypatch, capsys, ["run", "--config", str(config),
                                  "--corpus-dir", str(corpus_dir), *argv])
        assert (code, out) == (EXIT_CONFIG, "")
        assert f"unrecognized arguments: {' '.join(argv)}" in err


def test_translit_has_no_tables_flag(monkeypatch, capsys, tmp_path):
    code, out, err = run_cli(
        monkeypatch, capsys, ["translit", "--mode", "rom", "--lang", "eng",
                              "--tables", str(tmp_path)], stdin="ab\n")
    assert (code, out) == (EXIT_CONFIG, "")
    assert "unrecognized arguments: --tables" in err


@pytest.fixture()
def report_files(monkeypatch, capsys, run_inputs, tmp_path):
    config, corpus_dir = run_inputs
    paths = []
    for itype in ("Ortho", "Rom"):
        payload = json.loads(config.read_text(encoding="utf-8"))
        payload["input_type"] = itype
        cfg_path = tmp_path / f"config-{itype}.json"
        cfg_path.write_text(json.dumps(payload), encoding="utf-8")
        report_path = tmp_path / f"report-{itype}.json"
        code, _, err = run_cli(
            monkeypatch, capsys,
            ["run", "--config", str(cfg_path), "--corpus-dir",
             str(corpus_dir), "--output", str(report_path)])
        assert code == EXIT_OK, err
        paths.append(report_path)
    return paths


class TestCompareCommand:
    def test_json_table(self, monkeypatch, capsys, report_files):
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["compare", "--reports"] + [str(p) for p in report_files])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["input_types"] == ["Ortho", "Rom"]
        assert len(payload["rows"]) == 2 * 4

    def test_csv_table(self, monkeypatch, capsys, report_files):
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["compare", "--reports"] + [str(p) for p in report_files]
            + ["--format", "csv"])
        assert code == EXIT_OK
        assert out.splitlines()[0] == ("lang,metric,value_Ortho,value_Rom,"
                                       "delta_Ortho,delta_Rom")

    def test_report_bytes(self, monkeypatch, capsys, report_files):
        argv = ["compare", "--reports"] + [str(p) for p in report_files]
        code, out, _ = run_cli(monkeypatch, capsys, argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
            "316485d19dabe65bba6ab47a74b382041441ffcd9b04515931efd69a185f9a33"
        code, out, _ = run_cli(monkeypatch, capsys,
                               argv + ["--format", "csv"])
        assert code == EXIT_OK
        assert out == (
            "lang,metric,value_Ortho,value_Rom,delta_Ortho,delta_Rom\n"
            "eng,unk_ratio,0.0,0.0,0.0,0.0\n"
            "eng,fertility,4.9411764705882355,4.9411764705882355,0.0,0.0\n"
            "eng,vocab_coverage,0.92,0.92,0.0,0.0\n"
            "eng,overlap_ratio,,,,\n"
            "kor,unk_ratio,1.0,0.0,0.0,-1.0\n"
            "kor,fertility,1.0,8.625,0.0,7.625\n"
            "kor,vocab_coverage,0.0,0.54,0.0,0.54\n"
            "kor,overlap_ratio,0.0,1.0,0.0,1.0\n")

    def test_single_report_rejected(self, monkeypatch, capsys,
                                    report_files):
        # a usage error, as one report is too few whatever it holds
        code, out, err = run_cli(
            monkeypatch, capsys,
            ["compare", "--reports", str(report_files[0])])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: --reports needs at least two files\n"

    def test_other_overlap_variant_exits_3(self, monkeypatch, capsys,
                                           run_inputs, report_files,
                                           tmp_path):
        config, corpus_dir = run_inputs
        payload = json.loads(config.read_text(encoding="utf-8"))
        payload.update(input_type="Rom", overlap_variant="all")
        cfg_path = tmp_path / "config-Rom-all.json"
        cfg_path.write_text(json.dumps(payload), encoding="utf-8")
        report_path = tmp_path / "report-Rom-all.json"
        code, _, err = run_cli(
            monkeypatch, capsys,
            ["run", "--config", str(cfg_path), "--corpus-dir",
             str(corpus_dir), "--output", str(report_path)])
        assert code == EXIT_OK, err
        code, out, err = run_cli(
            monkeypatch, capsys,
            ["compare", "--reports", str(report_files[0]),
             str(report_path)])
        assert (code, out) == (EXIT_DATA, "")
        assert err == ("error: reports measure overlap under different "
                       "variants: 'all', 'max'\n")


class TestMalformedCsv:
    """Short, long and duplicate rows, bad numbers and bad feature rows in
    the tidy CSV inputs exit 3 with the file and the line named on
    stderr."""

    @pytest.mark.parametrize("kind", ["scores", "metrics", "features",
                                      "scripts"])
    def test_short_row_exits_3(self, monkeypatch, capsys, stats_files,
                               selection_files, kind):
        scores, metric_values = stats_files
        features, scripts = selection_files
        path = {"scores": scores, "metrics": metric_values,
                "features": features, "scripts": scripts}[kind]
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 1)[0] + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        if kind in ("scores", "metrics"):
            argv = ["stats", "--scores", str(scores),
                    "--metrics", str(metric_values)]
        else:
            argv = ["select-langs", "--features", str(features),
                    "--scripts", str(scripts), "--regime", "sim-div",
                    "--set-size", "2"]
        code, _, err = run_cli(monkeypatch, capsys, argv)
        assert code == EXIT_DATA
        assert err.startswith(f"error: {path}:3: ")

    @pytest.mark.parametrize("kind", ["scores", "metrics", "features",
                                      "scripts"])
    def test_long_row_exits_3(self, monkeypatch, capsys, stats_files,
                              selection_files, kind):
        # an extra field used to be dropped silently
        scores, metric_values = stats_files
        features, scripts = selection_files
        path = {"scores": scores, "metrics": metric_values,
                "features": features, "scripts": scripts}[kind]
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        width = lines[2].count(",") + 1
        lines[2] = lines[2].rstrip("\n") + ",9\n"
        path.write_text("".join(lines), encoding="utf-8")
        if kind in ("scores", "metrics"):
            argv = ["stats", "--scores", str(scores),
                    "--metrics", str(metric_values)]
        else:
            argv = ["select-langs", "--features", str(features),
                    "--scripts", str(scripts), "--regime", "sim-div",
                    "--set-size", "2"]
        code, out, err = run_cli(monkeypatch, capsys, argv)
        assert code == EXIT_DATA
        assert out == ""
        assert err == (f"error: {path}:3: expected {width} fields, "
                       f"got {width + 1}\n")

    @pytest.mark.parametrize("cell", ["x", "nan", "-inf", "1e999"])
    @pytest.mark.parametrize("kind", ["scores", "metrics", "features"])
    def test_bad_number_names_file_and_line(self, monkeypatch, capsys,
                                            stats_files, selection_files,
                                            kind, cell):
        scores, metric_values = stats_files
        features, scripts = selection_files
        path = {"scores": scores, "metrics": metric_values,
                "features": features}[kind]
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        # in a feature vector the bad number follows a good one
        value = f"1 {cell}" if kind == "features" else cell
        lines[2] = lines[2].rsplit(",", 1)[0] + f",{value}\n"
        path.write_text("".join(lines), encoding="utf-8")
        if kind == "features":
            argv = ["select-langs", "--features", str(features),
                    "--scripts", str(scripts), "--regime", "sim-div",
                    "--set-size", "2"]
        else:
            argv = ["stats", "--scores", str(scores),
                    "--metrics", str(metric_values)]
        code, out, err = run_cli(monkeypatch, capsys, argv)
        assert code == EXIT_DATA
        assert out == ""
        assert err == (f"error: {path}:3: expected a finite number, "
                       f"got {cell!r}\n")

    @pytest.mark.parametrize("kind", ["scores", "metrics"])
    def test_unknown_input_type_names_file_and_line(self, monkeypatch,
                                                    capsys, stats_files,
                                                    kind):
        scores, metric_values = stats_files
        path = scores if kind == "scores" else metric_values
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].replace(",Ortho,", ",Foo,")
        path.write_text("".join(lines), encoding="utf-8")
        code, out, err = run_cli(
            monkeypatch, capsys,
            ["stats", "--scores", str(scores),
             "--metrics", str(metric_values)])
        assert code == EXIT_DATA
        assert out == ""
        assert err == (f"error: {path}:3: unknown input type 'Foo'; "
                       f"expected one of ['Ortho', 'IPA', 'Rom', "
                       f"'Cipher']\n")

    @pytest.mark.parametrize("kind", ["scores", "metrics", "features",
                                      "scripts"])
    def test_duplicate_row_exits_3(self, monkeypatch, capsys, stats_files,
                                   selection_files, kind):
        scores, metric_values = stats_files
        features, scripts = selection_files
        path = {"scores": scores, "metrics": metric_values,
                "features": features, "scripts": scripts}[kind]
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        # same key, another value: the last copy must not win silently
        lines.append(lines[1].rsplit(",", 1)[0] + ",0.99\n")
        path.write_text("".join(lines), encoding="utf-8")
        if kind in ("scores", "metrics"):
            argv = ["stats", "--scores", str(scores),
                    "--metrics", str(metric_values)]
        else:
            argv = ["select-langs", "--features", str(features),
                    "--scripts", str(scripts), "--regime", "sim-div",
                    "--set-size", "2"]
        code, _, err = run_cli(monkeypatch, capsys, argv)
        assert code == EXIT_DATA
        assert err.startswith(f"error: {path}:{len(lines)}: duplicate ")

    @pytest.mark.parametrize("kind", ["scores", "features"])
    def test_repeated_column_exits_3(self, monkeypatch, capsys, stats_files,
                                     selection_files, kind):
        # the last of two columns of one name used to be read silently
        scores, _ = stats_files
        features, scripts = selection_files
        path, column, cell = {"scores": (scores, "score", "0.1"),
                              "features": (features, "values", "0 0")}[kind]
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        path.write_text("".join(f"{line},{value}\n" for line, value in
                                zip([header, *rows],
                                    [column] + [cell] * len(rows))),
                        encoding="utf-8")
        if kind == "scores":
            argv = ["stats", "--scores", str(scores)]
        else:
            argv = ["select-langs", "--features", str(features),
                    "--scripts", str(scripts), "--regime", "sim-div",
                    "--set-size", "2"]
        code, out, err = run_cli(monkeypatch, capsys, argv)
        assert code == EXIT_DATA
        assert out == ""
        assert err == f"error: {path}: repeated columns [{column!r}]\n"

    @pytest.mark.parametrize("row, message", [
        ("bbb,syntax,2 1", "unknown component 'syntax'"),
        ("bbb,syntactic,", "empty vector for bbb")],
        ids=["unknown-component", "empty-vector"])
    def test_bad_feature_row_names_file_and_line(self, monkeypatch, capsys,
                                                 selection_files, row,
                                                 message):
        features, scripts = selection_files
        lines = features.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = row + "\n"
        features.write_text("".join(lines), encoding="utf-8")
        code, out, err = run_cli(
            monkeypatch, capsys,
            ["select-langs", "--features", str(features),
             "--scripts", str(scripts), "--regime", "sim-div",
             "--set-size", "2"])
        assert code == EXIT_DATA
        assert out == ""
        assert err == f"error: {features}:3: {message}\n"


def _set(*path_and_value):
    *path, value = path_and_value

    def mutate(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return payload
    return mutate


def _drop(*path):
    def mutate(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        return payload
    return mutate


def _not_object(payload):
    return [payload]


MALFORMED_JSON = {
    "token-set-without-input-type": ("token-set", _drop("input_type")),
    "token-set-tokens-number": ("token-set", _set("tokens", 5)),
    "token-set-not-object": ("token-set", _not_object),
    "report-without-config-digest": ("report", _drop("config_digest")),
    "report-ratio-string": ("report",
                            _set("quality", "eng", "unk_ratio", "0.0")),
    "report-not-object": ("report", _not_object),
    "report-quality-without-lang": ("report", _drop("quality", "kor")),
    "report-lang-seen-and-unseen": ("report",
                                    _set("seen_langs", ["eng", "kor"])),
    "report-seen-lang-twice": ("report", _set("seen_langs", ["eng", "eng"])),
    "model-vocab-list": ("model", _set("vocab", [1])),
    "model-not-object": ("model", _not_object),
    "model-vocab-size-float": ("model", _set("vocab_size_target", 1.7)),
    "model-vocab-size-zero": ("model", _set("vocab_size_target", 0)),
    "model-vocab-size-negative": ("model", _set("vocab_size_target", -5)),
    "model-alphabet-string": ("model", _set("alphabet", "abc")),
    "model-id-string": ("model", _set("vocab", "a", "2")),
    "model-id-bool": ("model", _set("vocab", "a", True)),
    "config-cipher-shifts-list": ("config", _set("cipher_shifts", [1])),
    "config-seen-string": ("config", _set("languages", 0, "seen", "false")),
    "config-without-languages": ("config", _drop("languages")),
    "config-not-object": ("config", _not_object),
    "config-seed-float": ("config", _set("seed", 1.5)),
    "config-vocab-size-string": ("config", _set("vocab_size", "2000")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_malformed_json_input_exits_2_or_3(monkeypatch, capsys, request,
                                           tmp_path, case):
    """A JSON input that does not fit its record exits 2 (config) or 3
    with one error line, never a traceback or exit 1."""
    kind, mutate = MALFORMED_JSON[case]
    fixture = request.getfixturevalue
    if kind == "token-set":
        source = fixture("token_set_files")["tgt"]
    elif kind == "report":
        source = fixture("report_files")[0]
    elif kind == "model":
        source = fixture("trained_model")
    else:
        source = fixture("run_inputs")[0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutate(json.loads(
        source.read_text(encoding="utf-8")))), encoding="utf-8")
    argv = {
        "token-set": lambda: ["overlap", "--target", str(bad), "--sources",
                              str(fixture("token_set_files")["fra"])],
        "report": lambda: ["compare", "--reports", str(bad),
                           str(fixture("report_files")[1])],
        "model": lambda: ["encode", "--model", str(bad)],
        "config": lambda: ["run", "--config", str(bad), "--corpus-dir",
                           str(fixture("run_inputs")[1])],
    }[kind]()
    code, out, err = run_cli(monkeypatch, capsys, argv, stdin="ab\n")
    assert code == (EXIT_CONFIG if kind == "config" else EXIT_DATA)
    assert out == ""
    assert err.startswith(f"error: {bad}: malformed ")
    assert err.count("\n") == 1


def _json_input_error(monkeypatch, capsys, argv, bad, code):
    """The one error line a command gives for the JSON input `bad`."""
    got, out, err = run_cli(monkeypatch, capsys, argv, stdin="ab\n")
    assert (got, out) == (code, "")
    assert err.startswith(f"error: {bad}: ")
    assert err.count("\n") == 1
    return err


def test_config_nested_too_deep_exits_2(monkeypatch, capsys, run_inputs,
                                        tmp_path):
    # json.loads raises RecursionError, which used to escape with exit 1
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 200000, encoding="utf-8")
    err = _json_input_error(monkeypatch, capsys, [
        "run", "--config", str(bad), "--corpus-dir", str(run_inputs[1])],
        bad, EXIT_CONFIG)
    assert "recursion" in err


def test_model_nested_too_deep_exits_3(monkeypatch, capsys, tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 200000, encoding="utf-8")
    err = _json_input_error(monkeypatch, capsys,
                            ["encode", "--model", str(bad)], bad, EXIT_DATA)
    assert "recursion" in err


def test_config_seed_of_5000_digits_exits_2(monkeypatch, capsys, run_inputs,
                                            tmp_path):
    # json.loads refuses an integer this long with a plain ValueError,
    # which used to exit 3 with a message naming no file
    config, corpus_dir = run_inputs
    text = config.read_text(encoding="utf-8")
    bad = tmp_path / "config.json"
    bad.write_text(text.replace('"seed": 7', '"seed": ' + "7" * 5000),
                   encoding="utf-8")
    assert len(bad.read_text(encoding="utf-8")) > len(text) + 4000
    err = _json_input_error(monkeypatch, capsys, [
        "run", "--config", str(bad), "--corpus-dir", str(corpus_dir)],
        bad, EXIT_CONFIG)
    assert "digits" in err


def _non_utf8_command(reader, request, bad):
    """argv for a command that reads the file `bad` through one reader,
    with the exit code for the other faults of that file."""
    fixture = request.getfixturevalue
    if reader in ("tidy-csv", "select-corpus-dir"):
        features, scripts = fixture("selection_files")
        argv = ["select-langs", "--scripts", str(scripts), "--regime",
                "sim-same", "--set-size", "2", "--script", "Latn"]
        if reader == "tidy-csv":
            return argv + ["--features", str(bad)], EXIT_DATA
        (bad.parent / "bbb.txt").write_text("x y\n", encoding="utf-8")
        return argv + ["--features", str(features),
                       "--corpus-dir", str(bad.parent)], EXIT_DATA
    if reader in ("documents", "record"):
        config, corpus_dir = fixture("run_inputs")
        if reader == "documents":
            return ["run", "--config", str(config),
                    "--corpus-dir", str(bad.parent)], EXIT_DATA
        return ["run", "--config", str(bad),
                "--corpus-dir", str(corpus_dir)], EXIT_CONFIG
    if reader == "train-input":
        return ["train-tokenizer", "--input", str(bad),
                "--vocab-size", "8"], EXIT_DATA
    if reader == "quality-input":
        return ["quality", "--model", str(fixture("trained_model")),
                "--input", str(bad), "--lang", "eng"], EXIT_DATA
    if reader == "input":
        return ["translit", "--mode", "cipher", "--shift", "1",
                "--input", str(bad)], EXIT_DATA
    assert reader == "keys"
    return ["translit", "--mode", "cipher", "--keys", str(bad),
            "--lang", "spa"], EXIT_CONFIG


@pytest.mark.parametrize("reader", [
    "tidy-csv", "select-corpus-dir", "documents", "record", "train-input", "quality-input", "input", "keys"])
def test_non_utf8_input_names_the_file(monkeypatch, capsys, request,
                                       tmp_path, reader):
    """A byte that is not UTF-8 in an input file exits with that file's
    usual code and an error line naming the file; it used to give only
    the codec's message."""
    name = {"select-corpus-dir": "aaa.txt",
            "documents": "eng.txt"}.get(reader, "input.txt")
    bad = tmp_path / "inputs" / name
    bad.parent.mkdir()
    bad.write_bytes(b"ab\n\xff\n")
    argv, expected = _non_utf8_command(reader, request, bad)
    code, out, err = run_cli(monkeypatch, capsys, argv)
    assert code == expected
    assert out == ""
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["translit-table", "run-table-root"])
def test_non_utf8_rule_table_names_the_file(monkeypatch, capsys, request,
                                            tmp_path, command):
    """A rule table holding a byte that is not UTF-8 exits 3 with one error
    line naming the table; it used to give only the codec's message."""
    tables = tmp_path / "tables"
    bad = tables / "rom" / "eng.tsv"
    bad.parent.mkdir(parents=True)
    bad.write_bytes(b"a\tb\t\t\t1\n\xff\n")
    if command == "run-table-root":
        config, corpus_dir = request.getfixturevalue("run_inputs")
        payload = json.loads(config.read_text(encoding="utf-8"))
        payload.update(input_type="Rom", table_root=str(tables))
        rom_config = tmp_path / "config.json"
        rom_config.write_text(json.dumps(payload), encoding="utf-8")
        argv = ["run", "--config", str(rom_config),
                "--corpus-dir", str(corpus_dir)]
    else:
        argv = ["translit", "--mode", "rom", "--lang", "eng",
                "--table", str(bad)]
    code, out, err = run_cli(monkeypatch, capsys, argv, stdin="ab\n")
    assert code == EXIT_DATA
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert f"{bad}: 'utf-8' codec can't decode " in err


@pytest.mark.parametrize("case", [
    "run-artifacts-dir-is-a-file", "quality-input-under-a-file",
    "encode-model-under-a-file", "run-config-under-a-file"])
def test_path_through_a_file_exits_3(monkeypatch, capsys, request, tmp_path,
                                     case):
    """A directory path that names a file, or an input path that runs
    through a file, exits 3 with one error line naming it; these used to
    end in a FileExistsError or NotADirectoryError traceback with exit
    1."""
    plain = tmp_path / "c.txt"
    plain.write_text("ab ab\n", encoding="utf-8")
    if case.startswith("run-"):
        config, corpus_dir = request.getfixturevalue("run_inputs")
        argv = ["run", "--corpus-dir", str(corpus_dir)] + (
            ["--config", str(config), "--artifacts-dir", str(plain)]
            if case == "run-artifacts-dir-is-a-file"
            else ["--config", str(plain / "x.json")])
    elif case == "quality-input-under-a-file":
        argv = ["quality", "--model",
                str(request.getfixturevalue("trained_model")),
                "--input", str(plain / "x"), "--lang", "eng"]
    else:
        argv = ["encode", "--model", str(plain / "m.json")]
    code, out, err = run_cli(monkeypatch, capsys, argv, stdin="ab\n")
    assert code == EXIT_DATA
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert str(plain) in err


_UNKNOWN_INPUT_TYPE = ("--input-type: unknown input type 'Bogus'; expected "
                       "one of ['Ortho', 'IPA', 'Rom', 'Cipher']")


@pytest.mark.parametrize("flags, message", [
    (["translit", "--mode", "cipher", "--shift", "99"],
     "--shift must be in 0..25, got 99"),
    (["translit", "--mode", "cipher", "--shift", "-1", "--decipher"],
     "--shift must be in 0..25, got -1"),
    (["train-tokenizer", "--vocab-size", "0"],
     "--vocab-size must be >= 3, got 0"),
    (["train-tokenizer", "--vocab-size", "2"],
     "--vocab-size must be >= 3, got 2"),
    (["train-tokenizer", "--min-char-freq", "0"],
     "--min-char-freq must be >= 1, got 0"),
    (["token-set", "--model", "{absent}", "--lang", "eng",
      "--input-type", "Bogus"], _UNKNOWN_INPUT_TYPE),
    (["quality", "--model", "{absent}", "--lang", "eng",
      "--input-type", "Bogus"], _UNKNOWN_INPUT_TYPE),
], ids=["shift-99", "decipher-shift-minus-1", "vocab-size-0", "vocab-size-2",
        "min-char-freq-0", "token-set-input-type", "quality-input-type"])
def test_flag_value_out_of_range_exits_2(monkeypatch, capsys, tmp_path,
                                         flags, message):
    """A flag value outside the bounds a config or cipher key takes, or an
    unknown input type, is a usage error, raised before any file is read:
    the input and model named here do not exist. These used to exit 3,
    after a file was opened."""
    absent = str(tmp_path / "absent.txt")
    argv = [flag.format(absent=absent) for flag in flags]
    code, out, err = run_cli(monkeypatch, capsys,
                             argv + ["--input", absent], stdin="abc\n")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"error: {message}\n"


def test_too_few_files_exits_2_before_any_is_read(monkeypatch, capsys,
                                                  tmp_path):
    """`compare` with one report and `overlap` with no source are usage
    errors, raised before the files named here (which do not exist) are
    read. These used to exit 3, after a file was read."""
    absent = str(tmp_path / "absent.json")
    for argv, message in [
            (["compare", "--reports", absent],
             "--reports needs at least two files"),
            (["overlap", "--target", absent, "--sources", ","],
             "--sources needs at least one file")]:
        code, out, err = run_cli(monkeypatch, capsys, argv)
        assert (code, out) == (EXIT_CONFIG, ""), argv
        assert err == f"error: {message}\n"


def _output_command(name, request):
    """argv and stdin for one subcommand that takes --output."""
    fixture = request.getfixturevalue
    if name == "translit":
        return ["translit", "--mode", "cipher", "--shift", "1"], "apple\n"
    if name == "train-tokenizer":
        corpus = fixture("tmp_path") / "train.txt"
        corpus.write_text("abab ab\n", encoding="utf-8")
        return ["train-tokenizer", "--input", str(corpus),
                "--vocab-size", "8"], ""
    if name in ("encode", "token-set"):
        argv = [name, "--model", str(fixture("trained_model"))]
        return argv + (["--lang", "eng"] if name == "token-set" else []), \
            "abab ab zz\n"
    if name == "quality":
        corpus = fixture("tmp_path") / "eval.txt"
        corpus.write_text("abab ab zz\n", encoding="utf-8")
        return ["quality", "--model", str(fixture("trained_model")),
                "--input", str(corpus), "--lang", "eng",
                "--format", "csv"], ""
    if name == "overlap":
        files = fixture("token_set_files")
        return ["overlap", "--target", str(files["tgt"]),
                "--sources", str(files["fra"])], ""
    if name == "select-langs":
        features, scripts = fixture("selection_files")
        return ["select-langs", "--features", str(features),
                "--scripts", str(scripts), "--regime", "sim-div",
                "--set-size", "2"], ""
    if name == "stats":
        scores, metric_values = fixture("stats_files")
        return ["stats", "--scores", str(scores),
                "--metrics", str(metric_values), "--format", "csv"], ""
    if name == "run":
        config, corpus_dir = fixture("run_inputs")
        return ["run", "--config", str(config),
                "--corpus-dir", str(corpus_dir)], ""
    assert name == "compare"
    return ["compare", "--reports"] + \
        [str(p) for p in fixture("report_files")], ""


@pytest.mark.parametrize("name", [
    "translit", "train-tokenizer", "encode", "token-set", "overlap",
    "quality", "select-langs", "stats", "run", "compare"])
class TestOutputPath:
    def test_file_gets_stdout_bytes(self, monkeypatch, capsys, request,
                                    tmp_path, name):
        argv, stdin = _output_command(name, request)
        code, out, err = run_cli(monkeypatch, capsys, argv, stdin)
        assert code == EXIT_OK, err
        dst = tmp_path / "out.txt"
        code, to_stdout, err = run_cli(monkeypatch, capsys,
                                       argv + ["--output", str(dst)], stdin)
        assert code == EXIT_OK, err
        assert to_stdout == ""
        assert dst.read_bytes() == out.encode("utf-8")

    def test_unwritable_path_exits_4(self, monkeypatch, capsys, request,
                                     tmp_path, name):
        argv, stdin = _output_command(name, request)
        dst = tmp_path / "missing-dir" / "out.txt"
        code, _, err = run_cli(monkeypatch, capsys,
                               argv + ["--output", str(dst)], stdin)
        assert code == EXIT_WRITE
        assert err.startswith("error: cannot write ")
        assert str(dst) in err


class TestParseErrors:
    def test_no_arguments(self, monkeypatch, capsys):
        assert run_cli(monkeypatch, capsys, [])[0] == EXIT_CONFIG

    def test_unknown_subcommand(self, monkeypatch, capsys):
        assert run_cli(monkeypatch, capsys, ["frobnicate"])[0] == EXIT_CONFIG

    def test_help_exits_zero(self, monkeypatch, capsys):
        assert run_cli(monkeypatch, capsys, ["--help"])[0] == EXIT_OK


def test_run_bytes_do_not_depend_on_hash_seed_or_cache(run_inputs,
                                                        tmp_path):
    """`run` gives the same report bytes under two hash seeds, cold and
    then warm over one artifacts dir per seed."""
    config, corpus_dir = run_inputs
    payload = json.loads(config.read_text(encoding="utf-8"))
    src = str(Path(scriptshift.__file__).resolve().parents[1])
    outputs = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        artifacts = tmp_path / f"artifacts-{seed}"
        for itype in ("Ortho", "Rom", "Cipher"):
            typed = tmp_path / f"config-{itype}.json"
            typed.write_text(json.dumps(dict(payload, input_type=itype)),
                             encoding="utf-8")
            for attempt in ("cold", "warm"):
                proc = subprocess.run(
                    [sys.executable, "-m", "scriptshift.cli", "run",
                     "--config", str(typed), "--corpus-dir", str(corpus_dir),
                     "--artifacts-dir", str(artifacts)],
                    env=env, capture_output=True, timeout=120)
                assert (proc.returncode, proc.stderr) == (0, b"")
                outputs.setdefault(itype, {})[seed, attempt] = proc.stdout
    for itype, runs in outputs.items():
        assert len(set(runs.values())) == 1, itype
    assert len({next(iter(runs.values())) for runs in outputs.values()}) == 3


def test_store_filled_by_other_code_is_not_served(run_inputs, tmp_path):
    """A report stored by the package's code is not served to an edited
    copy of it: the copy's stored run gives its own storeless bytes."""
    config, corpus_dir = run_inputs
    src = Path(scriptshift.__file__).resolve().parents[1]
    edited = tmp_path / "src-edited"
    shutil.copytree(src / "scriptshift", edited / "scriptshift",
                    ignore=shutil.ignore_patterns("__pycache__"))
    metrics = edited / "scriptshift" / "metrics.py"
    code = metrics.read_text(encoding="utf-8")
    assert "fertility=Fraction(tokens, words)" in code
    metrics.write_text(code.replace("fertility=Fraction(tokens, words)",
                                    "fertility=Fraction(tokens + 1, words)"),
                       encoding="utf-8")

    def run(root, *flags):
        proc = subprocess.run(
            [sys.executable, "-m", "scriptshift.cli", "run", "--config",
             str(config), "--corpus-dir", str(corpus_dir), *flags],
            env=dict(os.environ, PYTHONPATH=str(root)), capture_output=True,
            timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        return proc.stdout

    artifacts = ["--artifacts-dir", str(tmp_path / "artifacts")]
    original = run(src, *artifacts)
    edited_stored = run(edited, *artifacts)
    edited_fresh = run(edited)
    assert edited_fresh != original
    assert edited_stored == edited_fresh
    assert len(stored(tmp_path / "artifacts", "report")) == 2


@pytest.mark.skipif(shutil.which("scriptshift") is None,
                    reason="console script not on PATH")
def test_console_script_smoke():
    proc = subprocess.run(
        ["scriptshift", "translit", "--mode", "cipher", "--shift", "4"],
        input="apple\n", capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "ettpi\n"
