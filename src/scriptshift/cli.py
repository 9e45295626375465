"""Command-line interface.

Subcommands wrap the library one stage at a time (translit, train-tokenizer,
encode, token-set, overlap, quality, select-langs, stats) plus whole runs
(run, compare). Machine-readable output goes to stdout or --output; logs and
errors go to stderr. Exit codes: 0 success, 2 configuration or usage error
(a malformed config included), 3 data or processing error (any other
malformed input file), 4 unwritable output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import corpus as corpus_mod
from . import langselect, metrics, pipeline, records, stats, tokenizer
from . import translit
from .input_types import InputType

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_WRITE = 4

# The package's own data errors subclass ValueError, except these two.
DATA_ERRORS = (
    translit.UnsupportedLanguageError,
    pipeline.PipelineStageError,
    OSError,
    ValueError,
    ArithmeticError,
)


class UsageError(ValueError):
    """Flag combinations argparse cannot express; exits with code 2."""


class OutputWriteError(Exception):
    def __init__(self, path: str, cause: OSError):
        super().__init__(f"cannot write {path}: {cause}")
        self.path = path


# Header of the tidy metric rows that `quality` and `run` write;
# `stats --metrics` reads the same columns.
_METRIC_COLUMNS = ["lang", "input_type", "metric", "length", "value"]


def write_report(payload, fmt: str) -> str:
    """Render a report payload: dict for JSON, list of rows for CSV. An
    empty CSV report still carries its header row."""
    if fmt == "json":
        return records.dumps(payload)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for row in payload:
            writer.writerow(["" if cell is None else cell for cell in row])
        return buffer.getvalue()
    raise UsageError(f"unknown format {fmt!r}")


@contextlib.contextmanager
def _open_in(path: str | None):
    if path is None:
        yield sys.stdin
    else:
        with records.open_text(path) as handle:
            yield handle


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                yield handle
        except OSError as exc:
            raise OutputWriteError(path, exc) from exc


def _emit(args: argparse.Namespace, text: str) -> None:
    with _open_out(args.output) as handle:
        handle.write(text)


def _emit_report(args: argparse.Namespace, payload, rows) -> None:
    """Write the JSON payload or the CSV rows, as --format picks."""
    _emit(args, write_report(rows if args.format == "csv" else payload,
                             args.format))


# --- translit ----------------------------------------------------------------


def _build_transform(args: argparse.Namespace):
    passthrough = translit.Passthrough(args.passthrough)
    if args.mode == "cipher":
        if (args.shift is None) == (args.keys is None):
            raise UsageError("cipher mode needs exactly one of --shift or "
                             "--keys")
        if args.shift is not None:
            if not 0 <= args.shift <= 25:
                raise UsageError(f"--shift must be in 0..25, got {args.shift}")
            key = translit.CipherKey(args.lang or "und", args.shift)
        else:
            if not args.lang:
                raise UsageError("--keys needs --lang to pick the entry")
            key = _cipher_key(args.keys, args.lang)
        if args.decipher:
            return lambda text: translit.caesar_decipher(key, text)
        return lambda text: translit.caesar_encipher(key, text)

    mode = translit.RuleMode.G2P if args.mode == "g2p" \
        else translit.RuleMode.ROMANIZE
    if args.table:
        table = translit.load_rule_table(args.table, args.lang or "und",
                                         mode, passthrough)
    else:
        if not args.lang:
            raise UsageError(f"{args.mode} mode needs --lang or --table")
        table = translit.TableRegistry(passthrough=passthrough).table(
            mode, args.lang)
    if mode is translit.RuleMode.ROMANIZE:
        return lambda text: translit.apply_rules(
            table, translit.decompose_syllables(text))
    return lambda text: translit.apply_rules(table, text)


def _cipher_key(path: str, lang: str) -> translit.CipherKey:
    """The key for lang in a --keys file: a JSON object mapping each
    language to an integer shift. A file of another shape, or one that
    nests too deep to read, is a usage error naming the file."""
    try:
        shifts = records.decode(dict[str, int], json.loads(
            Path(path).read_text(encoding="utf-8")))
        if lang in shifts:
            return translit.CipherKey(lang, shifts[lang])
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{path}: {exc}") from None
    raise UsageError(f"no cipher key for language {lang!r} in {path}")


def _cmd_translit(args: argparse.Namespace) -> int:
    transform = _build_transform(args)
    with _open_in(args.input) as src, _open_out(args.output) as dst:
        for line in src:
            dst.write(transform(line.rstrip("\n")) + "\n")
    return EXIT_OK


# --- tokenizer commands -------------------------------------------------------


def _cmd_train_tokenizer(args: argparse.Namespace) -> int:
    # the bounds ExperimentConfig puts on the same two settings
    if args.vocab_size < 3:
        raise UsageError(f"--vocab-size must be >= 3, got {args.vocab_size}")
    if args.min_char_freq < 1:
        raise UsageError(
            f"--min-char-freq must be >= 1, got {args.min_char_freq}")

    def lines():
        for path in args.input:
            with records.open_text(path) as handle:
                yield from handle

    model = tokenizer.train(lines(), args.vocab_size, args.min_char_freq)
    _emit(args, tokenizer.dumps_model(model))
    return EXIT_OK


def _cmd_encode(args: argparse.Namespace) -> int:
    model = tokenizer.load_model(args.model)
    with _open_in(args.input) as src, _open_out(args.output) as dst:
        for line in src:
            ids = tokenizer.encode(model, line.rstrip("\n"))
            dst.write(" ".join(str(i) for i in ids) + "\n")
    return EXIT_OK


def _input_type(name: str) -> InputType:
    """The --input-type flag's value; an unknown name is a usage error."""
    try:
        return InputType.parse(name)
    except ValueError as exc:
        raise UsageError(f"--input-type: {exc}") from None


def _cmd_token_set(args: argparse.Namespace) -> int:
    input_type = _input_type(args.input_type)
    model = tokenizer.load_model(args.model)
    with _open_in(args.input) as src:
        ts = tokenizer.token_set(model, corpus_mod.word_counts(src),
                                 args.lang, input_type)
    _emit(args, write_report(ts.to_json_dict(), "json"))
    return EXIT_OK


def _cmd_overlap(args: argparse.Namespace) -> int:
    paths = [path for path in args.sources.split(",") if path]
    if not paths:
        raise UsageError("--sources needs at least one file")
    target = records.load(tokenizer.TokenSet, args.target)
    sources = [records.load(tokenizer.TokenSet, path) for path in paths]
    variant = metrics.OverlapVariant(args.variant)
    report = metrics.overlap_report(target, sources, variant)
    rows = [["target_lang", "variant", "best_source", "metric", "length",
             "value"],
            [report.target_lang, variant.value, report.best_source,
             "overall_ratio", "", float(report.overall_ratio)]]
    for length, ratio in sorted(report.by_length.items()):
        rows.append([report.target_lang, variant.value, report.best_source,
                     "by_length", length, float(ratio)])
    _emit_report(args, report.to_json_dict(), rows)
    return EXIT_OK


def _cmd_quality(args: argparse.Namespace) -> int:
    input_type = _input_type(args.input_type)
    model = tokenizer.load_model(args.model)
    with records.open_text(args.input) as handle:
        report = metrics.quality_report(
            model, corpus_mod.word_counts(handle), args.lang, input_type)
    _emit_report(args, report.to_json_dict(),
                 [_METRIC_COLUMNS, *report.to_csv_rows()])
    return EXIT_OK


# --- language selection -------------------------------------------------------


def _cmd_select_langs(args: argparse.Namespace) -> int:
    try:  # the spec's bounds on the flags, before any file is read
        spec = langselect.SelectionSpec(langselect.Regime(args.regime),
                                        args.set_size, args.alpha)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    features = langselect.load_feature_csv(args.features)
    scripts = langselect.load_script_map(args.scripts)
    if args.pool:
        pool = [lang.strip() for lang in args.pool.split(",") if lang.strip()]
    else:
        pool = sorted(features)
    if args.script:
        pool = [lang for lang in pool
                if scripts.get(lang) == args.script]
    corpora = None
    if args.corpus_dir:
        paths = {lang: Path(args.corpus_dir) / f"{lang}.txt" for lang in pool}
        paths = {lang: path for lang, path in paths.items() if path.is_file()}
        corpora = {}
        for lang, path in paths.items():
            with records.open_text(path) as handle:
                corpora[lang] = handle.read().splitlines()
            # the lexical component compares the word types of two corpora
            if len(paths) > 1 and not any(map(str.split, corpora[lang])):
                raise ValueError(f"{path}: the corpus of {lang!r} has no "
                                 f"words")
    spec = replace(spec, script_map=scripts)
    sims = langselect.SimilarityMatrix.build(pool, features, corpora)
    chosen, objective = langselect.select_subset(pool, spec, sims)
    payload = {
        "regime": spec.regime.value,
        "alpha": spec.alpha,
        "set_size": spec.set_size,
        "pool": sorted(pool),
        "langs": list(chosen),
        "objective": objective,
    }
    _emit(args, write_report(payload, "json"))
    return EXIT_OK


# --- statistics ---------------------------------------------------------------


def _read_stats_csv(path: str, value_column: str,
                    key_columns: tuple[str, ...] = ()) -> dict[tuple, float]:
    """Map (set, lang, input_type, *key_columns) to the float in
    value_column. The set column is optional and reads as "" when absent;
    a key that repeats is an error."""
    values: dict[tuple, float] = {}
    required = ("lang", "input_type", *key_columns, value_column)
    for row in corpus_mod.read_tidy_csv(path, required):
        try:
            input_type = InputType.parse(row["input_type"]).value
        except ValueError as exc:
            raise ValueError(f"{path}:{row.line}: {exc}") from None
        key = (row.get("set", "").strip(), row["lang"].strip(), input_type,
               *(row[column].strip() for column in key_columns))
        if key in values:
            raise ValueError(f"{path}:{row.line}: duplicate row for {key}")
        values[key] = corpus_mod.number_cell(path, row.line,
                                             row[value_column])
    return values


def _cmd_stats(args: argparse.Namespace) -> int:
    if not 0 < args.alpha < 1:
        raise UsageError(f"--alpha must be in (0, 1), got {args.alpha}")
    scores = _read_stats_csv(args.scores, "score")
    t_tests = []
    input_types = sorted({itype for _, _, itype in scores})
    for type_a, type_b in itertools.combinations(input_types, 2):
        common = sorted((s, l) for s, l, itype in scores
                        if itype == type_a and (s, l, type_b) in scores)
        if len(common) < 2:
            continue
        sample = stats.PairedSample(
            labels=tuple(f"{s}:{l}" if s else l for s, l in common),
            a=tuple(scores[s, l, type_a] for s, l in common),
            b=tuple(scores[s, l, type_b] for s, l in common),
        )
        result = stats.paired_t_test(sample)
        t_tests.append({"input_type_a": type_a, "input_type_b": type_b,
                        **result._asdict(),
                        # JSON has no infinity: null, or an empty CSV cell
                        "t": result.t if math.isfinite(result.t) else None,
                        "significant": result.p_value < args.alpha})

    correlations = []
    if args.metrics:
        values = _read_stats_csv(args.metrics, "value", ("metric", "length"))
        for series in sorted({key[3:] for key in values}):
            common = sorted(key[:3] for key in values
                            if key[3:] == series and key[:3] in scores)
            if len(common) < 3:
                continue
            xs = [values[label + series] for label in common]
            ys = [scores[label] for label in common]
            for method in (stats.pearson, stats.spearman):
                try:
                    result = method(xs, ys)
                except ValueError:
                    continue  # constant series has no correlation
                correlations.append({
                    "metric": series[0], "length": series[1],
                    **records.to_json(result),
                    "significant": result.significant(args.alpha)})

    payload = {"alpha": args.alpha, "t_tests": t_tests,
               "correlations": correlations}
    rows = [["record", "input_type_a", "input_type_b", "metric", "length",
             "method", "statistic", "p_value", "n", "significant"]]
    for entry in t_tests:
        rows.append(["t_test", entry["input_type_a"], entry["input_type_b"],
                     "", "", "paired_t", entry["t"], entry["p_value"],
                     entry["n"], entry["significant"]])
    for entry in correlations:
        rows.append(["correlation", "", "", entry["metric"], entry["length"],
                     entry["method"], entry["r"], entry["p_value"],
                     entry["n"], entry["significant"]])
    _emit_report(args, payload, rows)
    return EXIT_OK


# --- whole runs ---------------------------------------------------------------


def _load_corpora(corpus_dir: str, langs) -> dict[str, corpus_mod.Corpus]:
    corpora = {}
    for lang in langs:
        path = Path(corpus_dir) / f"{lang}.txt"
        if not path.is_file():
            raise FileNotFoundError(f"no corpus file for {lang!r}: {path}")
        corpora[lang] = corpus_mod.read_documents(path, lang)
    return corpora


def _cmd_run(args: argparse.Namespace) -> int:
    config = pipeline.load_config(args.config)
    corpora = _load_corpora(args.corpus_dir, config.langs)
    report = pipeline.run_experiment(config, corpora,
                                     artifacts_dir=args.artifacts_dir)
    _emit_report(args, report.to_json_dict(),
                 [_METRIC_COLUMNS, *report.to_csv_rows()])
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    if len(args.reports) < 2:
        raise UsageError("--reports needs at least two files")
    reports = [pipeline.load_report(path) for path in args.reports]
    table = pipeline.compare_input_types(reports)
    _emit_report(args, table.to_json_dict(), table.to_csv_rows())
    return EXIT_OK


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scriptshift",
        description="Corpus transliteration and tokenizer analysis toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translit", help="transform text line by line")
    p.add_argument("--mode", required=True, choices=["g2p", "rom", "cipher"])
    p.add_argument("--lang")
    p.add_argument("--table", help="explicit rule table file")
    p.add_argument("--shift", type=int, help="cipher shift 0..25")
    p.add_argument("--keys", help="JSON file of per-language cipher shifts")
    p.add_argument("--decipher", action="store_true",
                   help="invert the cipher instead of applying it")
    p.add_argument("--passthrough", default="keep",
                   choices=["keep", "drop", "error"])
    p.add_argument("--input")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_translit)

    p = sub.add_parser("train-tokenizer", help="train a subword model")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--vocab-size", type=int,
                   default=pipeline.DEFAULT_VOCAB_SIZE)
    p.add_argument("--min-char-freq", type=int, default=1)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_train_tokenizer)

    p = sub.add_parser("encode", help="encode lines to token ids")
    p.add_argument("--model", required=True)
    p.add_argument("--input")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser("token-set", help="collect unique surface tokens")
    p.add_argument("--model", required=True)
    p.add_argument("--input")
    p.add_argument("--lang", required=True)
    p.add_argument("--input-type", default=InputType.ORTHO.value)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_token_set)

    p = sub.add_parser("overlap", help="token-set overlap metrics")
    p.add_argument("--target", required=True)
    p.add_argument("--sources", required=True,
                   help="comma-separated token-set files")
    p.add_argument("--variant", default="max", choices=["max", "all", "type"])
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_overlap)

    p = sub.add_parser("quality", help="tokenizer quality metrics")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--lang", required=True)
    p.add_argument("--input-type", default=InputType.ORTHO.value)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_quality)

    p = sub.add_parser("select-langs", help="pick a language set by regime")
    p.add_argument("--features", required=True)
    p.add_argument("--scripts", required=True)
    p.add_argument("--corpus-dir")
    p.add_argument("--pool", help="comma-separated candidate languages")
    p.add_argument("--script", help="restrict the pool to one script")
    p.add_argument("--regime", required=True,
                   choices=[r.value for r in langselect.Regime])
    p.add_argument("--set-size", type=int, default=8)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_select_langs)

    p = sub.add_parser("stats", help="paired tests and correlations")
    p.add_argument("--scores", required=True)
    p.add_argument("--metrics")
    p.add_argument("--alpha", type=float, default=stats.SIGNIFICANCE_LEVEL)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("run", help="run the full pipeline from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--artifacts-dir")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("compare", help="compare runs across input types")
    p.add_argument("--reports", nargs="+", required=True)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_compare)

    return parser


def main(argv=None) -> int:
    for stream in (sys.stdin, sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            try:
                stream.reconfigure(encoding="utf-8")
            except (ValueError, OSError):
                pass
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (None, 0):
            return EXIT_OK
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.handler(args)
    except OutputWriteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WRITE
    except (UsageError, pipeline.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
