"""End-to-end experiment runs: sample, transliterate, train, measure.

A run takes per-language document collections, samples seen languages to a
word budget, renders every corpus in the configured input type, trains one
tokenizer on the oversampling-weighted seen corpora, and reports quality and
overlap metrics. Each corpus is counted into a word table once per process
(`Corpus.word_counts`) before it is transformed, and the transform rewrites
the table's distinct words (or, for a rule table that does not rewrite
word by word, its distinct lines), not every line. The table gives the
training counts (scaled by repetition counts), the token set and the
quality metrics. Runs are deterministic functions of the config, corpora
and rule tables. Every run keys its report and model by their own inputs;
with an artifacts dir each is stored under that key in the directory of
the code that ran, so runs of one code that share inputs share them: a
rerun returns its stored report, and runs whose merged training tables are
equal (Ortho and Rom over Latin-script training languages) share one model.
Without one the same keys are computed and nothing is read, rendered or
written, but the last such run's model is kept in this process for the
next run of its key.
Whether a stored artifact is served is decided by `_StageStore.load_text`
alone. A failure in a stage raises PipelineStageError naming the stage
and language. Configs, reports and comparison tables are JSON records
(`records`); a config that fails to read raises ConfigError.
"""

from __future__ import annotations

import hashlib
import json
import os
import pkgutil
import re
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from .corpus import (Corpus, CorpusManifest, Document, EmptyCorpusError,
                     repetition_counts, sample_to_budget)
from .input_types import InputType
from .metrics import (OverlapReport, OverlapVariant, TokenizerQualityReport,
                      overlap_report, quality_report, token_length_histogram)
from .records import Record, dumps, load
from .tokenizer import (SubwordModel, dumps_model, loads_model, token_set,
                        train_from_word_counts)
from .translit import (CipherKey, RuleMode, TableRegistry,
                       assign_shift_keys, caesar_encipher)

DEFAULT_SEED = 101
DEFAULT_VOCAB_SIZE = 30_000
DEFAULT_BUDGET = 10_000_000


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configs."""


class PipelineStageError(RuntimeError):
    """Wraps a failure with the stage and language it happened in."""

    def __init__(self, stage: str, lang: str | None, cause: Exception):
        where = f"stage {stage!r}" + (f", language {lang!r}" if lang else "")
        super().__init__(f"{where}: {cause}")
        self.stage = stage
        self.lang = lang
        self.cause = cause


# A language code names files (`<lang>.txt`, `tokensets/<lang>-...`), so it
# is a letter or digit followed by letters, digits, `_` or `-`.
_LANG_CODE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_-]*")


@dataclass(frozen=True)
class LanguageSpec:
    lang: str
    seen: bool

    def __post_init__(self) -> None:
        if not _LANG_CODE.fullmatch(self.lang):
            raise ConfigError(f"language code {self.lang!r} is not a letter "
                              f"or digit followed by letters, digits, "
                              f"'_' or '-'")


@dataclass(frozen=True)
class ExperimentConfig(Record):
    languages: tuple[LanguageSpec, ...]
    input_type: InputType
    vocab_size: int = DEFAULT_VOCAB_SIZE
    budget: int = DEFAULT_BUDGET
    seed: int = DEFAULT_SEED
    min_char_freq: int = 1
    overlap_variant: OverlapVariant = OverlapVariant.MAX_SOURCE
    table_root: str | None = None
    cipher_shifts: Mapping[str, int] | None = None

    json_error = ConfigError

    def __post_init__(self) -> None:
        langs = [spec.lang for spec in self.languages]
        if not langs:
            raise ConfigError("config lists no languages")
        if len(set(langs)) != len(langs):
            raise ConfigError(f"duplicate languages in config: {langs}")
        if not any(spec.seen for spec in self.languages):
            raise ConfigError("config needs at least one seen language")
        if self.vocab_size < 3:
            raise ConfigError(f"vocab_size too small: {self.vocab_size}")
        if self.budget <= 0:
            raise ConfigError(f"budget must be positive: {self.budget}")
        if self.min_char_freq < 1:
            raise ConfigError(
                f"min_char_freq must be >= 1: {self.min_char_freq}")
        if self.cipher_shifts is not None:
            missing = [l for l in langs if l not in self.cipher_shifts]
            if missing:
                raise ConfigError(f"cipher_shifts missing languages: "
                                  f"{missing}")
            for lang in langs:
                CipherKey(lang, self.cipher_shifts[lang])

    @property
    def langs(self) -> tuple[str, ...]:
        return tuple(spec.lang for spec in self.languages)

    @property
    def seen_langs(self) -> tuple[str, ...]:
        return tuple(sorted(s.lang for s in self.languages if s.seen))

    @property
    def unseen_langs(self) -> tuple[str, ...]:
        return tuple(sorted(s.lang for s in self.languages if not s.seen))

    def digest(self) -> str:
        canonical = json.dumps(self.to_json_dict(), sort_keys=True,
                               ensure_ascii=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_config(path: str | Path) -> ExperimentConfig:
    """Load a config from a JSON file. Text that is not UTF-8 or does not
    parse or fit raises ConfigError naming the file."""
    return load(ExperimentConfig, path)


@dataclass(frozen=True)
class AnalysisReport(Record):
    """Everything a run measured, serializable to JSON and CSV."""

    config_digest: str
    model_digest: str
    input_type: InputType
    seed: int
    vocab_size: int
    seen_langs: tuple[str, ...]
    unseen_langs: tuple[str, ...]
    manifests: dict[str, CorpusManifest]
    quality: dict[str, TokenizerQualityReport]
    overlap: dict[str, OverlapReport]
    token_lengths: dict[str, dict[int, int]]

    def __post_init__(self) -> None:
        langs = self.seen_langs + self.unseen_langs
        if len(set(langs)) != len(langs):
            raise ValueError(f"seen and unseen languages repeat: {langs}")
        if set(self.quality) != set(langs):
            raise ValueError("quality reports must cover exactly the seen "
                             "and unseen languages")
        if set(self.overlap) != set(self.unseen_langs):
            raise ValueError("overlap reports must cover exactly the unseen "
                             "languages")
        for lang, quality in self.quality.items():
            if (quality.lang, quality.input_type) != (lang, self.input_type):
                raise ValueError(f"quality report under {lang!r} is for "
                                 f"{quality.lang!r} in "
                                 f"{quality.input_type.value}")

    def to_csv_rows(self) -> list[list]:
        """Tidy rows: lang, input_type, metric, length, value. Scalar
        metrics leave the length column empty."""
        rows: list[list] = []
        itype = self.input_type.value
        for lang in sorted(self.quality):
            rows.extend(self.quality[lang].to_csv_rows())
        for lang in sorted(self.overlap):
            report = self.overlap[lang]
            rows.append([lang, itype, "overlap_ratio", "",
                         float(report.overall_ratio)])
            for length, ratio in sorted(report.by_length.items()):
                rows.append([lang, itype, "overlap_by_length", length,
                             float(ratio)])
        return rows


def dumps_report(report: AnalysisReport) -> str:
    return dumps(report.to_json_dict())


def load_report(path: str | Path) -> AnalysisReport:
    return load(AnalysisReport, path)


# --- Running ------------------------------------------------------------------


def _code_digest() -> str:
    """Digest of the bytes the loader reads for each module of this package:
    `__init__`, then every module on its path by name, imported or not."""
    package = sys.modules[__package__]
    specs = [info.module_finder.find_spec(f"{__package__}.{info.name}")
             for info in sorted(pkgutil.iter_modules(package.__path__),
                                key=lambda info: info.name)]
    if not specs:
        raise ImportError(f"no modules of {__package__} to digest")
    parts = []
    for spec in [package.__spec__, *specs]:
        data = spec.loader.get_data(spec.origin)
        parts += [spec.name, hashlib.sha256(data).hexdigest()]
    return hashlib.sha256(json.dumps(parts).encode("ascii")).hexdigest()


_CODE_DIGEST = _code_digest()  # once per process, as the code is loaded


def _key(*parts: str) -> str:
    """Digest naming an artifact by the parts it is made of."""
    return hashlib.sha256(json.dumps(parts).encode("ascii")).hexdigest()


_TABLE_MODES = {InputType.IPA: RuleMode.G2P,
                InputType.ROM: RuleMode.ROMANIZE,
                InputType.CIPHER: RuleMode.ROMANIZE}


def _run_digest(config: ExperimentConfig, registry: TableRegistry,
                docs_digests: Mapping[str, str]) -> str:
    """Digest of everything a run reads but the code: the config, each
    language's documents and every rule table the input type uses. A table
    that cannot be read fails here, in the transliterate stage of its
    language, before anything is sampled."""
    parts = [config.digest()]
    mode = _TABLE_MODES.get(config.input_type)
    for lang in sorted(config.langs):
        parts += [lang, docs_digests[lang]]
        if mode is not None:
            with _stage("transliterate", lang):
                parts.append(registry.table(mode, lang).digest)
    return _key(*parts)


def _cipher_keys(config: ExperimentConfig) -> dict[str, CipherKey] | None:
    if config.input_type is not InputType.CIPHER:
        return None
    if config.cipher_shifts is not None:
        # Explicit maps are taken as-is; auto-assignment guarantees the
        # distinct non-zero shifts the experiment design calls for.
        return {lang: CipherKey(lang, shift)
                for lang, shift in config.cipher_shifts.items()}
    return assign_shift_keys(config.langs)


class _StageStore:
    """Checked artifact store; a None root reads and renders nothing.

    Each artifact `<name>` is written with its sha256 in `<name>.sha256`,
    the check last. A load serves an artifact only when both files are
    there, agree and the text decodes; anything else is a miss, so a
    truncated, edited or half-written artifact is recomputed, never served.
    Artifacts sit in `<root>/<code digest>/`; other code's are never read."""

    def __init__(self, root: Path | None):
        self.root = None if root is None else root / _CODE_DIGEST
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)

    def load_text(self, name: str, decode: Callable[[str], object] = str):
        """decode(text) of the artifact under name, or None on a miss: a
        missing or mismatched check, or a ValueError or RecursionError from
        decoding."""
        if self.root is None:
            return None
        path = self.root / name
        try:
            check = _check_path(path).read_text(encoding="ascii")
            data = path.read_bytes()
            if hashlib.sha256(data).hexdigest() == check:
                return decode(data.decode("utf-8"))
        except (OSError, ValueError, RecursionError):
            pass
        return None

    def save(self, name: str, render: Callable[[], str]) -> None:
        """Store render() under name; without a root, render is not called."""
        if self.root is not None:
            self.save_text(name, render())

    def save_text(self, name: str, content: str) -> None:
        path = self.root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        data = content.encode("utf-8")
        _replace(path, data)
        _replace(_check_path(path),
                 hashlib.sha256(data).hexdigest().encode("ascii"))


def _check_path(path: Path) -> Path:
    return path.with_name(path.name + ".sha256")


def _replace(path: Path, data: bytes) -> None:
    """Write through a temporary file in the same directory, then rename it
    into place, so the file is whole or absent."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temp.write_bytes(data)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


@contextmanager
def _stage(name: str, lang: str | None = None) -> Iterator[None]:
    """Raise a failure inside as PipelineStageError of stage name."""
    try:
        yield
    except Exception as exc:
        raise PipelineStageError(name, lang, exc) from exc


def _loads_report(text: str) -> AnalysisReport:
    return AnalysisReport.from_json_dict(json.loads(text))


def _table_digest(table: Mapping[str, int]) -> str:
    """sha256 of the table's `word<TAB>count` rows in table order, hashed
    row by row, so no rendering of the whole table is made."""
    digest = hashlib.sha256()
    for word, count in table.items():
        digest.update(f"{word}\t{count}\n".encode("utf-8"))
    return digest.hexdigest()


def _converted(units: Mapping[str, int], convert: Callable[[str], str],
               by_word: bool = True) -> Counter:
    """The word table of converted text: each unit (a word or a line) is
    converted, and its count is added to every word of the result, in
    order of first occurrence.

    Words (by_word) are converted in one call: joined by newlines, which
    a by-word conversion keeps as they are and no rule part can hold, and
    split on them after. Each line is converted in a call of its own."""
    if by_word and units:
        texts = convert("\n".join(units)).split("\n")
    else:
        texts = map(convert, units)
    table: Counter = Counter()
    for text, count in zip(texts, units.values(), strict=True):
        for word in text.split():
            table[word] += count
    return table


def _prepare(config: ExperimentConfig, registry: TableRegistry,
             keys: Mapping[str, CipherKey] | None, lang: str,
             docs: Corpus) -> Counter:
    """One language's documents rendered in the input type and counted into
    a word table, with the keys, counts and order `word_counts` gives over
    the rendered lines.

    The corpus is counted once (`Corpus.word_counts`), and the table is
    transformed instead of the text: its distinct words in one call when
    the rule table rewrites word by word (see `_converted`), and each
    distinct line otherwise. Cipher romanizes and enciphers in that call.
    Ortho returns the corpus's own table, which no caller may change."""
    itype = config.input_type
    if itype is InputType.ORTHO:
        return docs.word_counts()
    mode = _TABLE_MODES[itype]
    convert = registry.g2p if mode is RuleMode.G2P else registry.romanize
    cipher = keys[lang] if itype is InputType.CIPHER else None

    def render(unit: str) -> str:
        text = convert(lang, unit)
        return text if cipher is None else caesar_encipher(cipher, text)

    by_word = registry.table(mode, lang).rewrites_by_word
    return _converted(docs.word_counts() if by_word else Counter(docs.texts),
                      render, by_word)


# (model key, model, model text) of the last run without a store. Only such
# a run reads it; any other run drops it before training, so no stale model
# is alive while a run trains.
_last_model: tuple[str, SubwordModel, str] | None = None


def run_experiment(config: ExperimentConfig,
                   corpora: Mapping[str, Sequence[Document]],
                   registry: TableRegistry | None = None,
                   artifacts_dir: str | Path | None = None,
                   ) -> AnalysisReport:
    """Run the full pipeline for one input type over one language set.

    The run is a deterministic function of config, corpora and rule tables.
    The config names the tables: those under its table_root, or the
    packaged ones when it has none, which is the registry built when
    registry is None. A registry is passed so that runs can share loaded
    tables, and it must read the tables the config names.
    Each stage's output is keyed by that stage's own inputs alone:

    - the report, by the digest of config, corpora and rule tables,
      looked up before anything else;
    - the model, by vocab_size, min_char_freq and the content of the
      merged training table (each seen word table weighted by its
      language's repetition count), so runs that train on equal tables
      share one model;
    - token sets, written for inspection under the language and the
      report's digest, beside the report.

    When artifacts_dir is given, each output is stored under its key and
    read back instead of recomputed, unless `_StageStore.load_text` finds
    it a miss. Without it the same keys are computed and nothing is read,
    rendered or written, but the model of the last such run in this
    process is reused when the model key matches, and dropped before
    training when it does not.

    Each language's word table is built once per run (see `_prepare`);
    training, the token sets and the quality metrics all read it, and no
    prepared line is kept. A corpus that is not a `Corpus` is wrapped in
    one for the call; a `Corpus` passed to several runs is digested,
    sampled and counted once, so only the conversion of its table is
    redone per run.
    """
    missing = [lang for lang in config.langs if lang not in corpora]
    if missing:
        raise ConfigError(f"no corpus provided for languages: {missing}")

    if registry is None:
        root = config.table_root
        registry = TableRegistry(None if root is None else Path(root))

    store = _StageStore(None if artifacts_dir is None else Path(artifacts_dir))
    corpora = {lang: Corpus.of(corpora[lang]) for lang in config.langs}
    docs_digests = {lang: corpora[lang].digest() for lang in config.langs}
    run_digest = _run_digest(config, registry, docs_digests)
    report_name = f"report/{run_digest}.json"
    report = store.load_text(report_name, _loads_report)
    if report is not None:
        return report

    global _last_model
    keys = _cipher_keys(config)
    manifests: dict[str, CorpusManifest] = {}
    tables: dict[str, Counter] = {}
    for lang in config.seen_langs + config.unseen_langs:
        with _stage("sample", lang):
            selected = corpora[lang]
            if lang in config.seen_langs:
                manifests[lang], selected = sample_to_budget(
                    selected, config.budget, config.seed, config.input_type)
            elif not selected:
                raise EmptyCorpusError(f"corpus for {lang!r} is empty")
        with _stage("transliterate", lang):
            tables[lang] = _prepare(config, registry, keys, lang, selected)

    with _stage("train"):
        reps = repetition_counts(
            [manifests[lang] for lang in config.seen_langs], config.budget)
        train_counts: Counter = Counter()
        for lang in config.seen_langs:
            factor = reps[lang]
            for word, count in tables[lang].items():
                train_counts[word] += count * factor
    model_key = _key(str(config.vocab_size), str(config.min_char_freq),
                     _table_digest(train_counts))
    held = _last_model
    if held is not None and (store.root is not None or held[0] != model_key):
        held = _last_model = None
    model_name = f"model/{model_key}.json"
    if held is not None:
        _, model, model_text = held
    else:
        model, model_text = store.load_text(
            model_name, lambda text: (loads_model(text), text)) or (None, None)
    if model is None:
        with _stage("train"):
            model = train_from_word_counts(train_counts, config.vocab_size,
                                           config.min_char_freq)
        model_text = dumps_model(model)
        store.save(model_name, lambda: model_text)
    if store.root is None:
        _last_model = model_key, model, model_text

    with _stage("token-sets"):
        token_sets = {
            lang: token_set(model, tables[lang], lang, config.input_type)
            for lang in sorted(config.langs)
        }
        for lang, ts in token_sets.items():
            store.save(f"tokensets/{lang}-{run_digest}.json",
                       lambda: dumps(ts.to_json_dict()))

    quality: dict[str, TokenizerQualityReport] = {}
    overlap: dict[str, OverlapReport] = {}
    seen_sets = [token_sets[lang] for lang in config.seen_langs]
    for lang in sorted(config.langs):
        with _stage("metrics", lang):
            quality[lang] = quality_report(model, tables[lang], lang,
                                           config.input_type)
            if lang in config.unseen_langs:
                target = token_sets[lang]
                if not target.tokens:
                    # a fully out-of-alphabet corpus (every word an unknown
                    # run) has nothing to overlap; report zero rather than
                    # failing the whole run
                    overlap[lang] = OverlapReport(
                        lang, config.overlap_variant, None, Fraction(0), {})
                else:
                    overlap[lang] = overlap_report(target, seen_sets,
                                                   config.overlap_variant)

    report = AnalysisReport(
        config_digest=config.digest(),
        model_digest=hashlib.sha256(model_text.encode("utf-8")).hexdigest(),
        input_type=config.input_type,
        seed=config.seed,
        vocab_size=config.vocab_size,
        seen_langs=config.seen_langs,
        unseen_langs=config.unseen_langs,
        manifests=manifests,
        quality=quality,
        overlap=overlap,
        token_lengths=token_length_histogram(
            token_sets[lang] for lang in sorted(token_sets)),
    )
    store.save(report_name, lambda: dumps_report(report))
    return report


# --- Cross-input-type comparison ---------------------------------------------

COMPARISON_METRICS = ("unk_ratio", "fertility", "vocab_coverage",
                      "overlap_ratio")


@dataclass(frozen=True)
class ComparisonRow:
    lang: str
    metric: str
    values: dict[str, float | None]
    deltas: dict[str, float | None]


@dataclass(frozen=True)
class ComparisonTable(Record):
    """Per-language metric values side by side across input types, with
    deltas against the Ortho baseline when it is present."""

    input_types: tuple[str, ...]
    langs: tuple[str, ...]
    rows: tuple[ComparisonRow, ...]
    coverage_by_length: dict[str, dict[int, float]]

    def to_csv_rows(self) -> list[list]:
        header = (["lang", "metric"]
                  + [f"value_{t}" for t in self.input_types]
                  + [f"delta_{t}" for t in self.input_types])
        out = [header]
        for row in self.rows:
            record = [row.lang, row.metric]
            record += [row.values.get(t) for t in self.input_types]
            record += [row.deltas.get(t) for t in self.input_types]
            out.append(record)
        return out


def _metric_value(report: AnalysisReport, lang: str,
                  metric: str) -> float | None:
    if metric == "overlap_ratio":
        entry = report.overlap.get(lang)
        return float(entry.overall_ratio) if entry is not None else None
    quality = report.quality[lang]
    return float(getattr(quality, metric))


def compare_input_types(reports: Sequence[AnalysisReport]) -> ComparisonTable:
    """Line up runs of the same language set under different input types.

    All reports must share the language split, seed, vocab size and
    overlap variant, and each input type may appear once. Every language
    contributes one row per comparison metric, so the table has
    len(langs) * 4 rows.
    """
    if len(reports) < 2:
        raise ValueError("comparison needs at least two reports")
    first = reports[0]
    type_order = [r.input_type.value for r in reports]
    if len(set(type_order)) != len(type_order):
        raise ValueError(f"duplicate input types in comparison: {type_order}")
    for report in reports[1:]:
        if (report.seen_langs != first.seen_langs
                or report.unseen_langs != first.unseen_langs):
            raise ValueError("reports cover different language sets")
        if report.seed != first.seed:
            raise ValueError("reports were run with different seeds")
        if report.vocab_size != first.vocab_size:
            raise ValueError("reports use different vocab sizes")
    variants = sorted({entry.variant.value for report in reports
                       for entry in report.overlap.values()})
    if len(variants) > 1:
        raise ValueError(f"reports measure overlap under different "
                         f"variants: {', '.join(map(repr, variants))}")

    by_type = {r.input_type.value: r for r in reports}
    baseline = by_type.get(InputType.ORTHO.value)
    langs = tuple(sorted(first.seen_langs + first.unseen_langs))

    rows: list[ComparisonRow] = []
    for lang in langs:
        for metric in COMPARISON_METRICS:
            values = {itype: _metric_value(by_type[itype], lang, metric)
                      for itype in type_order}
            deltas: dict[str, float | None] = {}
            base = (_metric_value(baseline, lang, metric)
                    if baseline is not None else None)
            for itype in type_order:
                value = values[itype]
                deltas[itype] = (value - base
                                 if value is not None and base is not None
                                 else None)
            rows.append(ComparisonRow(lang, metric, values, deltas))

    coverage: dict[str, dict[int, float]] = {}
    for itype in type_order:
        report = by_type[itype]
        sums: dict[int, Fraction] = {}
        for lang in langs:
            for length, ratio in \
                    report.quality[lang].coverage_by_length.items():
                # the float a report holds on disk, as if read back
                sums[length] = sums.get(length, 0) + Fraction(float(ratio))
        coverage[itype] = {length: float(total / len(langs))
                           for length, total in sorted(sums.items())}

    return ComparisonTable(
        input_types=tuple(type_order),
        langs=langs,
        rows=tuple(rows),
        coverage_by_length=coverage,
    )
