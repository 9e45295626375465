"""Span tracing from outside the library, by wrapping module-level names.

A Tracer replaces each target below with a wrapper that records one span
(name, start, end, parent) per call, then puts every original back on
uninstall. Spans stay in memory; counts that need a call's arguments or
result are worked out after the timed region, from references kept by the
wrapper, so the timed spans carry no counting work. A target that a later
refactor removes is listed in `missing` and the metrics built on it are
left out, instead of failing the run.
"""

import importlib
import inspect
import time
from collections import Counter

LAYERS = ("corpus", "translit", "tokenizer", "metrics", "pipeline",
          "langselect", "stats")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _corpus_words(corpus):
    return [word for line in corpus for word in line.split()]


def _probe_sample(args, kwargs, result, counts, scratch):
    counts["corpus.words_sampled"] += result[0].word_count


def _probe_chars(index):
    def probe(args, kwargs, result, counts, scratch):
        counts["translit.chars"] += len(_arg(args, kwargs, index, "text"))
    return probe


def _probe_train(args, kwargs, result, counts, scratch):
    counts["tokenizer.train_types"] += len(
        _arg(args, kwargs, 0, "word_counts"))
    counts["tokenizer.merges"] += len(result.merges)


def _probe_token_set(args, kwargs, result, counts, scratch):
    model = _arg(args, kwargs, 0, "model")
    words = _corpus_words(_arg(args, kwargs, 1, "corpus"))
    counts["metrics.words_fed"] += len(words)
    # One encoder cache lives per model, so a word is segmented cold once
    # per model however many corpora contain it.
    scratch.setdefault(id(model), set()).update(words)


def _probe_quality(args, kwargs, result, counts, scratch):
    counts["metrics.words_fed"] += len(
        _corpus_words(_arg(args, kwargs, 1, "corpus")))


def _probe_load(args, kwargs, result, counts, scratch):
    if args[0].root is not None:
        key = "pipeline.cache_hits" if result is not None \
            else "pipeline.cache_misses"
        counts[key] += 1


def _probe_save(args, kwargs, result, counts, scratch):
    if args[0].root is not None:
        content = _arg(args, kwargs, 2, "content")
        counts["pipeline.cache_bytes_written"] += len(content.encode("utf-8"))


# (module, attribute path, layer, probe). Everything scriptshift.pipeline
# calls is wrapped where pipeline binds it, because pipeline imported the
# names into its own namespace.
TARGETS = (
    ("corpus", "read_documents", "corpus", None),
    ("pipeline", "sample_to_budget", "corpus", _probe_sample),
    ("translit", "TableRegistry.romanize", "translit", _probe_chars(2)),
    ("translit", "TableRegistry.g2p", "translit", _probe_chars(2)),
    ("translit", "apply_rules", "translit", None),
    ("translit", "decompose_syllables", "translit", None),
    ("pipeline", "caesar_encipher", "translit", _probe_chars(1)),
    ("pipeline", "train_from_word_counts", "tokenizer", _probe_train),
    ("pipeline", "token_set", "tokenizer", _probe_token_set),
    ("pipeline", "dumps_model", "tokenizer", None),
    ("pipeline", "loads_model", "tokenizer", None),
    ("pipeline", "quality_report", "metrics", _probe_quality),
    ("pipeline", "overlap_report", "metrics", None),
    ("pipeline", "token_length_histogram", "metrics", None),
    ("pipeline", "run_experiment", "pipeline", None),
    ("pipeline", "dumps_report", "pipeline", None),
    ("pipeline", "_StageStore.load_text", "pipeline", _probe_load),
    ("pipeline", "_StageStore.save_text", "pipeline", _probe_save),
    ("langselect", "SimilarityMatrix.build", "langselect", None),
    ("langselect", "select_subset", "langselect", None),
    ("langselect", "set_objective", "langselect", None),
    ("stats", "pearson", "stats", None),
    ("stats", "spearman", "stats", None),
    ("stats", "paired_t_test", "stats", None),
    ("stats", "t_cdf", "stats", None),
    ("stats", "significance_mask", "stats", None),
)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.layer_of = {}   # span name -> layer
        self.missing = []    # targets that could not be found
        self._stack = []
        self._pending = []   # (name, probe, args, kwargs, result)
        self._installed = []  # (owner, attr, original static attribute)
        self.run_start = 0

    def install(self):
        for module_name, path, layer, probe in TARGETS:
            name = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(f"scriptshift.{module_name}")
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            self.layer_of[name] = layer
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name,
                                                 probe))
            else:
                wrapped = self._wrap(original, name, probe)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self):
        """Put every original back."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def mark_run_start(self):
        self.run_start = len(self.spans)

    def _wrap(self, fn, name, probe):
        spans = self.spans
        stack = self._stack
        pending = self._pending
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                pending.append((name, probe, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def counts(self):
        """Counters from the probes, plus per-name call counts. A probe
        that no longer fits its target's signature marks the target as
        missing."""
        counts = Counter()
        scratch = {}
        for name, probe, args, kwargs, result in self._pending:
            if name in self.missing:
                continue
            try:
                probe(args, kwargs, result, counts, scratch)
            except (AttributeError, IndexError, KeyError, TypeError):
                self.missing.append(name)
        counts["tokenizer.cold_types"] = sum(len(words)
                                             for words in scratch.values())
        for span in self.spans[self.run_start:]:
            counts[f"calls.{span[0]}"] += 1
        return counts

    def times(self):
        """Run-phase time per name (total and self) and per layer (self),
        the run-phase time under top-level spans, and set-up time per
        name."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        total = Counter()
        self_time = Counter()
        setup_total = Counter()
        top_level = 0.0
        for index, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            if index < self.run_start:
                setup_total[name] += duration
                continue
            total[name] += duration
            self_time[name] += duration - child[index]
            if parent < 0:
                top_level += duration
        layer_self = Counter()
        for name, seconds in self_time.items():
            layer_self[self.layer_of[name]] += seconds
        return total, self_time, layer_self, top_level, setup_total


class _Missing(Exception):
    pass


def layer_metrics(tracer, run_s, prepared_words):
    """Per-layer metrics of one traced repeat. Metrics that need a missing
    target are left out."""
    total, self_time, layer_self, top_level, setup_total = tracer.times()
    counts = tracer.counts()

    def need(*names):
        for name in names:
            if name not in tracer.layer_of or name in tracer.missing:
                raise _Missing(name)

    def spent(*names, table=total):
        need(*names)
        return sum(table[name] for name in names)

    def count(key, *names):
        need(*names)
        return counts[key]

    def ratio(num, den):
        return num / den if den else 0.0

    def translit_chars():
        return count("translit.chars", "translit.TableRegistry.romanize",
                     "translit.TableRegistry.g2p", "pipeline.caesar_encipher")

    def hits():
        return count("pipeline.cache_hits", "pipeline._StageStore.load_text")

    def misses():
        return count("pipeline.cache_misses",
                     "pipeline._StageStore.load_text")

    derived = {
        "corpus.read_s": lambda: spent("corpus.read_documents",
                                       table=setup_total),
        "corpus.sample_s": lambda: spent("pipeline.sample_to_budget"),
        "corpus.words_sampled": lambda: count(
            "corpus.words_sampled", "pipeline.sample_to_budget"),
        "translit.s": lambda: layer_self["translit"],
        "translit.apply_rules_s": lambda: spent("translit.apply_rules"),
        "translit.decompose_s": lambda: spent("translit.decompose_syllables"),
        "translit.cipher_s": lambda: spent("pipeline.caesar_encipher"),
        "translit.chars": translit_chars,
        "translit.chars_per_s": lambda: ratio(translit_chars(),
                                              layer_self["translit"]),
        "tokenizer.train_s": lambda: spent("pipeline.train_from_word_counts"),
        "tokenizer.train_types": lambda: count(
            "tokenizer.train_types", "pipeline.train_from_word_counts"),
        "tokenizer.merges": lambda: count(
            "tokenizer.merges", "pipeline.train_from_word_counts"),
        "tokenizer.segment_cold_s": lambda: spent("pipeline.token_set"),
        "tokenizer.cold_types": lambda: count("tokenizer.cold_types",
                                              "pipeline.token_set"),
        "tokenizer.model_io_s": lambda: spent("pipeline.dumps_model",
                                              "pipeline.loads_model"),
        "metrics.quality_s": lambda: spent("pipeline.quality_report"),
        "metrics.overlap_s": lambda: spent("pipeline.overlap_report"),
        "metrics.word_passes": lambda: ratio(
            count("metrics.words_fed", "pipeline.token_set",
                  "pipeline.quality_report"), prepared_words),
        "pipeline.self_s": lambda: spent("pipeline.run_experiment",
                                         table=self_time),
        "pipeline.cache_load_s": lambda: spent(
            "pipeline._StageStore.load_text"),
        "pipeline.cache_save_s": lambda: spent(
            "pipeline._StageStore.save_text"),
        "pipeline.cache_hits": hits,
        "pipeline.cache_misses": misses,
        "pipeline.cache_hit_ratio": lambda: ratio(hits(), hits() + misses()),
        "pipeline.cache_bytes_written": lambda: count(
            "pipeline.cache_bytes_written", "pipeline._StageStore.save_text"),
        "langselect.matrix_s": lambda: spent(
            "langselect.SimilarityMatrix.build"),
        "langselect.select_s": lambda: spent("langselect.select_subset"),
        "langselect.objective_evals": lambda: count(
            "calls.langselect.set_objective", "langselect.set_objective"),
        "stats.s": lambda: layer_self["stats"],
        "trace.run_s": lambda: run_s,
        "trace.uncovered_s": lambda: run_s - top_level,
    }
    for layer in LAYERS:
        derived[f"layer.{layer}_s"] = (lambda layer=layer:
                                       layer_self[layer])
    values = {}
    for name, fn in derived.items():
        try:
            values[name] = fn()
        except _Missing:
            continue
    return values
