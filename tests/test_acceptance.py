"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line.
Every numeric bound here is pinned; loosening one is a release decision,
not a test fix.
"""

import dataclasses
import io
import itertools
import math
import random
import sys
import time
from fractions import Fraction

import scipy.integrate

from scriptshift import metrics, pipeline, stats, tokenizer as tok
from scriptshift.cli import main as cli_main
from scriptshift.corpus import Document, word_counts
from scriptshift.langselect import (Regime, SelectionSpec, SimilarityMatrix,
                                    select_subset, set_objective)
from scriptshift.metrics import OverlapVariant
from scriptshift.pipeline import ExperimentConfig, LanguageSpec
from scriptshift.input_types import InputType
from scriptshift.translit import (CipherKey, caesar_decipher,
                                  caesar_encipher, default_registry)

from support import (hangul_lines, latin_lines, make_token_set,
                     prepared_lines, stored, the_cat_model)


def verdict(number, name, problems):
    status = "FAIL" if problems else "PASS"
    print(f"[criterion {number}] {name}: {status}")
    assert not problems, f"criterion {number} ({name}): " + "; ".join(
        problems[:5])


# Codepoint ranges the random round-trip strings draw from: ASCII, Latin-1
# and combining marks, Hangul, CJK, and emoji.
UNICODE_RANGES = ((0x20, 0x7E), (0xA0, 0x2FF), (0xAC00, 0xD7A3),
                  (0x4E00, 0x4FFF), (0x1F600, 0x1F64F))


def random_unicode_string(rng):
    length = rng.randint(0, 40)
    chars = []
    for _ in range(length):
        low, high = rng.choice(UNICODE_RANGES)
        chars.append(chr(rng.randint(low, high)))
    return "".join(chars)


def test_criterion_1_cipher_fidelity(monkeypatch, capsys):
    problems = []

    monkeypatch.setattr(sys, "stdin", io.StringIO("apple\n"))
    code = cli_main(["translit", "--mode", "cipher", "--shift", "4"])
    out = capsys.readouterr().out
    if code != 0 or out != "ettpi\n":
        problems.append(f"CLI shift-4 gave exit {code}, output {out!r}")

    rng = random.Random(20260814)
    cases = [(random_unicode_string(rng), CipherKey("und", rng.randint(0, 25)))
             for _ in range(10_000)]
    started = time.perf_counter()
    for text, key in cases:
        if caesar_decipher(key, caesar_encipher(key, text)) != text:
            problems.append(f"round trip failed for {text!r} "
                            f"shift {key.shift}")
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"10^4 round trips took {elapsed:.2f}s (limit 1s)")

    verdict(1, "cipher fidelity", problems)


TOKEN_POOL = ["".join(p) for n in range(1, 6)
              for p in itertools.product("ab", repeat=n)]


def random_family(rng):
    def tokens():
        return frozenset(rng.sample(TOKEN_POOL, rng.randint(1, 20)))

    target = make_token_set("tgt", tokens())
    sources = [make_token_set(f"s{i:02d}", tokens())
               for i in range(rng.randint(1, 5))]
    return target, sources


def naive_overlap(target, sources):
    """Recompute every overlap quantity by direct enumeration."""
    total = len(target.tokens)
    best_lang, best_shared = None, None
    for source in sources:
        shared = [t for t in sorted(target.tokens) if t in source.tokens]
        if (best_shared is None or len(shared) > len(best_shared)
                or (len(shared) == len(best_shared)
                    and source.lang < best_lang)):
            best_lang, best_shared = source.lang, shared

    def by_length(shared):
        out = {}
        for token in shared:
            out.setdefault(len(token), []).append(token)
        return {m: Fraction(len(ts), total) for m, ts in out.items()}

    union_shared = [t for t in sorted(target.tokens)
                    if any(t in s.tokens for s in sources)]
    type_ratio = {}
    for token in target.tokens:
        hit, seen = type_ratio.setdefault(len(token), [0, 0])
        type_ratio[len(token)] = [hit + (token in best_shared), seen + 1]
    return {
        "best": (best_lang, Fraction(len(best_shared), total)),
        "by_length": by_length(best_shared),
        "all_sources": by_length(union_shared),
        "type_ratio": {m: Fraction(h, s)
                       for m, (h, s) in type_ratio.items()},
    }


def test_criterion_2_overlap_matches_brute_force():
    problems = []
    started = time.perf_counter()
    for seed in range(500):
        rng = random.Random(31_000 + seed)
        target, sources = random_family(rng)
        expected = naive_overlap(target, sources)
        best = metrics.overlap_report(target, sources)
        got = {
            "best": (best.best_source, best.overall_ratio),
            "by_length": best.by_length,
            "all_sources": metrics.overlap_report(
                target, sources, OverlapVariant.ALL_SOURCES).by_length,
            "type_ratio": metrics.overlap_report(
                target, sources, OverlapVariant.TYPE_RATIO).by_length,
        }
        for key in expected:
            if got[key] != expected[key]:
                problems.append(f"seed {seed} {key}: {got[key]!r} != "
                                f"{expected[key]!r}")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        problems.append(f"500 families took {elapsed:.2f}s (limit 10s)")
    verdict(2, "overlap equals brute force", problems)


def test_criterion_3_partition_invariant():
    problems = []
    for seed in range(300):
        rng = random.Random(32_000 + seed)
        target, sources = random_family(rng)
        for variant in (OverlapVariant.MAX_SOURCE,
                        OverlapVariant.ALL_SOURCES):
            report = metrics.overlap_report(target, sources, variant)
            total = sum(report.by_length.values(), Fraction(0))
            if total != report.overall_ratio:
                problems.append(
                    f"seed {seed} {variant.value}: by_length sums to "
                    f"{total}, overall is {report.overall_ratio}")
    verdict(3, "by-length overlap partitions the total", problems)


def test_criterion_4_unk_collapse_and_recovery():
    problems = []
    started = time.perf_counter()
    rng = random.Random(41)
    train_corpus = latin_lines(rng, 50_000, vocabulary=2_000)
    model = tok.train(train_corpus, vocab_size=2_000)

    eval_corpus = hangul_lines(rng, 3_000, vocabulary=200)
    ortho_unk = metrics.quality_report(model, word_counts(eval_corpus), "kor",
                                       InputType.ORTHO).unk_ratio
    if ortho_unk < Fraction(95, 100):
        problems.append(f"orthographic unk_ratio {float(ortho_unk):.4f} "
                        f"below 0.95")

    registry = default_registry()
    romanized = [registry.romanize("kor", line) for line in eval_corpus]
    rom_unk = metrics.quality_report(model, word_counts(romanized), "kor",
                                     InputType.ROM).unk_ratio
    if rom_unk > Fraction(5, 100):
        problems.append(f"romanized unk_ratio {float(rom_unk):.4f} "
                        f"above 0.05")

    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        problems.append(f"criterion took {elapsed:.1f}s (limit 60s)")
    verdict(4, "unknown-token collapse and recovery", problems)


def test_criterion_5_tokenizer_determinism(tmp_path):
    problems = []
    rng = random.Random(51)
    corpus = latin_lines(rng, 2_000, vocabulary=150)

    first = tok.train(list(corpus), vocab_size=400)
    second = tok.train(list(corpus), vocab_size=400)
    if tok.dumps_model(first) != tok.dumps_model(second):
        problems.append("independent training runs serialized differently")

    path = tmp_path / "model.json"
    path.write_text(tok.dumps_model(first), encoding="utf-8")
    if tok.dumps_model(tok.load_model(path)) != tok.dumps_model(first):
        problems.append("save/load changed the serialized model")

    words = sorted({w for line in corpus for w in line.split()})
    for i in range(1_000):
        sentence = " ".join(rng.choice(words)
                            for _ in range(rng.randint(1, 12)))
        ids = tok.encode(first, sentence)
        if tok.UNK_ID in ids:
            problems.append(f"sentence {i} unexpectedly hit UNK")
            break
        if tok.decode(first, ids) != sentence:
            problems.append(f"round trip changed sentence {i}: {sentence!r}")
            break
    verdict(5, "tokenizer determinism and round-trip", problems)


def t_density(x, df):
    coeff = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) \
        / math.sqrt(df * math.pi)
    return coeff * (1.0 + x * x / df) ** (-(df + 1) / 2.0)


def upper_tail_by_quadrature(t, df):
    tail, err = scipy.integrate.quad(t_density, abs(t), math.inf,
                                     args=(df,), epsabs=1e-13, limit=200)
    # the oracle must be two orders tighter than the 1e-6 comparison bound
    assert err < 1e-8
    return tail


def test_criterion_6_statistics_correctness():
    problems = []

    grid = [i / 2.0 for i in range(-100, 101)]
    worst = max(abs(stats.t_cdf(t, 1) - (0.5 + math.atan(t) / math.pi))
                for t in grid)
    if worst > 1e-10:
        problems.append(f"df=1 CDF off arctan closed form by {worst:.2e}")

    rng = random.Random(61)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 30)
        a = [rng.gauss(0.0, 1.0) for _ in range(n)]
        b = [x + rng.gauss(0.2, 0.7) for x in a]
        diffs = [x - y for x, y in zip(a, b)]
        if len(set(diffs)) == 1:
            continue  # degenerate case, exact by definition not quadrature
        sample = stats.PairedSample([str(i) for i in range(n)], a, b)
        result = stats.paired_t_test(sample)
        expected = 2.0 * upper_tail_by_quadrature(result.t, n - 1)
        if abs(result.p_value - expected) > 1e-6:
            problems.append(f"paired test n={n} p {result.p_value} vs "
                            f"quadrature {expected}")
        checked += 1

    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    fixtures = (
        (stats.pearson(xs, [2 * x - 1 for x in xs]), 1.0, "pearson +1"),
        (stats.pearson(xs, [-3 * x for x in xs]), -1.0, "pearson -1"),
        (stats.spearman(xs, [x ** 3 for x in xs]), 1.0, "spearman +1"),
        (stats.spearman(xs, [math.exp(-x) for x in xs]), -1.0,
         "spearman -1"),
    )
    for result, expected_r, label in fixtures:
        if (result.r, result.p_value) != (expected_r, 0.0):
            problems.append(f"{label} came out ({result.r}, "
                            f"{result.p_value}) instead of exact")

    verdict(6, "statistics correctness", problems)


def exhaustive_select(pool, spec, sims):
    best, best_obj = None, None
    for combo in itertools.combinations(sorted(pool), spec.set_size):
        obj = set_objective(combo, spec, sims)
        if best_obj is None or (obj > best_obj if spec.regime.maximize
                                else obj < best_obj):
            best, best_obj = combo, obj
    return best, best_obj


def test_criterion_7_selection_and_pipeline_equivalence(tmp_path):
    problems = []

    rng = random.Random(71)
    for case in range(200):
        n = rng.randint(6, 10) if case % 20 else rng.randint(12, 18)
        k = rng.randint(2, 4)
        if math.comb(n, k) > 10_000:
            k = 2
        langs = tuple(sorted(f"l{i:02d}" for i in range(n)))
        values = {pair: round(rng.uniform(0, 4), 3)
                  for pair in itertools.combinations(langs, 2)}
        sims = SimilarityMatrix(langs, values)
        same_scripts = {lang: "Latn" for lang in langs}
        mixed_scripts = {lang: rng.choice(("Latn", "Cyrl", "Hang"))
                         for lang in langs}
        for regime in Regime:
            scripts = same_scripts if regime.single_script else mixed_scripts
            spec = SelectionSpec(regime=regime, set_size=k, alpha=0.3,
                                 script_map=scripts)
            got = select_subset(langs, spec, sims)
            want = exhaustive_select(langs, spec, sims)
            if got != want:
                problems.append(f"case {case} {regime.value}: {got} != "
                                f"{want}")

    def as_documents(lang, lines):
        return [Document(doc_id=f"{lang}-{i:04d}", lang=lang, text=line)
                for i, line in enumerate(lines)]

    corpora = {
        "eng": as_documents("eng", latin_lines(
            random.Random(72), 400, vocabulary=60)),
        "kor": as_documents("kor", hangul_lines(
            random.Random(73), 120, vocabulary=40)),
    }
    languages = (LanguageSpec("eng", True), LanguageSpec("kor", False))
    common = dict(languages=languages, vocab_size=60, budget=120, seed=7)
    rom_dir = tmp_path / "rom"
    cipher_dir = tmp_path / "cipher"
    rom_report = pipeline.run_experiment(
        ExperimentConfig(input_type=InputType.ROM, **common),
        corpora, artifacts_dir=rom_dir)
    cipher_report = pipeline.run_experiment(
        ExperimentConfig(input_type=InputType.CIPHER,
                         cipher_shifts={"eng": 0, "kor": 0}, **common),
        corpora, artifacts_dir=cipher_dir)

    rom_lines = prepared_lines(
        ExperimentConfig(input_type=InputType.ROM, **common), corpora)
    cipher_lines = prepared_lines(
        ExperimentConfig(input_type=InputType.CIPHER,
                         cipher_shifts={"eng": 0, "kor": 0}, **common),
        corpora)
    for lang in ("eng", "kor"):
        if rom_lines[lang] != cipher_lines[lang]:
            problems.append(f"zero-shift prepared text differs for {lang}")
    [rom_model] = stored(rom_dir, "model")
    [cipher_model] = stored(cipher_dir, "model")
    if rom_model.read_bytes() != cipher_model.read_bytes():
        problems.append("zero-shift cipher trained a different model")
    # quality reports embed the input-type label, so compare after
    # relabeling; every number must agree exactly
    relabeled = {lang: dataclasses.replace(q, input_type=InputType.ROM)
                 for lang, q in cipher_report.quality.items()}
    if rom_report.quality != relabeled:
        problems.append("zero-shift cipher quality metrics differ from Rom")
    if rom_report.overlap != cipher_report.overlap:
        problems.append("zero-shift cipher overlap reports differ from Rom")

    verdict(7, "subset selection oracle and zero-shift equivalence",
            problems)


def test_criterion_8_coverage_and_fertility():
    problems = []

    model = the_cat_model()
    report = metrics.quality_report(model, word_counts(["the cat"]), "eng",
                                    InputType.ORTHO)
    if report.fertility != Fraction(3, 2):
        problems.append("hand segmentation of 'the cat' is not 1.5 "
                        "tokens per word")

    rng = random.Random(81)
    for case in range(60):
        corpus = latin_lines(rng, rng.randint(20, 200),
                             vocabulary=rng.randint(10, 60),
                             words_per_line=rng.randint(3, 12))
        trained = tok.train(corpus, vocab_size=rng.randint(30, 120))
        report = metrics.quality_report(trained, word_counts(corpus), "eng",
                                        InputType.ORTHO)
        if sum(report.coverage_by_length.values(),
               Fraction(0)) != report.vocab_coverage:
            problems.append(f"case {case}: coverage classes do not "
                            f"partition the total")
        if report.fertility < 1:
            problems.append(f"case {case}: fertility below one")

    fixed_model = tok.train(["abc abc"], vocab_size=8)
    report = metrics.quality_report(fixed_model, word_counts(["abc ab"]),
                                    "eng", InputType.ORTHO)
    if (report.vocab_coverage, report.coverage_by_length) != (
            Fraction(3, 8), {0: Fraction(1, 8), 2: Fraction(1, 8),
                             3: Fraction(1, 8)}):
        problems.append("fixed coverage fixture mismatch")

    verdict(8, "coverage partition and fertility floor", problems)
