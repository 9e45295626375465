"""The three workloads: how their inputs are generated, set up and run.

Input generation runs in the benchmark's parent process, outside every
timed region. Set-up and the operations run in a fresh interpreter per
repeat (see worker.py), through scriptshift's public API only. Every
library call goes through a module attribute (`pipeline.run_experiment`,
not a name imported from it) so that the tracer's wrappers see it.
"""

import dataclasses
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys

WORKLOADS = ("grid-wide", "rom-long", "select-stats")

# Sizes are chosen so that one repeat takes about two seconds on a 2-core
# x86 machine: a run of 30 s holds a dozen repeats, whose median is steady
# where a single repeat is not.
SIZES = {
    "grid-wide": {
        "full": {"words": 12000, "vocabulary": 2000, "vocab_size": 1000},
        "tiny": {"words": 600, "vocabulary": 80, "vocab_size": 80},
    },
    "rom-long": {
        "full": {"words": 60000, "vocabulary": 200, "vocab_size": 800},
        "tiny": {"words": 900, "vocabulary": 40, "vocab_size": 80},
    },
    "select-stats": {
        "full": {"trees": 7, "words": 15000, "vocabulary": 1500,
                 "extra_langs": 45, "series": 200, "series_len": 24},
        "tiny": {"trees": 3, "words": 200, "vocabulary": 40,
                 "extra_langs": 57, "series": 4, "series_len": 8},
    },
}

GRID_TYPES = ("Ortho", "Rom", "Cipher")
ROM_LONG_TYPES = ("Rom", "Cipher")
FEATURE_DIMS = {"syntactic": 32, "geographic": 8, "genetic": 24}
# select-stats: a regime, the pool it draws from and the set size. Pools
# "latin" (14 languages) and "corpus" (21) are small enough for the
# exhaustive search; "all" (66) reaches the greedy search with swaps.
SELECTIONS = (("sim-same", "latin", 6), ("dissim-same", "latin", 6),
              ("sim-div", "corpus", 6), ("dissim-div", "all", 5))


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- Input generation (parent process, untimed) -----------------------------


def _demo_corpus(root, out, seed, words, vocabulary):
    subprocess.run(
        [sys.executable, str(root / "scripts" / "make_demo_corpus.py"),
         "--output-dir", str(out), "--seed", str(seed),
         "--words", str(words), "--vocabulary", str(vocabulary)],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        check=True, stdout=subprocess.DEVNULL, timeout=120)


def _tree_langs(k):
    """Language codes for demo tree k: its eng and spa corpora become two
    Latin-script languages and its kor corpus a Hangul-script one."""
    return {"eng": (f"la{k}a", "Latn"), "spa": (f"la{k}b", "Latn"),
            "kor": (f"ko{k}", "Hang")}


def _select_stats_inputs(root, out, seed, p):
    rng = random.Random(seed)
    scripts = {}
    for k in range(p["trees"]):
        _demo_corpus(root, out / f"tree{k}", seed * 1000 + k, p["words"],
                     p["vocabulary"])
        for lang, script in _tree_langs(k).values():
            scripts[lang] = script
    for i in range(p["extra_langs"]):
        scripts[f"fx{i:02d}"] = rng.choice(("Latn", "Cyrl", "Arab", "Deva"))
    rows = []
    for lang in sorted(scripts):
        for component, dims in FEATURE_DIMS.items():
            # a sixth of the languages lack genetic vectors, so the
            # rescaling of missing components is exercised
            if component == "genetic" and rng.random() < 1 / 6:
                continue
            values = " ".join(f"{rng.uniform(0.05, 1.0):.6f}"
                              for _ in range(dims))
            rows.append(f"{lang},{component},{values}")
    (out / "features.csv").write_text(
        "lang,component,values\n" + "\n".join(rows) + "\n", encoding="utf-8")
    (out / "scripts.csv").write_text(
        "lang,script\n" + "".join(f"{lang},{script}\n"
                                   for lang, script in sorted(scripts.items())),
        encoding="utf-8")
    series = []
    for _ in range(p["series"]):
        slope = rng.uniform(-1.0, 1.0)
        x = [rng.gauss(0.0, 1.0) for _ in range(p["series_len"])]
        y = [slope * v + rng.gauss(0.0, 1.0) for v in x]
        series.append({"x": x, "y": y})
    (out / "series.json").write_text(json.dumps(series) + "\n",
                                     encoding="utf-8")


def ensure_inputs(root, work, workload, size, seed):
    """Generated inputs for (workload, sizes, seed), made once and kept."""
    p = SIZES[workload][size]
    key = sha256(json.dumps(p, sort_keys=True))[:10]
    out = work / "inputs" / f"{workload}-{size}-{key}-s{seed}"
    done = out / "complete"
    if done.is_file():
        return out
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    if workload == "select-stats":
        _select_stats_inputs(root, out, seed, p)
    else:
        _demo_corpus(root, out, seed, p["words"], p["vocabulary"])
    done.write_text("ok\n", encoding="utf-8")
    return out


# --- Set-up and operations (worker process) ---------------------------------
#
# setup() does what `scriptshift run` does before run_experiment. run()
# records each operation as {"name", "check", "output"}, or with "error"
# when it raised; finish() replaces outputs with digests after the timed
# region. Operations with the same "check" key must give the same digests.


def setup(workload, inputs, size):
    from scriptshift import corpus, langselect, pipeline, translit

    p = SIZES[workload][size]
    if workload == "select-stats":
        lines = {}
        for k in range(p["trees"]):
            for source, (lang, _) in _tree_langs(k).items():
                path = inputs / f"tree{k}" / "corpora" / f"{source}.txt"
                lines[lang] = [doc.text
                               for doc in corpus.read_documents(path, lang)]
        features = langselect.load_feature_csv(inputs / "features.csv")
        scripts = langselect.load_script_map(inputs / "scripts.csv")
        series = json.loads((inputs / "series.json").read_text("utf-8"))
        return {"lines": lines, "features": features, "scripts": scripts,
                "series": series}

    config = pipeline.load_config(inputs / "config.json")
    config = dataclasses.replace(config, vocab_size=p["vocab_size"])
    corpora = {lang: corpus.read_documents(
        inputs / "corpora" / f"{lang}.txt", lang) for lang in config.langs}
    registry = translit.default_registry()
    for lang in config.langs:
        if registry.has_table(translit.RuleMode.ROMANIZE, lang):
            registry.table(translit.RuleMode.ROMANIZE, lang)
    return {"config": config, "corpora": corpora, "registry": registry}


def _guarded(ops, name, check, fn):
    try:
        ops.append({"name": name, "check": check, "output": fn()})
    except Exception as exc:  # one failed operation must not stop the rest
        import traceback
        traceback.print_exc()
        ops.append({"name": name, "check": check,
                    "error": f"{type(exc).__name__}: {exc}"})


def _run_grid(state, itypes, artifacts_dir, prefix, ops):
    from scriptshift import pipeline
    from scriptshift.input_types import InputType

    for name in itypes:
        def op(name=name):
            config = dataclasses.replace(state["config"],
                                         input_type=InputType.parse(name))
            report = pipeline.run_experiment(
                config, state["corpora"], registry=state["registry"],
                artifacts_dir=artifacts_dir)
            return pipeline.dumps_report(report)
        _guarded(ops, f"{prefix}{name}", name, op)


def run(workload, state, scratch, clock):
    """Run the workload's operations; returns (ops, extra) where extra
    holds the workload's own timings."""
    ops = []
    extra = {}
    if workload == "select-stats":
        _run_select_stats(state, ops)
    elif workload == "grid-wide":
        _run_grid(state, GRID_TYPES, None, "", ops)
    else:
        artifacts = scratch / "artifacts"
        start = clock()
        _run_grid(state, ROM_LONG_TYPES, artifacts, "cold/", ops)
        middle = clock()
        _run_grid(state, ROM_LONG_TYPES, artifacts, "warm/", ops)
        extra["cold_run_s"] = middle - start
        extra["warm_run_s"] = clock() - middle
    return ops, extra


def finish(ops, extra, scratch):
    """Untimed: turn outputs into digests, count the prepared words the
    reports cover and measure the artifacts left on disk."""
    words = 0
    for op in ops:
        if "output" not in op:
            continue
        output = op.pop("output")
        if isinstance(output, str):  # a dumps_report text
            report = json.loads(output)
            words += sum(entry["word_count"]
                         for entry in report["quality"].values())
            op["digests"] = {"report": sha256(output),
                             "model": report["model_digest"]}
        else:
            kind, payload = output
            op["digests"] = {kind: sha256(json.dumps(payload,
                                                     sort_keys=True))}
    extra["prepared_words"] = words
    artifacts = scratch / "artifacts"
    if artifacts.exists():
        extra["artifact_bytes"] = sum(path.stat().st_size for path
                                      in artifacts.rglob("*")
                                      if path.is_file())
        shutil.rmtree(artifacts)
    return extra


def _run_select_stats(state, ops):
    from scriptshift import langselect, stats

    lines = state["lines"]
    scripts = state["scripts"]
    everyone = sorted(scripts)
    pools = {"latin": sorted(l for l in lines if scripts[l] == "Latn"),
             "corpus": sorted(lines), "all": everyone}
    matrix = {}

    def build():
        matrix["m"] = langselect.SimilarityMatrix.build(
            everyone, state["features"], lines)
        return "matrix", matrix["m"].to_json_dict()
    _guarded(ops, "matrix", "matrix", build)
    if "m" not in matrix:
        return

    for regime, pool, size in SELECTIONS:
        def select(regime=regime, pool=pool, size=size):
            spec = langselect.SelectionSpec(langselect.Regime(regime),
                                            set_size=size, script_map=scripts)
            chosen, objective = langselect.select_subset(pools[pool], spec,
                                                         matrix["m"])
            return "selection", [list(chosen), objective]
        _guarded(ops, f"select/{regime}", f"select/{regime}", select)

    def tests():
        results = []
        p_values = {}
        for i, s in enumerate(state["series"]):
            x, y = s["x"], s["y"]
            r = stats.pearson(x, y)
            rho = stats.spearman(x, y)
            labels = tuple(str(j) for j in range(len(x)))
            t = stats.paired_t_test(stats.PairedSample(labels, tuple(x),
                                                       tuple(y)))
            cdf = stats.t_cdf(t.t, t.n - 1)
            p_values[f"pearson/{i}"] = r.p_value
            p_values[f"spearman/{i}"] = rho.p_value
            p_values[f"t/{i}"] = t.p_value
            results.append([r.r, r.p_value, rho.r, rho.p_value, t.t,
                            t.p_value, cdf])
        mask = stats.significance_mask(p_values)
        return "stats", [results, sorted(mask.items())]
    _guarded(ops, "stats", "stats", tests)
