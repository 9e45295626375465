"""scriptshift benchmark: one workload, timed end to end or traced by layer.

Run from the root of a scriptshift source tree:

    python3 perfbench/run.py --workload grid-wide --seed 1 --seconds 30 \
        --trace 0

It generates the workload's inputs from the seed with
scripts/make_demo_corpus.py (cached under .perfbench_work/, untimed), then
starts one fresh interpreter per repeat (perfbench/worker.py), one after
another, until --seconds have passed. With --trace 0 every repeat is
untraced and the end-to-end metrics are reported. With --trace 1 untraced
and traced repeats alternate; the per-layer metrics come from the traced
ones and the tracing overhead from the pair. Every operation's output is
checked: against digests recorded in perfbench/golden.json when the seed
has them, and always for agreement between repeats, traced and untraced,
and between the cold and warm passes. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is 0 only when every check passed.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
MIN_REPEATS = 3
# The whole run has to finish within 180 s; no repeat may start after this.
HARD_LIMIT_S = 150

END_TO_END = {"setup_s": "s", "run_s": "s", "run_cpu_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "corpus.read_s": "s", "corpus.sample_s": "s",
    "corpus.words_sampled": "count",
    "translit.s": "s", "translit.apply_rules_s": "s",
    "translit.decompose_s": "s", "translit.cipher_s": "s",
    "translit.chars": "count", "translit.chars_per_s": "chars/s",
    "tokenizer.train_s": "s", "tokenizer.train_types": "count",
    "tokenizer.merges": "count", "tokenizer.segment_cold_s": "s",
    "tokenizer.cold_types": "count", "tokenizer.model_io_s": "s",
    "metrics.quality_s": "s", "metrics.overlap_s": "s",
    "metrics.word_passes": "ratio",
    "pipeline.self_s": "s", "pipeline.cache_load_s": "s",
    "pipeline.cache_save_s": "s", "pipeline.cache_hits": "count",
    "pipeline.cache_misses": "count", "pipeline.cache_hit_ratio": "ratio",
    "pipeline.cache_bytes_written": "bytes",
    "langselect.matrix_s": "s", "langselect.select_s": "s",
    "langselect.objective_evals": "count",
    "stats.s": "s",
    "layer.corpus_s": "s", "layer.translit_s": "s", "layer.tokenizer_s": "s",
    "layer.metrics_s": "s", "layer.pipeline_s": "s",
    "layer.langselect_s": "s", "layer.stats_s": "s",
    "trace.run_s": "s", "trace.uncovered_s": "s",
    "trace.overhead_frac": "ratio",
    "words_per_s": "words/s", "warm_run_s": "s", "artifact_mb": "MB",
}
# Work counts: a deterministic program repeats them exactly.
EXACT = {name for name, unit in PER_LAYER.items()
         if unit in ("count", "bytes")} | {"metrics.word_passes",
                                           "pipeline.cache_hit_ratio"}


def environment(root):
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu_model": None, "git_commit": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        # only a repository rooted here, not one that happens to enclose it
        if top.returncode == 0 and Path(lines[0]).resolve() == root:
            env["git_commit"] = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    env["src_lines"] = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((root / "src").rglob("*.py")))
    return env


def run_worker(root, args, inputs, scratch, traced, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, args.size,
           str(inputs), str(scratch), "1" if traced else "0"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"repeat timed out after {timeout:.0f} s"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"repeat exited with code {proc.returncode}"
    return json.loads(lines[-1]), None


def load_golden(workload, size, seed):
    if not GOLDEN.is_file():
        return None
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return golden.get(workload, {}).get(size, {}).get(str(seed))


def check(repeats, expected_ops, golden):
    """Count every operation that raised, or whose output differs from the
    recorded digests or from the other repeats', as failed. Returns
    (attempted, failed, reference digests, problems)."""
    reference = dict(golden) if golden else {}
    attempted = failed = 0
    problems = []
    first_counts = None
    for index, repeat in enumerate(repeats):
        attempted += expected_ops
        result = repeat["result"]
        if result is None:
            failed += expected_ops
            problems.append(f"repeat {index}: {repeat['error']}")
            continue
        voided = []  # problems that void every operation of the repeat
        if "layers" in result:
            counts = {k: v for k, v in result["layers"].items()
                      if k in EXACT}
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                voided.append(f"work counts {counts} differ from the first "
                              f"traced repeat's {first_counts}")
        bad = 0
        for op in result["ops"]:
            label = f"repeat {index} ({repeat['kind']}) {op['name']}"
            if "error" in op:
                bad += 1
                problems.append(f"{label}: {op['error']}")
                continue
            want = reference.setdefault(op["check"], op["digests"])
            if op["digests"] != want:
                bad += 1
                problems.append(f"{label}: digests {op['digests']} differ "
                                f"from {want}")
        if voided:
            bad = len(result["ops"])
            problems += [f"repeat {index}: {v}" for v in voided]
        failed += bad + expected_ops - len(result["ops"])
    return attempted, failed, reference, problems


def median(values):
    return statistics.median(values) if values else 0.0


def summarize(untraced, traced):
    """Median of every metric over the repeats, with max and sample count."""
    table = {}

    def put(name, unit, values):
        if values:
            table[name] = {"value": median(values), "unit": unit,
                           "max": max(values), "n": len(values)}

    for name, unit in END_TO_END.items():
        put(name, unit, [r[name] for r in untraced])
    words = [r["prepared_words"] / r["run_s"] for r in untraced]
    put("words_per_s", "words/s", words)
    put("warm_run_s", "s", [r.get("warm_run_s", 0.0) for r in untraced])
    put("cold_run_s", "s", [r.get("cold_run_s", 0.0) for r in untraced])
    put("artifact_mb", "MB",
        [r.get("artifact_bytes", 0) / 2**20 for r in untraced])
    if traced:
        names = set.intersection(*(set(r["layers"]) for r in traced))
        for name in sorted(names):
            put(name, PER_LAYER.get(name, "?"),
                [r["layers"][name] for r in traced])
        if untraced:
            base = median([r["run_s"] for r in untraced])
            put("trace.overhead_frac", "ratio",
                [median([r["run_s"] for r in traced]) / base - 1.0])
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; golden digests are recorded "
                             "for seeds 0-10 (default 1)")
    parser.add_argument("--seconds", type=float, default=30,
                        help="how long to keep starting repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test")
    args = parser.parse_args(argv)
    began = time.perf_counter()

    root = Path.cwd().resolve()
    if not ((root / "src" / "scriptshift" / "__init__.py").is_file()
            and (root / "scripts" / "make_demo_corpus.py").is_file()):
        print(f"perfbench: {root} is not a scriptshift source tree (no "
              f"src/scriptshift or scripts/make_demo_corpus.py); run from "
              f"its root", file=sys.stderr)
        return 2
    work = root / ".perfbench_work"
    inputs = workloads.ensure_inputs(root, work, args.workload, args.size,
                                     args.seed)
    env = environment(root)
    env["load_1m_start"] = os.getloadavg()[0]

    kinds = ["untraced", "traced"] if args.trace else ["untraced"]
    repeats = []
    loop_start = time.perf_counter()
    while True:
        kind = kinds[len(repeats) % len(kinds)]
        left = HARD_LIMIT_S + 20 - (time.perf_counter() - began)
        scratch = work / "scratch" / f"{os.getpid()}-{len(repeats)}"
        result, error = run_worker(root, args, inputs, scratch,
                                   kind == "traced", max(5.0, left))
        repeats.append({"kind": kind, "result": result, "error": error})
        if result is None:
            break
        elapsed = time.perf_counter() - loop_start
        per_repeat = elapsed / len(repeats)
        enough = all(sum(r["kind"] == k for r in repeats) >= MIN_REPEATS
                     for k in kinds)
        if time.perf_counter() - began + per_repeat > HARD_LIMIT_S or (
                enough and elapsed + per_repeat > args.seconds):
            break
    env["load_1m_end"] = os.getloadavg()[0]

    expected = {"grid-wide": len(workloads.GRID_TYPES),
                "rom-long": 2 * len(workloads.ROM_LONG_TYPES),
                "select-stats": 2 + len(workloads.SELECTIONS)}[args.workload]
    golden = load_golden(args.workload, args.size, args.seed)
    attempted, failed, digests, problems = check(repeats, expected, golden)
    done = [r for r in repeats if r["result"] is not None]
    untraced = [r["result"] for r in done if r["kind"] == "untraced"]
    traced = [r["result"] for r in done if r["kind"] == "traced"]
    table = summarize(untraced, traced)
    table["failed_frac"] = {"value": failed / attempted, "unit": "ratio",
                            "max": failed / attempted, "n": len(repeats)}
    missing = sorted({name for r in traced for name in r.get("missing", [])})

    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace}: {len(untraced)} untraced and {len(traced)} "
          f"traced repeats, closed loop, one client, one process per repeat")
    print("env " + json.dumps(env, sort_keys=True))
    against = ("golden.json" if golden
               else "each other (no golden digests for this seed)")
    print(f"digests, checked against {against}: "
          + json.dumps(digests, sort_keys=True))
    if missing:
        print(f"missing wrapped names (their metrics are left out): "
              f"{missing}")
    for problem in problems:
        print(f"FAILED {problem}")
    for name in ("run_s", "run_cpu_s"):
        print(f"{name} of each untraced repeat: "
              + " ".join(f"{r[name]:.3f}" for r in untraced))
    width = max(len(name) for name in table)
    for name, entry in table.items():
        print(f"  {name:<{width}}  {entry['value']:>14.6g} {entry['unit']:<8}"
              f" max {entry['max']:.6g} n={entry['n']}")

    names = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": table[name]["value"], "unit": unit}
               for name, unit in names.items() if name in table}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
