"""Run the demo experiment under several input types and compare them.

Expects the tree produced by scripts/make_demo_corpus.py: a config.json and
a corpora/ directory with one <lang>.txt per configured language. Runs the
pipeline once per input type, writes each report plus a comparison table
under --output-dir, and prints the table.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from scriptshift.cli import write_report
from scriptshift.corpus import read_documents
from scriptshift.input_types import InputType
from scriptshift.pipeline import (compare_input_types, dumps_report,
                                  load_config, run_experiment)

DEFAULT_TYPES = ("Ortho", "Rom", "Cipher")


def format_cell(value):
    return "" if value is None else f"{value:.4f}"


def print_table(table):
    header = ["lang", "metric"] + [f"{t}" for t in table.input_types]
    widths = [max(len(header[0]), 4), max(len(header[1]), 14)]
    widths += [10] * len(table.input_types)
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in table.rows:
        cells = [row.lang.ljust(widths[0]), row.metric.ljust(widths[1])]
        cells += [format_cell(row.values.get(t)).rjust(10)
                  for t in table.input_types]
        print("  ".join(cells))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--demo-dir", required=True,
                        help="directory created by make_demo_corpus.py")
    parser.add_argument("--output-dir", required=True)
    parser.add_argument("--input-types", default=",".join(DEFAULT_TYPES),
                        help="comma-separated subset of "
                             "Ortho,IPA,Rom,Cipher")
    args = parser.parse_args(argv)

    demo = Path(args.demo_dir)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    base_config = load_config(demo / "config.json")
    corpora = {lang: read_documents(demo / "corpora" / f"{lang}.txt", lang)
               for lang in base_config.langs}

    reports = []
    for name in args.input_types.split(","):
        itype = InputType.parse(name.strip())
        config = dataclasses.replace(base_config, input_type=itype)
        report = run_experiment(config, corpora,
                                artifacts_dir=out / "artifacts")
        report_path = out / f"report-{itype.value}.json"
        report_path.write_text(dumps_report(report), encoding="utf-8")
        print(f"ran {itype.value}: wrote {report_path}")
        reports.append(report)

    table = compare_input_types(reports)
    (out / "comparison.json").write_text(
        write_report(table.to_json_dict(), "json"), encoding="utf-8")
    (out / "comparison.csv").write_text(
        write_report(table.to_csv_rows(), "csv"), encoding="utf-8")
    print(f"wrote {out / 'comparison.json'} and {out / 'comparison.csv'}\n")
    print_table(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
