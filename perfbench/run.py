"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--workload all`` runs ``sweep``, ``lookup`` and ``ingest`` one after
another, each in its own process.

The program is imported from the checkout's ``src`` directory; nothing is
installed.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a run whose timed phase alternates untraced and
traced one-second blocks.  Earlier lines of standard output are a readable
report (every metric by name, with unit and sample count, plus the host
record); the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch stores go under
``.perfbench_out/`` in the checkout and are deleted at exit; the traced
run leaves its spans in ``.perfbench_out/trace-<workload>-<seed>.json``.

Exit codes: 0 when every answer was right, 1 when any operation failed or
answered wrong (the result line is still printed), 2 when the program
cannot be imported (nothing is printed to standard output).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import sqlite3
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

from measure import (
    PER_LAYER_UNITS,
    drive,
    end_to_end_metrics,
    nproc,
    peak_rss_mb,
    per_layer_metrics,
)
from spans import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: every end-to-end metric and its unit; primary, secondary and tertiary
#: are each workload's three latency populations, named in ALIASES
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "primary_ms.p50": "ms",
    "primary_ms.tail": "ms",
    "secondary_ms.p50": "ms",
    "tertiary_ms.p50": "ms",
    "work_per_s": "1/s",
    "store_bytes_per_vertex": "B/vertex",
    "label_bits.avg": "bits",
    "peak_rss_mb": "MB",
}

#: what each generic metric measures on each workload, in the report
ALIASES = {
    "sweep": {
        "primary_ms.p50": "sweep_ms.p50 (tcm, kernel)",
        "primary_ms.tail": "sweep_ms.tail (tcm, kernel)",
        "secondary_ms.p50": "cross_batch_ms.p50",
        "tertiary_ms.p50": "sweep_ms.p50 (tree-cover downstream, pushdown-capable)",
        "work_per_s": "sweep_executions_per_s",
    },
    "lookup": {
        "primary_ms.p50": "point_ms.p50",
        "primary_ms.tail": "point_ms.tail",
        "secondary_ms.p50": "batch_ms.p50",
        "tertiary_ms.p50": "sweep_ms.p50 (single-run DownstreamQuery)",
        "work_per_s": "batch_pairs_per_s",
    },
    "ingest": {
        "primary_ms.p50": "ingest_batch_ms.p50",
        "primary_ms.tail": "ingest_batch_ms.tail",
        "secondary_ms.p50": "sweep_ms.p50 (tree-cover and chain, pushdown-capable)",
        "tertiary_ms.p50": "sweep_ms.p50 (tcm, kernel)",
        "work_per_s": "ingest_vertices_per_s",
    },
}


def host_record() -> dict:
    try:
        import numpy
    except ImportError:  # the program runs without numpy, more slowly
        numpy_version = "absent"
    else:
        numpy_version = numpy.__version__
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "note": "latencies are this host's, with the store served from the OS page cache",
    }


def measure_workload(workload_cls, seed: int, seconds: float, trace: bool, workdir: Path, sizes=None):
    """Prepare, set up, drive and tear down one workload; returns a report dict."""
    workload = workload_cls(seed, workdir, sizes)
    workload.prepare()
    workload.run_setups()
    # the inputs and the oracle are the benchmark's own long-lived objects;
    # keep the collector from rescanning them during timed operations
    gc.collect()
    gc.freeze()
    try:
        run = drive(workload.next_op, seconds, trace=trace, counters=workload.counters)
        report = {"description": workload.description(), "records": run.records}
        e2e = end_to_end_metrics(run, workload.roles, workload.work_kinds)
        e2e["setup_s"] = (workload.setup_s, len(workload.setup_seconds))
        e2e["store_bytes_per_vertex"] = (workload.store_bytes_per_vertex(), 1)
        e2e["label_bits.avg"] = (workload.label_bits(), 1)
        report["end_to_end"] = e2e
        if trace:
            report["per_layer"] = per_layer_metrics(
                run, threading.get_ident(), workload.sweep_kinds
            )
            report["spans"] = run.recorder
            traced_ops = sum(1 for r in run.records if r.traced)
            report["self_ms"] = {
                name: 1000.0 * seconds / traced_ops
                for name, seconds in self_times(run.recorder.spans).items()
            }
    finally:
        gc.unfreeze()
        workload.close()
    report["end_to_end"]["peak_rss_mb"] = (peak_rss_mb(), 1)
    return report


def result_line(report: dict, trace: bool) -> dict:
    records = report["records"]
    failed = sum(1 for r in records if not r.ok)
    if trace:
        metrics = {
            name: {"value": report["per_layer"][name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": report["end_to_end"][name][0], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


def print_report(name: str, report: dict, trace: bool) -> None:
    records = report["records"]
    failed = [r for r in records if not r.ok]
    print(f"workload {name}: {json.dumps(report['description'])}")
    kinds = dict(Counter(record.kind for record in records))
    print(f"  operations: {len(records)} {kinds}  failed: {len(failed)}")
    print(f"  error_rate = {len(failed) / len(records):.6f} (n={len(records)})")
    for record in failed[:5]:
        print(f"  failed op {record.op_id} ({record.kind}): {record.error}")
    aliases = ALIASES[name]
    scope = "untraced blocks" if trace else "whole timed phase"
    print(f"  end-to-end ({scope}):")
    for metric, unit in END_TO_END_UNITS.items():
        entry = report["end_to_end"][metric]
        alias = aliases.get(metric)
        label = f"{metric} [{alias}]" if alias else metric
        extra = f", p{entry[2]:.2f}" if len(entry) > 2 else ""
        print(f"    {label} = {entry[0]:.6g} {unit} (n={entry[1]}{extra})")
    if trace:
        print("  per-layer (traced blocks):")
        for metric, unit in PER_LAYER_UNITS.items():
            print(f"    {metric} = {report['per_layer'][metric]:.6g} {unit}")
        print("  self time per span name (traced blocks, ms/op):")
        for span_name, ms in sorted(report["self_ms"].items()):
            print(f"    {span_name} = {ms:.6g}")


def run_all(names: list[str], args) -> int:
    """Run every workload, each in its own process, one after another.

    A process per workload keeps ``peak_rss_mb`` and the caches of one
    workload out of the next.  The last line sums ``attempted`` and
    ``failed`` and namespaces each workload's metrics as
    ``<workload>/<metric>``.
    """
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, completed.returncode)
        if completed.returncode not in (0, 1) or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashing orders some of the program's set iterations, so
        # labels (and label_bits.avg) depend on it: pin it for the seed to
        # fully determine the inputs
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src")]
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench_out"
    workdir = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        report = measure_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    host = host_record()
    print(f"host: {json.dumps(host)}")
    print_report(args.workload, report, bool(args.trace))
    result = result_line(report, bool(args.trace))
    if args.trace:
        trace_file = out / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "host": host,
            "description": report["description"],
            "per_layer": report["per_layer"],
            "self_ms_per_op": report["self_ms"],
            "ops": [
                {"op": r.op_id, "kind": r.kind, "start": r.start, "end": r.end,
                 "traced": r.traced, "ok": r.ok}
                for r in report["records"]
            ],
            "spans": report["spans"].to_json(),
        }))
        print(f"  spans written to {trace_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
