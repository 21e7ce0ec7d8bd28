"""tablink benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload batch-skew --seed 3 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The run generates the workload's inputs from the seed, prepares
the KB with the CLI (``ingest`` -> ``closure`` -> ``build-index``), links
tables as CLI processes (``link-table``) and as a library user does (one
process, ``link_table`` per table), checks every output against a reference,
and prints each metric with its unit and sample count. The last line of
standard output is the result as one JSON object.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` repeats each
phase once untraced and once with the tracer installed, and reports the
per-layer metrics; the spans go to ``.bench_out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("cli-tables", "batch-skew", "rerun-cached")
SETUPS = 3                # set-ups per run; setup_s is their median
CLI_SHARE = {"cli-tables": 0.7, "batch-skew": 0.5, "rerun-cached": 0.5}
MIN_CLI_TABLES = 8
# In-process rounds (each links every table once; on rerun-cached, twice).
# Fixed, so that a faster build gets no more samples; at least three, so
# that the median over rounds drops a burst of machine noise in one round.
# rerun-cached gets five: its cold pass, which writes a cache file per
# distinct key, varies by about 15% from round to round.
ROUNDS = {"cli-tables": 9, "batch-skew": 3, "rerun-cached": 5}
TRACED_CLI_TABLES = 3
STARTUP_SAMPLES = 3
REFERENCE_SAMPLE = 40     # mentions checked against the linear scan
PROCESS_TIMEOUT = 150.0

# Per-layer metrics that every workload measures and that are never 0; the
# result file also holds the workload-specific ones (cache pass times, hit
# ratio, warm-pass search calls) and the workload descriptors.
PER_LAYER = (
    "cli.startup_s", "index.load_s", "closure.read_closure_s",
    "kb.load_config_s", "ingest.ingest_dump_s", "ingest.docs_per_s",
    "kb.read_records_s", "closure.build_closure_s", "closure.write_closure_s",
    "index.build_s", "index.save_s", "index.search_us.p50",
    "index.search_us.p99", "index.search_calls", "linker.link_us.p50",
    "linker.link_us.p99", "linker.score_us.p50", "linker.classify_calls",
    "linker.classify_s", "linker.context_s", "linker.cache_get_us.p50",
    "linker.cache_files", "linker.cache_bytes",
    "tables.link_table_self_ms.p50", "tables.column_type_vote_s",
)

E2E_UNITS = {"setup_s": "s", "table_cli_s.p50": "s", "cells_per_s": "cells/s",
             "table_ms.p50": "ms", "table_ms.p90": "ms", "peak_rss_mb": "MB"}


class RunFailed(Exception):
    """A step the run cannot go on without failed."""


@dataclass
class Proc:
    """A finished child: exit code, wall time from spawn to exit (reference
    and raw seconds), peak RSS in MB, and its standard output file (standard
    error is beside it with the suffix ``.err``)."""

    rc: int
    wall: float
    raw_wall: float
    rss: float
    out: Path


class Processes:
    """Starts the benchmark's child processes one at a time, times each from
    spawn to exit, and reads its peak RSS from the OS when reaping it.

    Children run as the program is deployed, free to use every CPU. Nothing
    of the benchmark runs while a child does: between two children this
    process runs the calibration kernel on each CPU in turn
    (``calibrate.cpus_kernel_seconds``), and a child's wall time is scaled
    by REFERENCE_S over the mean of the samples right before and right after
    it. The scale therefore depends on the machine around the child and not
    on how the child uses the CPUs."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.n = 0
        for _ in range(20):
            calibrate.kernel()
        self.last = calibrate.cpus_kernel_seconds()

    def run(self, argv: list[str]) -> Proc:
        self.n += 1
        log = self.work / f"proc{self.n:04d}.out"
        before = self.last
        with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            timer = threading.Timer(PROCESS_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.perf_counter()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        # Reaped by wait4, so Popen must not wait for it again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.last = calibrate.cpus_kernel_seconds()
        raw = end - start
        wall = raw * calibrate.REFERENCE_S * 2 / (before + self.last)
        return Proc(proc.returncode, wall, raw, usage.ru_maxrss / 1024.0, log)


def tablink_argv(args: list[str], trace: Path | None = None, phase: str = "",
                 request: str = "-") -> list[str]:
    if trace is None:
        return [sys.executable, "-m", "tablink.cli", *args]
    return [sys.executable, str(BENCH / "child.py"), "cli", str(trace), phase,
            request, "--", *args]


def stderr_tail(out: Path) -> str:
    return out.with_suffix(".err").read_text(errors="replace")[-2000:]


def pct(xs: list[float], p: int) -> float:
    """p-th percentile (exclusive method, as statistics.quantiles)."""
    return quantiles(xs, n=100)[p - 1]


class Run:
    """One run. Modules that import tablink (workloads, reference, tracing)
    are imported where used, after main has put src/ on the path."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        import workloads

        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.traced = traced
        self.profile = workloads.PROFILES[workload]
        self.work = ROOT / ".bench_work" / f"{workload}-{seed}-{int(traced)}"
        self.out_dir = ROOT / ".bench_out"
        self.trace_path = self.out_dir / f"{workload}-seed{seed}.spans.jsonl"
        self.procs: Processes | None = None
        self.attempted = 0
        self.failures: list[str] = []

    # phases ------------------------------------------------------------------

    def generate(self):
        import workloads

        self.inputs = workloads.generate(self.workload, self.seed, self.work)
        self.kb = self.work / "kb"
        self.kb.mkdir()

    def setup(self, trace: Path | None = None) -> tuple[float, float, int]:
        """ingest -> closure -> build-index as CLI processes. Returns the
        wall time of the chain (reference and raw seconds) and the documents
        the ingest saw."""
        kb, inp = self.kb, self.inputs
        steps = [
            ["ingest", "--dump", str(inp.dump), "--out-records",
             str(kb / "records.jsonl"), "--out-edges", str(kb / "edges.jsonl"),
             "--watchlist", inp.watchlist, "--jobs", "2"],
            ["closure", "--edges", str(kb / "edges.jsonl"), "--records",
             str(kb / "records.jsonl"), "--out", str(kb / "closure.txt")],
            ["build-index", "--records", str(kb / "records.jsonl"), "--out",
             str(kb / "index")],
        ]
        total = raw = 0.0
        docs = 0
        for step in steps:
            p = self.procs.run(tablink_argv(step, trace, "setup"))
            if p.rc != 0:
                raise RunFailed(f"tablink {step[0]} exited {p.rc}: "
                                  + stderr_tail(p.out))
            total += p.wall
            raw += p.raw_wall
            if step[0] == "ingest":
                docs = json.loads(p.out.read_text())["docs_seen"]
        return total, raw, docs

    def cli_tables(self, seconds: float, tag: str, limit: int | None = None,
                   trace: Path | None = None) -> list[dict]:
        """``tablink link-table`` once per table, as the README runs it, with
        one cache directory shared by the run's tables."""
        cache = self.work / f"cli-cache-{tag}"
        out = self.work / f"cli-out-{tag}"
        out.mkdir()
        deadline = time.perf_counter() + seconds
        runs = []
        for table in self.inputs.tables:
            if len(runs) >= (limit or MIN_CLI_TABLES) and (
                    limit or time.perf_counter() >= deadline):
                break
            dest = out / table.name
            p = self.procs.run(tablink_argv(
                ["link-table", "--table", str(table), "--jobs", "2",
                 "--cache", str(cache), "--index", str(self.kb / "index"),
                 "--closure", str(self.kb / "closure.txt"),
                 "--config", str(self.inputs.config), "--out", str(dest)],
                trace, "cli", table.stem))
            runs.append({"table": table, "proc": p, "annotation": dest})
        return runs

    def batch(self, rounds: int, loads: int) -> tuple[dict, float]:
        """The in-process phase, in a child process so that its peak RSS is
        its own. Returns the child's result and peak RSS in MB."""
        spec = {
            "index": str(self.kb / "index"),
            "closure": str(self.kb / "closure.txt"),
            "config": str(self.inputs.config),
            "records": str(self.kb / "records.jsonl"),
            "tables": [str(p) for p in self.inputs.tables],
            "gold": str(self.inputs.gold) if self.inputs.gold else None,
            "rerun": bool(self.profile.repeat_target),
            "cache_root": str(self.work / "batch-cache"),
            "scratch": str(self.work / "annotation.json"),
            "annotations_dir": str(self.work / "batch-out"),
            "rounds": rounds,
            "loads": loads,
            "seed": self.seed,
            "reference_sample": REFERENCE_SAMPLE,
            "trace": str(self.trace_path) if self.traced else None,
            "out": str(self.work / "batch.json"),
        }
        spec_path = self.work / "batch-spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        p = self.procs.run(
            [sys.executable, str(BENCH / "child.py"), "batch", str(spec_path)])
        if p.rc != 0:
            raise RunFailed(f"in-process phase exited {p.rc}: "
                              + stderr_tail(p.out))
        return json.loads(Path(spec["out"]).read_text()), p.rss

    # checks ------------------------------------------------------------------

    def check_cli(self, runs: list[dict]) -> None:
        import reference
        from tablink.evalbench import read_gold
        from tablink.tables import read_annotation

        gold = read_gold(self.inputs.gold) if self.inputs.gold else None
        for r in runs:
            self.attempted += 1
            name, p = r["table"].stem, r["proc"]
            if p.rc != 0:
                self.failures.append(f"link-table {name} exited {p.rc}: "
                                     + stderr_tail(p.out))
            elif gold is not None:
                self.failures += reference.gold_failures(
                    [read_annotation(r["annotation"])], gold)
            elif (r["annotation"].read_bytes()
                  != (self.work / "batch-out" / r["table"].name).read_bytes()):
                # The in-process annotation passed the reference checks; the
                # CLI, with threads and a disk cache, must write the same bytes.
                self.failures.append(f"link-table {name}: annotation differs "
                                     "from the in-process one")

    # the run -----------------------------------------------------------------

    def execute(self) -> dict:
        self.out_dir.mkdir(exist_ok=True)
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        if self.traced and self.trace_path.exists():
            self.trace_path.unlink()
        self.procs = Processes(self.work)
        self.generate()
        in_process_load = bool(self.profile.skew_share)
        cli_seconds = self.seconds * CLI_SHARE[self.workload]

        if not self.traced:
            chains = [self.setup() for _ in range(SETUPS)]
            runs = self.cli_tables(cli_seconds, "u")
            batch, batch_rss = self.batch(ROUNDS[self.workload],
                                          SETUPS if in_process_load else 1)
            self.check_cli(runs)
            self.absorb(batch)
            loads = batch["loads"] if in_process_load else [0.0] * SETUPS
            raw_loads = batch["raw_loads"] if in_process_load else [0.0] * SETUPS
            return {
                "metrics": self.e2e([c[0] for c in chains], loads, runs,
                                    batch["untraced"], batch_rss),
                "raw_seconds": {
                    "setup_s": median([c[1] + l
                                       for c, l in zip(chains, raw_loads)]),
                    "table_cli_s.p50": median([r["proc"].raw_wall
                                               for r in runs]),
                    "link_seconds": batch["untraced"]["raw_link_seconds"],
                },
            }

        # Traced run: every phase once untraced, then once traced.
        chain = self.setup()[0]
        chain_t, _, docs = self.setup(self.trace_path)
        runs = self.cli_tables(0, "u", TRACED_CLI_TABLES)
        runs_t = self.cli_tables(0, "t", TRACED_CLI_TABLES, self.trace_path)
        batch, batch_rss = self.batch(1, 1)
        self.check_cli(runs + runs_t)
        self.absorb(batch)
        startup = [self.procs.run(tablink_argv(["--version"])).raw_wall
                   for _ in range(STARTUP_SAMPLES)]
        load = batch["loads"][0] if in_process_load else 0.0
        load_t = batch["traced_load"] if in_process_load else 0.0
        untraced = self.e2e([chain], [load], runs, batch["untraced"],
                            batch_rss)
        traced = self.e2e([chain_t], [load_t], runs_t, batch["traced"],
                          batch_rss)
        layers, checks = self.layers(docs, batch, startup,
                                     median([r["proc"].raw_wall for r in runs_t]))
        return {
            "metrics": layers,
            "descriptors": batch["descriptors"],
            "design_checks": checks,
            "tracing_overhead": {
                name: {"untraced": untraced[name][0],
                       "traced": traced[name][0],
                       "overhead": traced[name][0] - untraced[name][0]}
                for name in untraced if name != "peak_rss_mb"},
        }

    def absorb(self, batch: dict) -> None:
        self.attempted += batch["attempted"]
        self.failures += batch["failures"]

    @staticmethod
    def e2e(chains, loads, runs, phase, batch_rss) -> dict:
        """End-to-end metrics as {name: (value, sample count)}."""
        walls = [r["proc"].wall for r in runs]
        return {
            "setup_s": (median([c + l for c, l in zip(chains, loads)]),
                        len(chains)),
            "table_cli_s.p50": (median(walls), len(walls)),
            "cells_per_s": (phase["cells_per_s"], phase["cells"]),
            "table_ms.p50": (phase["p50"] * 1e3, phase["calls"]),
            "table_ms.p90": (phase["p90"] * 1e3, phase["calls"]),
            "peak_rss_mb": (max([r["proc"].rss for r in runs] + [batch_rss]),
                            len(runs) + 1),
        }

    def layers(self, docs, batch, startup, table_cli_raw_p50):
        """Per-layer metrics as {name: (value, sample count, unit)}, from the
        traced processes' spans and counters (raw seconds), and the design
        checks of README.md."""
        import tracing

        spans, counters = tracing.read_trace(self.trace_path)
        selfs = tracing.self_times(spans)
        batch_phases = {"batch", "batch-cold", "batch-warm"}

        def durs(name, phases):
            return [s["end"] - s["start"] for s in spans
                    if s["name"] == name and s["phase"] in phases]

        def count(name):
            """(calls, seconds) of a counter over the in-process round."""
            mine = [c for c in counters
                    if c["counter"] == name and c["phase"] in batch_phases]
            return (sum(c["calls"] for c in mine),
                    sum(c["seconds"] for c in mine))

        setup, loaded = {"setup"}, {"cli", "batch"}
        loads = durs("index.load_index", loaded)
        closures = durs("closure.read_closure", loaded)
        configs = durs("kb.load_config", loaded)
        search = durs("index.search", batch_phases)
        link = durs("linker.link", batch_phases)
        score = durs("linker.link_from_candidates", batch_phases)
        cache_spans = [s for s in spans if s["name"] == "linker.cache_get"]
        table_spans = [s for s in spans if s["name"] == "tables.link_table"
                       and s["phase"] in batch_phases]
        search_self = sum(selfs[(s["pid"], s["id"])] for s in spans
                          if s["name"] == "index.search"
                          and s["phase"] in batch_phases)
        ingest_s = sum(durs("ingest.ingest_dump", setup))
        classify = count("linker.classify_type_tier")
        cache_dir = self.work / "cli-cache-t"
        files = [p for p in cache_dir.iterdir() if p.is_file()] \
            if cache_dir.is_dir() else []
        hits = sum(1 for s in cache_spans if s.get("outcome") == "hit")
        m = {
            "cli.startup_s": (median(startup), len(startup), "s"),
            "index.load_s": (median(loads), len(loads), "s"),
            "closure.read_closure_s": (median(closures), len(closures), "s"),
            "kb.load_config_s": (median(configs), len(configs), "s"),
            "ingest.ingest_dump_s": (ingest_s, 1, "s"),
            "ingest.docs_per_s": (docs / ingest_s, docs, "docs/s"),
            "kb.read_records_s": (sum(durs("kb.read_records", setup)), 1, "s"),
            "closure.build_closure_s": (sum(durs("closure.build_closure", setup)), 1, "s"),
            "closure.write_closure_s": (sum(durs("closure.write_closure", setup)), 1, "s"),
            "index.build_s": (sum(durs("index.build", setup)), 1, "s"),
            "index.save_s": (sum(durs("index.save_index", setup)), 1, "s"),
            "index.search_us.p50": (median(search) * 1e6, len(search), "us"),
            "index.search_us.p99": (pct(search, 99) * 1e6, len(search), "us"),
            "index.search_calls": (len(search), 1, "count"),
            "linker.link_us.p50": (median(link) * 1e6, len(link), "us"),
            "linker.link_us.p99": (pct(link, 99) * 1e6, len(link), "us"),
            "linker.score_us.p50": (median(score) * 1e6, len(score), "us"),
            "linker.classify_calls": (classify[0], 1, "count"),
            "linker.classify_s": (classify[1], 1, "s"),
            "linker.context_s": (count("linker.context_similarity")[1], 1, "s"),
            "linker.cache_get_us.p50": (median([(s["end"] - s["start"]) * 1e6
                                                for s in cache_spans]),
                                        len(cache_spans), "us"),
            "linker.cache_hit_ratio": (hits / len(cache_spans), len(cache_spans), "ratio"),
            "linker.cache_files": (len(files) + batch["traced_cache"].get("files", 0), 1, "count"),
            "linker.cache_bytes": (sum(p.stat().st_size for p in files)
                                   + batch["traced_cache"].get("bytes", 0), 1, "bytes"),
            "tables.link_table_self_ms.p50": (median([selfs[(s["pid"], s["id"])]
                                                      for s in table_spans]) * 1e3,
                                              len(table_spans), "ms"),
            "tables.column_type_vote_s": (count("tables.column_type_vote")[1], 1, "s"),
        }
        if batch["traced_cache"]:
            m["linker.cache_cold_pass_s"] = (batch["traced_cache"]["cold_pass_s"], 1, "s")
            m["linker.cache_warm_pass_s"] = (batch["traced_cache"]["warm_pass_s"], 1, "s")
        linking = sum(s["end"] - s["start"] for s in table_spans)
        checks = {
            "index.load_share_of_table_cli": m["index.load_s"][0] / table_cli_raw_p50,
            "index.search_self_share_of_linking": search_self / linking,
            "index.search_calls_warm_pass": (
                len(durs("index.search", {"batch-warm"}))
                if batch["traced_cache"] else None),
        }
        return m, checks


def format_metrics(metrics: dict, units: dict | None = None) -> dict:
    out = {}
    for name, val in metrics.items():
        value, n = val[0], val[1]
        unit = units[name] if units else val[2]
        out[name] = {"value": value, "unit": unit, "n": n}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tablink" / "__init__.py").is_file():
        print(f"error: no tablink sources under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Stop cleanly on SIGTERM too: Processes kills the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        body = run.execute()
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    units = None if args.trace else E2E_UNITS
    metrics = format_metrics(body["metrics"], units)
    record = {
        "run": {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "corpus": run.profile.to_obj()
            | {"labels_rewritten": run.inputs.labels_rewritten,
               "table_files": len(run.inputs.tables)},
        },
        "metrics": metrics,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "error_rate": len(run.failures) / max(1, run.attempted),
        "failures": run.failures[:50],
    } | {k: v for k, v in body.items() if k != "metrics"}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (run.out_dir / name).write_text(json.dumps(record, indent=2) + "\n",
                                    encoding="utf-8")

    for key in ("descriptors", "design_checks"):
        for k, v in record.get(key, {}).items():
            print(f"{k:40s} {v}")
    for k, v in record.get("tracing_overhead", {}).items():
        print(f"overhead {k:31s} {v['overhead']:+.6g} "
              f"(untraced {v['untraced']:.6g}, traced {v['traced']:.6g})")
    for k, v in metrics.items():
        print(f"{k:40s} {v['value']:.6g} {v['unit']} (n={v['n']})")
    print(f"{'error_rate':40s} {record['error_rate']:.6g} ratio "
          f"(n={run.attempted})")
    for f in run.failures[:10]:
        print(f"FAILED {f}", file=sys.stderr)
    reported = PER_LAYER if args.trace else E2E_UNITS
    print(json.dumps({
        "correct": not run.failures,
        "attempted": max(1, run.attempted),
        "failed": len(run.failures),
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
