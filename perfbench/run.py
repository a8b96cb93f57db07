#!/usr/bin/env python3
"""Sweep benchmark: ``seaweeds classify --embed`` then ``seaweeds verify``.

Run from the root of a source checkout (the package need not be installed):

    python3 perfbench/run.py --workload sl5 --seed 0 --seconds 36 --trace 0

Load shape: a closed loop with one client.  A cycle is one fresh interpreter
doing one sweep, then one fresh interpreter verifying that sweep's report;
a run repeats cycles (same seed, so byte-identical reports) until the next
one would end past ``--seconds``, and reports medians.  Each child's times
are scaled to a reference core speed measured right before and after it
(see ``calib.py``), because the speed of a core on a shared host drifts.
Children get a hermetic environment: every ``SEAWEEDS_*`` variable is
stripped and ``PYTHONPATH`` is ``src``; every budget is passed explicitly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` times one
untraced sweep, then repeats the sweep and the verify in this process with
span wrappers installed (see ``spans.py``) and prints the per-layer metrics.
Either way every record is checked by ``gate.py``, and the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass

from calib import Gauge
from spans import Tracer, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# name: (family, n).  BENCHMARK.json lists sl5, sp3 and so7; NOTES.md says
# why.  sl6, sp4 and so8 are the same three layer mixes at the heavy sizes,
# for runs by hand; sl4, sp2 and so5 are the smoke sizes of test_smoke.py.
WORKLOADS = {
    "sl5": ("SL", 5),
    "sp3": ("SP", 3),
    "so7": ("SO", 7),
    "sl6": ("SL", 6),
    "sp4": ("SP", 4),
    "so8": ("SO", 8),
    "sl4": ("SL", 4),
    "sp2": ("SP", 2),
    "so5": ("SO", 5),
}
ATTEMPTS, BOUND, TRIALS = 64, 10**6, 3
# Set-up is timed this many times before the measured sweeps and again after
# them, so its median spans the whole run.
SETUP_SAMPLES = 6
SETUP_PROBE = (
    "import seaweeds, seaweeds.cli; seaweeds.cli.build_parser(); print(seaweeds.BACKEND_NAME)"
)


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    out: str
    err: str
    scale: float = 1.0  # from raw to reference-core seconds

    @property
    def ref_wall(self) -> float:
        return self.wall * self.scale

    @property
    def ref_cpu(self) -> float:
        return self.cpu * self.scale


@dataclass
class Cycle:
    sweep: Child
    verify: Child
    report: bytes

    @property
    def wall(self) -> float:
        return self.sweep.wall + self.verify.wall


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SEAWEEDS_")}
    env["PYTHONPATH"] = SRC
    return env


def run_child(args: list[str], workdir: str, gauge: Gauge | None = None) -> Child:
    """Run ``python args`` to completion; wall clock, CPU and peak RSS, and
    with a gauge the factor that scales its times to the reference core."""
    out_path, err_path = os.path.join(workdir, "child.out"), os.path.join(workdir, "child.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    scale = gauge.scale() if gauge else 1.0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh_out, open(err_path) as fh_err:
        text, err_text = fh_out.read(), fh_err.read()
    return Child(
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode, text, err_text,
        scale,
    )


def classify_args(family: str, n: int, seed: int, out: str) -> list[str]:
    return [
        "classify", "--family", family, "--n", str(n), "--seed", str(seed),
        "--attempts", str(ATTEMPTS), "--bound", str(BOUND), "--trials", str(TRIALS),
        "--embed", "--format", "json", "--out", out,
    ]


def setup_probe(workdir: str, gauge: Gauge | None = None) -> Child:
    """One fresh interpreter importing ``seaweeds`` and building the CLI parser."""
    probe = run_child(["-c", SETUP_PROBE], workdir, gauge)
    if probe.code != 0:
        raise SystemExit(f"error: setup probe failed:\n{probe.err}")
    return probe


def run_sweep(
    family: str, n: int, seed: int, workdir: str, gauge: Gauge | None = None
) -> tuple[Child, bytes, str]:
    path = os.path.join(workdir, "report.json")
    if os.path.exists(path):
        os.remove(path)
    sweep = run_child(["-m", "seaweeds.cli", *classify_args(family, n, seed, path)], workdir, gauge)
    report = b""
    if os.path.exists(path):
        with open(path, "rb") as fh:
            report = fh.read()
    return sweep, report, path


def run_cycle(family: str, n: int, seed: int, workdir: str, gauge: Gauge) -> Cycle:
    sweep, report, path = run_sweep(family, n, seed, workdir, gauge)
    verify = run_child(["-m", "seaweeds.cli", "verify", path], workdir, gauge)
    return Cycle(sweep, verify, report)


def sweep_problems(sweep: Child) -> list[str]:
    if sweep.code != 0:
        return [f"classify exited {sweep.code}: {sweep.err.strip()[-500:]}"]
    return []


def verify_problems(verify: Child) -> list[str]:
    if verify.code != 0 or verify.out.strip() != "valid":
        return [f"verify exited {verify.code} printing {verify.out.strip()!r}"]
    return []


def git_sha() -> str:
    """HEAD's commit, read from ``.git``; ``unknown`` outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end_metrics(setup: list[Child], cycles: list[Cycle]) -> dict:
    """Medians over the run, in reference-core seconds."""
    med = statistics.median
    return {
        "setup_s": (med(p.ref_wall for p in setup), "s"),
        "sweep_s": (med(c.sweep.ref_wall for c in cycles), "s"),
        "sweep_cpu_s": (med(c.sweep.ref_cpu for c in cycles), "s"),
        "verify_s": (med(c.verify.ref_wall for c in cycles), "s"),
        "verify_cpu_s": (med(c.verify.ref_cpu for c in cycles), "s"),
        "peak_rss_mb": (med(max(c.sweep.rss_mb, c.verify.rss_mb) for c in cycles), "MB"),
    }


def clear_caches() -> None:
    """Empty every ``functools`` cache in the package, so the traced verify
    starts as cold as a fresh ``seaweeds verify`` process."""
    for name, module in list(sys.modules.items()):
        if name == "seaweeds" or name.startswith("seaweeds."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def traced_run(family: str, n: int, seed: int, workdir: str):
    """Sweep and verify in this process with span wrappers installed."""
    from seaweeds import cli

    path = os.path.join(workdir, "traced.json")
    tracer = Tracer()
    clear_caches()
    tracer.install()
    try:
        with tracer.phase("sweep"):
            sweep_code = cli.main(classify_args(family, n, seed, path))
        with open(path, "rb") as fh:
            report = fh.read()
        for ordinal, rec in enumerate(json.loads(report)["records"]):
            tracer.ordinal_of[(tuple(rec["top"]), tuple(rec["bottom"]))] = ordinal
        clear_caches()
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), tracer.phase("verify"):
            verify_code = cli.main(["verify", path])
    finally:
        tracer.uninstall()
    problems = []
    if sweep_code != 0:
        problems.append(f"traced classify returned {sweep_code}")
    if verify_code != 0 or printed.getvalue().strip() != "valid":
        problems.append(f"traced verify returned {verify_code} printing {printed.getvalue().strip()!r}")
    return tracer, report, problems


def layer_metrics(tracer, doc: dict, report: bytes, untraced_sweep_s: float, setup_s: float):
    """Per-layer metrics from the spans; a metric whose wrapped name is
    missing from the package is left out (and named on stderr), never 0."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for pos, span in enumerate(spans):
        by_name[span.name].append(pos)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(spans[p].duration for p in by_name[name])

    def hits(name):
        return sum(spans[p].ok for p in by_name[name])

    def cells(name):
        return sum(spans[p].cells for p in by_name[name])

    def record_ms():
        starts = [spans[p].start for p in by_name["construct.seaweed"]]
        end = spans[by_name["classify.classify"][0]].end
        return [(b - a) * 1000 for a, b in zip(starts, starts[1:] + [end])]

    def exhausted():
        return len({
            spans[p].record
            for name in ("contact.find_contact_form", "contact.find_stable_form")
            for p in by_name[name]
            if not spans[p].ok
        })

    records = doc["records"]
    rank, rref = "linalg.rank_int_rows", "linalg.rref_int_rows"
    # (metric, unit, span names it needs, value)
    table = [
        ("construct.seaweed.calls", "count", ["construct.seaweed"], lambda: calls("construct.seaweed")),
        ("construct.seaweed.busy_s", "s", ["construct.seaweed"], lambda: busy("construct.seaweed")),
        ("construct.self_s", "s", ["construct.seaweed", "lie.LieAlgebra", rank, rref],
         lambda: sum(selfs[p] for p in by_name["construct.seaweed"])),
        ("lie.LieAlgebra.calls", "count", ["lie.LieAlgebra"], lambda: calls("lie.LieAlgebra")),
        ("lie.LieAlgebra.busy_s", "s", ["lie.LieAlgebra"], lambda: busy("lie.LieAlgebra")),
        ("lie.index.calls", "count", ["lie.index"], lambda: calls("lie.index")),
        ("lie.index.busy_s", "s", ["lie.index"], lambda: busy("lie.index")),
        ("lie.index.retries", "count", [],
         lambda: sum(len(r["trial_kernel_dims"]) > r["trials"] for r in records)),
        (rank + ".calls", "count", [rank], lambda: calls(rank)),
        (rank + ".busy_s", "s", [rank], lambda: busy(rank)),
        (rank + ".cells", "count", [rank], lambda: cells(rank)),
        (rref + ".calls", "count", [rref], lambda: calls(rref)),
        (rref + ".busy_s", "s", [rref], lambda: busy(rref)),
        (rref + ".cells", "count", [rref], lambda: cells(rref)),
        ("contact.find_contact_form.busy_s", "s", ["contact.find_contact_form"],
         lambda: busy("contact.find_contact_form")),
        ("contact.find_stable_form.busy_s", "s", ["contact.find_stable_form"],
         lambda: busy("contact.find_stable_form")),
        ("contact.contact_attempts", "count", ["contact.is_contact_form"],
         lambda: calls("contact.is_contact_form")),
        ("contact.contact_hit_ratio", "ratio", ["contact.is_contact_form"],
         lambda: hits("contact.is_contact_form") / calls("contact.is_contact_form")),
        ("contact.stable_attempts", "count", ["contact.is_stable_form"],
         lambda: calls("contact.is_stable_form")),
        ("contact.stable_hit_ratio", "ratio", ["contact.is_stable_form"],
         lambda: hits("contact.is_stable_form") / calls("contact.is_stable_form")),
        ("contact.exhausted_records", "count",
         ["contact.find_contact_form", "contact.find_stable_form"], exhausted),
        ("contact.fallback_calls", "count", ["contact.fallback"], lambda: calls("contact.fallback")),
        ("serialize.certificate_to_json.busy_s", "s", ["serialize.certificate_to_json"],
         lambda: busy("serialize.certificate_to_json")),
        ("serialize.report_bytes", "bytes", [], lambda: len(report)),
        ("serialize.verify_certificate.calls", "count", ["serialize.verify_certificate"],
         lambda: calls("serialize.verify_certificate")),
        ("serialize.verify_certificate.busy_s", "s", ["serialize.verify_certificate"],
         lambda: busy("serialize.verify_certificate")),
        ("serialize.rebuild.busy_s", "s", ["serialize.rebuild"], lambda: busy("serialize.rebuild")),
        ("classify.records", "count", [], lambda: len(records)),
        ("classify.index_one", "count", [], lambda: sum(r["index"] == 1 for r in records)),
        ("classify.record_ms.p50", "ms", ["construct.seaweed", "classify.classify"],
         lambda: statistics.median(record_ms())),
        ("classify.record_ms.p95", "ms", ["construct.seaweed", "classify.classify"],
         lambda: statistics.quantiles(record_ms(), n=20, method="inclusive")[18]),
        ("classify.report.busy_s", "s", ["classify.report"], lambda: busy("classify.report")),
        ("cli.self_s", "s", ["classify.classify", "classify.report", "serialize.verify_document"],
         lambda: sum(selfs[p] for p in by_name["sweep"] + by_name["verify"])),
        ("trace.sweep_s", "s", [], lambda: busy("sweep")),
        ("trace.verify_s", "s", [], lambda: busy("verify")),
        ("trace.overhead_frac", "ratio", [],
         lambda: busy("sweep") / (untraced_sweep_s - setup_s) - 1),
    ]
    metrics = {}
    for name, unit, needs, value in table:
        lost = sorted(set(needs) & tracer.missing)
        if lost:
            print(f"MISSING {name}: package no longer has {', '.join(lost)}", file=sys.stderr)
            continue
        metrics[name] = (value(), unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "seaweeds", "cli.py")):
        print(f"error: no seaweeds sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("SEAWEEDS_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    from gate import check_report

    family, n = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        # The first probe fills the bytecode cache, a cost users pay once.
        backend = setup_probe(workdir).out.strip()
        gauge = Gauge()
        setup = [setup_probe(workdir, gauge) for _ in range(SETUP_SAMPLES)]
        problems = []
        if args.trace:
            untraced, untraced_report, _ = run_sweep(family, n, args.seed, workdir)
            problems += sweep_problems(untraced)
            tracer, report, traced_problems = traced_run(family, n, args.seed, workdir)
            problems += traced_problems
            if report != untraced_report:
                problems.append("traced report bytes differ from the untraced report")
            tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            runs = 1
        else:
            cycles = []
            start = time.perf_counter()
            while True:
                cycles.append(run_cycle(family, n, args.seed, workdir, gauge))
                problems += sweep_problems(cycles[-1].sweep) + verify_problems(cycles[-1].verify)
                if time.perf_counter() - start + cycles[-1].wall > args.seconds:
                    break
            report = cycles[0].report
            if any(c.report != report for c in cycles):
                problems.append("reports of one seed differ between cycles")
            runs = len(cycles)
        setup += [setup_probe(workdir, gauge) for _ in range(SETUP_SAMPLES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    try:
        doc = json.loads(report)
    except ValueError:
        doc = {}
    attempted, failures = check_report(doc, family, n)
    if args.trace:
        metrics = layer_metrics(
            tracer, doc, report, untraced.wall, statistics.median(p.wall for p in setup)
        )
    else:
        metrics = end_to_end_metrics(setup, cycles)

    info = {
        "workload": args.workload,
        "family": family,
        "n": n,
        "seed": args.seed,
        "cycles": runs,
        "report_sha256": hashlib.sha256(report).hexdigest(),
        "summary": doc.get("summary"),
        "failed_frac": len(failures) / attempted,
        "raw_setup_s": statistics.median(p.wall for p in setup),
        "env": {
            "backend": backend,
            "python": platform.python_version(),
            "git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    print("run " + json.dumps(info, sort_keys=True))
    if not args.trace:
        print("cycles raw sweep_s " + " ".join(f"{c.sweep.wall:.3f}" for c in cycles))
        print("cycles raw verify_s " + " ".join(f"{c.verify.wall:.3f}" for c in cycles))
        print("cycles scale " + " ".join(f"{c.sweep.scale:.3f}" for c in cycles))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    for line in problems + failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    result = {
        "correct": not problems and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
