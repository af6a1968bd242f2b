"""Benchmark for skewlines: four exact-pipeline workloads, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test
    python3 bench/run.py --record

The package is imported from the ``src`` directory next to ``bench/`` and
from nowhere else.  One run sets the
workload up several times, then runs passes (every job of the workload to
its canonical JSON report) for ``--seconds`` seconds and checks every
report.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer ones, from
passes with the span tracer installed.  ``--self-test`` shows that a wrong
reference digest is counted as a failed report; ``--record`` rewrites
``reference.json`` from the default-seed reports.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from probe import SpeedProbe, rescale
from tracing import Tracer, field_kernel_us
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

# set-up is short, so it is repeated and its median reported
SETUP_REPEATS = 9


class SetupError(Exception):
    """The checkout does not hold a usable skewlines source tree."""


def set_up(workload: str, seed: int):
    """Import skewlines afresh and build the workload's inputs."""
    for name in [n for n in sys.modules if n == "skewlines" or n.startswith("skewlines.")]:
        del sys.modules[name]
    sl = importlib.import_module("skewlines")
    cli = importlib.import_module("skewlines.cli")
    if not Path(sl.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"skewlines was imported from {sl.__file__}, not from {SRC}")
    return sl, workloads.build(workload, seed, sl, cli, OUT_DIR / f"{workload}-{seed}")


def run_pass(jobs, tracer: Tracer | None = None) -> list:
    """Every job once; an exception stands in for a report that failed."""
    outs = []
    for job in jobs:
        try:
            outs.append(tracer.root(job.name, job.run) if tracer else job.run())
        except Exception as exc:  # a crashing report is a failed report
            outs.append(exc)
    return outs


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _orbit_total(payload: dict):
    orbit = payload.get("orbit", payload)
    return orbit.get("total_size") if isinstance(orbit, dict) else None


class Checker:
    """Counts reports and the ones that fail any correctness check."""

    def __init__(self, workload: str, seed: int, use_reference: bool = True):
        self.reference = None
        if use_reference:
            entries = json.loads(REFERENCE.read_text())[workload]
            self.reference = {e["name"]: e for e in entries}
        self.check_digest = seed == DEFAULT_SEED
        self.first: list[str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problems_of(self, i: int, job, out) -> list[str]:
        if isinstance(out, Exception):
            return [f"raised {type(out).__name__}: {out}"]
        code, text = out
        problems = []
        if code != job.exit_code:
            problems.append(f"exit code {code}, expected {job.exit_code}")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return problems + ["output is not JSON"]
        problems += job.check(payload)
        if self.reference is not None:
            ref = self.reference.get(job.name)
            if ref is None:
                problems.append("no entry in reference.json")
            elif ref["orbit_total"] is not None and _orbit_total(payload) != ref["orbit_total"]:
                problems.append(f"orbit size {_orbit_total(payload)} != {ref['orbit_total']}")
            elif self.check_digest and _sha256(text) != ref["sha256"]:
                problems.append("report differs from the recorded reference digest")
        if self.first is not None and text != self.first[i]:
            problems.append("report differs from the first pass")
        return problems

    def check_pass(self, jobs, outs) -> None:
        for i, (job, out) in enumerate(zip(jobs, outs)):
            self.attempted += 1
            problems = self.problems_of(i, job, out)
            if problems:
                self.failed += 1
                self.problems += [f"{job.name}: {p}" for p in problems]
        if self.first is None:
            self.first = [out[1] if isinstance(out, tuple) else "" for out in outs]

    def report_bytes(self) -> int:
        return sum(len(text.encode()) for text in self.first or [])


def repeat_passes(jobs, checker: Checker, seconds: float, min_passes: int, one_pass) -> list:
    """Call ``one_pass`` and check each pass, for at least ``min_passes``
    passes and then while another pass is expected to end within ``seconds``.

    ``one_pass`` returns the pass's reports and what to keep of it.
    """
    kept, lengths = [], []
    start = time.perf_counter()
    while (len(kept) < min_passes
           or time.perf_counter() + statistics.median(lengths) <= start + seconds):
        gc.collect()
        began = time.perf_counter()
        outs, value = one_pass()
        lengths.append(time.perf_counter() - began)
        checker.check_pass(jobs, outs)
        kept.append(value)
    return kept


def _metrics(kind: str, values: dict) -> dict:
    """The metrics BENCHMARK.json lists under ``kind``, with their units."""
    spec = json.loads(SPEC.read_text())[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[Checker, dict]:
    checker = Checker(workload, seed)
    with SpeedProbe() as probe:
        setups, setup_probes = [], []
        for _ in range(SETUP_REPEATS):
            (sl, inputs), net, probes = probe.timed(lambda: set_up(workload, seed))
            setups.append(net)
            setup_probes += probes

        def one_pass():
            outs, net, probes = probe.timed(lambda: run_pass(inputs.jobs))
            return outs, (net, probes)

        passes = repeat_passes(inputs.jobs, checker, seconds, 2, one_pass)
    # a set-up can be shorter than the probe interval; then the passes' probes rate it
    setup_s = rescale(statistics.median(setups), setup_probes or probe.samples)
    wall = [rescale(net, probes) for net, probes in passes]
    raw = [net for net, _ in passes]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Printed, not gated: a run has too few passes for any percentile to leave
    # ten beyond it, and fail_ratio reads 0, which no relative bound can hold.
    print(f"workload={workload} seed={seed} passes={len(wall)} "
          f"setup_s={setup_s:.4f} wall_s={statistics.median(wall):.4f} "
          f"wall_s_tail={max(wall):.4f} (p100 of {len(wall)} passes, 0 beyond) "
          f"peak_rss_mb={peak_rss_mb:.1f} "
          f"fail_ratio={checker.failed / checker.attempted:.4f} "
          f"({checker.failed}/{checker.attempted}) "
          f"raw_wall_s={statistics.median(raw):.4f} "
          f"probe_ms={statistics.median(probe.samples) * 1e3:.3f}")
    return checker, _metrics("end_to_end", {
        "setup_s": setup_s,
        "wall_s": statistics.median(wall),
        "peak_rss_mb": peak_rss_mb,
    })


def per_layer(workload: str, seed: int, seconds: int) -> tuple[Checker, dict]:
    started = time.perf_counter()
    sl, inputs = set_up(workload, seed)
    checker = Checker(workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        workloads.build(workload, seed, sl, sys.modules["skewlines.cli"],
                        OUT_DIR / f"{workload}-{seed}")
    finally:
        tracer.uninstall()
    setup_totals = tracer.layer_totals(0, len(tracer.spans))

    # untraced and traced passes alternate, so drift in CPU speed hits both
    wall = {False: [], True: []}
    per_pass: list[dict] = []

    def one_pass():
        traced = len(wall[False]) > len(wall[True])
        if traced:
            tracer.pass_no += 1
            lo, before = len(tracer.spans), Counter(tracer.counts)
            tracer.install()
        try:
            outs, net, probes = probe.timed(
                lambda: run_pass(inputs.jobs, tracer if traced else None))
        finally:
            tracer.uninstall()
        if traced:
            per_pass.append(tracer.pass_metrics(lo, len(tracer.spans), tracer.counts - before))
        wall[traced].append(rescale(net, probes))
        return outs, None

    with SpeedProbe() as probe:
        repeat_passes(inputs.jobs, checker, seconds - (time.perf_counter() - started),
                      2, one_pass)
    inv_us, mul_us = field_kernel_us(sl, inputs.configs)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}-{seed}.tsv")

    values = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    values.update({
        "fields.inv_us": inv_us,
        "fields.mul_us": mul_us,
        "analyze.report_bytes": checker.report_bytes(),
        "families.build_s": setup_totals.get("families.build_family", (0, 0.0))[1],
        "trace.overhead_s": statistics.median(wall[True]) - statistics.median(wall[False]),
    })
    print(f"workload={workload} seed={seed} untraced_passes={len(wall[False])} "
          f"traced_passes={len(wall[True])} spans={len(tracer.spans)}")
    return checker, _metrics("per_layer", values)


def self_test() -> int:
    """A corrupted reference digest must turn fail_ratio from zero to non-zero."""
    workload = "polyhedral_orbit"
    _, inputs = set_up(workload, DEFAULT_SEED)
    outs = run_pass(inputs.jobs)
    honest = Checker(workload, DEFAULT_SEED)
    honest.check_pass(inputs.jobs, outs)
    corrupted = Checker(workload, DEFAULT_SEED)
    entry = corrupted.reference[inputs.jobs[0].name]
    entry["sha256"] = entry["sha256"][::-1]
    corrupted.check_pass(inputs.jobs, outs)
    for label, checker in (("recorded digests", honest), ("one corrupted digest", corrupted)):
        print(f"{label}: fail_ratio={checker.failed / checker.attempted:.4f} "
              f"({checker.failed}/{checker.attempted})")
    ok = honest.failed == 0 and corrupted.failed == 1
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def record() -> int:
    """Write reference.json from one default-seed pass of every workload."""
    reference = {}
    for workload in WORKLOADS:
        _, inputs = set_up(workload, DEFAULT_SEED)
        outs = run_pass(inputs.jobs)
        checker = Checker(workload, DEFAULT_SEED, use_reference=False)
        checker.check_pass(inputs.jobs, outs)
        if checker.failed:
            print("\n".join(checker.problems), file=sys.stderr)
            return 1
        reference[workload] = [
            {"name": job.name, "sha256": _sha256(text),
             "orbit_total": _orbit_total(json.loads(text))}
            for job, (_, text) in zip(inputs.jobs, outs)
        ]
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        if args.self_test:
            return self_test()
        if args.record:
            return record()
        if args.workload is None:
            ap.error("--workload is required")
        run = per_layer if args.trace else end_to_end
        checker, metrics = run(args.workload, args.seed, args.seconds)
    except (ImportError, SetupError, OSError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 1
    for problem in checker.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
