#!/usr/bin/env python3
"""Benchmark of the hrbounds command line, run from the root of a checkout.

    python3 hrbench/run.py --workload mc-verify --seed 1 --seconds 30 --trace 0

One client in one process drives `hrbounds.cli.main(argv)` in a closed loop:
the next command starts when the previous one returns.  Each run attempts
whole rounds of its workload's operations (see workloads.py) until
``--seconds`` of wall time have passed, checks every operation's output
files against independent computations (checks.py, reference.py), and
prints one JSON line as the last line of standard output.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
package's public functions with in-memory spans (spans.py) and reports
per-layer metrics per round instead, writing the spans under
``.hrbench-trace/``.  Operation outputs go under ``.hrbench-out/`` and are
removed at the end of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".hrbench-out"
TRACE_ROOT = ROOT / ".hrbench-trace"
SETUP_PROBES = 4  # set-up is measured this many times: here and in fresh interpreters

import checks  # noqa: E402  (the benchmark's own modules sit beside this file)
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Op, warmup_ops  # noqa: E402


def import_package():
    """Import hrbounds from this checkout's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "hrbounds" / "__init__.py").is_file():
        raise SystemExit(f"hrbench: no hrbounds package under {src}")
    sys.path.insert(0, str(src))
    import hrbounds
    from hrbounds import cli
    if Path(hrbounds.__file__).resolve().parent != (src / "hrbounds").resolve():
        raise SystemExit(f"hrbench: hrbounds was imported from {hrbounds.__file__}, not {src}")
    return hrbounds, cli


def run_op(cli, op: Op, workdir: Path, extra=()) -> tuple[int, float, Path]:
    """Run one command; only the cli.main call is timed."""
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(op.config))
    out = workdir / "res"
    shutil.rmtree(out, ignore_errors=True)
    argv = [op.command, "--config", str(cfg_path), "--out", str(out), *op.argv, *extra]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
    return rc, dt, out


def setup_probe(workload: str) -> float:
    """Import the package and run the workload's warm-up operations, timed."""
    t0 = time.perf_counter()
    _, cli = import_package()
    workdir = OUT_ROOT / f"warmup-{os.getpid()}"
    for op in warmup_ops(workload):
        rc, _, _ = run_op(cli, op, workdir)
        if rc != 0:
            raise SystemExit(f"hrbench: warm-up {op.command} exited with code {rc}")
    shutil.rmtree(workdir, ignore_errors=True)
    return time.perf_counter() - t0


def probe_in_subprocess(workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"hrbench: set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Layers:
    """Tracer plus the counters that need the arguments or results of a call."""

    def __init__(self):
        self.tracer = Tracer()
        self.requested: dict = {}  # (law, n, seed) -> rows, for the current operation
        t = self.tracer

        def on_generate(batch, *args, **kwargs):
            t.count("rows_generated", batch.replications)
            key = (json.dumps(batch.spec.law(), sort_keys=True), batch.n, batch.master_seed)
            self.requested[key] = max(self.requested.get(key, 0), batch.replications)

        def on_enumerate(frac, spec, *args, **kwargs):
            n = kwargs.get("n", args[3] if len(args) > 3 else None)
            n = int(spec.n if n is None else n)
            t.count("enumerate.paths", 2 ** n if spec.family == "rademacher" else 1)

        def on_canonical_json(text, *args, **kwargs):
            t.count("digest.bytes", len(text))

        self.hooks = {
            "sequences.generate": on_generate,
            "simulation.enumerate_exact": on_enumerate,
            "_digest.canonical_json": on_canonical_json,
        }

    def end_op(self, out: Path) -> None:
        self.tracer.count("rows_requested", sum(self.requested.values()))
        self.requested.clear()
        if out.is_dir():
            self.tracer.count("bytes_written", sum(p.stat().st_size for p in out.iterdir()))

    def metrics(self, rounds: int) -> dict:
        t = self.tracer
        time_, calls, counts = t.time, t.calls, t.counts

        generated = counts["rows_generated"]
        values = {
            "distributions.sample_iid.calls": (calls["distributions.sample_iid"], "count/round"),
            "distributions.sample_iid.s": (time_["distributions.sample_iid"], "s/round"),
            "distributions.seed_streams": (calls["distributions.generator"], "count/round"),
            "distributions.stable_sample.s": (time_["distributions.stable_sample"], "s/round"),
            "sequences.generate.calls": (calls["sequences.generate"], "count/round"),
            "sequences.generate.s": (time_["sequences.generate"], "s/round"),
            "sequences.rows_generated": (generated, "count/round"),
            "sequences.partial_sums.s": (time_["sequences.partial_sums"], "s/round"),
            "sequences.compensated_cumsum.s": (time_["sequences.compensated_cumsum"], "s/round"),
            "shape_functions.eval.s": (time_["shape_functions.eval"], "s/round"),
            "shape_functions.weights.s": (time_["shape_functions.weights"], "s/round"),
            "shape_functions.certificate.s": (time_["shape_functions.certificate"], "s/round"),
            "bounds.profile.calls": (calls["bounds.analytic_moment_profile"]
                                     + calls["bounds.estimate_moment_profile"], "count/round"),
            "bounds.profile.s": (time_["bounds.profile"], "s/round"),
            "bounds.bound.calls": (sum(calls[f"bounds.{k}"] for k in (
                "bound_theorem1", "bound_rao", "bound_hajek_renyi_classic", "bound_amini")),
                "count/round"),
            "bounds.bound.s": (time_["bounds.bound"], "s/round"),
            "bounds.series.s": (time_["bounds.series"], "s/round"),
            "simulation.estimate.s": (time_["simulation.estimate"], "s/round"),
            "simulation.verify_bound.s": (time_["simulation.verify_bound"], "s/round"),
            "simulation.demi.s": (time_["simulation.demi"], "s/round"),
            "simulation.enumerate.s": (time_["simulation.enumerate"], "s/round"),
            "simulation.enumerate.paths": (counts["enumerate.paths"], "count/round"),
            "simulation.slln.self_s": (t.self_time["simulation.slln_trajectory"], "s/round"),
            "digest.s": (time_["digest"], "s/round"),
            "digest.bytes": (counts["digest.bytes"], "bytes/round"),
            "cli.config.s": (time_["cli.config"], "s/round"),
            "cli.render.s": (time_["cli.render"], "s/round"),
            "cli.bytes_written": (counts["bytes_written"], "bytes/round"),
            "cli.self_s": (t.self_time["cli.main"], "s/round"),
        }
        out = {k: {"value": v / rounds, "unit": u} for k, (v, u) in values.items()}
        # rows that were distinct within their operation, over rows generated
        out["sequences.useful_row_ratio"] = {
            "value": counts["rows_requested"] / generated if generated else 1.0, "unit": "ratio"}
        return out


def slln_extra_checks(hr, cli, op: Op, out: Path, workdir: Path, first: bool,
                      dt: float) -> list[str]:
    """Replicate 0's checkpoint sums against math.fsum; thread-count invariance once per run."""
    cfg = op.config
    seq = cfg["sequence"]
    spec = hr.RandomSequenceSpec(seq["family"], seq["n"], tuple(seq["params"].items()))
    x = hr.sample_iid(spec, hr.SeedSpec(cfg["master_seed"], 0))
    problems = checks.check_replicate_sums(x, hr.partial_sums(x), cfg["checkpoints"])
    if first:
        rc, dt2, out2 = run_op(cli, op, workdir / "threads2", extra=["--threads", "2"])
        print(f"hrbench: slln {op.config['scenario']} took {dt * 1e3:.1f} ms at --threads 1, "
              f"{dt2 * 1e3:.1f} ms at --threads 2", file=sys.stderr)
        for name in ("slln_checkpoints.csv", "slln_series.json"):
            if rc != 0 or (out / name).read_bytes() != (out2 / name).read_bytes():
                problems.append(f"{name} differs between --threads 1 and --threads 2")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.pop("HRBOUNDS_OUT", None)  # it would override --out

    if args.setup_probe:
        print(repr(setup_probe(args.workload)))
        return 0

    setup = [setup_probe(args.workload)]
    hr, cli = sys.modules["hrbounds"], sys.modules["hrbounds.cli"]
    if not args.trace:
        setup += [probe_in_subprocess(args.workload) for _ in range(SETUP_PROBES - 1)]

    layers = Layers() if args.trace else None
    if layers:
        layers.tracer.install(layers.hooks)
    workdir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    make_round = WORKLOADS[args.workload]
    latencies, round_busy, round_steps = [], [], []  # per operation; per round
    attempted = failed = rounds = 0
    unexpected: list[str] = []
    first_slln = True
    start = time.perf_counter()
    while True:
        ops = make_round(args.seed, rounds)
        busy = step_time = 0.0
        for op in ops:
            span = None
            if layers:
                layers.tracer.enabled = True
                span = layers.tracer.open("cli.main", "cli")
            try:
                rc, dt, out = run_op(cli, op, workdir)
            except Exception:  # a crash is a failed operation, not the end of the run
                rc, dt, out = -1, float("nan"), workdir / "res"
                crash = traceback.format_exc(limit=3)
            else:
                crash = None
            finally:
                if layers:
                    layers.tracer.close(span)
                    layers.end_op(workdir / "res")
                    layers.tracer.enabled = False
            try:
                problems = [crash] if crash else checks.CHECKS[op.command](op.config, out, rc)
                if op.command == "slln" and not crash:
                    problems += slln_extra_checks(hr, cli, op, out, workdir, first_slln, dt)
                    first_slln = False
            except (OSError, KeyError, ValueError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            attempted += 1
            if problems:
                failed += 1
                if not op.known_fault:
                    unexpected.append(f"{op.command} {op.config['scenario']}: {problems}")
            if crash is None:
                latencies.append(dt)
                busy += dt
                step_time += dt if op.steps else 0.0
        round_busy.append(busy)
        round_steps.append((sum(op.steps for op in ops), step_time))
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    shutil.rmtree(workdir, ignore_errors=True)

    for line in unexpected:
        print(f"hrbench: FAILED {line}", file=sys.stderr)
    print(f"hrbench: {args.workload} seed={args.seed} rounds={rounds} ops={attempted} "
          f"failed={failed} wall={time.perf_counter() - start:.1f}s "
          f"median_round_busy={statistics.median(round_busy):.3f}s", file=sys.stderr)

    if layers:
        layers.tracer.uninstall()
        TRACE_ROOT.mkdir(exist_ok=True)
        layers.tracer.dump(TRACE_ROOT / f"{args.workload}-seed{args.seed}.json")
        metrics = layers.metrics(rounds)
    else:
        # throughput over the median round: every round has the same operations
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": len(ops) / statistics.median(round_busy), "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": statistics.quantiles(latencies, n=10, method="inclusive")[8]
                          * 1e3, "unit": "ms"},
            "replicate_steps_per_s": {"value": statistics.median(
                steps / t for steps, t in round_steps), "unit": "steps/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
