"""Self-test of the benchmark harness.

    python -m pytest -q hrbench/tests

Shows at a tiny size that each kind of check fires and counts a failure,
and that BENCHMARK.json has its fixed form and names every metric the
command prints.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Op, _cfg, _classic_repro  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def cli():
    return run.import_package()[1]


@pytest.fixture()
def workdir():
    path = run.OUT_ROOT / "selftest"
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cli, op, workdir, extra=()):
    rc, _, out = run.run_op(cli, op, workdir, extra)
    return checks.CHECKS[op.command](op.config, out, rc)


def _rad_verify(kinds, n=8):
    return Op("verify", _cfg("selftest", "rademacher", n, scale=(8.0, 1.0), epsilon=1.5,
                             weights={"kind": "power", "beta": 1.2}, kinds=kinds,
                             replications=2000, master_seed=5))


# ---------------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_has_the_fixed_form():
    doc = _bench()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "hrbench/run.py"]
    assert doc["paths"] == ["hrbench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(json.dumps(doc)) <= 64 * 1024


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_listed_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, "hrbench/run.py", "--workload", "exact-analytic", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # one round: nine enumerations, three bound reports, two counted classic faults
    assert (result["attempted"], result["failed"]) == (14, 2)
    listed = {m["name"]: m["unit"] for m in _bench()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed


def test_refuses_to_run_without_the_package(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "hrbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "hrbench/run.py", "--workload", "mc-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------------------
# each kind of check fires


def test_clean_operation_passes(cli, workdir):
    assert _run(cli, _rad_verify(["theorem1", "rao", "amini"]), workdir) == []


def test_corrupted_bounds_are_caught(cli, workdir):
    for kind in ("theorem1", "amini"):
        problems = _run(cli, _rad_verify([kind]), workdir, ["--corrupt-bound"])
        assert any("wrong side of exact" in p for p in problems)
        assert any("Monte Carlo interval" in p for p in problems)
        assert any("exited with code 2" in p for p in problems)


def test_perturbed_exact_reference_is_caught(cli, workdir, monkeypatch):
    op = Op("enumerate", _cfg("selftest", "rademacher", 10, epsilon=0.6, m=2, event="max"))
    assert _run(cli, op, workdir) == []
    real = reference.rademacher_max
    monkeypatch.setattr(reference, "rademacher_max",
                        lambda *a: real(*a) + Fraction(1, 2 ** 10))
    assert any("differs from dynamic program" in p for p in _run(cli, op, workdir))


def test_perturbed_textbook_formula_is_caught(cli, workdir, monkeypatch):
    op = Op("bound", _cfg("selftest", "gaussian", 100, epsilon=3.0,
                          kinds=["theorem1", "rao", "amini"]))
    assert _run(cli, op, workdir) == []
    real = reference.amini_raw
    monkeypatch.setattr(reference, "amini_raw", lambda *a: real(*a) * (1 + 1e-6))
    problems = _run(cli, op, workdir)
    assert len(problems) == 1 and problems[0].startswith("amini: raw")


def test_classic_fault_is_counted(cli, workdir):
    problems = _run(cli, _classic_repro("verify"), workdir)
    assert any("differs from textbook" in p for p in problems)
    assert any("wrong side of exact" in p for p in problems)
    problems = _run(cli, _classic_repro("bound"), workdir)
    assert any("differs from textbook" in p for p in problems)


def test_demi_check_fires_on_a_mislabelled_drift(cli, workdir):
    op = Op("check-demi", _cfg("selftest", "gaussian", 6, params={"mu": -0.5, "sigma": 1.0},
                               level=0.999999, replications=2000, master_seed=4))
    assert _run(cli, op, workdir) == []
    rc, _, out = run.run_op(cli, op, workdir)
    centred = copy.deepcopy(op.config)
    centred["sequence"]["params"]["mu"] = 0.0
    assert any("centred sums flagged" in p for p in checks.check_demi(centred, out, rc))


def test_slln_checks_fire(cli, workdir):
    hr = sys.modules["hrbounds"]
    op = Op("slln", _cfg("selftest", "gaussian", 20_000, weights={"kind": "power", "beta": 1.5},
                         replications=8, master_seed=3, checkpoints=[200, 2_000, 20_000],
                         series={"alpha": 1.0, "r": 2.0, "c": 1.0}))
    rc, dt, out = run.run_op(cli, op, workdir)
    assert checks.check_slln(op.config, out, rc) == []
    assert run.slln_extra_checks(hr, cli, op, out, workdir, True, dt) == []
    wrong = copy.deepcopy(op.config)
    wrong["series"]["r"] = 2.5
    assert any("series partial sum" in p for p in checks.check_slln(wrong, workdir / "res", 0))
    x = hr.sample_iid(hr.RandomSequenceSpec("gaussian", 20_000), hr.SeedSpec(3, 0))
    s = hr.partial_sums(x)
    s[1_999] += 1e-6
    assert checks.check_replicate_sums(x, s, [200, 2_000]) != []


# ---------------------------------------------------------------------------
# spans


def test_worker_self_time_is_counted_per_thread():
    # One worker spends 0.2 s in a child span, the other 0.2 s in untraced
    # work of the parent; the child span must not hide the other thread's work.
    tracer = Tracer()
    tracer.enabled = True

    def work(traced):
        span = tracer.open("child", "child") if traced else None
        time.sleep(0.2)
        tracer.close(span)

    top = tracer.open("top", None)
    with tracer._executor()(max_workers=2) as pool:
        list(pool.map(work, [True, False]))
    tracer.close(top)
    assert 0.19 <= tracer.self_time["top"] <= 0.3
    assert tracer.time["child"] >= 0.19 and "worker" not in tracer.self_time
