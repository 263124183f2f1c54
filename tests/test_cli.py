"""Command line contract: configs, exit codes, file outputs, reproducibility."""

import copy
import functools
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import hrbounds
from hrbounds import cli, shape_functions
from hrbounds._floatfmt import join
from hrbounds.cli import PRESETS, ExperimentConfig, main, render_json
from hrbounds.distributions import CHUNK
from hrbounds.errors import ValidationError
from hrbounds.sequences import TrajectoryBatch


def run(argv, monkeypatch, tmp_path, env_out=None):
    monkeypatch.delenv("HRBOUNDS_OUT", raising=False)
    if env_out is not None:
        monkeypatch.setenv("HRBOUNDS_OUT", str(env_out))
    return main(argv)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call; return the record."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, staticmethod(counting) if isinstance(owner, type)
                        else counting)
    return calls


GAUSS_SEQ = {"family": "gaussian", "n": 16, "params": {"mu": 0.0, "sigma": 1.0}}
BASE = {
    "scenario": "test-case",
    "sequence": GAUSS_SEQ,
    "shape": {"kind": "abs_power", "exponent": 1.0},
    "scale": {"kind": "linear", "epsilon": 2.0},
    "weights": {"kind": "power", "beta": 1.0},
    "replications": 2000,
    "master_seed": 1,
}


# ---------------------------------------------------------------------------
# config machinery


def test_config_round_trip_is_identity():
    for name, preset in PRESETS.items():
        cfg = ExperimentConfig.from_dict(preset)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg, name
        assert again.to_dict() == cfg.to_dict()


def test_unknown_fields_rejected_everywhere():
    bad_top = dict(BASE, surprise=1)
    with pytest.raises(ValidationError, match="unknown fields"):
        ExperimentConfig.from_dict(bad_top)
    bad_nested = dict(BASE, shape={"kind": "abs_power", "exponent": 1.0, "x": 2})
    with pytest.raises(ValidationError, match="unknown fields"):
        ExperimentConfig.from_dict(bad_nested)


def test_missing_required_field():
    incomplete = {k: v for k, v in BASE.items() if k != "shape"}
    with pytest.raises(ValidationError, match="missing required"):
        ExperimentConfig.from_dict(incomplete)


def test_horizon_must_match_sequence():
    with pytest.raises(ValidationError, match="disagrees"):
        ExperimentConfig.from_dict(dict(BASE, n=4))


@pytest.mark.parametrize("path, value, error, message", [
    (("sequence", "n"), "abc", "ValidationError", "sequence.n: expected an integer"),
    (("sequence", "params", "sigma"), None, "ValidationError",
     "sequence.params.sigma: expected a number, got null"),
    (("epsilon",), float("nan"), "ValidationError", "epsilon: expected a finite number"),
    (("checkpoints",), 5, "ValidationError", "checkpoints: expected an array"),
    (("weights",), {"kind": "custom", "values": [1.0, "2"]}, "ValidationError",
     "weights.values[1]: expected a number, got a string"),
    (("sequence", "params", "sigma"), 1e308, "ParameterDomainError",
     "sigma: 1e+308 puts the closed-form moments of the gaussian law"),
    (("replications",), 2 ** 64, "ValidationError", "replications must be in"),
    (("sequence",), {"family": "centered_exponential", "n": 16, "params": {"lam": 1e-200}},
     "ParameterDomainError",
     "lam: 1e-200 puts the closed-form moments of the centered_exponential law"),
])
def test_malformed_config_exits_1_with_json_error(tmp_path, monkeypatch, capsys,
                                                   path, value, error, message):
    cfg = copy.deepcopy(dict(BASE, epsilon=1.0, kinds=["theorem1", "classic"]))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    code = run(["verify", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)],
               monkeypatch, tmp_path)
    assert code == 1
    # kinds that succeed before the failing one print their summary line first
    out = capsys.readouterr().out
    err = json.loads(out[out.index("{"):])
    assert err["error"] == error and err["message"].startswith(message)


# Mutations of a small valid config: values of every JSON type, including
# non-finite and out-of-range numbers, set at existing or optional fields.
# Integers stay small apart from 10**400, which the size limit rejects: a
# mutated n or replications within the limit is really allocated.
MUTABLE_BASE = {
    "scenario": "mutated",
    "sequence": {"family": "point_mass", "n": 20, "params": {}},
    "shape": {"kind": "abs_power", "exponent": 1.0},
    "scale": {"kind": "linear", "epsilon": 2.0},
    "weights": {"kind": "power", "beta": 1.0},
    "replications": 1000,
    "master_seed": 3,
    "epsilon": 1.0,
    "kinds": ["theorem1", "rao", "classic", "amini"],
    "checkpoints": [10, 20],
    "series": {"alpha": 1.0, "r": 1.0},
}
PATHS = [("scenario",), ("sequence",), ("sequence", "family"), ("sequence", "n"),
         ("sequence", "params"), ("sequence", "params", "mu"), ("sequence", "params", "sigma"),
         ("sequence", "params", "lam"), ("sequence", "params", "c"), ("sequence", "dependence"),
         ("shape",), ("shape", "kind"), ("shape", "exponent"), ("scale",), ("scale", "epsilon"),
         ("scale", "rho"), ("weights",), ("weights", "kind"), ("weights", "beta"),
         ("weights", "values"), ("n",), ("replications",), ("master_seed",), ("epsilon",),
         ("m",), ("sided",), ("kinds",), ("profile",), ("checkpoints",), ("series",),
         ("series", "alpha"), ("series", "r"), ("series", "c"), ("process",), ("family",),
         ("level",), ("event",), ("out_dir",)]
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2, max_value=40),
    st.just(10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "abc", "gaussian", "centered_exponential", "alpha_stable",
                     "point_mass", "custom", "log", "power", "u", "max", "upper",
                     "estimated", "analytic", "rao", "const"]),
    st.lists(st.one_of(st.integers(min_value=-1, max_value=5),
                       st.floats(min_value=-10, max_value=10)), max_size=5),
    st.builds(dict),
)


def _mutated(mutations):
    cfg = copy.deepcopy(MUTABLE_BASE)
    for path, value, delete in mutations:
        node = cfg
        for key in path[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        if delete:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = copy.deepcopy(value)
    return cfg


@given(command=st.sampled_from(sorted(cli._DISPATCH)),
       mutations=st.lists(st.tuples(st.sampled_from(PATHS), VALUES, st.booleans()),
                          min_size=1, max_size=3))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_configs_end_in_an_exit_code(monkeypatch, capsys, command, mutations):
    monkeypatch.delenv("HRBOUNDS_OUT", raising=False)
    with tempfile.TemporaryDirectory() as out:
        config = f"{out}/config.json"
        with open(config, "w") as fh:
            json.dump(_mutated(mutations), fh)
        assert main([command, "--config", config, "--out", out]) in (0, 1, 2)
    capsys.readouterr()


def test_render_json_uses_17_digits_and_rejects_nan():
    assert render_json(0.1) == "0.10000000000000001"
    with pytest.raises(ValidationError):
        render_json(float("nan"))


def _per_element(xs, depth=0):
    """A float list as render_json renders it one element at a time, through _fmt."""
    pad, npad = "  " * depth, "  " * (depth + 1)
    return "[\n" + ",\n".join(npad + cli._fmt(v) for v in xs) + "\n" + pad + "]"


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
@example(xs=[5e-324, -0.0, 0.0, 1.7976931348623157e308, -1.7976931348623157e308,
             2.2250738585072009e-308, 1e16, 1e-5, 0.1, 123456789012345678.0])
def test_flat_float_lists_render_like_each_element(xs):
    assert render_json(xs) == _per_element(xs)
    assert render_json(tuple(xs)) == _per_element(xs)
    assert render_json({"terms": xs}) == '{\n  "terms": ' + _per_element(xs, 1) + "\n}"


def _corpus():
    """Floats where a "%.17g" kernel can go wrong, and 10^6 random finite bit patterns."""
    tens = np.array([float(f"1e{k}") for k in range(-308, 309)])
    specials = [
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        np.ldexp(1.0, np.arange(-1074, 1024)),
        np.array([5e-324, 1e-310, 2.2250738585072009e-308, 2.225073858507201e-308,
                  0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308]),
        np.array([2.0 ** 53 - 2, 2.0 ** 53 + 2]),
        np.nextafter([1e16, 1e16, 1e17, 1e17], [0.0, np.inf, 0.0, np.inf]),
        # either side of the fixed/exponent switch, and exact ties at the 17th digit
        np.array([np.nextafter(1e-4, 0.0), np.nextafter(1e17, 0.0),
                  2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75, 2.0 ** -25]),
    ]
    xs = np.concatenate(specials)
    bits = np.random.default_rng(20240613).integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
    random = bits.view(np.float64)
    return np.concatenate([xs, -xs]).tolist(), random[np.isfinite(random)].tolist()


def test_long_float_lists_render_like_each_element_on_a_corpus():
    specials, random = _corpus()
    assert render_json(specials) == _per_element(specials)
    assert render_json(random) == _per_element(random)
    assert join(np.array(specials), ", ") == ", ".join("%.17g" % v for v in specials)


@pytest.mark.parametrize("shift", [-1e-12, 1e-12])
def test_long_float_lists_render_exactly_where_log10_misses_the_exponent(monkeypatch, shift):
    """A log10 off by 1e-12 puts E one off near every power of ten: the kernel must
    then carry 10^17 into E + 1, or fall back, and still write every byte right."""
    real = np.log10

    def shifted(x, out=None):
        y = real(x, out=out)
        y += shift
        return y

    monkeypatch.setattr(np, "log10", shifted)
    specials, _ = _corpus()
    assert render_json(specials) == _per_element(specials)


LONG_LENGTHS = [cli._FLOATFMT_MIN_LEN - 1, cli._FLOATFMT_MIN_LEN, CHUNK, CHUNK + 1]


@given(n=st.sampled_from(LONG_LENGTHS), data=st.data())
@settings(max_examples=40, deadline=None)
def test_long_flat_float_lists_render_like_each_element(n, data):
    xs = np.random.default_rng(n).lognormal(0.0, 20.0, size=n).tolist()
    where = st.one_of(st.integers(0, n - 1), st.sampled_from([0, n - 1, min(n - 1, CHUNK)]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    for i, v in data.draw(st.lists(st.tuples(where, finite), min_size=1, max_size=20)):
        xs[i] = v
    assert render_json(xs) == _per_element(xs)
    assert render_json(tuple(xs)) == _per_element(xs)
    assert render_json({"terms": xs}) == '{\n  "terms": ' + _per_element(xs, 1) + "\n}"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, CHUNK + 5, 19_999])
def test_non_finite_float_in_a_long_list_is_refused(bad, at):
    xs = [0.5] * 20_000
    xs[at] = bad
    with pytest.raises(ValidationError, match="non-finite number in output"):
        render_json(xs)


ARRAY_LENGTHS = [0, 1, cli._FLOATFMT_MIN_LEN - 1, cli._FLOATFMT_MIN_LEN, CHUNK, CHUNK + 1]


@pytest.mark.parametrize("n", ARRAY_LENGTHS)
def test_float_arrays_render_like_their_lists(n):
    a = np.random.default_rng(n).lognormal(0.0, 20.0, size=n)
    assert render_json(a) == render_json(a.tolist())
    assert render_json({"terms": a}) == render_json({"terms": a.tolist()})


@given(n=st.sampled_from(ARRAY_LENGTHS), data=st.data())
@settings(max_examples=40, deadline=None)
def test_float_arrays_render_like_their_lists_at_any_values(n, data):
    a = np.random.default_rng(n).normal(size=n)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    if n:
        for i, v in data.draw(st.lists(st.tuples(st.integers(0, n - 1), finite), max_size=20)):
            a[i] = v
    assert render_json(a) == render_json(a.tolist())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, CHUNK + 5, 19_999])
def test_non_finite_entry_in_a_long_array_is_refused(bad, at):
    a = np.full(20_000, 0.5)
    a[at] = bad
    with pytest.raises(ValidationError, match="non-finite number in output"):
        render_json(a)


@pytest.mark.parametrize("bad", [np.zeros((2, 600)), np.arange(600), np.zeros(3, np.float32)])
def test_only_1d_float64_arrays_render(tmp_path, monkeypatch, capsys, bad):
    with pytest.raises(ValidationError, match="cannot render a"):
        render_json(bad)
    real = cli._envelope
    monkeypatch.setattr(cli, "_envelope", lambda cfg, payload: {**real(cfg, payload), "x": bad})
    code = run(["bound", "--scenario", "rademacher-oracle", "--out", str(tmp_path)],
               monkeypatch, tmp_path)
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "ValidationError",
        "message": f"cannot render a {bad.ndim}-D {bad.dtype} array as JSON"}


def test_long_float_lists_render_without_a_whole_list_matrix():
    xs = np.random.default_rng(5).lognormal(size=200_000).tolist()
    render_json(xs)  # lookup tables are built once per process, outside the measurement

    def peak(render):
        tracemalloc.start()
        try:
            render(xs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(render_json) <= peak(_per_element)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_float_in_a_list_is_refused(bad):
    for xs in ([0.5, bad], (bad,), [1, bad], [np.float64(0.5), np.float64(bad)]):
        with pytest.raises(ValidationError, match="non-finite number in output"):
            render_json(xs)


def test_mixed_lists_render_element_by_element():
    assert render_json([1, 0.5, True, None, "a"]) == \
        '[\n  1,\n  0.5,\n  true,\n  null,\n  "a"\n]'
    assert render_json([np.float64(0.1), 0.2]) == \
        "[\n  0.10000000000000001,\n  0.20000000000000001\n]"
    assert render_json([True, False]) == "[\n  true,\n  false\n]"
    assert render_json([3, 4]) == "[\n  3,\n  4\n]"
    assert render_json([["informative", True], ["well_defined", False]]) == (
        '[\n  [\n    "informative",\n    true\n  ],\n'
        '  [\n    "well_defined",\n    false\n  ]\n]')


@given(st.dictionaries(st.text(max_size=80), st.text(max_size=80), max_size=6))
def test_strings_render_as_json_dumps(d):
    # short strings come from a memo of their JSON text, long ones are dumped afresh
    want = json.dumps(d, indent=2, ensure_ascii=True)
    assert render_json(d) == want
    assert render_json(d) == want


def test_non_finite_term_ends_in_the_json_error(tmp_path, monkeypatch, capsys):
    real = cli._compute_bound

    def with_nan_term(kind, cfg, draws):
        report = real(kind, cfg, draws)
        return replace(report, terms=np.append(report.terms[:-1], math.nan))

    monkeypatch.setattr(cli, "_compute_bound", with_nan_term)
    # a short report, then n = 20,000: three chunks of the vectorised renderer
    long_cfg = write_config(tmp_path, {**BASE, "sequence": {**GAUSS_SEQ, "n": 20_000},
                                       "kinds": ["theorem1", "rao", "amini"]})
    for source in (["--scenario", "rademacher-oracle"], ["--config", long_cfg]):
        out = tmp_path / source[0].strip("-")
        code = run(["bound", *source, "--out", str(out)], monkeypatch, tmp_path)
        assert code == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": "ValidationError", "message": "non-finite number in output"}
        assert not list(out.glob("*.json"))


def _report_payload(terms) -> dict:
    return {"scenario": "write", "master_seed": 3,
            "report": {"bound_kind": "rao_lower", "value": 0.25, "terms": terms,
                       "hypotheses_checked": [["informative", True]],
                       "event": {"weights": "ab", "n": len(terms)}},
            "exact": None, "verdicts": {}}


@pytest.mark.parametrize("n", [0, cli._FLOATFMT_MIN_LEN - 1, cli._FLOATFMT_MIN_LEN,
                               CHUNK, CHUNK + 1, 100_000])
def test_written_report_is_render_json_and_a_newline(tmp_path, n):
    payload = _report_payload(np.random.default_rng(n).lognormal(0.0, 20.0, size=n))
    path = tmp_path / "report.json"
    cli._write_json(path, payload)
    assert path.read_bytes() == (render_json(payload) + "\n").encode("ascii")


def test_nan_after_a_long_array_writes_no_report(tmp_path, monkeypatch, capsys):
    """Every piece is rendered before the file is opened: a NaN in the last key,
    after 20,000 terms have been rendered, still leaves no file behind."""
    real = cli._envelope
    monkeypatch.setattr(cli, "_envelope",
                        lambda cfg, payload: {**real(cfg, payload), "after": math.nan})
    cfg = write_config(tmp_path, {**BASE, "sequence": {**GAUSS_SEQ, "n": 20_000},
                                  "kinds": ["rao"]})
    out = tmp_path / "out"
    assert run(["bound", "--config", cfg, "--out", str(out)], monkeypatch, tmp_path) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "ValidationError", "message": "non-finite number in output"}
    assert not list(out.iterdir())


def test_writing_a_long_report_holds_no_report_sized_copies(tmp_path):
    """The pieces of the text are about the file's size; on top of them come the
    kernel's reused work buffers (about 1.7 MB) and one chunk's text, but no
    joined, wrapped or encoded copy of the whole report."""
    payload = _report_payload(np.random.default_rng(7).lognormal(-10.0, 1.0, size=100_000))
    path = tmp_path / "report.json"
    cli._write_json(path, payload)  # lookup tables are built once, outside the measurement
    tracemalloc.start()
    try:
        cli._write_json(path, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * path.stat().st_size


# ---------------------------------------------------------------------------
# bound command


def test_bound_preset_pinned_value(tmp_path, monkeypatch, capsys):
    code = run(["bound", "--scenario", "rademacher-n2-eps10",
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "bound_theorem1.json").read_text())
    assert payload["scenario"] == "rademacher-n2-eps10"
    assert payload["report"]["value"] == pytest.approx(0.7, abs=1e-15)
    assert "0.69999999999999996" in (tmp_path / "bound_theorem1.json").read_text()
    assert "config_digest" in payload and "master_seed" in payload
    assert payload["hrbounds_version"] == hrbounds.__version__


def test_bound_amini_zero_dispersion(tmp_path, monkeypatch):
    cfg = dict(BASE, sequence={"family": "point_mass", "n": 16, "params": {"c": 0.0}},
               kinds=["amini"], epsilon=1.0)
    code = run(["bound", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "bound_amini.json").read_text())
    assert payload["report"]["value"] == 0.0


@pytest.mark.parametrize("profile", ["auto", "estimated"])
def test_bound_heavy_tail_second_moment_errors(tmp_path, monkeypatch, capsys, profile):
    cfg = dict(BASE,
               sequence={"family": "alpha_stable", "n": 16,
                         "params": {"alpha": 1.5, "beta": 0.0, "scale": 1.0}},
               shape={"kind": "abs_power", "exponent": 2.0},
               profile=profile, kinds=["theorem1"])
    code = run(["bound", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "NonIntegrabilityError"


# Laws whose first moments are finite floats while their second moments are not:
# E[X^2] is 1e320 for the gaussian law and 1/lam^2 = 1e400 for the centred exponential.
HUGE_SIGMA = {"family": "gaussian", "n": 16, "params": {"mu": 0.0, "sigma": 1e160}}
HUGE_MEAN = {"family": "centered_exponential", "n": 16, "params": {"lam": 1e-200}}
SIGMA_NAMED = "sigma: 1e+160 puts the closed-form moments of the gaussian law"
LAM_NAMED = "lam: 1e-200 puts the closed-form moments of the centered_exponential law"


@pytest.mark.parametrize("sequence, first_term", [
    # E[X+] + E[X-] is 2 sigma / sqrt(2 pi), about 8e159, and 2 / (e lam), about 7e199
    pytest.param(HUGE_SIGMA, 2e160 / math.sqrt(2.0 * math.pi), id="gaussian"),
    pytest.param(HUGE_MEAN, 2e200 / math.e, id="centered_exponential"),
])
def test_bound_first_moments_survive_second_moment_overflow(tmp_path, monkeypatch,
                                                           sequence, first_term):
    cfg = dict(BASE, sequence=sequence, kinds=["theorem1"])
    code = run(["bound", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "bound_theorem1.json").read_text())["report"]
    assert math.isfinite(report["raw_value"]) and report["value"] == 0.0
    # 2K (E[X+] + E[X-]) / chi(b_1) with K = 1 and chi(b_1) = 2
    assert report["terms"][0] == pytest.approx(first_term, rel=1e-12)


@pytest.mark.parametrize("sequence, exponent, kind, message", [
    pytest.param(HUGE_SIGMA, 2.0, "theorem1", SIGMA_NAMED, id="2.0-theorem1"),
    pytest.param(HUGE_SIGMA, 1.0, "amini", SIGMA_NAMED, id="1.0-amini"),
    pytest.param(HUGE_SIGMA, 1.0, "classic", SIGMA_NAMED, id="1.0-classic"),
    pytest.param(HUGE_MEAN, 2.0, "theorem1", LAM_NAMED,
                 id="2.0-theorem1-centered_exponential"),
])
def test_bound_second_moment_overflow_is_named(tmp_path, monkeypatch, capsys,
                                               sequence, exponent, kind, message):
    cfg = dict(BASE, sequence=sequence, shape={"kind": "abs_power", "exponent": exponent},
               kinds=[kind], epsilon=1.0)
    code = run(["bound", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ParameterDomainError"
    assert err["message"].startswith(message)


@pytest.mark.parametrize("sequence, exponent, named", [
    pytest.param(HUGE_SIGMA, 2.0, "sigma: 1e+160 puts the estimated phi means of the gaussian law",
                 id="gaussian"),
    # a rademacher law has no size parameter: |S_k|^200 overflows from |S_k| = 35 on
    pytest.param({"family": "rademacher", "n": 64}, 200.0,
                 "exponent: 200.0 puts the estimated phi means of the rademacher law",
                 id="rademacher"),
])
def test_estimated_profile_overflow_is_named(tmp_path, monkeypatch, capsys,
                                             sequence, exponent, named):
    cfg = dict(BASE, sequence=sequence, shape={"kind": "abs_power", "exponent": exponent},
               profile="estimated", kinds=["theorem1"])
    code = run(["bound", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ParameterDomainError"
    assert err["message"].startswith(named)


def test_bound_at_the_slln_horizon_stays_small(tmp_path, monkeypatch):
    # the event carries a hash of the 10^5 weights, not the weights themselves
    cfg = dict(BASE, sequence=dict(GAUSS_SEQ, n=100_000), epsilon=2.0,
               kinds=["theorem1", "rao", "amini"])
    assert run(["bound", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path / "out")], monkeypatch, tmp_path) == 0
    written = sum(p.stat().st_size for p in (tmp_path / "out").iterdir())
    assert written < 10_000_000
    for kind in cfg["kinds"]:
        report = json.loads((tmp_path / "out" / f"bound_{kind}.json").read_text())["report"]
        assert len(report["terms"]) == 100_000
        assert len(report["event"]["weights"]) == 64


@pytest.mark.parametrize("command", ["bound", "verify"])
@pytest.mark.parametrize("sequence", [HUGE_SIGMA, HUGE_MEAN],
                         ids=["gaussian", "centered_exponential"])
def test_estimated_profile_needs_no_closed_form_moments(tmp_path, monkeypatch,
                                                        command, sequence):
    # the draws and their first moments are finite floats, so the closed-form
    # second moments, which are not, play no part
    cfg = dict(BASE, sequence=sequence, profile="estimated", kinds=["theorem1"])
    code = run([command, "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    report = json.loads((tmp_path / f"{command}_theorem1.json").read_text())["report"]
    assert math.isfinite(report["raw_value"]) and report["value"] == 0.0


def test_bound_builds_one_profile_for_all_kinds(tmp_path, monkeypatch):
    generated = count_calls(monkeypatch, TrajectoryBatch, "generate")
    profiles = count_calls(monkeypatch, cli, "estimate_moment_profile")
    cfg = dict(BASE, profile="estimated", kinds=["theorem1", "rao"])
    code = run(["bound", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    assert len(profiles) == 1 and len(generated) == 1


def test_bound_with_analytic_profile_draws_nothing(tmp_path, monkeypatch):
    generated = count_calls(monkeypatch, TrajectoryBatch, "generate")
    profiles = count_calls(monkeypatch, cli, "analytic_moment_profile")
    cfg = dict(BASE, kinds=["theorem1", "rao", "classic", "amini"], epsilon=1.0)
    code = run(["bound", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    assert len(profiles) == 1 and generated == []


def test_bound_builds_its_weights_once_for_all_kinds(tmp_path, monkeypatch):
    """Four bounds and their four event digests share one b_1..b_n, and the
    array is released when the command ends."""
    built = []
    build = shape_functions._weights.__wrapped__
    monkeypatch.setattr(shape_functions, "_weights", functools.lru_cache(maxsize=1)(
        lambda w, n: built.append(n) or build(w, n)))
    cfg = dict(BASE, kinds=["theorem1", "rao", "classic", "amini"], epsilon=1.0,
               weights={"kind": "power", "beta": 0.75})
    code = run(["bound", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    assert built == [16]
    assert shape_functions._weights.cache_info().currsize == 0


def test_bound_kind_flag_overrides_config(tmp_path, monkeypatch):
    code = run(["bound", "--scenario", "rademacher-oracle", "--kind", "rao",
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    assert (tmp_path / "bound_rao.json").exists()
    assert not (tmp_path / "bound_theorem1.json").exists()


def test_kind_flag_does_not_outlive_its_command(tmp_path, monkeypatch):
    cli._parser.cache_clear()
    built = count_calls(monkeypatch, cli, "build_parser")
    for argv, out in ((["--kind", "rao"], tmp_path / "rao"), ([], tmp_path / "all")):
        assert run(["bound", "--scenario", "rademacher-oracle", *argv, "--out", str(out)],
                   monkeypatch, tmp_path) == 0
    assert len(built) == 1
    assert sorted(p.name for p in (tmp_path / "rao").iterdir()) == ["bound_rao.json"]
    assert sorted(p.name for p in (tmp_path / "all").iterdir()) == [
        "bound_rao.json", "bound_theorem1.json"]


def test_config_and_scenario_are_mutually_exclusive(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path, BASE)
    code = run(["bound", "--config", cfg_path, "--scenario", "rademacher-oracle"],
               monkeypatch, tmp_path)
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"] == "ValidationError"


# ---------------------------------------------------------------------------
# verify command


def test_verify_oracle_preset_consistent(tmp_path, monkeypatch):
    code = run(["verify", "--scenario", "rademacher-oracle",
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "verify_theorem1.json").read_text())
    assert payload["verdicts"]["monte_carlo"] == "consistent"
    assert payload["verdicts"]["exact"] == "consistent"
    assert payload["exact"]["value"] == 1.0
    assert payload["estimate"]["event_digest"] == payload["report"]["inputs_digest"]


def test_verify_rao_gets_an_exact_verdict(tmp_path, monkeypatch):
    # u_k <= k/2 for every k means S_k <= 0 for every k: C(8, 4) = 70 of 256 paths
    cfg = dict(BASE, sequence={"family": "rademacher", "n": 8},
               scale={"kind": "linear", "epsilon": 0.5}, kinds=["rao"])
    code = run(["verify", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "verify_rao.json").read_text())
    assert payload["exact"] == {"numerator": 35, "denominator": 128, "value": 35 / 128}
    assert payload["verdicts"]["exact"] == "vacuous"  # raw bound 1 - H_8 < 0


@pytest.mark.parametrize("reps", [999, 1000])
def test_verify_rao_needs_1000_replications(tmp_path, monkeypatch, capsys, reps):
    # rao's Monte Carlo estimate is estimate_event_An on the u process, as for theorem1
    code = run(["verify", "--scenario", "rademacher-oracle", "--kind", "rao",
                "--reps", str(reps), "--out", str(tmp_path)], monkeypatch, tmp_path)
    if reps < 1000:
        assert code == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": "ValidationError",
            "message": "event estimation needs >= 1000 replications"}
        assert not (tmp_path / "verify_rao.json").exists()
    else:
        assert code == 0
        payload = json.loads((tmp_path / "verify_rao.json").read_text())
        assert payload["estimate"]["replications"] == 1000
        assert payload["estimate"]["event"]["process"] == "u"


def test_rao_refuses_a_flagged_profile_as_theorem1_does(tmp_path, monkeypatch, capsys):
    # 100 rows of 12000 gaussian steps: the half- and full-sample running means
    # differ by more than the drift limit, so the estimated profile is flagged
    cfg = dict(BASE, sequence=dict(GAUSS_SEQ, n=12_000), replications=100, master_seed=0,
               scale={"kind": "linear", "epsilon": 1.0}, profile="estimated")
    for kind in ("theorem1", "rao"):
        code = run(["bound", "--config", write_config(tmp_path, cfg), "--kind", kind,
                    "--out", str(tmp_path / "out")], monkeypatch, tmp_path)
        assert code == 1
        assert json.loads(capsys.readouterr().out)["error"] == "NonIntegrabilityError"
    assert list((tmp_path / "out").iterdir()) == []


def test_verify_takes_each_kinds_event_from_its_report(tmp_path, monkeypatch):
    cfg = dict(BASE, sequence={"family": "rademacher", "n": 8},
               kinds=["theorem1", "rao", "classic", "amini"], epsilon=1.5, m=3,
               sided="upper")
    code = run(["verify", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    events = {}
    for kind in cfg["kinds"]:
        payload = json.loads((tmp_path / f"verify_{kind}.json").read_text())
        assert payload["estimate"]["event"] == payload["report"]["event"], kind
        assert payload["exact"] is not None, kind
        events[kind] = payload["report"]["event"]
    assert (events["theorem1"]["event"], events["theorem1"]["process"]) == ("A_n", "S")
    assert (events["rao"]["event"], events["rao"]["process"]) == ("A_n", "u")
    assert (events["classic"]["m"], events["classic"]["sided"]) == (3, "upper")
    assert (events["amini"]["m"], events["amini"]["sided"]) == (1, "abs")
    assert events["classic"]["epsilon"] == events["amini"]["epsilon"] == 1.5


def test_verify_corrupt_bound_trips_exit_2(tmp_path, monkeypatch):
    code = run(["verify", "--scenario", "rademacher-oracle", "--kind", "theorem1",
                "--corrupt-bound", "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 2
    payload = json.loads((tmp_path / "verify_theorem1.json").read_text())
    assert "violation" in payload["verdicts"].values()


def test_verify_classic_gaussian_epsilon_grid(tmp_path, monkeypatch):
    for eps in (0.5, 1.0, 2.0):
        cfg = dict(BASE, kinds=["classic"], epsilon=eps, m=2)
        code = run(["verify", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path)], monkeypatch, tmp_path)
        assert code == 0


def test_verify_classic_head_range_regression(tmp_path, monkeypatch):
    # One step with b_1 = 2 at eps = 0.5: P(|S_1|/b_1 >= eps) = 1, and the
    # bound must not fall below it.
    cfg = dict(BASE, sequence={"family": "rademacher", "n": 1},
               weights={"kind": "custom", "values": [2.0]},
               epsilon=0.5, kinds=["classic"])
    code = run(["verify", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "verify_classic.json").read_text())
    assert payload["exact"]["value"] == 1.0
    assert "violation" not in payload["verdicts"].values()


ESTIMATED_3 = dict(BASE, profile="estimated", kinds=["theorem1", "rao", "amini"],
                   epsilon=1.0)


def test_verify_draws_one_batch_for_all_kinds(tmp_path, monkeypatch):
    generated = count_calls(monkeypatch, TrajectoryBatch, "generate")
    code = run(["verify", "--config", write_config(tmp_path, ESTIMATED_3),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    assert len(generated) == 1
    for kind in ESTIMATED_3["kinds"]:
        assert (tmp_path / f"verify_{kind}.json").exists()


def _without_config_digest(path):
    # `kinds` is part of the config, so a single-kind run has its own digest.
    return [line for line in path.read_bytes().splitlines()
            if not line.lstrip().startswith(b'"config_digest"')]


def test_verify_multi_kind_matches_single_kind_runs(tmp_path, monkeypatch):
    config = write_config(tmp_path, ESTIMATED_3)
    together = tmp_path / "together"
    assert run(["verify", "--config", config, "--out", str(together)],
               monkeypatch, tmp_path) == 0
    for kind in ESTIMATED_3["kinds"]:
        alone = tmp_path / kind
        assert run(["verify", "--config", config, "--kind", kind, "--out", str(alone)],
                   monkeypatch, tmp_path) == 0
        name = f"verify_{kind}.json"
        assert _without_config_digest(together / name) == \
            _without_config_digest(alone / name)


EVENT_REPS = "event estimation needs >= 1000 replications"
DEMI_REPS = "demi check needs >= 1000 replications"


@pytest.mark.parametrize("command, source, message", [
    # 200 replications of n = 10^5 would be 2 x 10^7 rows drawn only to be refused
    ("verify", "stable-first-moment", EVENT_REPS),
    ("check-demi", "stable-first-moment", DEMI_REPS),
    # an estimated profile would draw its batch for the bound before the estimate
    ("verify", dict(BASE, profile="estimated", replications=999), EVENT_REPS),
    ("check-demi", dict(BASE, replications=999), DEMI_REPS),
    ("check-demi", dict(BASE, sequence=dict(GAUSS_SEQ, n=1)),
     "need at least two indices to form a margin"),
], ids=["verify-preset", "check-demi-preset", "verify-estimated", "check-demi-999",
        "check-demi-n1"])
def test_refused_before_drawing(tmp_path, monkeypatch, capsys, command, source, message):
    generated = count_calls(monkeypatch, TrajectoryBatch, "generate")
    config = (["--scenario", source] if isinstance(source, str)
              else ["--config", write_config(tmp_path, source)])
    code = run([command, *config, "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {"error": "ValidationError",
                                                   "message": message}
    assert generated == []


# ---------------------------------------------------------------------------
# check-demi command


def kept_batches(monkeypatch):
    """Replace TrajectoryBatch.generate by a wrapper that keeps each batch it makes."""
    made = []
    real = TrajectoryBatch.generate

    def keeping(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(TrajectoryBatch, "generate", staticmethod(keeping))
    return made


@pytest.mark.parametrize("command, cfg", [
    ("check-demi", BASE),
    ("verify", dict(BASE, kinds=["classic"], epsilon=2.0)),
], ids=["check-demi-S", "verify-classic"])
def test_commands_that_read_only_s_leave_the_one_sided_walks_unbuilt(
        tmp_path, monkeypatch, command, cfg):
    made = kept_batches(monkeypatch)
    assert run([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)],
               monkeypatch, tmp_path) == 0
    assert len(made) == 1
    assert "u" not in vars(made[0]) and "v" not in vars(made[0])


def test_check_demi_exit_codes(tmp_path, monkeypatch):
    assert run(["check-demi", "--scenario", "demi-martingale",
                "--out", str(tmp_path)], monkeypatch, tmp_path) == 0
    assert run(["check-demi", "--scenario", "demi-drift",
                "--out", str(tmp_path)], monkeypatch, tmp_path) == 2
    report = json.loads((tmp_path / "check_demi.json").read_text())
    assert report["report"]["flagged_count"] > 0


def test_check_demi_output_does_not_depend_on_threads(tmp_path, monkeypatch):
    # 4000 rows of n = 16 are 8 blocks, so both threads draw.
    cfg = write_config(tmp_path, dict(BASE, replications=4000))
    outs = [tmp_path / f"threads{t}" for t in (1, 2)]
    for t, out in zip((1, 2), outs):
        assert run(["check-demi", "--config", cfg, "--threads", str(t), "--out", str(out)],
                   monkeypatch, tmp_path) == 0
    assert (outs[0] / "check_demi.json").read_bytes() == (outs[1] / "check_demi.json").read_bytes()


def test_check_demi_positive_part_process(tmp_path, monkeypatch):
    cfg = dict(BASE, process="u")
    code = run(["check-demi", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "check_demi.json").read_text())
    assert report["report"]["pointwise_negative_count"] == 0


# ---------------------------------------------------------------------------
# slln command


def test_slln_point_mass_all_zero(tmp_path, monkeypatch):
    cfg = dict(BASE,
               sequence={"family": "point_mass", "n": 2000, "params": {"c": 0.0}},
               n=2000, replications=30,
               checkpoints=[100, 2000], series={"alpha": 0.0, "r": 1.0})
    code = run(["slln", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    series = json.loads((tmp_path / "slln_series.json").read_text())
    assert series["series"]["verdict"] == "converging"
    rows = (tmp_path / "slln_checkpoints.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    for row in rows[1:]:
        assert float(row.split(",")[2]) == 0.0  # q95 of the shaped ratio


def test_slln_short_horizon(tmp_path, monkeypatch):
    cfg = dict(BASE, sequence={"family": "gaussian", "n": 4, "params": {}}, n=4,
               replications=50, checkpoints=[2, 4], series={"alpha": 1.0, "r": 2.0})
    code = run(["slln", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    series = json.loads((tmp_path / "slln_series.json").read_text())["series"]
    assert series["verdict"] == "converging" and series["tail_bound"] == 0.25


def test_slln_overflowing_tail_bound_writes_nothing(tmp_path, monkeypatch, capsys):
    # beta r - 1 is 4 ulp of 1, so alpha h^(1 - beta r) / (beta r - 1) overflows to inf
    cfg = dict(BASE, sequence={"family": "gaussian", "n": 4, "params": {}}, n=4,
               replications=50, checkpoints=[2, 4],
               series={"alpha": 1e300, "r": 1.0000000000000009})
    out = tmp_path / "out"
    code = run(["slln", "--config", write_config(tmp_path, cfg),
                "--out", str(out)], monkeypatch, tmp_path)
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "ValidationError", "message": "non-finite number in output"}
    assert not (out / "slln_series.json").exists()
    assert not (out / "slln_checkpoints.csv").exists()


def test_slln_bounded_weights_rejected(tmp_path, monkeypatch, capsys):
    cfg = dict(BASE, weights={"kind": "custom", "values": [1.0] * 16},
               series={"alpha": 1.0, "r": 1.0})
    code = run(["slln", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 1
    assert "unbounded" in json.loads(capsys.readouterr().out)["message"]


def test_slln_checkpoint_past_horizon_writes_nothing(tmp_path, monkeypatch, capsys):
    cfg = dict(BASE, sequence={"family": "gaussian", "n": 1000, "params": {}}, n=1000,
               replications=20, checkpoints=[10, 5000], series={"alpha": 1.0, "r": 2.0})
    out = tmp_path / "out"
    code = run(["slln", "--config", write_config(tmp_path, cfg),
                "--out", str(out)], monkeypatch, tmp_path)
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "ValidationError", "message": "last checkpoint 5000 exceeds horizon 1000"}
    assert not (out / "slln_series.json").exists()
    assert not (out / "slln_checkpoints.csv").exists()


def test_slln_requires_series_block(tmp_path, monkeypatch, capsys):
    code = run(["slln", "--config", write_config(tmp_path, dict(BASE, n=16)),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 1


# ---------------------------------------------------------------------------
# enumerate command


def test_enumerate_oracle_preset(tmp_path, monkeypatch):
    code = run(["enumerate", "--scenario", "rademacher-oracle",
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "enumerate.json").read_text())
    assert payload["numerator"] == 1 and payload["denominator"] == 1


def test_enumerate_a_thousand_steps_matches_integer_path_counts(tmp_path, monkeypatch):
    n, eps, m = 1000, 0.3, 10
    cfg = dict(BASE, sequence={"family": "rademacher", "n": n}, event="max",
               epsilon=eps, m=m)
    code = run(["enumerate", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    doc = json.loads((tmp_path / "enumerate.json").read_text())
    frac = Fraction(doc["numerator"], doc["denominator"])
    assert doc["value"] == float(frac)
    # paths that never reach |S_k|/k >= eps for m <= k <= n, counted by S_k
    counts = {0: 1}
    for k in range(1, n + 1):
        nxt = {}
        for s, c in counts.items():
            for t in (s - 1, s + 1):
                if k < m or abs(t) / k < eps:
                    nxt[t] = nxt.get(t, 0) + c
        counts = nxt
    assert frac == 1 - Fraction(sum(counts.values()), 2 ** n)


U_WALK = dict(BASE, sequence={"family": "rademacher", "n": 2}, process="u",
              scale={"kind": "linear", "epsilon": 1.0},
              weights={"kind": "custom", "values": [1.0, 1.0]})


def test_enumerate_reads_the_configured_process(tmp_path, monkeypatch, capsys):
    # u_2 <= 1 fails only on the path (+1, +1); |S_k| <= 1 never fails
    code = run(["enumerate", "--config", write_config(tmp_path, U_WALK),
                "--out", str(tmp_path)], monkeypatch, tmp_path)
    assert code == 0
    assert capsys.readouterr().out.startswith("exact = 3/4 = ")
    doc = json.loads((tmp_path / "enumerate.json").read_text())
    assert (doc["numerator"], doc["denominator"]) == (3, 4)


def test_enumerate_refuses_the_max_event_off_s(tmp_path, monkeypatch, capsys):
    cfg = dict(U_WALK, event="max", epsilon=0.5)
    out = tmp_path / "out"
    code = run(["enumerate", "--config", write_config(tmp_path, cfg),
                "--out", str(out)], monkeypatch, tmp_path)
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "ValidationError",
        "message": "the max event is defined on S, not on process 'u'"}
    assert not out.exists() or not any(out.iterdir())


# ---------------------------------------------------------------------------
# output discipline


def test_env_var_beats_flag(tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    code = run(["bound", "--scenario", "rademacher-n2-eps10",
                "--out", str(flag_dir)], monkeypatch, tmp_path, env_out=env_dir)
    assert code == 0
    assert (env_dir / "bound_theorem1.json").exists()
    assert not flag_dir.exists()


def test_byte_identical_reruns(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run(["verify", "--scenario", "amini-recovery", "--out", str(out)],
            monkeypatch, tmp_path)
    for name in ("verify_theorem1.json", "verify_amini.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_override_changes_digest(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["bound", "--scenario", "rademacher-n2-eps10", "--out", str(a)],
        monkeypatch, tmp_path)
    run(["bound", "--scenario", "rademacher-n2-eps10", "--seed", "99",
         "--out", str(b)], monkeypatch, tmp_path)
    da = json.loads((a / "bound_theorem1.json").read_text())
    db = json.loads((b / "bound_theorem1.json").read_text())
    assert da["config_digest"] != db["config_digest"]
    assert db["master_seed"] == 99


def test_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hrbounds.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": ":".join(sys.path)})
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hrbounds.cli", "bound",
         "--scenario", "rademacher-n2-eps10", "--out", str(tmp_path)],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": ":".join(sys.path)})
    assert proc.returncode == 0
    assert "theorem1" in proc.stdout
