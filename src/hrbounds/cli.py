"""Config-driven command line: bounds, verification, demi checks, SLLN runs.

One experiment is one JSON config (or a named built-in scenario).  Commands
write JSON/CSV reports into an output directory and print a short summary;
every output file embeds the effective config digest, master seed and
package version, and contains no timestamps, so identical inputs give
byte-identical files.

Exit codes: 0 success (including vacuous bounds), 1 invalid input (a
malformed config field, or numbers out of the float range) or a
hypothesis/integrability error (with a machine-readable error JSON on
stdout), 2 a verification violation or demi-check flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
from dataclasses import dataclass, replace
from functools import cache, cached_property, lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from ._digest import digest_of
from .bounds import (
    MomentProfile,
    SLLNSeriesSpec,
    _increment_sigma_ex2,
    analytic_moment_profile,
    bound_amini,
    bound_hajek_renyi_classic,
    bound_rao,
    bound_theorem1,
    estimate_moment_profile,
    slln_series_check,
)
from .distributions import RandomSequenceSpec
from .errors import AnalyticProfileUnavailable, HRBoundsError, NonIntegrabilityError, ValidationError
from .sequences import TrajectoryBatch
from .shape_functions import ScaleFunction, ShapeFunction, WeightSequence, release_weights
from .simulation import (
    DEFAULT_DEMI_FAMILY,
    DEMI_PROCESSES,
    _ENUM_MAX_N,
    check_checkpoints,
    check_demi_size,
    check_event_reps,
    demi_check,
    enumerate_exact,
    estimate_event_An,
    estimate_max_event,
    slln_trajectory,
    verify_bound,
)

SHORT_KINDS = ("theorem1", "rao", "classic", "amini")

# Largest horizon and replication count.  A replications x n float64 array
# then stays below numpy's 2^63-byte limit, so a request too large for the
# host fails as MemoryError (exit 1) rather than inside numpy's size checks.
_MAX_SIZE = 2 ** 28


# ---------------------------------------------------------------------------
# deterministic JSON/CSV rendering (17 significant digits on every float)

# Float vectors (1-D float64 arrays, or flat lists of floats) at least this
# long are rendered by the vectorised ``_floatfmt.pieces`` (same bytes);
# shorter ones element by element, where the kernel's fixed cost of about
# 0.1 ms would not pay off.
_FLOATFMT_MIN_LEN = 512


def _fmt(v) -> str:
    v = float(v)
    if not math.isfinite(v):
        raise ValidationError("non-finite number in output")
    return format(v, ".17g")


# Strings at most this long (dict keys, kinds, digests) have their JSON text
# kept, since a report repeats a handful of them many times.
_JSON_STR_MEMO_LEN = 64


@lru_cache(maxsize=1024)
def _json_str(s: str) -> str:
    return json.dumps(s)


def render_json(obj) -> str:
    out: list[str] = []
    _render(obj, 0, out)
    return "".join(out)


def _render(obj, depth: int, out: list[str]) -> None:
    """Append the JSON text of ``obj``, indented at ``depth``, to ``out``.

    Brackets, separators and key prefixes are pieces of their own, and a long
    float vector adds the kernel's per-chunk pieces, so no level copies the
    text of the levels below it.
    """
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt(obj))
    elif isinstance(obj, str):
        out.append(_json_str(obj) if len(obj) <= _JSON_STR_MEMO_LEN else json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        npad = "  " * (depth + 1)
        sep = "{\n" + npad
        for k, v in obj.items():
            out.append(f"{sep}{_json_str(str(k))}: ")
            _render(v, depth + 1, out)
            sep = ",\n" + npad
        out.append("\n" + "  " * depth + "}")
    elif isinstance(obj, np.ndarray):
        if obj.ndim != 1 or obj.dtype != np.float64:
            raise ValidationError(f"cannot render a {obj.ndim}-D {obj.dtype} array as JSON")
        if obj.size < _FLOATFMT_MIN_LEN:
            _render(obj.tolist(), depth, out)
            return
        if not np.isfinite(obj).all():
            raise ValidationError("non-finite number in output")
        from . import _floatfmt  # on first use, so `import hrbounds.cli` stays as fast
        npad = "  " * (depth + 1)
        out.append("[\n" + npad)
        out.extend(_floatfmt.pieces(obj, ",\n" + npad))
        out.append("\n" + "  " * depth + "]")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        npad = "  " * (depth + 1)
        sep = ",\n" + npad
        if set(map(type, obj)) == {float}:  # one flat pass: "%.17g" is format(v, ".17g")
            if len(obj) >= _FLOATFMT_MIN_LEN:
                _render(np.fromiter(obj, np.float64, len(obj)), depth, out)
                return
            if not all(map(math.isfinite, obj)):
                raise ValidationError("non-finite number in output")
            out.append(f"[\n{npad}{sep.join(map('%.17g'.__mod__, obj))}")
        else:
            start = "[\n" + npad
            for v in obj:
                out.append(start)
                _render(v, depth + 1, out)
                start = sep
        out.append("\n" + "  " * depth + "]")
    else:
        raise ValidationError(f"cannot render {type(obj).__name__} as JSON")


# ---------------------------------------------------------------------------
# experiment configuration


_TOP_KEYS = {
    "scenario", "sequence", "shape", "scale", "weights", "n", "replications",
    "master_seed", "epsilon", "m", "sided", "kinds", "profile", "checkpoints",
    "series", "process", "family", "level", "event", "out_dir",
}


def _check_keys(d: dict, allowed: set, ctx: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ValidationError(f"{ctx}: unknown fields {unknown}")


_MISSING = object()
_JSON_NAMES = {type(None): "null", bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", list: "an array", tuple: "an array", dict: "an object"}


def _expected(path: str, want: str, value) -> ValidationError:
    got = _JSON_NAMES.get(type(value), type(value).__name__)
    return ValidationError(f"{path}: expected {want}, got {got}")


def _obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise _expected(path, "an object", value)
    return value


def _str(value, path: str) -> str:
    if not isinstance(value, str):
        raise _expected(path, "a string", value)
    return value


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _expected(path, "an integer", value)
    return value


def _float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _expected(path, "a number", value)
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValidationError(f"{path}: expected a finite number, got {x!r}")
    return x


def _list_of(check):
    def checked(value, path: str) -> list:
        if not isinstance(value, (list, tuple)):
            raise _expected(path, "an array", value)
        return [check(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return checked


def _optional(check):
    return lambda value, path: None if value is None else check(value, path)


def _field(d: dict, key: str, check, ctx: str = "config", default=_MISSING):
    """``d[key]`` passed through ``check``, whose errors name the field's path.

    An absent key gives ``default`` as it is, or an error when there is none.
    """
    if key not in d:
        if default is _MISSING:
            raise ValidationError(f"{ctx}: missing required field {key!r}")
        return default
    return check(d[key], key if ctx == "config" else f"{ctx}.{key}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One archivable experiment: every knob, strictly validated."""

    scenario: str
    sequence: RandomSequenceSpec
    shape: ShapeFunction
    scale: ScaleFunction
    weights: WeightSequence
    n: int
    replications: int = 10_000
    master_seed: int = 0
    epsilon: float | None = None
    m: int = 1
    sided: str = "abs"
    kinds: tuple[str, ...] = ("theorem1",)
    profile: str = "auto"
    checkpoints: tuple[int, ...] | None = None
    series: dict | None = None
    process: str = "S"
    family: tuple[str, ...] = DEFAULT_DEMI_FAMILY
    level: float = 0.99
    event: str = "A_n"
    out_dir: str | None = None

    def __post_init__(self):
        if self.n != self.sequence.n:
            raise ValidationError(
                f"horizon n={self.n} disagrees with sequence n={self.sequence.n}")
        if self.n > _MAX_SIZE:
            raise ValidationError(f"n must be <= {_MAX_SIZE}")
        if not 1 <= self.replications <= _MAX_SIZE:
            raise ValidationError(f"replications must be in [1, {_MAX_SIZE}]")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValidationError("epsilon must be > 0")
        if self.m < 1:
            raise ValidationError("m must be >= 1")
        if self.sided not in ("abs", "upper"):
            raise ValidationError(f"unknown sidedness {self.sided!r}")
        bad = [k for k in self.kinds if k not in SHORT_KINDS]
        if bad or not self.kinds:
            raise ValidationError(f"kinds must be a nonempty subset of {SHORT_KINDS}")
        if self.profile not in ("auto", "analytic", "estimated"):
            raise ValidationError(f"unknown profile mode {self.profile!r}")
        if self.process not in DEMI_PROCESSES:
            raise ValidationError(f"unknown process {self.process!r}")
        bad = [g for g in self.family if g not in DEFAULT_DEMI_FAMILY]
        if bad or not self.family:
            raise ValidationError(f"family must be a nonempty subset of {DEFAULT_DEMI_FAMILY}")
        if not 0.0 < self.level < 1.0:
            raise ValidationError("level must be in (0, 1)")
        if self.event not in ("A_n", "max"):
            raise ValidationError(f"unknown event {self.event!r}")
        if self.series is not None:
            _check_keys(self.series, {"alpha", "r", "c"}, "series")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build a config from its JSON form, checking the type of every field."""
        _check_keys(_obj(d, "config"), _TOP_KEYS, "config")

        seq = _field(d, "sequence", _obj)
        _check_keys(seq, {"family", "n", "params", "dependence"}, "sequence")
        params = _field(seq, "params", _obj, "sequence", {})
        sequence = RandomSequenceSpec(
            _field(seq, "family", _str, "sequence"),
            _field(seq, "n", _int, "sequence"),
            tuple(sorted((str(k), _float(v, f"sequence.params.{k}"))
                         for k, v in params.items())),
            _field(seq, "dependence", _str, "sequence", "iid"))

        sh = _field(d, "shape", _obj)
        _check_keys(sh, {"kind", "exponent"}, "shape")
        shape = ShapeFunction(_field(sh, "kind", _str, "shape"),
                              _field(sh, "exponent", _float, "shape"))

        sc = _field(d, "scale", _obj)
        _check_keys(sc, {"kind", "epsilon", "rho"}, "scale")
        scale = ScaleFunction(_field(sc, "kind", _str, "scale"),
                              _field(sc, "epsilon", _float, "scale"),
                              _field(sc, "rho", _float, "scale", 1.0))

        n = _field(d, "n", _int, default=sequence.n)
        wd = _field(d, "weights", _obj)
        _check_keys(wd, {"kind", "beta", "values"}, "weights")
        wkind = _field(wd, "kind", _str, "weights")
        if wkind == "custom":
            weights = WeightSequence.custom(_field(wd, "values", _list_of(_float), "weights"))
        elif wkind == "power":
            weights = WeightSequence.power(_field(wd, "beta", _float, "weights", 1.0), n)
        elif wkind == "log":
            weights = WeightSequence.log(n)
        else:
            raise ValidationError(f"weights: unknown kind {wkind!r}")

        series = _field(d, "series", _optional(_obj), default=None)
        if series is not None:
            _check_keys(series, {"alpha", "r", "c"}, "series")
            alpha = series.get("alpha", 1.0)
            alpha = (_list_of(_float) if isinstance(alpha, list) else _float)(
                alpha, "series.alpha")
            series = {"alpha": alpha, "r": _field(series, "r", _float, "series"),
                      "c": _field(series, "c", _float, "series", 1.0)}

        checkpoints = _field(d, "checkpoints", _optional(_list_of(_int)), default=None)
        return cls(
            scenario=_field(d, "scenario", _str),
            sequence=sequence, shape=shape, scale=scale, weights=weights, n=n,
            replications=_field(d, "replications", _int, default=10_000),
            master_seed=_field(d, "master_seed", _int, default=0),
            epsilon=_field(d, "epsilon", _optional(_float), default=None),
            m=_field(d, "m", _int, default=1),
            sided=_field(d, "sided", _str, default="abs"),
            kinds=tuple(_field(d, "kinds", _list_of(_str), default=["theorem1"])),
            profile=_field(d, "profile", _str, default="auto"),
            checkpoints=None if checkpoints is None else tuple(checkpoints),
            series=series,
            process=_field(d, "process", _str, default="S"),
            family=tuple(_field(d, "family", _list_of(_str), default=DEFAULT_DEMI_FAMILY)),
            level=_field(d, "level", _float, default=0.99),
            event=_field(d, "event", _str, default="A_n"),
            out_dir=_field(d, "out_dir", _optional(_str), default=None),
        )

    def to_dict(self) -> dict:
        w = self.weights.descriptor()
        w.pop("n", None)  # the horizon is the config-level n
        return {
            "scenario": self.scenario,
            "sequence": self.sequence.descriptor(),
            "shape": self.shape.descriptor(),
            "scale": self.scale.descriptor(),
            "weights": w,
            "n": self.n,
            "replications": self.replications,
            "master_seed": self.master_seed,
            "epsilon": self.epsilon,
            "m": self.m,
            "sided": self.sided,
            "kinds": list(self.kinds),
            "profile": self.profile,
            "checkpoints": None if self.checkpoints is None else list(self.checkpoints),
            "series": self.series,
            "process": self.process,
            "family": list(self.family),
            "level": self.level,
            "event": self.event,
            "out_dir": self.out_dir,
        }


PRESETS: dict[str, dict] = {
    # the 2-step sign-sequence worked example: analytic bound 0.7, exact p = 1
    "rademacher-n2-eps10": {
        "scenario": "rademacher-n2-eps10",
        "sequence": {"family": "rademacher", "n": 2},
        "shape": {"kind": "abs_power", "exponent": 1.0},
        "scale": {"kind": "linear", "epsilon": 10.0},
        "weights": {"kind": "power", "beta": 1.0},
        "replications": 10_000,
        "master_seed": 7,
        "kinds": ["theorem1"],
    },
    # enumerable ground truth with an informative lower bound
    "rademacher-oracle": {
        "scenario": "rademacher-oracle",
        "sequence": {"family": "rademacher", "n": 8},
        "shape": {"kind": "abs_power", "exponent": 1.0},
        "scale": {"kind": "linear", "epsilon": 8.0},
        "weights": {"kind": "power", "beta": 1.0},
        "replications": 10_000,
        "master_seed": 11,
        "kinds": ["theorem1", "rao"],
    },
    # quadratic shape with chi(b) = (eps*b)^2: the second-moment regime,
    # computed alongside the variance/cross-term upper bound
    "amini-recovery": {
        "scenario": "amini-recovery",
        "sequence": {"family": "gaussian", "n": 32, "params": {"mu": 0.0, "sigma": 1.0}},
        "shape": {"kind": "abs_power", "exponent": 2.0},
        "scale": {"kind": "power", "epsilon": 100.0, "rho": 2.0},
        "weights": {"kind": "power", "beta": 1.5},
        "epsilon": 10.0,
        "replications": 10_000,
        "master_seed": 5,
        "kinds": ["theorem1", "amini"],
    },
    # infinite variance, finite mean: exponent-1 bounds apply where the
    # second-moment machinery does not; paired with the slln command
    "stable-first-moment": {
        "scenario": "stable-first-moment",
        "sequence": {"family": "alpha_stable", "n": 100_000,
                     "params": {"alpha": 1.5, "beta": 0.0, "scale": 1.0}},
        "shape": {"kind": "abs_power", "exponent": 1.0},
        "scale": {"kind": "linear", "epsilon": 1.0},
        "weights": {"kind": "power", "beta": 1.5},
        "replications": 200,
        "master_seed": 3,
        "checkpoints": [1_000, 10_000, 100_000],
        "series": {"alpha": 1.0, "r": 1.0, "c": 1.0},
        "kinds": ["theorem1"],
    },
    # centered gaussian sums: every margin should be statistically zero
    "demi-martingale": {
        "scenario": "demi-martingale",
        "sequence": {"family": "gaussian", "n": 8, "params": {"mu": 0.0, "sigma": 1.0}},
        "shape": {"kind": "abs_power", "exponent": 1.0},
        "scale": {"kind": "linear", "epsilon": 1.0},
        "weights": {"kind": "power", "beta": 1.0},
        "replications": 10_000,
        "master_seed": 13,
        "process": "S",
    },
    # drifted sums: the constant test function alone sees the -0.5 drift
    "demi-drift": {
        "scenario": "demi-drift",
        "sequence": {"family": "gaussian", "n": 8, "params": {"mu": -0.5, "sigma": 1.0}},
        "shape": {"kind": "abs_power", "exponent": 1.0},
        "scale": {"kind": "linear", "epsilon": 1.0},
        "weights": {"kind": "power", "beta": 1.0},
        "replications": 10_000,
        "master_seed": 17,
        "process": "S",
    },
}


def load_config(args) -> ExperimentConfig:
    if args.config and args.scenario:
        raise ValidationError("give either --config or --scenario, not both")
    if args.scenario:
        cfg = ExperimentConfig.from_dict(PRESETS[args.scenario])
    elif args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
        cfg = ExperimentConfig.from_dict(raw)
    else:
        raise ValidationError("one of --config or --scenario is required")
    if args.seed is not None:
        cfg = replace(cfg, master_seed=int(args.seed))
    if args.reps is not None:
        cfg = replace(cfg, replications=int(args.reps))
    if getattr(args, "kind", None):
        cfg = replace(cfg, kinds=tuple(args.kind))
    return cfg


def resolve_out_dir(args, cfg: ExperimentConfig) -> Path:
    # HRBOUNDS_OUT wins over the flag, which wins over the config.
    target = os.environ.get("HRBOUNDS_OUT") or args.out or cfg.out_dir or "hrbounds-out"
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _envelope(cfg: ExperimentConfig, payload: dict) -> dict:
    return {
        "scenario": cfg.scenario,
        "master_seed": cfg.master_seed,
        "config_digest": digest_of(cfg.to_dict()),
        "hrbounds_version": __version__,
        **payload,
    }


def _write_json(path: Path, payload: dict) -> None:
    """Write ``render_json(payload)`` and a newline to ``path``, piece by piece.

    The whole payload is rendered before the file is opened, so a value that
    cannot be rendered (a NaN, say) leaves no file behind.
    """
    pieces: list[str] = []
    _render(payload, 0, pieces)
    pieces.append("\n")
    with path.open("w") as fh:
        fh.writelines(pieces)


# ---------------------------------------------------------------------------
# bound/estimate assembly shared by `bound` and `verify`


class _Draws:
    """The trajectory batch and moment profile that all kinds of one command share.

    ``batch`` is the only place a command builds a `TrajectoryBatch`.  Each
    is made on first use and then kept, so a command draws its
    ``replications`` rows, in blocks of ``block_rows(n)`` rows per
    ``SeedSpec(master_seed, b)`` stream, at most once, and
    kinds that need neither (analytic-profile `bound`, `classic`, `amini`)
    draw nothing.
    """

    def __init__(self, cfg: ExperimentConfig, threads: int):
        self.cfg = cfg
        self.threads = threads

    @cached_property
    def batch(self) -> TrajectoryBatch:
        cfg = self.cfg
        return TrajectoryBatch.generate(cfg.sequence, cfg.replications, cfg.master_seed,
                                        threads=self.threads)

    @cached_property
    def profile(self) -> MomentProfile:
        return _moment_profile(self.cfg, self)


def _moment_profile(cfg: ExperimentConfig, draws: _Draws) -> MomentProfile:
    if cfg.profile in ("auto", "analytic"):
        try:
            return analytic_moment_profile(cfg.sequence, cfg.shape)
        except AnalyticProfileUnavailable:
            if cfg.profile == "analytic":
                raise
    return estimate_moment_profile(draws.batch, cfg.shape)


def _need_epsilon(cfg: ExperimentConfig, kind: str) -> float:
    if cfg.epsilon is None:
        raise ValidationError(f"bound kind {kind!r} needs an epsilon in the config")
    return cfg.epsilon


def _compute_bound(kind: str, cfg: ExperimentConfig, draws: _Draws):
    spec = cfg.sequence
    if kind in ("theorem1", "rao"):
        bound = bound_theorem1 if kind == "theorem1" else bound_rao
        return bound(cfg.shape, cfg.scale, cfg.weights, draws.profile)
    sigma, ex2 = _increment_sigma_ex2(spec)  # both None when E[X^2] is infinite
    if sigma is None:
        raise NonIntegrabilityError(
            f"the {kind} bound needs finite E[X^2], which does not exist for {spec.family}")
    if kind == "classic":
        return bound_hajek_renyi_classic(
            np.full(cfg.n, ex2), cfg.weights, cfg.m, cfg.n,
            _need_epsilon(cfg, kind), source=spec.law(), sided=cfg.sided)
    if kind == "amini":
        return bound_amini(np.full(cfg.n, sigma), cfg.weights, cfg.n,
                           _need_epsilon(cfg, kind), source=spec.law())
    raise ValidationError(f"unknown bound kind {kind!r}")


def _event_args(report, cfg: ExperimentConfig) -> dict:
    """The event ``report`` constrains, as keyword arguments of `enumerate_exact`."""
    event = report.event
    if event["event"] == "A_n":
        return {"event": "A_n", "phi": cfg.shape, "chi": cfg.scale, "process": event["process"]}
    return {"event": "max", "epsilon": event["epsilon"], "m": event["m"],
            "sided": event["sided"]}


def _estimate_for(report, cfg: ExperimentConfig, draws: _Draws):
    event = _event_args(report, cfg)
    estimate = estimate_event_An if event.pop("event") == "A_n" else estimate_max_event
    return estimate(draws.batch, w=cfg.weights, level=cfg.level, **event)


def _enumerable(cfg: ExperimentConfig) -> bool:
    family = cfg.sequence.family
    return family == "point_mass" or (
        family == "rademacher" and cfg.n <= _ENUM_MAX_N)


def _corrupt(report):
    """Fault-injection hook: push the bound to an impossible value."""
    bad = 1.0 + 1e-6 if report.direction == "lower" else -1e-6
    return replace(report, value=bad, raw_value=bad)


# ---------------------------------------------------------------------------
# commands


def cmd_bound(cfg: ExperimentConfig, out: Path, args) -> int:
    draws = _Draws(cfg, args.threads)
    for kind in cfg.kinds:
        report = _compute_bound(kind, cfg, draws)
        path = out / f"bound_{kind}.json"
        _write_json(path, _envelope(cfg, {"report": report.to_dict()}))
        print(f"{kind}: value={_fmt(report.value)} raw={_fmt(report.raw_value)} "
              f"informative={str(report.informative).lower()} -> {path}")
    return 0


def cmd_verify(cfg: ExperimentConfig, out: Path, args) -> int:
    check_event_reps(cfg.replications)  # every kind is estimated: refuse before drawing
    code = 0
    draws = _Draws(cfg, args.threads)
    for kind in cfg.kinds:
        report = _compute_bound(kind, cfg, draws)
        if args.corrupt_bound:
            report = _corrupt(report)
        estimate = _estimate_for(report, cfg, draws)
        verdicts = {"monte_carlo": verify_bound(estimate, report)}
        exact_payload = None
        if _enumerable(cfg):
            exact = enumerate_exact(cfg.sequence, w=cfg.weights, n=cfg.n,
                                    **_event_args(report, cfg))
            verdicts["exact"] = verify_bound(exact, report)
            exact_payload = {"numerator": exact.numerator,
                             "denominator": exact.denominator,
                             "value": float(exact)}
        path = out / f"verify_{kind}.json"
        _write_json(path, _envelope(cfg, {
            "report": report.to_dict(),
            "estimate": estimate.to_dict(),
            "exact": exact_payload,
            "verdicts": verdicts,
        }))
        summary = " ".join(f"{k}={v}" for k, v in verdicts.items())
        print(f"{kind}: bound={_fmt(report.value)} p_hat={_fmt(estimate.p_hat)} "
              f"{summary} -> {path}")
        if "violation" in verdicts.values():
            code = 2
    return code


def cmd_check_demi(cfg: ExperimentConfig, out: Path, args) -> int:
    check_demi_size(cfg.replications, cfg.n)
    report = demi_check(_Draws(cfg, args.threads).batch, cfg.process, cfg.family, cfg.level,
                        phi=cfg.shape)
    path = out / "check_demi.json"
    _write_json(path, _envelope(cfg, {"report": report.to_dict()}))
    print(f"process={report.process} pairs={len(report.records)} "
          f"flagged={report.flagged_count} "
          f"pointwise_negative={report.pointwise_negative_count} -> {path}")
    if not report.passed:
        print(f"flagged at j in {list(report.flagged_js())}")
        return 2
    return 0


def cmd_slln(cfg: ExperimentConfig, out: Path, args) -> int:
    if cfg.series is None:
        raise ValidationError("the slln command needs a 'series' config block")
    alpha = cfg.series["alpha"]
    series_spec = SLLNSeriesSpec(
        alpha=tuple(alpha) if isinstance(alpha, list) else float(alpha),
        r=cfg.series["r"], weights=cfg.weights, c=cfg.series["c"])
    checkpoints = cfg.checkpoints
    if checkpoints is None:
        checkpoints = tuple(sorted({max(2, cfg.n // 100), max(2, cfg.n // 10), cfg.n}))
    check_checkpoints(checkpoints, cfg.n)
    series = slln_series_check(series_spec, horizon=cfg.n)
    _write_json(out / "slln_series.json",
                _envelope(cfg, {"series": series.to_dict()}))

    traj = slln_trajectory(cfg.sequence, cfg.shape, cfg.scale,
                           cfg.weights, cfg.n, cfg.replications, checkpoints,
                           cfg.master_seed, args.threads)
    csv_path = out / "slln_checkpoints.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["checkpoint", "median_phi_ratio", "q95_phi_ratio",
                         "median_abs_ratio", "q95_abs_ratio",
                         "config_digest", "master_seed"])
        digest = digest_of(cfg.to_dict())
        for row in traj.rows():
            writer.writerow([row["checkpoint"], _fmt(row["median_phi_ratio"]),
                             _fmt(row["q95_phi_ratio"]), _fmt(row["median_abs_ratio"]),
                             _fmt(row["q95_abs_ratio"]), digest, cfg.master_seed])
    print(f"series: verdict={series.verdict} partial_sum={_fmt(series.partial_sum)}")
    print(f"trajectory: final q95 |S_k|/b_k = {_fmt(traj.q95_abs_ratio[-1])} "
          f"at k={traj.checkpoints[-1]} -> {csv_path}")
    return 0


def cmd_enumerate(cfg: ExperimentConfig, out: Path, args) -> int:
    if cfg.event == "max" and cfg.process != "S":
        # the max event's bounds (classic, amini) and its estimate read S only
        raise ValidationError(f"the max event is defined on S, not on process {cfg.process!r}")
    frac = enumerate_exact(cfg.sequence, cfg.shape, cfg.scale, cfg.weights, cfg.n,
                           cfg.event, cfg.epsilon, cfg.m, cfg.sided, process=cfg.process)
    path = out / "enumerate.json"
    _write_json(path, _envelope(cfg, {
        "event": cfg.event,
        "numerator": frac.numerator,
        "denominator": frac.denominator,
        "value": float(frac),
    }))
    print(f"exact = {frac.numerator}/{frac.denominator} = {_fmt(float(frac))} -> {path}")
    return 0


_DISPATCH = {
    "bound": cmd_bound,
    "verify": cmd_verify,
    "check-demi": cmd_check_demi,
    "slln": cmd_slln,
    "enumerate": cmd_enumerate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrbounds",
        description="Maximal-inequality bounds with Monte Carlo and exact verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "bound": "compute the configured bound reports",
        "verify": "compute bounds and check them against simulation/enumeration",
        "check-demi": "empirically test the defining margin inequality",
        "slln": "series criterion plus trailing-window ratio trajectories",
        "enumerate": "exact event probability for finite-support laws",
    }
    for name in _DISPATCH:
        q = sub.add_parser(name, help=helps[name])
        q.add_argument("--config", metavar="FILE", help="experiment config JSON")
        q.add_argument("--scenario", choices=sorted(PRESETS),
                       help="built-in scenario preset instead of --config")
        q.add_argument("--seed", type=int, default=None, help="override master_seed")
        q.add_argument("--reps", type=int, default=None, help="override replications")
        q.add_argument("--threads", type=int, default=1, help="worker threads")
        q.add_argument("--out", default=None, help="output directory")
        if name in ("bound", "verify"):
            q.add_argument("--kind", action="append", choices=SHORT_KINDS,
                           help="bound kind(s) to run; repeatable (default: config kinds)")
        if name == "verify":
            q.add_argument("--corrupt-bound", action="store_true",
                           help=argparse.SUPPRESS)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process (building costs about 1 ms).

    Reuse is safe because ``parse_args`` fills a fresh namespace on every call.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args)
        out = resolve_out_dir(args, cfg)
        return _DISPATCH[args.command](cfg, out, args)
    except (HRBoundsError, IndexError, ArithmeticError, MemoryError) as exc:
        print(render_json({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    finally:
        release_weights()


if __name__ == "__main__":
    raise SystemExit(main())
