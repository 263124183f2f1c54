"""Operation mixes of the three workloads, derived from the seed.

A workload is a fixed round template: the same commands, families,
horizons, replication counts and bound kinds in every round.  The seed only
draws the continuous parameters (scales, weight exponents, epsilons, drifts)
and the master seeds, so the cost of a round barely depends on the seed
while its inputs do.  Round r of seed s draws from
``random.Random(f"{workload}:{s}:{r}")``.

The operations marked ``known_fault`` use fixed inputs that do not depend on
the seed: they exercise the classic second-moment bound, whose head range
omits the eps^-2 factor, and are counted as failed operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Replications per Monte Carlo cell.  Per-row seeding makes an operation's cost
# nearly proportional to the rows it generates, so cells use the fewest
# replications their checks allow, and a 30-second run holds about twelve rounds.
REPS = 2_000        # cells with analytic profiles: only bound-versus-probability checks
EST_REPS = {"rademacher": 4_000, "gaussian": 5_000}  # estimated profiles, see README
DEMI_REPS = 5_000   # the smallest drift, mu/sigma = 0.15, is 10.6 standard errors from zero
DEMI_LEVEL = 0.999999  # family-wise level: one false flag in 10^6 checks
SLLN_N = 100_000
SLLN_REPS = 24
SLLN_CHECKPOINTS = [1_000, 10_000, 100_000]
CLASSIC_FAULT = "classic bound omits eps^-2 on the head range"


@dataclass
class Op:
    command: str
    config: dict
    argv: list = field(default_factory=list)
    known_fault: str | None = None

    @property
    def n(self) -> int:
        return self.config["sequence"]["n"]

    @property
    def steps(self) -> int:
        """Requested trajectory steps: replicates (or enumerated paths) x n."""
        if self.command in ("verify", "check-demi", "slln"):
            return self.config["replications"] * self.n
        if self.command == "enumerate":
            return 2 ** self.n * self.n
        return 0


def _cfg(name, family, n, *, params=None, shape=(1.0, "abs_power"), scale=(1.0, 1.0),
         weights=None, **extra) -> dict:
    exponent, shape_kind = shape
    eps, rho = scale
    cfg = {
        "scenario": name,
        "sequence": {"family": family, "n": n, "params": params or {}},
        "shape": {"kind": shape_kind, "exponent": exponent},
        "scale": {"kind": "linear", "epsilon": eps} if rho == 1.0
        else {"kind": "power", "epsilon": eps, "rho": rho},
        "weights": weights or {"kind": "power", "beta": 1.0},
    }
    cfg.update(extra)
    return cfg


def _power(beta: float) -> dict:
    return {"kind": "power", "beta": beta}


def _classic_repro(command: str) -> Op:
    # eps < 1: bound 0.25 against an exact probability of 1
    cfg = _cfg("classic-eps-below-one", "rademacher", 1,
               weights={"kind": "custom", "values": [2.0]},
               epsilon=0.5, kinds=["classic"], replications=REPS, master_seed=1)
    return Op(command, cfg, known_fault=CLASSIC_FAULT)


def mc_verify(seed: int, rnd: int) -> list[Op]:
    g = random.Random(f"mc-verify:{seed}:{rnd}")
    ms = lambda: g.randrange(2 ** 32)  # noqa: E731
    ops = [
        Op("verify", _cfg("rad8-quadratic", "rademacher", 8, shape=(2.0, "abs_power"),
                          scale=(g.uniform(4.0, 60.0), 2.0),
                          weights=_power(g.uniform(0.5, 1.0)),
                          kinds=["theorem1", "rao"], replications=REPS, master_seed=ms())),
        Op("verify", _cfg("rad12-est", "rademacher", 12, scale=(g.uniform(4.0, 12.0), 1.0),
                          weights=_power(g.uniform(1.0, 1.5)), epsilon=g.uniform(0.8, 3.0),
                          kinds=["theorem1", "amini"], profile="estimated",
                          replications=EST_REPS["rademacher"], master_seed=ms())),
        Op("verify", _cfg("gauss32-est", "gaussian", 32,
                          params={"mu": 0.0, "sigma": g.uniform(0.5, 2.0)},
                          scale=(g.uniform(10.0, 40.0), 1.0), weights=_power(g.uniform(1.0, 1.5)),
                          epsilon=g.uniform(1.0, 6.0), kinds=["theorem1", "rao", "amini"],
                          profile="estimated", replications=EST_REPS["gaussian"],
                          master_seed=ms())),
        Op("verify", _cfg("cexp32", "centered_exponential", 32,
                          params={"lam": g.uniform(0.5, 2.0)},
                          scale=(g.uniform(10.0, 40.0), 1.0), weights=_power(g.uniform(1.0, 1.5)),
                          epsilon=g.uniform(1.0, 6.0), kinds=["theorem1", "rao", "amini"],
                          replications=REPS, master_seed=ms())),
        Op("verify", _cfg("stable64", "alpha_stable", 64,
                          params={"alpha": 1.5, "beta": 0.0, "scale": g.uniform(0.5, 2.0)},
                          scale=(g.uniform(5.0, 30.0), 1.0), weights=_power(g.uniform(1.0, 1.5)),
                          kinds=["theorem1"], replications=REPS, master_seed=ms())),
        Op("check-demi", _cfg("demi-centred", "gaussian", 8,
                              params={"mu": 0.0, "sigma": g.uniform(0.5, 2.0)},
                              level=DEMI_LEVEL, replications=DEMI_REPS, master_seed=ms())),
        Op("check-demi", _cfg("demi-drift", "gaussian", 8,
                              params={"mu": g.uniform(-0.6, -0.3), "sigma": g.uniform(0.5, 2.0)},
                              level=DEMI_LEVEL, replications=DEMI_REPS, master_seed=ms())),
        _classic_repro("verify"),
        # eps > 1: the head term is too large by eps^2
        Op("verify", _cfg("classic-eps-above-one", "rademacher", 8, epsilon=2.0,
                          kinds=["classic"], replications=REPS, master_seed=2),
           known_fault=CLASSIC_FAULT),
    ]
    return ops


def slln_horizon(seed: int, rnd: int) -> list[Op]:
    g = random.Random(f"slln-horizon:{seed}:{rnd}")
    ops = []
    # |S_k|/b_k shrinks like k^(1/alpha - beta); beta near 3 makes the q95 fall by
    # two decades per checkpoint decade, far beyond the scatter of 24 heavy-tailed rows.
    for family, params, beta, r in (
            ("alpha_stable", {"alpha": 1.2, "beta": 0.0, "scale": g.uniform(0.5, 2.0)},
             g.uniform(2.9, 3.1), 1.1),
            ("alpha_stable", {"alpha": 1.5, "beta": 0.0, "scale": g.uniform(0.5, 2.0)},
             g.uniform(2.9, 3.1), 1.4),
            ("gaussian", {"mu": 0.0, "sigma": g.uniform(0.5, 2.0)}, g.uniform(1.4, 1.6), 2.0)):
        cfg = _cfg(f"slln-{family}", family, SLLN_N, params=params,
                   weights=_power(beta), replications=SLLN_REPS,
                   master_seed=g.randrange(2 ** 32), checkpoints=SLLN_CHECKPOINTS,
                   series={"alpha": 1.0, "r": r, "c": 1.0})
        # one thread: the host's second vCPU is shared, and at --threads 2 ten runs
        # spread by 0.12 to 0.22 of their median (see README)
        ops.append(Op("slln", cfg, ["--threads", "1"]))
    return ops


def exact_analytic(seed: int, rnd: int) -> list[Op]:
    g = random.Random(f"exact-analytic:{seed}:{rnd}")
    ops = []
    for n in (16, 18, 20):
        ops.append(Op("enumerate", _cfg(f"an{n}", "rademacher", n,
                                        scale=(g.uniform(1.5, 3.0), 1.0),
                                        weights=_power(g.uniform(0.5, 0.7)), event="A_n")))
        for sided in ("abs", "upper"):
            ops.append(Op("enumerate", _cfg(f"max{n}-{sided}", "rademacher", n,
                                            weights=_power(g.uniform(0.8, 1.0)),
                                            epsilon=g.uniform(0.3, 0.8), m=g.randint(1, 4),
                                            sided=sided, event="max")))
    for n in (1_000, 10_000, 100_000):
        ops.append(Op("bound", _cfg(f"bound{n}", "gaussian", n,
                                    params={"mu": 0.0, "sigma": g.uniform(0.5, 2.0)},
                                    scale=(g.uniform(5.0, 50.0), 1.0),
                                    weights=_power(g.uniform(1.0, 1.5)),
                                    epsilon=g.uniform(1.0, 5.0),
                                    kinds=["theorem1", "rao", "amini"])))
    ops.append(_classic_repro("bound"))
    ops.append(Op("bound", _cfg("classic-eps-above-one", "gaussian", 10_000, epsilon=2.0,
                                m=10, kinds=["classic"]), known_fault=CLASSIC_FAULT))
    return ops


WORKLOADS = {
    "mc-verify": mc_verify,
    "slln-horizon": slln_horizon,
    "exact-analytic": exact_analytic,
}


def warmup_ops(workload: str) -> list[Op]:
    """One tiny operation of each command the workload uses, run during set-up."""
    small = {"replications": 1000, "master_seed": 0}
    return {
        "mc-verify": [
            Op("verify", _cfg("warm", "rademacher", 4, epsilon=1.0,
                              kinds=["theorem1", "rao", "amini"], profile="estimated", **small)),
            Op("check-demi", _cfg("warm", "gaussian", 4, level=DEMI_LEVEL, **small)),
        ],
        "slln-horizon": [
            Op("slln", _cfg("warm", "alpha_stable", 20_000,
                            params={"alpha": 1.5, "beta": 0.0, "scale": 1.0},
                            weights=_power(2.0), replications=2, master_seed=0,
                            checkpoints=[100, 20_000], series={"alpha": 1.0, "r": 1.0}),
               ["--threads", "1"]),
        ],
        "exact-analytic": [
            Op("enumerate", _cfg("warm", "rademacher", 4, epsilon=1.0, event="max")),
            Op("bound", _cfg("warm", "gaussian", 10, epsilon=1.0,
                             kinds=["theorem1", "rao", "amini"])),
        ],
    }[workload]
