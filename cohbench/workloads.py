"""The three benchmark workloads, built from the workload seed.

A workload is a fixed list of operations, one *round*.  Each operation
is a dict:

* ``{"kind": "cli", "argv": [...], ...}`` runs ``cohwalk.cli.main(argv)``
  with ``--output`` pointing into the round's directory;
* ``{"kind": "coherence" | "tails" | "uniforms", ...}`` call the
  documented library routes and record their return values.

Every operation also carries the parameters the reference checks need,
so the checks never read cohwalk's own interpretation of the flags.
The seed only reaches the program as generated inputs: Monte Carlo
seeds, random sign patterns and random marker qubits.  Overlaps and
sizes are fixed, so the work in a round does not depend on the seed
(``scipy.stats.binom.ppf`` costs twice as much at some p as at
others); ``sweeps`` has no random input at all.

``known_fault`` marks the two operations that fail on every run because
of a fault in cohwalk; their inputs do not depend on the seed.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("interferometer", "calibration", "sweeps")

MC_SEED_LIMIT = 2**32

# Fixed epsilon of the biased walk promise; (1 + 0.5) * N / 2 is an
# integer for every N on the ladder (all multiples of 4).
WALK_EPSILON = "0.5"
ORACLE_LADDER = (4, 8, 12)
WALK_LADDER = (64, 256, 512)
COHERENCE_N = 2048


def _cli(op_id, command, argv, **params):
    fmt = "json" if "json" in argv else "csv"
    return {"id": op_id, "kind": "cli", "command": command, "format": fmt,
            "argv": [command] + argv, "params": params}


def interferometer(rng):
    ops = []
    for n in ORACLE_LADDER + WALK_LADDER:
        oracle = n in ORACLE_LADDER
        nus = ["0", "0.5", "1"] if oracle else ["0.7"]
        for promise in ("constant", "balanced", "epsilon"):
            for nu in nus:
                argv = ["--n", str(n), "--promise", promise, "--nu", nu, "--format", "json"]
                eps = WALK_EPSILON if promise == "epsilon" else None
                if eps is not None:
                    argv += ["--epsilon", eps]
                if oracle:
                    argv.append("--exact-oracle")
                ops.append(_cli(f"walk-n{n}-{promise}-{len(ops)}", "walk", argv,
                                n=n, promise=promise, epsilon=eps, nu=nu, oracle=oracle))

    n = COHERENCE_N
    for promise in ("constant", "balanced", "epsilon"):
        if promise == "constant":
            signs = [rng.choice((1, -1))] * n
            eps = None
        else:
            n_plus = n // 2 if promise == "balanced" else rng.randrange(n // 2 + 2, n, 2)
            signs = [1] * n_plus + [-1] * (n - n_plus)
            rng.shuffle(signs)
            eps = None if promise == "balanced" else (2 * n_plus - n) / n
        alphas, betas = [], []
        for _ in range(n):
            theta = rng.uniform(0.0, math.pi / 2)
            phi = rng.uniform(0.0, 2 * math.pi)
            alphas.append([math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi)])
            betas.append(math.sin(theta))
        ops.append({"id": f"coherence-{promise}", "kind": "coherence",
                    "params": {"promise": promise, "epsilon": eps, "signs": signs,
                               "alphas": alphas, "betas": betas}})
    return ops


def calibration(rng):
    ops = []

    def mc(strategy, m, experiments, truth="prior", **flags):
        seed = rng.randrange(MC_SEED_LIMIT)
        argv = ["--strategy", strategy, "--m", str(m), "--truth", truth,
                "--experiments", str(experiments), "--seed", str(seed)]
        params = {"strategy": strategy, "m": m, "truth": truth,
                  "experiments": experiments, "seed": seed,
                  "nu": "1", "epsilon": None, "n": 1000,
                  "sampling": "iid", "likelihood": "idealized"}
        for key, value in flags.items():
            argv += ["--" + key, str(value)]
            params[key] = value
        ops.append(_cli(f"mc-{len(ops)}-{strategy}-{truth}", "mc", argv, **params))

    # iid sampling at 10^6 experiments under the default prior
    mc("classical-dj", 3, 1_000_000)
    mc("quantum-dj", 2, 1_000_000, nu="0.5")
    mc("classical-eps", 40, 1_000_000, epsilon="0.2")
    mc("quantum-eps", 50, 1_000_000, epsilon="0.2", nu="0.5")
    # every truth tag, iid
    for truth in ("constant", "balanced"):
        mc("classical-dj", 4, 100_000, truth)
        mc("quantum-dj", 2, 100_000, truth, nu="0.7")
    for truth in ("balanced", "epsilon"):
        mc("classical-eps", 40, 100_000, truth, epsilon="0.2")
        mc("quantum-eps", 50, 100_000, truth, epsilon="0.2", nu="0.7")
    # finite-N likelihoods
    mc("quantum-dj", 3, 100_000, likelihood="exact-n", n=64, nu="0.3")
    mc("quantum-eps", 40, 100_000, likelihood="exact-n", n=100, epsilon="0.2", nu="0.3")
    # without-replacement sampling: one hypergeom.ppf call per draw
    mc("classical-dj", 4, 5_000, sampling="hypergeom", n=100)
    mc("classical-eps", 20, 2_000, sampling="hypergeom", n=100, epsilon="0.2")

    # the same experiment range, whole and cut into two different partitions
    seed, start, count = rng.randrange(MC_SEED_LIMIT), rng.randrange(1 << 17), 150_000
    partitions = [sorted(rng.sample(range(start + 1, start + count), cuts)) for cuts in (2, 5)]
    ops.append({"id": "uniforms-partitions", "kind": "uniforms",
                "params": {"range": {"seed": seed, "start": start, "count": count},
                           "partitions": partitions}})

    # Correct simulation (0 errors against an expected 1.9e-5), but the
    # Wald standard error is 0, so cohwalk reports z_score=inf and exits 1.
    argv = ["--strategy", "quantum-eps", "--m", "2000", "--epsilon", "0.1",
            "--truth", "epsilon", "--experiments", "10000", "--seed", "1"]
    ops.append(dict(_cli("mc-fault-zero-std-error", "mc", argv,
                         strategy="quantum-eps", m=2000, truth="epsilon",
                         experiments=10000, seed=1, nu="1", epsilon="0.1", n=1000,
                         sampling="iid", likelihood="idealized"),
                    known_fault="Wald standard error 0 gives z_score=inf"))
    return ops


def sweeps(rng):
    ops = []
    nus = ["0", "0.1", "0.25", "0.4", "0.5", "0.6", "0.75", "0.9", "1"]
    ops.append(_cli("decide-idealized", "decide",
                    ["--m-range", "1:30", "--nu-range", ",".join(nus)],
                    ms=list(range(1, 31)), nus=nus, mode="idealized", n=None))
    few = ["0", "0.5", "1"]
    for n, ms in ((100_000, [1, 2, 3]), (1000, list(range(1, 11)))):
        ops.append(_cli(f"decide-exact-n{n}", "decide",
                        ["--m-range", ",".join(map(str, ms)), "--nu-range", ",".join(few),
                         "--mode", "exact-n", "--n", str(n)],
                        ms=ms, nus=few, mode="exact-n", n=n))
    for eps, ms in (("0.1", list(range(500, 10_001, 500))),
                    ("0.25", [10, 100, 1000, 5000, 10_000]),
                    ("0.5", list(range(1, 51)))):
        nu = "0.8"
        ops.append(_cli(f"epsilon-{eps}", "epsilon",
                        ["--epsilon", eps, "--m-range", ",".join(map(str, ms)),
                         "--nu", nu, "--exact-tails"],
                        epsilon=eps, ms=ms, nu=nu))
    for ns, m, p in (([1000, 10_000, 100_000, 1_000_000], 100, "0.5"),
                     ([100, 1000, 10_000, 100_000], 10, "0.3")):
        ops.append(_cli(f"ensemble-m{m}", "ensemble",
                        ["--n-list", ",".join(map(str, ns)), "--m", str(m), "--p", p],
                        ns=ns, m=m, p=p))
    # hypergeometric_prob loses accuracy to lgamma cancellation at large N:
    # at N = 10^8 the mass sums to 1 - 3.1e-7, so normalization_ok=false.
    ns = [10_000, 1_000_000, 100_000_000]
    ops.append(dict(_cli("ensemble-fault-large-n", "ensemble",
                         ["--n-list", ",".join(map(str, ns)), "--m", "100"],
                         ns=ns, m=100, p="0.5"),
                    known_fault="lgamma cancellation in hypergeometric_prob at N=1e8"))
    for m, eps, n in ((100, "0.2", 1000), (1000, "0.2", 10_000), (5000, "0.1", 100_000),
                      (20_000, "0.1", 100_000)):
        ops.append({"id": f"tails-m{m}-n{n}", "kind": "tails",
                    "params": {"m": m, "epsilon": eps, "n": n}})
    return ops


MAKERS = {"interferometer": interferometer, "calibration": calibration, "sweeps": sweeps}


def build(workload, seed):
    """Operations of one round of ``workload``; a pure function of the seed."""
    return MAKERS[workload](random.Random(f"{workload}:{seed}"))
