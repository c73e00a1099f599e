"""Seeded inputs of the three workloads.

Every generator takes the workload seed and returns plain Python values;
nothing here imports ottobounds, so the program under test only ever sees
the generated inputs.  ``random.Random`` with an integer seed gives the
same stream on every platform and Python 3 version.
"""

import math
import random

KINDS = (
    "heats_work", "efficiency_sudden", "effective_temperature",
    "engine_report", "efficiency_ht", "work_ht", "z2_of_eta",
    "fridge_report", "cop_ht",
)
TYPED_KINDS = ("efficiency_sudden", "fridge_report", "cop_ht", "z2_of_eta")

N_QUERIES = 4096
TYPED_SHARE = 0.15   # built to land on a typed answer (ModeError, infeasible, ...)
EDGE_SHARE = 0.15    # saturation edges: r in [300, 800] or beta*omega in [700, 1000]

CLI_COMMANDS = ("eval", "fridge", "fig2", "fig3", "verify-identities", "verify-windows")
FIG2_CURVES, FIG2_COUNT, FIG3_COUNT = 4, 2001, 4001


def _sech(x):
    e = math.exp(-abs(x))
    return 2.0 * e / (1.0 + e * e)


def _eta_up(eta_c, r):
    g = (1.0 - eta_c) * _sech(2.0 * r)
    return (1.0 - g) * (2.0 + g - 2.0 * math.sqrt(2.0 * g)) / (2.0 - g) ** 2


def _cycle_args(rng, r=None, bw_hot=None):
    """(w1, w2, b_cold, b_hot, r, placement, mode, lam) of one cycle."""
    w1 = rng.uniform(0.5, 2.0)
    w2 = w1 * rng.uniform(1.1, 4.0)
    b_hot = rng.uniform(0.05, 2.0) if bw_hot is None else bw_hot / w2
    b_cold = b_hot * rng.uniform(1.1, 5.0)
    if r is None:
        r = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 2.0)
    placement = rng.choice(("hot", "cold"))
    mode = rng.choice(("sudden", "adiabatic", "custom"))
    lam = rng.uniform(1.0, 3.0) if mode == "custom" else None
    return (w1, w2, b_cold, b_hot, r, placement, mode, lam)


def _interior(kind, rng):
    u = rng.uniform
    if kind in ("heats_work", "efficiency_sudden"):
        return _cycle_args(rng)
    if kind == "effective_temperature":
        return (u(0.05, 5.0), u(0.1, 5.0), u(0.0, 3.0))
    if kind == "engine_report":
        return (u(0.02, 0.98), u(0.0, 5.0))
    if kind in ("efficiency_ht", "work_ht"):
        return (u(0.02, 0.98), u(0.02, 0.98), u(0.0, 5.0))
    if kind == "z2_of_eta":
        eta_c, r = u(0.02, 0.98), u(0.0, 5.0)
        return (u(0.0, 0.999) * _eta_up(eta_c, r), eta_c, r)
    r = u(0.0, 1.5)
    tau = u(0.51, 0.99) * _sech(2.0 * r)        # inside the cooling window
    if kind == "fridge_report":
        return (tau, r)
    tau_c = tau / _sech(2.0 * r)
    return (math.sqrt(u(0.02, 0.98) * (2.0 * tau_c - 1.0)), tau, r)   # cop_ht: cools


def _typed(kind, rng):
    u = rng.uniform
    if kind == "efficiency_sudden":
        # Thermal, quasi-static cycle with b_hot*w2 > b_cold*w1: never an engine.
        w1 = u(0.5, 2.0)
        b_hot = u(0.05, 2.0)
        b_cold = b_hot * u(1.1, 3.0)
        w2 = w1 * (b_cold / b_hot) * u(1.05, 2.0)
        return (w1, w2, b_cold, b_hot, 0.0, "hot", "adiabatic", None)
    r = u(0.0, 1.5)
    u2 = _sech(2.0 * r)
    if kind == "fridge_report":
        # tau*cosh(2r) below 0.45 or above 1.05 (capped below 1): no cooling.
        lo = rng.random() < 0.5 or 1.05 * u2 >= 0.99
        return (u(0.02, 0.45) * u2 if lo else u(1.05 * u2, 0.99), r)
    if kind == "cop_ht":
        return (u(0.02, 0.98), u(0.02, 0.45) * u2, r)    # q4 < 0: ModeError
    return (u(0.5, 0.95), u(0.02, 0.98), r)              # z2_of_eta above eta_up


def _edge(kind, rng, i):
    u = rng.uniform
    big_r = u(300.0, 800.0)
    if kind in ("heats_work", "efficiency_sudden"):
        if i % 2:
            return _cycle_args(rng, r=big_r)
        return _cycle_args(rng, bw_hot=u(700.0, 1000.0))
    if kind == "effective_temperature":
        if i % 2:
            return (u(0.05, 5.0), u(0.1, 5.0), big_r)
        omega = u(0.1, 5.0)
        return (u(700.0, 1000.0) / omega, omega, u(0.0, 3.0))
    if kind == "engine_report":
        return (u(0.02, 0.98), big_r)
    if kind in ("efficiency_ht", "work_ht"):
        return (u(0.02, 0.98), u(0.02, 0.98), big_r)
    if kind == "z2_of_eta":
        return (u(0.0, 0.499), u(0.02, 0.98), big_r)
    if kind == "fridge_report":
        return (u(0.02, 0.98), big_r)
    return (u(0.02, 0.98), u(0.02, 0.98), big_r)


def point_queries(seed, n=N_QUERIES):
    """Shuffled list of (kind, category, args) single-point queries.

    Category counts are exact: ``typed`` and ``edge`` each get their share
    of n, ``interior`` the rest; kinds rotate within each category.
    """
    rng = random.Random(seed)
    n_typed = round(n * TYPED_SHARE)
    n_edge = round(n * EDGE_SHARE)
    out = []
    for i in range(n - n_typed - n_edge):
        kind = KINDS[i % len(KINDS)]
        out.append((kind, "interior", _interior(kind, rng)))
    for i in range(n_typed):
        kind = TYPED_KINDS[i % len(TYPED_KINDS)]
        out.append((kind, "typed", _typed(kind, rng)))
    for i in range(n_edge):
        kind = KINDS[i % len(KINDS)]
        out.append((kind, "edge", _edge(kind, rng, i // len(KINDS))))
    rng.shuffle(out)
    return out


def suite_seeds(seed):
    """Endless per-repeat seeds for verify_suites, derived from the workload seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**32)


def cli_rotation(seed):
    """The six seeded CLI commands of one cli_runs rotation: (label, argv)."""
    rng = random.Random(seed)
    u = rng.uniform
    w1, w2, b_cold, b_hot, r, placement, mode, lam = _cycle_args(rng)
    ev = ["eval", "--w1", repr(w1), "--w2", repr(w2), "--b1", repr(b_cold),
          "--b2", repr(b_hot), "--r", repr(r), "--placement", placement, "--mode", mode]
    if lam is not None:
        ev += ["--lam", repr(lam)]
    fr = ["fridge", "--tau", repr(u(0.05, 0.95)), "--r", repr(u(0.0, 1.5))]
    f2 = ["fig2"]
    for _ in range(FIG2_CURVES):
        f2 += ["--eta-c", repr(u(0.05, 0.95))]
    f2 += ["--r-start", "0", "--r-stop", repr(u(3.0, 8.0)), "--count", str(FIG2_COUNT)]
    f3 = ["fig3", "--start", repr(u(0.01, 0.1)), "--stop", repr(u(0.9, 0.99)),
          "--count", str(FIG3_COUNT)]
    argvs = (ev, fr, f2, f3, ["verify", "--suite", "identities"],
             ["verify", "--suite", "windows"])
    return list(zip(CLI_COMMANDS, argvs))
