"""Built-in self-check suites: every closed-form bound against brute force.

Each suite pits a closed form from `engine` or `fridge` against an
independent numerical route (grid supremum, golden-section optimum,
bisection-located sign change) and reports the worst deviation it saw.
The exact-efficiency objective used by the ceiling suite is written here
from scratch, in vectorised numpy, rather than reusing the scalar cycle
code: the two routes share nothing but the inputs.  Only the ceiling and
optimality suites need numpy, and they import it when they run.
"""

import math
from dataclasses import dataclass

from . import engine, fridge
from .errors import DomainError, nonnegative_int, positive
from .oracle import (
    ScalarObjective,
    axis_points,
    find_root_scalar,
    maximize_scalar,
    refine_parabolic,
    sup_constrained_grid,
)
from .special import sech

__all__ = [
    "CheckResult",
    "SUITES",
    "ceiling_check",
    "exact_efficiency",
    "identities_check",
    "optimality_check",
    "run_suite",
    "windows_check",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 20250810


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check: worst observed violation and the work done."""

    name: str
    passed: bool
    worst: float
    evaluations: int
    detail: str


def exact_efficiency(a, b, z, r, out=None):
    """Exact sudden-quench efficiency in scale-free variables (vectorised).

    a = beta_cold*omega1, b = beta_hot*omega2, z = omega1/omega2.  Uses the
    reciprocal-bracket form 1 / [2/(1-z^2) + 1/(x-1)] with
    x = z * dh * coth(b/2) * tanh(a/2), independent of the corner-energy
    route in `cycle`.  The inputs broadcast; the result is -inf off the engine
    region, i.e. unless x > 1 (positive work) and a > b z (beta_cold > beta_hot).

    The result is computed in place in one float array of the broadcast
    shape: ``out`` if given (it must not overlap the inputs), else a new one.
    Factors that depend on fewer axes are computed at their own shape, and
    every operation keeps the operands and the order of the textbook
    formula, so ``out`` changes no bit.
    """
    import numpy as np
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    z = np.asarray(z, dtype=float)
    r = np.asarray(r, dtype=float)
    shape = np.broadcast_shapes(a.shape, b.shape, z.shape, r.shape)
    if out is None:
        out = np.empty(shape)
    elif not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == float):
        raise DomainError(f"out must be a float array of shape {shape}, got {out!r}")
    dh = 1.0 + (2.0 + np.expm1(b)) * np.sinh(r) ** 2
    x = np.multiply(z, dh, out=out)
    x *= np.tanh(0.5 * a)
    x /= np.tanh(0.5 * b)
    # Off the engine region: not (x > 1 and a > b z).  np.asarray keeps the
    # mask an array, which it updates in place, when the inputs are 0-d.
    outside = np.asarray(x > 1.0)
    outside &= a > b * z
    np.logical_not(outside, out=outside)
    x -= 1.0
    with np.errstate(divide="ignore"):   # 1/0 happens only off the engine region
        np.divide(1.0, x, out=x)
        x += 2.0 / (1.0 - z * z)
        np.divide(1.0, x, out=x)
    np.copyto(x, -np.inf, where=outside)
    return x


DRAW_CHUNK = 1 << 13   # seeded draws generated and judged per step


def ceiling_check(samples=1_000_000, r_max=10.0, bw_max=10.0, seed=DEFAULT_SEED):
    """Search feasible engine configurations for the efficiency supremum.

    Deterministic grid over (a, b, z, r) plus a seeded uniform batch of
    ``samples`` extra draws (0: grid only), DRAW_CHUNK at a time.  Both legs
    compute into buffers allocated once per call (one per grid block shape,
    one per draw stage), so memory stays flat whatever ``samples`` is.
    Passes when every efficiency seen is below 1/2 and the supremum still
    clears 0.45 (the bound is tight).
    """
    import numpy as np
    samples = nonnegative_int("samples", samples)
    seed = nonnegative_int("seed", seed)
    r_max = positive("r_max", r_max)
    bw_max = positive("bw_max", bw_max)
    blocks = {}   # block shape -> scratch; the oracle keeps no result across blocks

    def objective(a, b, z, r):
        shape = np.broadcast_shapes(a.shape, b.shape, z.shape, r.shape)
        if shape not in blocks:
            blocks[shape] = np.empty(shape)
        return exact_efficiency(a, b, z, r, out=blocks[shape])

    report = sup_constrained_grid(
        objective,
        bounds=[(1e-4, bw_max), (1e-4, bw_max), (1e-4, 0.9999), (0.0, r_max)],
        resolution=48,
        refine=True,
    )
    best = -math.inf if report.best_value is None else report.best_value
    evaluations = report.evaluations

    rng = np.random.default_rng(seed)
    low = [1e-4, 1e-4, 1e-4, 0.0]
    span = (np.array([bw_max, bw_max, 0.9999, r_max]) - low).tolist()
    n = min(DRAW_CHUNK, samples)
    u = np.empty((n, 4))
    draws = np.empty((4, n))
    eta = np.empty(n)
    for start in range(0, samples, DRAW_CHUNK):
        m = min(n, samples - start)
        # The numbers of rng.uniform(low, high, size), low + (high - low) * U,
        # one column at a time.
        rng.random(out=u[:m])
        for j in range(4):
            np.multiply(u[:m, j], span[j], out=draws[j, :m])
            draws[j, :m] += low[j]
        e = exact_efficiency(*draws[:, :m], out=eta[:m])
        evaluations += int(np.count_nonzero(e > -np.inf))
        best = max(best, float(e.max()))

    best = float(best)
    passed = 0.45 <= best < 0.5
    return CheckResult(
        name="efficiency-ceiling",
        passed=passed,
        worst=best,
        evaluations=int(evaluations),
        detail=(
            f"sup eta = {best:.12g} over {evaluations} feasible engine points "
            f"(grid {report.method}, plus {samples} seeded draws, seed={seed}); "
            f"require 0.45 <= sup < 0.5"
        ),
    )


def work_argmax(tau, r):
    """Locate the work-maximising ratio numerically: golden section plus one
    parabolic polish step.  Returns (z_best, evaluations).

    Arrays tau, r search one lockstep lane per pair, each as if alone.  The
    work objective is unimodal in z on (0, 1): it decomposes into a
    constant minus the square of a quantity strictly monotone in z.
    """
    import numpy as np
    if not (np.all((tau > 0.0) & (tau < 1.0)) and np.all(np.isfinite(r) & (r >= 0.0))):
        raise DomainError(f"need 0 < tau < 1 and finite r >= 0, got tau={tau}, r={r}")
    u = np.vectorize(sech, otypes=[float])(2.0 * np.asarray(r, dtype=float))
    sg = np.sqrt(tau * u)
    obj = ScalarObjective(lambda zz: engine._grouped_work(zz, sg, u), 5e-3, 0.9999, tol=1e-12)
    rep = maximize_scalar(obj)
    polished = refine_parabolic(obj.fn, rep.best_input, h=1e-5)
    return polished, rep.evaluations + 3 * np.size(polished)


def optimality_check(n_eta=20, n_r=20, tol_z=1e-8, tol_eta=1e-10):
    """Numerical work optimum against the closed forms on an (eta_c, r) grid,
    searched in lockstep with one lane per grid point."""
    import numpy as np
    n_eta, n_r = nonnegative_int("n_eta", n_eta), nonnegative_int("n_r", n_r)
    if n_eta == 0 or n_r == 0:   # an empty grid would pass without checking anything
        raise DomainError(f"the grid needs n_eta, n_r >= 1, got {n_eta}x{n_r}")
    tol_z = positive("tol_z", tol_z)
    tol_eta = positive("tol_eta", tol_eta)
    eta_c, r = (g.ravel() for g in np.meshgrid(
        np.linspace(0.05, 0.95, n_eta), np.linspace(0.0, 5.0, n_r), indexing="ij"))
    tau = 1.0 - eta_c
    z_num, evaluations = work_argmax(tau, r)
    worst_z = worst_eta = 0.0
    for e, t, rr, z in zip(eta_c.tolist(), tau.tolist(), r.tolist(), z_num.tolist()):
        worst_z = max(worst_z, abs(z - engine.z_star(t, rr)))
        eff = engine.efficiency_ht(z, t, rr)
        worst_eta = max(worst_eta, abs(eff - engine.eta_mw(e, rr)))
    passed = bool(worst_z < tol_z and worst_eta < tol_eta)
    return CheckResult(
        name="work-optimum",
        passed=passed,
        worst=float(max(worst_z, worst_eta)),
        evaluations=int(evaluations),
        detail=(
            f"max |z*_num - closed form| = {worst_z:.3g} (tol {tol_z:g}), "
            f"max |eta(z*) - eta_mw| = {worst_eta:.3g} (tol {tol_eta:g}) "
            f"on a {n_eta}x{n_r} grid"
        ),
    )


def identities_check(tol=1e-12):
    """Reduction identities: squeezed bounds equal thermal bounds at the
    generalized Carnot point, and the fridge bound collapses the same way."""
    tol = positive("tol", tol)
    worst = 0.0
    evaluations = 0
    for eta_c in axis_points(0.05, 0.95, 19):
        for r in axis_points(0.0, 5.0, 11):
            gen = engine.generalized_carnot(eta_c, r)
            a = engine.eta_up(eta_c, r)
            b = engine.eta_up_thermal(gen)
            worst = max(worst, abs(a - b) / abs(a))
            a = engine.eta_mw(eta_c, r)
            b = engine.eta_rk(gen)
            worst = max(worst, abs(a - b) / abs(a))
            evaluations += 2
    for r in axis_points(0.0, 3.0, 13):
        for frac in axis_points(0.55, 0.98, 10):
            tau = frac * (1.0 / math.cosh(2.0 * r))
            a = fridge.zeta_up(tau, r)
            b = fridge.zeta_up_thermal(frac / (1.0 - frac))
            worst = max(worst, abs(a - b) / abs(a))
            evaluations += 1
    return CheckResult(
        name="reduction-identities",
        passed=bool(worst < tol),
        worst=float(worst),
        evaluations=int(evaluations),
        detail=f"max relative deviation {worst:.3g} (tol {tol:g})",
    )


def windows_check(tol=1e-9):
    """Squeezing-window endpoints against the cooling heat's sign change.

    The r at which the cooling heat changes sign sweeps across the window
    as z runs over (0, 1): bisection on the z -> 0 limiting curve must land
    on the lower endpoint, and on the z -> 1 curve on the upper endpoint.
    Lower endpoints that sit at 0 have no sign change; there the check is
    that cooling is already open at r = 0+.
    """
    tol = positive("tol", tol)
    worst = 0.0
    calls = [0]

    def q4_at(z_edge, tau):
        def g(r):
            calls[0] += 1
            return fridge.cooling_heat_ht(z_edge, tau, r)
        return g

    for tau in (0.25, 0.5, 0.75):
        lo, hi = fridge.r_window(tau)
        root_hi = find_root_scalar(q4_at(1.0, tau), (0.0, 5.0), tol=1e-12)
        worst = max(worst, abs(root_hi - hi))
        if lo > 0.0:
            root_lo = find_root_scalar(q4_at(0.0, tau), (0.0, 5.0), tol=1e-12)
            worst = max(worst, abs(root_lo - lo))
        else:
            calls[0] += 1
            if not fridge.cooling_heat_ht(0.0, tau, 1e-6) > 0.0:
                worst = math.inf
    evaluations = calls[0]
    return CheckResult(
        name="cooling-windows",
        passed=bool(worst < tol),
        worst=float(worst),
        evaluations=int(evaluations),
        detail=f"max |Q4 sign change - window endpoint| = {worst:.3g} (tol {tol:g})",
    )


SUITES = ("ceiling", "optimality", "identities", "windows", "all")


def run_suite(name, budget=None, seed=DEFAULT_SEED):
    """Run one named suite (or all of them) and return the check results."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    checks = []
    if name in ("ceiling", "all"):
        checks.append(ceiling_check(1_000_000 if budget is None else budget, seed=seed))
    if name in ("optimality", "all"):
        checks.append(optimality_check())
    if name in ("identities", "all"):
        checks.append(identities_check())
    if name in ("windows", "all"):
        checks.append(windows_check())
    return checks
