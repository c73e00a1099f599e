"""Correctness gate: what counts as a failed operation in each workload.

Point queries are checked with invariants that any right answer satisfies
(first-law closure, the sign-pattern label, eta_mw <= eta_up < 1/2, no
NaN) and, on a seeded subset, against a 50-digit mpmath reference.  Suite
runs must pass every check and repeat the recorded reference.  CLI runs
must exit 0 and print what the library returns in-process for the same
inputs.

Known defects are listed in KNOWN_DEFECTS, each with its input domain
(known_defect).  Generated queries inside a domain are not ops of the timed
stream: the benchmark runs and gates each of them once per run, untimed, and
lists those that fail.  A failed op anywhere else makes the run incorrect.
"""

import json
import math

# Known defects: id -> what goes wrong (and where it was first recorded).
KNOWN_DEFECTS = {
    "cycle-saturation": (
        "cycle.heats_work: a corner energy overflows (r > ~355, or squeezed "
        "beta*omega past ~709 with r > 0), so the heats cancel to inf - inf: "
        "w_ext = NaN and a wrong mode label (ROADMAP open item 2)"),
    "overflow-edge": (
        "near the double range (r > ~350): effective_temperature returns inf "
        "for a representable T, and cop_ht returns 0.0 once its work "
        "denominator overflows (found by this gate)"),
    "z2-cancellation": (
        "engine.z2_of_eta: the smaller root 0.5*(b - sqrt(disc)) cancels once "
        "g = tau*sech(2r) is small against (1 - 2 eta)^2: it returns 0.0 at "
        "r in [300, 800] and loses digits already at r ~ 5 (found by this gate)"),
}

# Largest double is about e**709.78; inputs this close are treated as saturated.
_LOG_SATURATED = 700.0


def _sech(x):
    e = math.exp(-abs(x))
    return 2.0 * e / (1.0 + e * e)


def _log_sinh(r):
    return r + math.log1p(-math.exp(-2.0 * r)) - math.log(2.0)


def known_defect(kind, args):
    """Id of the listed defect whose input domain holds this query, or None."""
    if kind in ("heats_work", "efficiency_sudden"):
        w1, w2, b_cold, b_hot, r, placement, _, lam = args
        if r == 0.0:
            return None
        beta, omega = (b_hot, w2) if placement == "hot" else (b_cold, w1)
        x = beta * omega
        log_inv_n = x + math.log1p(-math.exp(-x)) if x > 1.0 else math.log(math.expm1(x))
        log_enh = max(log_inv_n, math.log(2.0)) + math.log(2.0) + 2.0 * _log_sinh(r)
        scale = math.log(w2 * max(lam or 1.0, (w1 * w1 + w2 * w2) / (2 * w1 * w2)))
        if log_enh + scale + 2.0 > _LOG_SATURATED:
            return "cycle-saturation"
    if kind in ("effective_temperature", "cop_ht") and args[-1] > 350.0:
        return "overflow-edge"
    if kind == "z2_of_eta":
        eta, eta_c, r = args
        g = (1.0 - eta_c) * _sech(2.0 * r)
        b = (1.0 - 2.0 * eta) + g * (1.0 + eta)
        # b*b / 4c is the factor by which b - sqrt(b*b - 4c) magnifies rounding.
        if eta < 0.5 and (g == 0.0 or b * b > 1e3 * 4.0 * g * (1.0 - eta)):
            return "z2-cancellation"
    return None


# -- operations --------------------------------------------------------------

def make_spec(ob, args):
    """CycleSpec of a cycle query's (w1, w2, b_cold, b_hot, r, placement, mode, lam)."""
    w1, w2, b_cold, b_hot, r, placement, mode, lam = args
    if mode == "custom":
        m = ob.AdiabaticityMode.custom(lam)
    elif mode == "adiabatic":
        m = ob.AdiabaticityMode.adiabatic()
    else:
        m = ob.AdiabaticityMode.sudden_switch()
    hot = placement == "hot"
    return ob.CycleSpec(
        cold=ob.BathSpec(b_cold, 0.0 if hot else r),
        hot=ob.BathSpec(b_hot, r if hot else 0.0),
        freqs=ob.FrequencyPair(w1, w2),
        mode=m,
        placement=ob.SqueezePlacement(placement),
    )


def query_ops(ob):
    """kind -> callable(args) running one query through the public API.

    Names are looked up on the package at call time, so a tracer that
    rebinds them sees every call.
    """
    return {
        "heats_work": lambda a: ob.heats_work(make_spec(ob, a)),
        "efficiency_sudden": lambda a: ob.efficiency_sudden(make_spec(ob, a)),
        "effective_temperature": lambda a: ob.effective_temperature(*a),
        "engine_report": lambda a: ob.engine_report(*a),
        "efficiency_ht": lambda a: ob.efficiency_ht(*a),
        "work_ht": lambda a: ob.work_ht(ob.EngineParams(*a)),
        "z2_of_eta": lambda a: ob.z2_of_eta(*a),
        "fridge_report": lambda a: ob.fridge_report(*a),
        "cop_ht": lambda a: ob.cop_ht(ob.FridgeParams(*a)),
    }


def fingerprint(out):
    """Comparable summary of one outcome (a result or a raised exception)."""
    if isinstance(out, BaseException):
        return (type(out).__name__, getattr(out, "mode", None))
    if isinstance(out, float):
        return out
    return tuple(vars(out).values())


def same(a, b):
    return a == b or repr(a) == repr(b)    # repr makes NaN equal to NaN


# -- invariants --------------------------------------------------------------

def _nan(*xs):
    return any(isinstance(x, float) and x != x for x in xs)


def _sign_label(q2, q4, w):
    if q2 > 0.0 and q4 < 0.0:
        return "engine" if w > 0.0 else "accelerator"
    if q2 < 0.0 and q4 > 0.0 and w < 0.0:
        return "refrigerator"
    return "heater"


def _check_perf(p):
    vals = (p.h_a, p.h_b, p.h_c, p.h_d, p.q2, p.q4, p.w_ext)
    if _nan(*vals, p.eta, p.cop):
        return f"NaN in cycle result (q2={p.q2}, q4={p.q4}, w_ext={p.w_ext})"
    if p.q2 != p.h_c - p.h_b or p.q4 != p.h_a - p.h_d:
        return "heats differ from the corner-energy differences"
    if p.w_ext != p.q2 + p.q4:
        return f"w_ext={p.w_ext} != q2 + q4 = {p.q2 + p.q4}"
    label = _sign_label(p.q2, p.q4, p.w_ext)
    if p.mode_label.value != label:
        return f"label {p.mode_label.value!r} but the sign pattern says {label!r}"
    if (p.eta is not None) != (label == "engine") or (p.cop is not None) != (label == "refrigerator"):
        return "eta/cop populated for the wrong mode"
    return None


def _eta_up_gap(g):
    """1/2 - eta_up at g = tau*sech(2r), free of cancellation."""
    s = math.sqrt(2.0 * g)
    return (2.0 * s * (1.0 - g) - g + 1.5 * g * g) / (2.0 - g) ** 2


def check_query(ob, kind, args, out):
    """Invariant check of one outcome; returns a reason string, or None."""
    typed = isinstance(out, ob.errors.OttoError)
    if isinstance(out, BaseException) and not typed:
        return f"untyped exception {type(out).__name__}: {out}"
    if typed and kind in ("heats_work", "effective_temperature", "engine_report", "fridge_report"):
        return f"unexpected {type(out).__name__}: {out}"
    if kind == "heats_work":
        return _check_perf(out)
    if kind == "efficiency_sudden":
        perf = ob.heats_work(make_spec(ob, args))
        bad = _check_perf(perf)
        if bad:
            return bad
        if isinstance(out, ob.errors.ModeError):
            if perf.mode_label.value == "engine" or out.mode is not perf.mode_label:
                return f"ModeError names {out.mode} but the cycle runs as {perf.mode_label.value}"
            return None
        if typed:
            return f"unexpected {type(out).__name__}: {out}"
        return None if out == perf.eta else f"eta={out} differs from heats_work eta={perf.eta}"
    if kind == "effective_temperature":
        beta, omega, r = args
        if _nan(out) or not out > 0.0:
            return f"temperature {out}"
        if r == 0.0 and out != 1.0 / beta:
            return f"T={out} != 1/beta at r = 0"
        return None if out >= (1.0 / beta) * (1.0 - 1e-12) else f"T={out} below 1/beta"
    if kind == "engine_report":
        eta_c, r = args
        if _nan(out.eta_up, out.eta_mw, out.eta_c_gen, out.z_star):
            return "NaN in engine report"
        if not 0.0 <= out.eta_mw <= out.eta_up <= 0.5:
            return f"need 0 <= eta_mw <= eta_up <= 1/2, got {out.eta_mw}, {out.eta_up}"
        if out.eta_up == 0.5 and _eta_up_gap((1.0 - eta_c) * _sech(2.0 * r)) >= 2.0**-54:
            return "eta_up reached 1/2 where the true gap is representable"
        if not (eta_c <= out.eta_c_gen <= 1.0 and 0.0 <= out.z_star < 1.0 and out.pwc_satisfied):
            return "eta_c_gen, z_star or the PWC flag out of range"
        return None
    g = None
    if kind in ("efficiency_ht", "work_ht"):
        z, tau, r = args
        g = tau * _sech(2.0 * r)
    if kind == "efficiency_ht":
        if isinstance(out, ob.errors.SingularityError):
            return None
        if typed or _nan(out):
            return f"efficiency {out!r}"
        if z * z > g and not (0.0 < out < 0.5 and out <= ob.eta_up(1.0 - tau, r)):
            return f"engine efficiency {out} outside (0, eta_up]"
        return None
    if kind == "work_ht":
        if typed or _nan(out):
            return f"work {out!r}"
        if g == 0.0:
            return None if out == math.inf else f"work {out} where sech(2r) underflows"
        return None if (out > 0.0) == (z * z > g) else f"work {out} has the wrong sign"
    if kind == "z2_of_eta":
        eta, eta_c, r = args
        if isinstance(out, ob.errors.NoSolutionError):
            return None if eta >= ob.eta_up(eta_c, r) else "NoSolutionError below eta_up"
        if typed or _nan(out) or not 0.0 < out < 1.0:
            return f"z2={out!r} outside (0, 1)"
        back = ob.efficiency_ht(math.sqrt(out), 1.0 - eta_c, r)
        return None if abs(back - eta) <= 1e-9 else f"efficiency at the root is {back}, not {eta}"
    if kind == "fridge_report":
        tau, r = args
        if _nan(out.zeta_c, out.zeta_up, *out.tau_window, *out.r_window):
            return "NaN in fridge report"
        u = _sech(2.0 * r)
        tc = tau / u if u > 0.0 else math.inf
        if min(abs(tc - 0.5), abs(tc - 1.0)) > 1e-12 and out.cooling_feasible != (0.5 < tc < 1.0):
            return f"cooling_feasible={out.cooling_feasible} at tau*cosh(2r)={tc}"
        if out.cooling_feasible != (out.zeta_up is not None) or (out.zeta_up is not None and not out.zeta_up > 0.0):
            return "zeta_up inconsistent with feasibility"
        return None
    if kind == "cop_ht":
        z, tau, r = args
        u = _sech(2.0 * r)
        tc = tau / u if u > 0.0 else math.inf
        if isinstance(out, ob.errors.DomainError):
            return None if tc > math.exp(_LOG_SATURATED) else f"DomainError: {out}"
        q4 = 2.0 * tc - 1.0 - z * z
        if isinstance(out, ob.errors.ModeError):
            return None if q4 <= 1e-12 else f"ModeError where q4 = {q4 / 2} > 0"
        if typed or _nan(out) or not out > 0.0:
            return f"cop {out!r}"
        if 0.5 < tc < 1.0 and out > ob.zeta_up(tau, r) * (1.0 + 1e-12):
            return f"cop {out} above zeta_up"
        return None
    raise ValueError(f"unknown query kind {kind!r}")


# -- 50-digit reference ------------------------------------------------------

_DBL_MAX = 1.7976931348623157e308


def _within(x, ref, tol):
    """x matches the mpmath value ref to within tol (inf where ref overflows)."""
    if abs(ref) > _DBL_MAX:
        return x == (math.inf if ref > 0 else -math.inf)
    return isinstance(x, float) and not math.isnan(x) and abs(x - ref) <= tol


def mp_check(ob, kind, args, out):
    """Compare one outcome with a 50-digit mpmath evaluation; reason or None."""
    import mpmath as mp

    mp.mp.dps = 50
    eps = mp.mpf("1e-12")
    if kind in ("heats_work", "efficiency_sudden"):
        w1, w2, b_cold, b_hot, r, placement, mode, lam = [
            mp.mpf(v) if isinstance(v, float) else v for v in args]
        lam = {"adiabatic": 1, "sudden": (w1**2 + w2**2) / (2 * w1 * w2)}.get(mode, lam)
        c_cold = mp.coth(b_cold * w1 / 2)
        c_hot = mp.coth(b_hot * w2 / 2)
        if placement == "hot":
            f = 1 + (2 + mp.expm1(b_hot * w2)) * mp.sinh(r) ** 2
            h = (w1 * c_cold / 2, w2 * lam * c_cold / 2, w2 * c_hot * f / 2, w1 * lam * c_hot * f / 2)
        else:
            f = 1 + (2 + mp.expm1(b_cold * w1)) * mp.sinh(r) ** 2
            h = (w1 * c_cold * f / 2, w2 * lam * c_cold * f / 2, w2 * c_hot / 2, w1 * lam * c_hot / 2)
        q2, q4 = h[2] - h[1], h[0] - h[3]
        w = q2 + q4
        t2, t4 = eps * (h[2] + h[1]), eps * (h[0] + h[3])
        clear = abs(q2) > t2 and abs(q4) > t4 and abs(w) > t2 + t4
        label = _sign_label(q2, q4, w)
        if kind == "heats_work":
            for name, x, ref, tol in (("q2", out.q2, q2, t2), ("q4", out.q4, q4, t4),
                                      ("w_ext", out.w_ext, w, t2 + t4)):
                if not _within(x, ref, tol):
                    return f"{name}={x} but mpmath gives {mp.nstr(ref, 17)}"
            if clear and out.mode_label.value != label:
                return f"label {out.mode_label.value!r} but mpmath says {label!r}"
            return None
        if isinstance(out, ob.errors.ModeError):
            return None if label != "engine" or not clear else "ModeError on an mpmath engine"
        return None if _within(out, w / q2, (t2 + t4) / abs(q2)) else f"eta={out}, mpmath {mp.nstr(w / q2, 17)}"
    if kind == "effective_temperature":
        beta, omega, r = map(mp.mpf, args)
        n = 1 / mp.expm1(beta * omega)
        big_n = n + (2 * n + 1) * mp.sinh(r) ** 2
        ref = omega / mp.log1p(1 / big_n)
        return None if _within(out, ref, eps * ref) else f"T={out}, mpmath {mp.nstr(ref, 17)}"
    if kind == "engine_report":
        eta_c, r = map(mp.mpf, args)
        g = (1 - eta_c) * mp.sech(2 * r)
        s = mp.sqrt(g)
        refs = (("eta_up", out.eta_up, (1 - g) * (2 + g - 2 * mp.sqrt(2 * g)) / (2 - g) ** 2),
                ("eta_mw", out.eta_mw, (1 - s) / (2 + s)),
                ("eta_c_gen", out.eta_c_gen, 1 - g),
                ("z_star", out.z_star, g ** mp.mpf("0.25")))
        for name, x, ref in refs:
            if not _within(x, ref, eps * ref + mp.mpf("1e-15")):
                return f"{name}={x}, mpmath {mp.nstr(ref, 17)}"
        return None
    if kind in ("efficiency_ht", "work_ht"):
        z, tau, r = map(mp.mpf, args)
        if isinstance(out, ob.errors.SingularityError):
            return None
        g = tau * mp.sech(2 * r)
        if kind == "efficiency_ht":
            den = 2 * z**2 - g * (1 + z**2)
            ref = (1 - z**2) * (z**2 - g) / den
            tol = eps * (1 + abs(ref)) * (2 * z**2 + g * (1 + z**2)) / abs(den)
        else:
            c = mp.cosh(2 * r)
            ref = (1 - z**2) * (z**2 * c - tau) / (2 * z**2)
            tol = eps * (1 - z**2) * (z**2 * c + tau) / (2 * z**2)
        return None if _within(out, ref, tol) else f"{kind}={out}, mpmath {mp.nstr(ref, 17)}"
    if kind == "z2_of_eta":
        eta, eta_c, r = map(mp.mpf, args)
        g = (1 - eta_c) * mp.sech(2 * r)
        if isinstance(out, ob.errors.NoSolutionError):
            bound = (1 - g) * (2 + g - 2 * mp.sqrt(2 * g)) / (2 - g) ** 2
            return None if eta >= bound - mp.mpf("1e-15") else "NoSolutionError below the mpmath eta_up"
        b = (1 - 2 * eta) + g * (1 + eta)
        root = mp.sqrt(b * b - 4 * g * (1 - eta))
        ref = 2 * g * (1 - eta) / (b + root)
        return None if _within(out, ref, eps * ref * (1 + b / root)) else f"z2={out}, mpmath {mp.nstr(ref, 17)}"
    if kind == "fridge_report":
        tau, r = map(mp.mpf, args)
        tc = tau * mp.cosh(2 * r)
        if min(abs(tc - mp.mpf(0.5)), abs(tc - 1)) < eps:
            return None
        if out.cooling_feasible != (0.5 < tc < 1):
            return f"cooling_feasible={out.cooling_feasible} at mpmath tau_c={mp.nstr(tc, 17)}"
        if not out.cooling_feasible:
            return None
        ref = 3 / (1 - tc) - 2 - 2 * mp.sqrt(2) * mp.sqrt(tc) / abs(tc - 1)
        tol = eps * (3 / (1 - tc) + 2 + 2 * mp.sqrt(2) * mp.sqrt(tc) / abs(tc - 1))
        return None if _within(out.zeta_up, ref, tol) else f"zeta_up={out.zeta_up}, mpmath {mp.nstr(ref, 17)}"
    if kind == "cop_ht":
        z, tau, r = map(mp.mpf, args)
        tc = tau * mp.cosh(2 * r)
        q4 = (2 * tc - 1 - z**2) / 2
        if isinstance(out, ob.errors.DomainError):
            return None if tc > math.exp(_LOG_SATURATED) else "DomainError well inside the double range"
        if isinstance(out, ob.errors.ModeError):
            return None if q4 <= eps * (2 * tc + 1 + z**2) else "ModeError where mpmath q4 > 0"
        w_in = (1 - z**2) * (tc - z**2) / (2 * z**2)
        ref = q4 / w_in
        tol = eps * ref * (1 + (2 * tc + 1 + z**2) / abs(2 * q4) + (tc + z**2) / abs(tc - z**2))
        return None if _within(out, ref, tol) else f"cop={out}, mpmath {mp.nstr(ref, 17)}"
    raise ValueError(f"unknown query kind {kind!r}")


# -- suite runs --------------------------------------------------------------

def suite_rows(checks):
    return [{"name": c.name, "passed": bool(c.passed), "worst": c.worst,
             "evaluations": c.evaluations} for c in checks]


def check_suite(checks, reference, exact):
    """Every check passes; the rows equal the reference where they must.

    With ``exact`` (the reference's own seed) every row must match; for
    other seeds the seeded ceiling row may differ in worst and evaluations.
    """
    rows = suite_rows(checks)
    if [r["name"] for r in rows] != [r["name"] for r in reference]:
        return f"suite checks {[r['name'] for r in rows]} differ from the reference"
    for row, ref in zip(rows, reference):
        if not row["passed"]:
            return f"check {row['name']} did not pass (worst={row['worst']})"
        if (exact or row["name"] != "efficiency-ceiling") and row != ref:
            return f"check {row['name']} gave {row}, the reference is {ref}"
    return None


# -- CLI runs ----------------------------------------------------------------

FIG2_HEADER = "r,eta_c,eta_up,eta_mw,eta_c_gen"
FIG3_HEADER = "eta_c,eta_up_th,eta_rk,half_eta_c"


def _flags(argv):
    out = {}
    for key, val in zip(argv[1::2], argv[2::2]):
        out.setdefault(key.lstrip("-").replace("-", "_"), []).append(val)
    return {k: v if k == "eta_c" else v[0] for k, v in out.items()}


def _axis(start, stop, count):
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count - 1)] + [stop]


def cli_expected(ob, argv):
    """What the command must print, computed in-process from the library."""
    cmd, f = argv[0], _flags(argv)
    if cmd == "eval":
        args = (float(f["w1"]), float(f["w2"]), float(f["b1"]), float(f["b2"]),
                float(f["r"]), f["placement"], f["mode"], float(f["lam"]) if "lam" in f else None)
        p = ob.heats_work(make_spec(ob, args))
        return {"h_a": p.h_a, "h_b": p.h_b, "h_c": p.h_c, "h_d": p.h_d, "q2": p.q2,
                "q4": p.q4, "w_ext": p.w_ext, "eta": p.eta, "cop": p.cop,
                "mode": p.mode_label.value}
    if cmd == "fridge":
        rep = ob.fridge_report(float(f["tau"]), float(f["r"]))
        return {"zeta_c": rep.zeta_c, "zeta_up": rep.zeta_up,
                "cooling_feasible": rep.cooling_feasible,
                "tau_window": list(rep.tau_window), "r_window": list(rep.r_window)}
    if cmd == "fig2":
        rows = []
        for eta_c in map(float, f["eta_c"]):
            for r in _axis(float(f["r_start"]), float(f["r_stop"]), int(f["count"])):
                rep = ob.engine_report(eta_c, r)
                rows.append((r, eta_c, rep.eta_up, rep.eta_mw, rep.eta_c_gen))
        return {"header": FIG2_HEADER, "rows": rows}
    if cmd == "fig3":
        xs = _axis(float(f["start"]), float(f["stop"]), int(f["count"]))
        rows = [(x, ob.engine.eta_up_thermal(x), ob.engine.eta_rk(x), 0.5 * x) for x in xs]
        return {"header": FIG3_HEADER, "rows": rows}
    if cmd == "verify":
        return {"passed": True,
                "checks": suite_rows(ob.verify.run_suite(f["suite"], budget=1_000_000))}
    raise ValueError(f"unknown command {cmd!r}")


def check_cli(argv, code, text, expected):
    """Exit code, header, row count and values of one CLI run; reason or None."""
    if code != 0:
        return f"exit code {code}: {text[:200]!r}"
    if "header" in expected:
        lines = text.split("\n")
        if lines[0] != expected["header"]:
            return f"header {lines[0]!r}"
        rows = [line.split(",") for line in lines[1:] if line]
        if len(rows) != len(expected["rows"]) or lines[-1] != "":
            return f"{len(rows)} rows, expected {len(expected['rows'])}"
        for row, ref in zip(rows, expected["rows"]):
            for cell, x in zip(row, ref):
                if abs(float(cell) - x) > 1e-11 * abs(x):    # 12 significant digits
                    return f"value {cell} where the library gives {x!r} (row {row})"
        return None
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if argv[0] == "verify":
        got = {"passed": payload.get("passed"),
               "checks": [{k: c.get(k) for k in ("name", "passed", "worst", "evaluations")}
                          for c in payload.get("checks", [])]}
    else:
        got = {k: payload.get(k) for k in expected}
    for key, ref in expected.items():
        if not same(got[key], ref):
            return f"{key}={got[key]!r} where the library gives {ref!r}"
    return None
