"""Command-line front end.

Subcommands:
    eval    exact single-cycle evaluation, JSON out
    fig2    sweep of the squeezed engine bounds over r, CSV/JSON out
    fig3    sweep of the thermal bounds over the Carnot efficiency, CSV/JSON out
    fridge  refrigerator feasibility report at (tau, r), JSON out
    verify  run the built-in oracle suites, JSON out

Exit codes: 0 for success (an infeasible refrigerator regime is an answer,
not a failure), 1 for domain errors during computation, 2 for usage errors.
CSV floats are printed with 12 significant digits so identical invocations
are byte-identical.
"""

import argparse
import json
import sys
from dataclasses import dataclass

from . import __version__, engine, fridge, verify
from .cycle import (
    AdiabaticityMode,
    BathSpec,
    CycleSpec,
    FrequencyPair,
    SqueezePlacement,
    heats_work,
)
from .errors import DomainError, OttoError, nonnegative, nonnegative_int, unit_open
from .oracle import axis_points


@dataclass(frozen=True)
class RunReport:
    """Everything one sweep invocation produced, ready to render."""

    version: str
    inputs: dict
    columns: tuple
    rows: list
    warnings: list

    def to_csv(self):
        lines = [",".join(self.columns)]
        lines += [",".join(_fmt(v) for v in row) for row in self.rows]
        return "\n".join(lines) + "\n"

    def to_json(self):
        payload = {
            "version": self.version,
            "inputs": self.inputs,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "warnings": self.warnings,
        }
        return json.dumps(payload, indent=2) + "\n"


def _fmt(x):
    return format(x, ".12g")


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _error_payload(exc):
    kind = type(exc).__name__.removesuffix("Error").lower() or "error"
    return json.dumps({"error": {"kind": kind, "message": str(exc)}}, indent=2) + "\n"


def _checked(check, parse=float):
    """argparse type: parse, then apply a shared check; a DomainError exits 2 as a usage error."""
    def flag_type(text):
        try:
            return check("value", parse(text))
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    flag_type.__name__ = parse.__name__   # argparse: "invalid float value: 'x'"
    return flag_type


_UNIT = _checked(unit_open)
_NONNEG = _checked(nonnegative)


def _sweep(parser, start, stop, count):
    """count points from start to stop (oracle.axis_points); a single point needs stop == start."""
    if not (count > 1 and start < stop or count == 1 and stop == start):
        parser.error(f"need count >= 2 and start < stop, or count = 1 and stop = start; "
                     f"got count={count}, [{start}, {stop}]")
    return axis_points(start, stop, count)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ottobounds",
        description=(
            "Performance of the sudden-quench harmonic Otto engine and "
            "refrigerator with squeezed thermal reservoirs."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="exact single-cycle evaluation (JSON)")
    p.add_argument("--w1", type=float, required=True, help="low stroke frequency omega1")
    p.add_argument("--w2", type=float, required=True, help="high stroke frequency omega2")
    p.add_argument("--b1", type=float, required=True, help="cold inverse temperature beta1")
    p.add_argument("--b2", type=float, required=True, help="hot inverse temperature beta2")
    p.add_argument("--r", type=float, default=0.0, help="squeezing parameter (default 0)")
    p.add_argument("--mode", choices=("sudden", "adiabatic", "custom"), default="sudden",
                   help="frequency-stroke driving (default sudden)")
    p.add_argument("--lam", type=float, default=None,
                   help="adiabaticity factor >= 1, required with --mode custom")
    p.add_argument("--placement", choices=("hot", "cold"), default="hot",
                   help="which bath carries the squeezing (default hot)")
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("fig2", help="squeezed engine bounds swept over r (CSV)")
    p.add_argument("--eta-c", dest="eta_c", type=_UNIT, action="append", required=True,
                   help="Carnot efficiency; repeat the flag for several curves")
    p.add_argument("--r-start", type=_NONNEG, default=0.0)
    p.add_argument("--r-stop", type=_NONNEG, default=6.0)
    p.add_argument("--count", type=int, default=121, help="points per curve (default 121)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("fig3", help="thermal bounds swept over the Carnot efficiency (CSV)")
    p.add_argument("--start", type=_UNIT, default=0.01)
    p.add_argument("--stop", type=_UNIT, default=0.99)
    p.add_argument("--count", type=int, default=99)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("fridge", help="refrigerator feasibility report (JSON)")
    p.add_argument("--tau", type=_UNIT, required=True,
                   help="temperature ratio beta_hot/beta_cold")
    p.add_argument("--r", type=_NONNEG, default=0.0, help="cold-bath squeezing (default 0)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run the built-in oracle suites (JSON)")
    p.add_argument("--suite", choices=verify.SUITES, default="all")
    p.add_argument("--budget", type=_checked(nonnegative_int, int), default=1_000_000,
                   help="random sample count for the ceiling suite (default 1e6; 0: grid only)")
    p.add_argument("--seed", type=_checked(nonnegative_int, int), default=verify.DEFAULT_SEED)
    p.add_argument("--out", default=None)

    return parser


def _build_cycle_spec(args, parser):
    try:
        if args.mode == "custom":
            if args.lam is None:
                parser.error("--mode custom requires --lam")
            mode = AdiabaticityMode.custom(args.lam)
        elif args.lam is not None:
            parser.error("--lam only applies with --mode custom")
        elif args.mode == "adiabatic":
            mode = AdiabaticityMode.adiabatic()
        else:
            mode = AdiabaticityMode.sudden_switch()
        placement = SqueezePlacement(args.placement)
        cold_r = args.r if placement is SqueezePlacement.COLD_BATH else 0.0
        hot_r = args.r if placement is SqueezePlacement.HOT_BATH else 0.0
        return CycleSpec(
            cold=BathSpec(beta=args.b1, r=cold_r),
            hot=BathSpec(beta=args.b2, r=hot_r),
            freqs=FrequencyPair(omega1=args.w1, omega2=args.w2),
            mode=mode,
            placement=placement,
        )
    except OttoError as exc:
        parser.error(str(exc))


def _ht_warnings(spec):
    warnings = []
    for label, beta, omega in (
        ("beta1*omega1", spec.cold.beta, spec.freqs.omega1),
        ("beta2*omega2", spec.hot.beta, spec.freqs.omega2),
    ):
        if not engine.ht_regime_ok(beta, omega):
            warnings.append(
                f"{label} = {_fmt(beta * omega)} exceeds {engine.HT_BETA_OMEGA_MAX}; "
                f"the high-temperature closed forms (fig2/fig3/fridge bounds) are "
                f"unreliable for these parameters"
            )
    return warnings


def cmd_eval(args, parser):
    spec = _build_cycle_spec(args, parser)
    perf = heats_work(spec)
    payload = {
        "version": __version__,
        "inputs": {
            "w1": args.w1, "w2": args.w2, "b1": args.b1, "b2": args.b2,
            "r": args.r, "mode": args.mode, "lam": spec.mode.lambda_for(spec.freqs),
            "placement": args.placement,
        },
        "h_a": perf.h_a, "h_b": perf.h_b, "h_c": perf.h_c, "h_d": perf.h_d,
        "q2": perf.q2, "q4": perf.q4,
        "w_ext": perf.w_ext, "w_in": perf.work_input,
        "eta": perf.eta, "cop": perf.cop,
        "mode": perf.mode_label.value,
        "warnings": _ht_warnings(spec),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_fig2(args, parser):
    points = _sweep(parser, args.r_start, args.r_stop, args.count)
    rows = []
    for eta_c in args.eta_c:
        for r in points:
            rep = engine.engine_report(eta_c, r)
            rows.append((r, eta_c, rep.eta_up, rep.eta_mw, rep.eta_c_gen))
    report = RunReport(
        version=__version__,
        inputs={"eta_c": args.eta_c, "r_start": args.r_start,
                "r_stop": args.r_stop, "count": args.count},
        columns=("r", "eta_c", "eta_up", "eta_mw", "eta_c_gen"),
        rows=rows,
        warnings=[],
    )
    _emit(report.to_csv() if args.format == "csv" else report.to_json(), args.out)
    return 0


def cmd_fig3(args, parser):
    rows = [
        (x, engine.eta_up_thermal(x), engine.eta_rk(x), 0.5 * x)
        for x in _sweep(parser, args.start, args.stop, args.count)
    ]
    report = RunReport(
        version=__version__,
        inputs={"start": args.start, "stop": args.stop, "count": args.count},
        columns=("eta_c", "eta_up_th", "eta_rk", "half_eta_c"),
        rows=rows,
        warnings=[],
    )
    _emit(report.to_csv() if args.format == "csv" else report.to_json(), args.out)
    return 0


def cmd_fridge(args, parser):
    rep = fridge.fridge_report(args.tau, args.r)
    payload = {
        "version": __version__,
        "inputs": {"tau": args.tau, "r": args.r},
        "zeta_c": rep.zeta_c,
        "zeta_up": rep.zeta_up,
        "cooling_feasible": rep.cooling_feasible,
        "reason": rep.reason,
        "tau_window": list(rep.tau_window),
        "r_window": list(rep.r_window),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_verify(args, parser):
    checks = verify.run_suite(args.suite, budget=args.budget, seed=args.seed)
    passed = all(c.passed for c in checks)
    payload = {
        "version": __version__,
        "suite": args.suite,
        "seed": args.seed,
        "passed": passed,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "worst": c.worst,
                "evaluations": c.evaluations,
                "detail": c.detail,
            }
            for c in checks
        ],
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if passed else 1


_COMMANDS = {
    "eval": cmd_eval,
    "fig2": cmd_fig2,
    "fig3": cmd_fig3,
    "fridge": cmd_fridge,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except OttoError as exc:
        sys.stdout.write(_error_payload(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
