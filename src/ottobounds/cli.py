"""Command-line front end.

Subcommands:
    eval    exact single-cycle evaluation, JSON out
    fig2    sweep of the squeezed engine bounds over r, CSV/JSON out
    fig3    sweep of the thermal bounds over the Carnot efficiency, CSV/JSON out
    fridge  refrigerator feasibility report at (tau, r), JSON out
    verify  run the built-in oracle suites, JSON out

Each command returns a plain payload dict; ``main`` alone renders and writes
it (``_emit``).  Exit codes: 0 for success (an infeasible refrigerator regime
is an answer, not a failure), 1 for domain errors during computation or a
failed verify check, 2 for usage errors.  CSV floats are printed with 12
significant digits so identical invocations are byte-identical.

A process imports only what its subcommand runs: each command imports its
own modules, the parser gets the arguments of the named subcommand alone,
and ``json`` loads only for JSON output.
"""

import argparse
import sys

from . import __version__
from .errors import DomainError, OttoError, nonnegative, nonnegative_int, unit_open


def _render(payload, fmt):
    """The one encoder: a table payload as CSV, anything else as indented JSON."""
    if fmt == "csv":
        # One %-format per row; "%.12g" gives the bytes of format(v, ".12g").
        row_fmt = ",".join(["%.12g"] * len(payload["columns"]))
        lines = [",".join(payload["columns"])]
        lines += [row_fmt % tuple(row) for row in payload["rows"]]
        return "\n".join(lines) + "\n"
    import json
    return json.dumps(payload, indent=2) + "\n"


def _emit(args, payload):
    """The one writer: stamp the version, render in ``args.format``, write to --out or stdout."""
    text = _render({"version": __version__, **payload}, getattr(args, "format", "json"))
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _table(inputs, columns, rows):
    return {"inputs": inputs, "columns": columns, "rows": rows, "warnings": []}


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
    """count points from start to stop (special.axis_points); a single point needs stop == start."""
    if not (count > 1 and start < stop or count == 1 and stop == start):
        parser.error(f"need count >= 2 and start < stop, or count = 1 and stop = start; "
                     f"got count={count}, [{start}, {stop}]")
    from .special import axis_points
    return axis_points(start, stop, count)


def _eval_arguments(p):
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


def _fig2_arguments(p):
    p.add_argument("--eta-c", dest="eta_c", type=_UNIT, action="append", required=True,
                   help="Carnot efficiency; repeat the flag for several curves")
    p.add_argument("--r-start", type=_NONNEG, default=0.0)
    p.add_argument("--r-stop", type=_NONNEG, default=6.0)
    p.add_argument("--count", type=int, default=121, help="points per curve (default 121)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _fig3_arguments(p):
    p.add_argument("--start", type=_UNIT, default=0.01)
    p.add_argument("--stop", type=_UNIT, default=0.99)
    p.add_argument("--count", type=int, default=99)
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _fridge_arguments(p):
    p.add_argument("--tau", type=_UNIT, required=True,
                   help="temperature ratio beta_hot/beta_cold")
    p.add_argument("--r", type=_NONNEG, default=0.0, help="cold-bath squeezing (default 0)")


def _verify_arguments(p):
    from . import verify
    p.add_argument("--suite", choices=verify.SUITES, default="all")
    p.add_argument("--budget", type=_checked(nonnegative_int, int), default=verify.DEFAULT_BUDGET,
                   help="random sample count for the ceiling suite (default %(default)d; 0: grid only)")
    p.add_argument("--seed", type=_checked(nonnegative_int, int), default=verify.DEFAULT_SEED)


def build_parser(command):
    """The command-line parser, with the arguments of the subcommand ``command`` alone.

    Every subcommand is registered, so help and "invalid choice" errors read
    the same whatever the name.  Only the named one gets its arguments, and
    with them the imports they need; any other string adds none.
    """
    parser = argparse.ArgumentParser(
        prog="ottobounds",
        description=(
            "Performance of the sudden-quench harmonic Otto engine and "
            "refrigerator with squeezed thermal reservoirs."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command == name:
            add_arguments(p)
            p.add_argument("--out", default=None, help="output path (default stdout)")
            p.set_defaults(parser=p)   # so that later usage errors print this subcommand's usage
    return parser


def _build_cycle_spec(args, parser):
    from .cycle import CycleSpec
    if args.mode == "custom" and args.lam is None:
        parser.error("--mode custom requires --lam")
    if args.mode != "custom" and args.lam is not None:
        parser.error("--lam only applies with --mode custom")
    try:
        return CycleSpec.of(args.w1, args.w2, args.b1, args.b2, args.r,
                            args.placement, args.mode, args.lam)
    except OttoError as exc:
        parser.error(str(exc))


# Advisory ceiling on beta*omega for trusting the high-temperature forms.
# Their gap to the exact cycle is second order in beta*omega without
# squeezing and first order with it (cycle._delta_h tends to cosh 2r only to
# first order).  Relative gap of the efficiency at z = 0.5, tau = 0.2, for
# beta2*omega2 = 1e-4 / 1e-2 / 0.3: 1.3e-8 / 1.3e-4 / 12 % at r = 0, and
# 1.1e-5 / 1.0e-3 / 1.3 % at r = 0.5.
HT_BETA_OMEGA_MAX = 0.3


def _ht_warnings(spec):
    warnings = []
    for label, beta, omega in (
        ("beta1*omega1", spec.cold.beta, spec.freqs.omega1),
        ("beta2*omega2", spec.hot.beta, spec.freqs.omega2),
    ):
        if beta * omega > HT_BETA_OMEGA_MAX:
            warnings.append(
                f"{label} = {beta * omega:.12g} exceeds {HT_BETA_OMEGA_MAX}; "
                f"the high-temperature closed forms (fig2/fig3/fridge bounds) are "
                f"unreliable for these parameters"
            )
    return warnings


def cmd_eval(args, parser):
    from .cycle import heats_work
    spec = _build_cycle_spec(args, parser)
    perf = heats_work(spec)
    return {
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


def cmd_fig2(args, parser):
    from .engine import engine_rows
    points = _sweep(parser, args.r_start, args.r_stop, args.count)
    return _table(
        {"eta_c": args.eta_c, "r_start": args.r_start, "r_stop": args.r_stop, "count": args.count},
        ("r", "eta_c", "eta_up", "eta_mw", "eta_c_gen"),
        engine_rows(args.eta_c, points),
    )


def cmd_fig3(args, parser):
    from .engine import eta_rk, eta_up_thermal
    rows = [
        (x, eta_up_thermal(x), eta_rk(x), 0.5 * x)
        for x in _sweep(parser, args.start, args.stop, args.count)
    ]
    return _table(
        {"start": args.start, "stop": args.stop, "count": args.count},
        ("eta_c", "eta_up_th", "eta_rk", "half_eta_c"),
        rows,
    )


def cmd_fridge(args, parser):
    from .fridge import fridge_report
    rep = fridge_report(args.tau, args.r)
    return {
        "inputs": {"tau": args.tau, "r": args.r},
        "zeta_c": rep.zeta_c,
        "zeta_up": rep.zeta_up,
        "cooling_feasible": rep.cooling_feasible,
        "reason": rep.reason,
        "tau_window": list(rep.tau_window),
        "r_window": list(rep.r_window),
    }


def cmd_verify(args, parser):
    from .verify import run_suite
    checks = run_suite(args.suite, budget=args.budget, seed=args.seed)
    return {
        "suite": args.suite,
        "seed": args.seed,
        "passed": all(c.passed for c in checks),
        "checks": [dict(vars(c)) for c in checks],
    }


# subcommand -> (help line, the function that adds its arguments, the command)
_SUBCOMMANDS = {
    "eval": ("exact single-cycle evaluation (JSON)", _eval_arguments, cmd_eval),
    "fig2": ("squeezed engine bounds swept over r (CSV)", _fig2_arguments, cmd_fig2),
    "fig3": ("thermal bounds swept over the Carnot efficiency (CSV)", _fig3_arguments, cmd_fig3),
    "fridge": ("refrigerator feasibility report (JSON)", _fridge_arguments, cmd_fridge),
    "verify": ("run the built-in oracle suites (JSON)", _verify_arguments, cmd_verify),
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # The main parser has no option that takes a value, so the first token
    # without a leading "-" is the subcommand; "" (none) adds no arguments.
    command = next((a for a in argv if not a.startswith("-")), "")
    args = build_parser(command).parse_args(argv)
    try:
        payload = _SUBCOMMANDS[args.command][2](args, args.parser)
    except OttoError as exc:
        kind = type(exc).__name__.removesuffix("Error").lower()
        sys.stdout.write(_render({"error": {"kind": kind, "message": str(exc)}}, "json"))
        return 1
    try:
        _emit(args, payload)
    except OSError as exc:
        if args.out is None:
            raise
        args.parser.error(f"argument --out: {exc}")
    return 1 if payload.get("passed") is False else 0


if __name__ == "__main__":
    sys.exit(main())
