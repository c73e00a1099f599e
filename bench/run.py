#!/usr/bin/env python3
"""Benchmark of ottobounds: three seeded workloads, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one caller, one process, no threads):

* verify_suites  one op = verify.run_suite("all", budget=10**6, seed=s),
                 with the seeds s derived from --seed;
* point_queries  one op = one single-point query through the public API,
                 from a seeded stream of 4096 (bench/inputs.py); the
                 queries inside a known defect's input domain (bench/gate.py)
                 run untimed, once per run, and their failures are listed;
* cli_runs       one op = one fresh `python -m ottobounds` process, spawn to
                 exit, cycling through a seeded six-command rotation.

With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes of a fixed amount of work and
reports the per-layer metrics.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give each
metric with its unit and sample count, the provenance and the failed ops.
Full results and the spans of the traced run go to .bench_out/.

The program is imported from the checkout's src/ and from nowhere else;
without it the benchmark exits non-zero before printing a result.
"""

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import gate      # noqa: E402  (bench/ is sys.path[0])
import inputs    # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_PROBES = 9                  # fresh set-ups per run, split around the timed phase
BUDGET = 1_000_000
BLOCK = 256                       # point queries timed between two gate checks
MP_SUBSET = 256                   # point queries also checked against mpmath
# The tail percentile of each workload: the highest of 50/75/90/99 that a
# default-length run reaches with at least ten samples beyond it.  Runs are
# extended until they reach it, so a faster or slower program is always
# compared on the same percentile.  For point queries the samples are the
# stream's queries, each timed by its best repeat (see end_to_end).
TAIL = {"verify_suites": 75.0, "point_queries": 99.0, "cli_runs": 90.0}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, first_line=False):
    """Run a child to completion: (seconds, exit code, stdout, peak RSS in MB).

    The seconds run from spawn to exit, or with ``first_line`` to the first
    line the child prints.  The child is reaped with wait4 so its own peak
    RSS is known; stderr is folded into stdout, so anything it prints there
    fails the output check.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
    try:
        out = proc.stdout.readline() if first_line else b""
        seconds = time.perf_counter() - t0
        out += proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if not first_line:
        seconds = time.perf_counter() - t0
    return seconds, proc.returncode, out.decode(), usage.ru_maxrss / 1024.0


def nearest_rank(sorted_values, pct):
    k = max(1, math.ceil(len(sorted_values) * pct / 100))
    return sorted_values[k - 1]


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args):
    import mpmath
    import numpy

    commit = None         # a plain checkout: the src digest identifies the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True).stdout.strip() or None
        except OSError:
            pass
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"commit": commit, "src_sha256": src_digest(), "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg_start": os.getloadavg(),
            "seed": args.seed, "argv": sys.argv}


# -- workloads -----------------------------------------------------------------

class VerifySuites:
    """Full oracle suites; the ceiling check's grid and 10**6 draws dominate."""

    def __init__(self, seed):
        self.seeds = inputs.suite_seeds(seed)
        self.pass_seed = next(inputs.suite_seeds(seed))
        self.reference = json.loads((BENCH / "reference.json").read_text())["verify_all"]
        self.failures = {}

    def setup(self, ob):
        self.ob = ob
        checks = ob.verify.run_suite("all", budget=BUDGET, seed=self.reference["seed"])
        bad = gate.check_suite(checks, self.reference["checks"], exact=True)
        if bad:
            self.failures["default-seed reference"] = {"reason": bad, "ops": 0}

    def op(self, i):
        s = next(self.seeds)
        return s, self.ob.verify.run_suite("all", budget=BUDGET, seed=s)

    def check(self, i, result):
        s, checks = result
        bad = gate.check_suite(checks, self.reference["checks"], exact=False)
        if bad:
            self.failures.setdefault(f"seed={s}", {"reason": bad, "ops": 0})["ops"] += 1
        return bad is None

    def fixed_pass(self):
        self.ob.verify.run_suite("all", budget=BUDGET, seed=self.pass_seed)
        return 1


class PointQueries:
    """Single-point queries: per-call overhead of cycle, engine and fridge."""

    def __init__(self, seed):
        self.seed = seed
        # Queries inside a listed defect's input domain fail today, so they
        # are not ops of the timed stream: probe_defects runs and gates each
        # of them once per run, untimed, and lists the ones that fail.
        generated = inputs.point_queries(seed)
        self.queries = [q for q in generated if gate.known_defect(q[0], q[2]) is None]
        self.defect_queries = [q for q in generated if gate.known_defect(q[0], q[2])]
        self.failures = {}
        self.known = {}

    def setup(self, ob):
        self.ob = ob
        ops = gate.query_ops(ob)
        self.calls = [(ops[kind], args) for kind, _, args in self.queries]
        self.defect_calls = [(ops[kind], args) for kind, _, args in self.defect_queries]
        self.first = [self._run(fn, a) for fn, a in self.calls]
        self.prints = [gate.fingerprint(o) for o in self.first]
        self.drift = {}

    @staticmethod
    def _run(fn, a):
        try:
            return fn(a)
        except Exception as exc:      # typed or not, the gate judges it
            return exc

    def run_block(self, start, lat):
        """Time BLOCK queries from stream position ``start``; returns wall ns."""
        calls, n, clock = self.calls, len(self.calls), time.perf_counter_ns
        outs = []
        t_block = clock()
        for pos in range(start, start + BLOCK):
            fn, a = calls[pos % n]
            t0 = clock()
            try:
                out = fn(a)
            except Exception as exc:
                out = exc
            lat.append(clock() - t0)
            outs.append(out)
        wall = clock() - t_block
        for pos, out in zip(range(start, start + BLOCK), outs):
            if not gate.same(gate.fingerprint(out), self.prints[pos % n]):
                self.drift[pos % n] = self.drift.get(pos % n, 0) + 1
        return wall

    def judge(self):
        """Gate every distinct query once: invariants, then mpmath on a subset."""
        import random

        ob = self.ob
        sample = set(random.Random(self.seed).sample(range(len(self.queries)), MP_SUBSET))
        verdicts = []
        for i, ((kind, cat, args), out) in enumerate(zip(self.queries, self.first)):
            bad = gate.check_query(ob, kind, args, out)
            if bad is None and i in sample:
                bad = gate.mp_check(ob, kind, args, out)
            if bad is None and i in self.drift:
                bad = "result differs between repeats of the same query"
            verdicts.append(bad)
        return verdicts

    def probe_defects(self):
        """Gate each defect-domain query once, with mpmath too; record the failures."""
        for (kind, cat, args), (fn, a) in zip(self.defect_queries, self.defect_calls):
            out = self._run(fn, a)
            bad = gate.check_query(self.ob, kind, args, out) or gate.mp_check(self.ob, kind, args, out)
            if bad:
                self.known[f"{kind}{args}"] = {"reason": bad, "defect": gate.known_defect(kind, args),
                                               "category": cat}

    def fixed_pass(self):
        for fn, a in self.calls + self.defect_calls:
            self._run(fn, a)
        return len(self.calls) + len(self.defect_calls)


class CliRuns:
    """Fresh CLI processes: interpreter start, import and the command itself."""

    def __init__(self, seed):
        self.rotation = inputs.cli_rotation(seed)
        self.expected = None
        self.failures = {}
        self.rss = []
        self.walls = {label: [] for label, _ in self.rotation}

    def setup(self, ob):
        self.ob = ob
        spawn([sys.executable, "-m", "ottobounds", "--version"])

    def op(self, i):
        label, argv = self.rotation[i % len(self.rotation)]
        seconds, code, text, rss = spawn([sys.executable, "-m", "ottobounds", *argv])
        self.rss.append(rss)
        self.walls[label].append(seconds)
        return i, code, text

    def check(self, i, result):
        i, code, text = result
        if self.expected is None:     # the gate's own reference work, outside set-up
            self.expected = [gate.cli_expected(self.ob, argv) for _, argv in self.rotation]
        k = i % len(self.rotation)
        bad = gate.check_cli(self.rotation[k][1], code, text, self.expected[k])
        if bad:
            key = " ".join(self.rotation[k][1])
            self.failures.setdefault(key, {"reason": bad, "ops": 0})["ops"] += 1
        return bad is None

    def fixed_pass(self):
        for i in range(len(self.rotation)):
            self.check(i, self.op(i))
        return len(self.rotation)

    def traced_pass(self, tracer):
        """One rotation through bench/cli_child.py; child spans merge into tracer."""
        OUT.mkdir(exist_ok=True)
        path = OUT / f"cli-child-{os.getpid()}.json"
        for i, (_, argv) in enumerate(self.rotation):
            _, code, text, _ = spawn([sys.executable, str(BENCH / "cli_child.py"), str(path), *argv])
            self.check(i, (i, code, text))
            data = json.loads(path.read_text())
            path.unlink()
            tracer.count("init.numpy_loaded", int(data["numpy_loaded"]))
            tracer.absorb(data)
        return len(self.rotation)


WORKLOADS = {"verify_suites": VerifySuites, "point_queries": PointQueries, "cli_runs": CliRuns}


def import_program():
    if not (SRC / "ottobounds" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC / 'ottobounds'}")
    sys.path.insert(0, str(SRC))
    import ottobounds

    if Path(ottobounds.__file__).resolve().parent != SRC / "ottobounds":
        sys.exit(f"bench: ottobounds came from {ottobounds.__file__}, not from {SRC}")
    return ottobounds


# -- end-to-end run --------------------------------------------------------------

def setup_probes(args, n):
    """n fresh interpreters running the workload's set-up: (seconds, peak RSS MB) each."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--probe"]
    times, rss = [], []
    for _ in range(n):
        seconds, code, out, mb = spawn(argv, first_line=True)
        if code != 0 or out != "ready\n":
            sys.exit(f"bench: set-up probe failed (exit {code}): {out[-2000:]}")
        times.append(seconds)
        rss.append(mb)
    return times, rss


def timed_run(args, wl):
    """The timed phase; returns (latencies in ns, busy seconds, attempted, failed)."""
    need = round(10 / (1 - TAIL[args.workload] / 100))    # ten samples beyond the tail
    budget_ns = args.seconds * 1e9
    lat, busy, failed = array("q"), 0, 0
    if isinstance(wl, PointQueries):
        pos = 0
        while busy < budget_ns or pos < len(wl.calls):     # one full pass at least
            busy += wl.run_block(pos, lat)
            pos += BLOCK
        verdicts = wl.judge()
        n = len(wl.calls)
        per_query = [pos // n + (1 if i < pos % n else 0) for i in range(n)]
        for i, bad in enumerate(verdicts):
            if bad:
                kind, cat, a = wl.queries[i]
                failed += per_query[i]
                wl.failures[f"{kind}{a}"] = {"reason": bad, "category": cat, "ops": per_query[i]}
        return lat, busy / 1e9, len(lat), failed
    i = 0
    while busy < budget_ns or len(lat) < need:
        t0 = time.perf_counter_ns()
        result = wl.op(i)
        dt = time.perf_counter_ns() - t0
        lat.append(dt)
        busy += dt
        failed += not wl.check(i, result)
        i += 1
    return lat, busy / 1e9, len(lat), failed


def end_to_end(args, wl):
    """Timed run: rows of (name, value, unit, note), attempted, failed, notes."""
    # Half the probes run before the timed phase and half after it, so that
    # the set-up median spans the run rather than its first seconds.
    probe_s, probe_rss = setup_probes(args, SETUP_PROBES - SETUP_PROBES // 2)
    wl.setup(import_program())
    lat, busy, attempted, failed = timed_run(args, wl)
    after_s, after_rss = setup_probes(args, SETUP_PROBES // 2)
    probe_s, probe_rss = probe_s + after_s, probe_rss + after_rss
    import numpy

    lat = numpy.frombuffer(lat, dtype=numpy.int64)
    pct = TAIL[args.workload]
    if isinstance(wl, PointQueries):
        # The host's slow spells last from tens of ms to seconds and swing
        # the raw latencies of these few-us queries by up to 2x between
        # runs, so each query is timed by its best of its ~400 repeats in
        # the run, and the metrics are taken over the queries: the stream
        # repeats from position 0, so latency k belongs to query k % n.
        n = len(wl.calls)
        passes = len(lat) // n
        best = numpy.sort(lat[:passes * n].reshape(passes, n).min(axis=0))
        how = f"over {n} queries, each its best of {passes} repeats"
        rate, rate_note = n / (best.sum() / 1e9), f"{n} queries / sum of their best latencies"
        lat = best
    else:
        lat = numpy.sort(lat)
        how = f"n={len(lat)}"
        rate, rate_note = attempted / busy, f"{attempted} ops in {busy:.3f} busy s"
    if isinstance(wl, CliRuns):
        rss = (max(wl.rss), f"largest of {len(wl.rss)} children")
    else:
        rss = (statistics.median(probe_rss), f"median of {len(probe_rss)} set-up probes")
    rows = [
        ("setup_s", statistics.median(probe_s), "s", f"median of {len(probe_s)} fresh set-ups"),
        ("ops_per_s", rate, "1/s", rate_note),
        ("op_p50_ms", float(numpy.median(lat)) / 1e6, "ms", f"p50 {how}"),
        ("op_tail_ms", int(nearest_rank(lat, pct)) / 1e6, "ms", f"p{pct:g} {how}"),
        ("peak_rss_mb", rss[0], "MB", rss[1]),
    ]
    notes = [f"failed_frac = {failed / attempted:.6g}  ({failed} of {attempted} ops)"]
    if isinstance(wl, PointQueries):
        typed = sum(1 for o in wl.first if isinstance(o, wl.ob.errors.OttoError)
                    or getattr(o, "cooling_feasible", True) is False)
        edge = sum(1 for _, cat, _ in wl.queries if cat == "edge")
        notes.append(f"stream: {n} queries, {typed / n:.1%} typed answers "
                     f"({inputs.TYPED_SHARE:.0%} of the generated ones built for it), "
                     f"{edge / n:.1%} at the saturation edges, {MP_SUBSET} also checked against "
                     f"mpmath; {len(wl.defect_queries)} generated queries in a listed defect's "
                     f"domain run untimed, once each")
    return rows, attempted, failed, notes


# -- traced run ----------------------------------------------------------------------

IMPORT_PROBE = ("import time; t = time.perf_counter(); import ottobounds; "
                "print(time.perf_counter() - t)")


def import_ms(n=SETUP_PROBES):
    """Median time of `import ottobounds` in n fresh interpreters, in ms."""
    return statistics.median(float(spawn([sys.executable, "-c", IMPORT_PROBE])[2])
                             for _ in range(n)) * 1e3


def interpreter_ms(n=SETUP_PROBES):
    """Median wall time of n bare `python -c pass` processes, in ms."""
    return statistics.median(spawn([sys.executable, "-c", "pass"])[0] for _ in range(n)) * 1e3


def pass_metrics(tracer):
    """Per-layer metrics of one traced pass (counts and times)."""
    layers, by_name = tracer.layer_summary()
    c = tracer.counts

    def calls(name):
        return by_name.get(name, (0, 0))[0]

    def ms(name):
        return by_name.get(name, (0, 0))[1] / 1e6

    def per_call_us(name):
        return ms(name) * 1e3 / calls(name) if calls(name) else 0.0

    grid = tracer.name_ids.get("oracle.sup_constrained_grid")
    ceiling = tracer.name_ids.get("verify.ceiling_check")
    ceiling_grid_ns = sum(tracer.end[i] - tracer.start[i] for i in range(len(tracer.start))
                          if tracer.name_idx[i] == grid and tracer.parent[i] >= 0
                          and tracer.name_idx[tracer.parent[i]] == ceiling)
    points, feasible = c.get("oracle.grid_points", 0), c.get("oracle.grid_feasible", 0)
    return {
        "init.numpy_loaded": c.get("init.numpy_loaded", 0),
        "cli.render_ms": sum(map(ms, ("cli.RunReport.to_csv", "cli.RunReport.to_json", "cli._emit"))),
        "verify.ceiling_ms": ms("verify.ceiling_check"),
        "verify.ceiling_grid_ms": ceiling_grid_ns / 1e6,
        "verify.ceiling_draws_ms": ms("verify.ceiling_check") - ceiling_grid_ns / 1e6,
        "verify.optimality_ms": ms("verify.optimality_check"),
        "verify.identities_ms": ms("verify.identities_check"),
        "verify.windows_ms": ms("verify.windows_check"),
        "verify.evaluations": c.get("verify.evaluations", 0),
        "verify.exact_efficiency_calls": calls("verify.exact_efficiency"),
        "verify.feasible_calls": calls("verify._engine_feasible"),
        "oracle.grid_points": points,
        "oracle.grid_feasible": feasible,
        "oracle.grid_feasible_ratio": feasible / points if points else 0.0,
        "oracle.grid_ms": ms("oracle.sup_constrained_grid"),
        "oracle.grid_points_per_s": points / (ms("oracle.sup_constrained_grid") / 1e3) if points else 0.0,
        "oracle.golden_searches": calls("oracle.maximize_scalar"),
        "oracle.golden_evals": c.get("oracle.golden_evals", 0),
        "oracle.golden_ms": ms("oracle.maximize_scalar"),
        "oracle.bisect_evals": c.get("oracle.bisect_evals", 0),
        "engine.calls": layers["engine"]["calls"],
        "engine.self_ms": layers["engine"]["self_ns"] / 1e6,
        "engine.report_us": per_call_us("engine.engine_report"),
        "fridge.calls": layers["fridge"]["calls"],
        "fridge.self_ms": layers["fridge"]["self_ns"] / 1e6,
        "fridge.report_us": per_call_us("fridge.fridge_report"),
        "fridge.typed_errors": layers["fridge"]["raised"],
        "cycle.spec_builds": calls("cycle.CycleSpec.__post_init__"),
        "cycle.heats_work_calls": calls("cycle.heats_work"),
        "cycle.heats_work_us": per_call_us("cycle.heats_work"),
        "cycle.self_ms": layers["cycle"]["self_ns"] / 1e6,
        "cycle.nonfinite_results": c.get("cycle.nonfinite_results", 0),
        "special.calls": layers["special"]["calls"],
        "special.self_ms": layers["special"]["self_ns"] / 1e6,
    }


def traced(args, wl):
    """Traced run: pairs of an untraced and a traced pass of fixed work.

    Every count must come out the same in each traced pass and, for the
    same seed and program source, in every earlier traced run in this
    checkout (kept in .bench_out/counts-*.json); a difference is a failure.
    """
    ob = import_program()
    wl.setup(ob)
    is_cli = isinstance(wl, CliRuns)
    metrics = {"init.import_ms": import_ms(),
               "cli.interpreter_ms": interpreter_ms() if is_cli else 0.0}
    untraced, traced_s, passes = [], [], []
    tracer = Tracer()
    busy, ops = 0.0, 0
    while busy < args.seconds or len(passes) < 2:
        t0 = time.perf_counter()
        ops += wl.fixed_pass()
        untraced.append(time.perf_counter() - t0)
        tracer.reset()
        if is_cli:
            t0 = time.perf_counter()
            ops += wl.traced_pass(tracer)
            traced_s.append(time.perf_counter() - t0)
        else:
            tracer.install()
            try:
                t0 = time.perf_counter()
                ops += wl.fixed_pass()
                traced_s.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
        passes.append(pass_metrics(tracer))
        busy += untraced[-1] + traced_s[-1]
    counts = {k: v for k, v in passes[0].items() if isinstance(v, int)}
    mismatch = [k for k in counts if len({p[k] for p in passes}) != 1]
    for key in passes[0]:
        vals = [p[key] for p in passes]
        metrics[key] = vals[0] if isinstance(vals[0], int) else statistics.median(vals)
    for label in ("eval", "fridge", "fig2", "fig3"):
        walls = wl.walls[label] if is_cli else []
        metrics[f"cli.{label}_ms"] = statistics.median(walls) * 1e3 if walls else 0.0
    walls = wl.walls["verify-identities"] + wl.walls["verify-windows"] if is_cli else []
    metrics["cli.verify_ms"] = statistics.median(walls) * 1e3 if walls else 0.0
    metrics["trace.overhead_frac"] = 1.0 - statistics.median(untraced) / statistics.median(traced_s)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    with gzip.open(OUT / f"spans-{stem}.jsonl.gz", "wt", encoding="utf-8", compresslevel=1) as fh:
        for row in tracer.rows():
            fh.write(json.dumps(row) + "\n")
    record = OUT / f"counts-{stem}.json"
    digest = src_digest()
    if record.is_file():
        prev = json.loads(record.read_text())
        if prev["src_sha256"] == digest:
            mismatch += [k for k in counts if prev["counts"].get(k, counts[k]) != counts[k]]
    record.write_text(json.dumps({"src_sha256": digest, "counts": counts}))
    for key in set(mismatch):
        wl.failures[f"count {key}"] = {"reason": "exact count differs between runs", "ops": 0}
    failed = sum(f["ops"] for f in wl.failures.values())
    notes = {"init.import_ms": f"median of {SETUP_PROBES} fresh imports",
             "cli.interpreter_ms": f"median of {SETUP_PROBES} bare interpreters",
             "cli.verify_ms": "median over the timed CLI runs of both verify commands"}
    for label in ("eval", "fridge", "fig2", "fig3"):
        notes[f"cli.{label}_ms"] = f"median over the timed CLI runs of {label}"
    rows = [(k, v, _unit(k), notes.get(k) or (f"one pass, equal in all {len(passes)}"
             if isinstance(v, int) else f"median of {len(passes)} pass pairs"))
            for k, v in metrics.items()]
    return rows, ops, failed, []


# -- main --------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.probe:                # one fresh set-up, timed by the parent
        WORKLOADS[args.workload](args.seed).setup(import_program())
        print("ready", flush=True)
        return 0

    import_program()
    prov = provenance(args)
    wl = WORKLOADS[args.workload](args.seed)
    rows, attempted, failed, notes = (traced if args.trace else end_to_end)(args, wl)
    if isinstance(wl, PointQueries):
        wl.probe_defects()
    for name, value, unit, note in rows:
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {unit}  ({note})")
    for line in notes:
        print(line)
    failures = wl.failures
    for key, f in sorted(failures.items(), key=lambda kv: -kv[1]["ops"])[:12]:
        print(f"failed: {key} -> {f['reason']} [ops={f['ops']}]")
    if len(failures) > 12:
        print(f"failed: ... {len(failures) - 12} more distinct inputs, see .bench_out/")
    if isinstance(wl, PointQueries):
        by_defect = {}
        for f in wl.known.values():
            by_defect[f["defect"]] = by_defect.get(f["defect"], 0) + 1
        print(f"known defects, untimed: {len(wl.known)} of {len(wl.defect_queries)} generated "
              f"queries in a listed defect's domain fail")
        for defect, k in sorted(by_defect.items()):
            print(f"  {defect}: {k} queries ({gate.KNOWN_DEFECTS[defect]})")
        for key, f in list(wl.known.items())[:6]:
            print(f"  known defect {f['defect']}: {key} -> {f['reason']}")
    prov["loadavg_end"] = os.getloadavg()
    print("provenance: " + json.dumps(prov))

    # Any failure, a count that does not repeat included, makes the run
    # incorrect; the listed defects are kept out of the ops (PointQueries).
    correct = not failures
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "trace": args.trace, "provenance": prov,
                    "correct": correct, "attempted": attempted, "failed": failed,
                    "rows": rows, "notes": notes, "failures": failures,
                    "known_defects": getattr(wl, "known", {})}, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, value, unit, _ in rows}}))
    return 0


def _unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
