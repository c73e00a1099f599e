"""Tests of the benchmark itself: seeded inputs and span arithmetic.

Run with:  python3 -m pytest bench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def test_point_queries_repeat_for_a_seed_and_change_with_it():
    a = inputs.point_queries(7)
    assert a == inputs.point_queries(7)
    assert a != inputs.point_queries(8)
    assert len(a) == inputs.N_QUERIES


def test_point_query_categories_have_their_stated_shares():
    cats = [cat for _, cat, _ in inputs.point_queries(3)]
    n = inputs.N_QUERIES
    assert cats.count("typed") == round(n * inputs.TYPED_SHARE)
    assert cats.count("edge") == round(n * inputs.EDGE_SHARE)
    assert {kind for kind, _, _ in inputs.point_queries(3)} == set(inputs.KINDS)


def test_edge_queries_sit_at_the_saturation_edges():
    for kind, cat, args in inputs.point_queries(5):
        if cat != "edge":
            continue
        if kind in ("heats_work", "efficiency_sudden"):
            w1, w2, b_cold, b_hot, r = args[:5]
            assert 300.0 <= r <= 800.0 or 700.0 <= b_hot * w2 <= 1000.0
        elif kind == "effective_temperature":
            beta, omega, r = args
            assert 300.0 <= r <= 800.0 or 700.0 <= beta * omega <= 1000.0
        else:
            assert 300.0 <= args[-1] <= 800.0


def test_suite_seeds_and_cli_rotation_are_seeded():
    first = inputs.suite_seeds(11)
    again = inputs.suite_seeds(11)
    assert [next(first) for _ in range(5)] == [next(again) for _ in range(5)]
    assert inputs.cli_rotation(4) == inputs.cli_rotation(4)
    assert inputs.cli_rotation(4) != inputs.cli_rotation(5)
    assert [label for label, _ in inputs.cli_rotation(4)] == list(inputs.CLI_COMMANDS)


def test_self_time_is_span_minus_direct_children():
    # root [0, 100] has children a [10, 40] and b [50, 90]; a has child c [15, 25].
    name_idx = [0, 1, 2, 1]
    parent = [-1, 0, 1, 0]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 90]
    assert self_times(name_idx, parent, start, end) == [30, 20, 10, 40]


def test_tracer_records_nested_spans_and_layer_self_time():
    ticks = iter(range(0, 1000, 10))
    tr = Tracer(clock=lambda: next(ticks))
    inner = tr._wrap("special.sech", lambda x: x)
    outer = tr._wrap("engine.eta_up", lambda x: inner(x) + inner(x))
    assert outer(1) == 2
    # outer opens at 0, inner spans [10, 20] and [30, 40], outer closes at 50
    assert list(tr.start) == [0, 10, 30] and list(tr.end) == [50, 20, 40]
    assert list(tr.parent) == [-1, 0, 0]
    layers, by_name = tr.layer_summary()
    assert layers["engine"] == {"calls": 1, "self_ns": 30, "raised": 0}
    assert layers["special"] == {"calls": 2, "self_ns": 20, "raised": 0}
    assert by_name["special.sech"] == [2, 20]


def test_absorbed_spans_keep_their_parents():
    ticks = iter(range(0, 1000, 10))
    child = Tracer(clock=lambda: next(ticks))
    inner = child._wrap("cycle.coth", lambda: None)
    child._wrap("cycle.cycle_energies", inner)()
    child.count("cycle.nonfinite_results", 2)
    merged = Tracer()
    merged.absorb(child.dump())
    merged.absorb(child.dump())
    assert list(merged.parent) == [-1, 0, -1, 2]
    assert merged.counts == {"cycle.nonfinite_results": 4}
    layers, _ = merged.layer_summary()
    assert layers["cycle"]["calls"] == 4


def test_per_layer_metrics_match_benchmark_json():
    import json

    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    from_spans = set(run.pass_metrics(Tracer()))
    per_run = {"init.import_ms", "cli.interpreter_ms", "cli.eval_ms", "cli.fridge_ms",
               "cli.fig2_ms", "cli.fig3_ms", "cli.verify_ms", "trace.overhead_frac"}
    assert from_spans | per_run == set(declared)
    assert all(run._unit(name) == unit for name, unit in declared.items())
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_nearest_rank_takes_the_order_statistic():
    import run

    values = list(range(1, 101))
    assert run.nearest_rank(values, 50) == 50
    assert run.nearest_rank(values, 90) == 90
    assert run.nearest_rank(values, 99) == 99


def test_gate_separates_listed_defects_from_right_answers():
    import gate
    import run

    sys.path.insert(0, str(run.SRC))
    import ottobounds as ob

    ops = gate.query_ops(ob)
    fine = (1.0, 2.0, 2.0, 0.2, 0.5, "hot", "sudden", None)
    saturated = (1.0, 2.0, 2.0, 0.2, 400.0, "hot", "sudden", None)
    assert gate.check_query(ob, "heats_work", fine, ops["heats_work"](fine)) is None
    assert gate.mp_check(ob, "heats_work", fine, ops["heats_work"](fine)) is None
    assert gate.known_defect("heats_work", fine) is None
    bad = gate.check_query(ob, "heats_work", saturated, ops["heats_work"](saturated))
    assert bad is not None and "NaN" in bad
    assert gate.known_defect("heats_work", saturated) == "cycle-saturation"


def test_point_stream_leaves_listed_defect_domains_to_the_untimed_probe():
    import gate
    import run

    wl = run.PointQueries(6)
    generated = inputs.point_queries(6)
    assert sorted(map(repr, wl.queries + wl.defect_queries)) == sorted(map(repr, generated))
    assert all(gate.known_defect(kind, a) is None for kind, _, a in wl.queries)
    assert all(gate.known_defect(kind, a) in gate.KNOWN_DEFECTS for kind, _, a in wl.defect_queries)
    assert wl.defect_queries and any(cat == "edge" for _, cat, _ in wl.queries)
