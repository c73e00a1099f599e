import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ottobounds import engine, verify
from ottobounds.errors import DomainError

GOLDEN = Path(__file__).parent / "golden"

# Default-seed rows of `run_suite("all")` (budget 10^6), as recorded before
# the ceiling check became one pass per point: (name, worst, evaluations).
REFERENCE_ROWS = [
    ("efficiency-ceiling", 0.4999999944846905, 4747402),
    ("work-optimum", 1.083267371637664e-09, 25200),
    ("reduction-identities", 1.6777050534185766e-13, 548),
    ("cooling-windows", 1.6475709685437323e-13, 182),
]
GRID_EVALUATIONS = 4011323  # feasible points of the 48^4 grid plus its refinement


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ottobounds", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_default_seed_suite_rows_are_unchanged():
    checks = verify.run_suite("all")
    assert [(c.name, c.worst, c.evaluations) for c in checks] == REFERENCE_ROWS
    assert all(c.passed for c in checks)


def test_seed_7_ceiling_report_is_byte_identical():
    res = run_cli("verify", "--seed", "7", "--suite", "ceiling")
    assert res.returncode == 0
    assert res.stdout == (GOLDEN / "verify_seed7_ceiling.json").read_text()


def _textbook_efficiency(a, b, z, r):
    """Reference for `verify.exact_efficiency`: the formula as written, with
    fresh temporaries for every step and np.where for the engine region."""
    a, b, z, r = (np.asarray(v, dtype=float) for v in (a, b, z, r))
    dh = 1.0 + (2.0 + np.expm1(b)) * np.sinh(r) ** 2
    x = z * dh * np.tanh(0.5 * a) / np.tanh(0.5 * b)
    with np.errstate(divide="ignore"):
        eta = 1.0 / (2.0 / (1.0 - z * z) + 1.0 / (x - 1.0))
    return np.where((x > 1.0) & (a > b * z), eta, -np.inf)


def _one_shot_draws(samples, seed):
    """The draw leg as one samples x 4 batch through the textbook formula."""
    rng = np.random.default_rng(seed)
    a, b, z, r = rng.uniform(
        low=[1e-4, 1e-4, 1e-4, 0.0], high=[10.0, 10.0, 0.9999, 10.0], size=(samples, 4)
    ).T
    eta = _textbook_efficiency(a, b, z, r)
    return float(eta.max()), int(np.count_nonzero(eta > -np.inf))


def _bit_identity_cases():
    rng = np.random.default_rng(2024)
    a, b = rng.uniform(1e-4, 10.0, size=(2, 200_000))
    z = rng.uniform(1e-4, 0.9999, size=200_000)
    r = rng.uniform(0.0, 10.0, size=200_000)
    yield "random", (a, b, z, r)
    for n, lo in ((48, 1e-4), (21, 2.1)):   # the grid's block shapes: full and refine
        axes = [[3.7], np.linspace(lo, 10.0, n), np.linspace(lo / 10.0, 0.9999, n),
                np.linspace(0.0, 10.0, n)]
        yield f"block-{n}", tuple(np.meshgrid(*axes, indexing="ij", sparse=True))
    yield "broadcast", (rng.uniform(0.1, 9.0, size=(5, 1, 1)), 0.4,
                        rng.uniform(0.05, 0.95, size=(1, 6, 1)), rng.uniform(0.0, 3.0, size=7))
    for point in ((5.0, 0.1, 0.5, 1.0), (0.1, 5.0, 0.5, 0.0), (2.0, 1.0, 0.9, 0.0)):
        yield f"0-d {point}", point


@pytest.mark.parametrize("name, args", list(_bit_identity_cases()),
                         ids=[name for name, _ in _bit_identity_cases()])
def test_exact_efficiency_has_the_bits_of_the_textbook_formula(name, args):
    want = _textbook_efficiency(*args)
    if name == "random":
        assert 0 < np.count_nonzero(want > -np.inf) < want.size   # both regions seen
    got = verify.exact_efficiency(*args)
    buf = np.full(want.shape, np.nan)
    into = verify.exact_efficiency(*args, out=buf)
    assert into is buf
    for result in (got, into):
        assert type(result) is type(want) and result.shape == want.shape
        assert result.tobytes() == want.tobytes()


def test_exact_efficiency_rejects_a_mismatched_out():
    for out in (np.empty(3), np.empty((1, 2, 2)), np.empty((2, 1)),
                np.empty((2, 2), dtype=np.float32), [[0.0, 0.0], [0.0, 0.0]]):
        with pytest.raises(DomainError):
            verify.exact_efficiency([1.0, 2.0], 0.5, 0.5, [[0.0], [1.0]], out=out)


def test_ceiling_memory_does_not_grow_with_the_budget():
    # Four times the draws, the same peak.  CPython's free lists make the
    # traced bytes of two identical calls differ by a few dozen, hence the
    # 1 KiB slack; one more chunk held at once would add hundreds of KiB.
    verify.ceiling_check(samples=verify.DRAW_CHUNK + 7)   # first-call caches
    peaks = []
    for k in (2, 8):
        tracemalloc.start()
        try:
            verify.ceiling_check(samples=k * verify.DRAW_CHUNK + 7)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[0] - peaks[1]) <= 1024 and max(peaks) < 2.5 * 2**20


def test_chunked_draws_reproduce_a_one_shot_draw():
    samples = verify.DRAW_CHUNK + 7
    grid = verify.ceiling_check(samples=0, seed=11)
    check = verify.ceiling_check(samples=samples, seed=11)
    best, count = _one_shot_draws(samples, seed=11)
    assert check.worst == max(grid.worst, best)
    assert check.evaluations == grid.evaluations + count
    assert f"plus {samples} seeded draws" in check.detail


def test_zero_budget_runs_the_grid_alone():
    for budget in (0, np.int64(0)):
        (check,) = verify.run_suite("ceiling", budget=budget)
        assert check.evaluations == GRID_EVALUATIONS
        assert "plus 0 seeded draws" in check.detail
        assert check.passed


def test_negative_budget_is_a_domain_error():
    # Non-integral budgets too: int() used to truncate 1.5 and 2.9 silently,
    # and True ran one draw.
    for bad in (-5, -1, 1.5, 2.9, 3.0, True, "10"):
        with pytest.raises(DomainError):
            verify.ceiling_check(samples=bad)
        with pytest.raises(DomainError):
            verify.run_suite("ceiling", budget=bad)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_bad_seed_is_a_domain_error(seed):
    with pytest.raises(DomainError):
        verify.ceiling_check(samples=0, seed=seed)


@pytest.mark.parametrize("suite, kwargs", [
    (verify.identities_check, {"tol": "x"}),
    (verify.identities_check, {"tol": float("nan")}),
    (verify.identities_check, {"tol": 0.0}),
    (verify.windows_check, {"tol": True}),
    (verify.windows_check, {"tol": -1e-9}),
    (verify.windows_check, {"tol": None}),
    (verify.optimality_check, {"n_eta": 0}),
    (verify.optimality_check, {"n_r": 0}),
    (verify.optimality_check, {"n_eta": 2.0}),
    (verify.optimality_check, {"n_r": -3}),
    (verify.optimality_check, {"n_eta": True}),
    (verify.optimality_check, {"tol_z": "1e-8"}),
    (verify.optimality_check, {"tol_eta": float("inf")}),
])
def test_bad_suite_arguments_are_domain_errors(suite, kwargs):
    # n_eta = 0 used to make an empty grid that passed without checking anything.
    with pytest.raises(DomainError):
        suite(**kwargs)


def test_cli_budget_zero_and_negative():
    for flags in (("--budget", "-5"), ("--seed", "-1")):
        res = run_cli("verify", "--suite", "ceiling", *flags)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
    res = run_cli("verify", "--suite", "ceiling", "--budget", "0")
    assert res.returncode == 0
    assert "plus 0 seeded draws" in res.stdout


def test_exact_efficiency_marks_non_engines_with_minus_inf():
    # a > b z fails (cold bath not colder), then x <= 1 (no positive work).
    eta = verify.exact_efficiency([0.1, 5.0, 5.0], [5.0, 0.1, 0.1], [0.5, 0.5, 0.01], [0.0, 1.0, 0.0])
    assert eta[0] == -np.inf and eta[2] == -np.inf
    assert 0.0 < eta[1] < 0.5


def test_grouped_work_gives_the_same_bits_for_floats_and_arrays():
    # Lockstep lanes rely on this; Python's pow(s, 2) and numpy's square
    # disagree in the last bit for about 1 input in 1000.
    rng = np.random.default_rng(5)
    z, sg, u = rng.uniform(0.01, 0.99, size=(3, 20_000))
    lanes = engine._grouped_work(z, sg, u).tolist()
    assert lanes == [engine._grouped_work(*p) for p in zip(z.tolist(), sg.tolist(), u.tolist())]


def test_lockstep_work_argmax_equals_one_lane_calls():
    tau = np.array([0.05, 0.3, 0.7, 0.95])
    r = np.array([0.0, 0.4, 2.5, 5.0])
    z, evaluations = verify.work_argmax(tau, r)
    singles = [verify.work_argmax(float(t), float(rr)) for t, rr in zip(tau, r)]
    assert z.tolist() == [zs for zs, _ in singles]
    assert evaluations == sum(n for _, n in singles)
    assert all(type(zs) is float for zs, _ in singles)


@pytest.mark.parametrize("tau, r", [(0.0, 1.0), (1.0, 0.5), (0.5, -0.1), (0.5, np.inf),
                                    (np.array([0.5, 1.2]), np.array([0.0, 1.0]))])
def test_work_argmax_rejects_out_of_domain_inputs(tau, r):
    with pytest.raises(DomainError):
        verify.work_argmax(tau, r)
