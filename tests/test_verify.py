import gc
import inspect
import itertools
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import _reference as ref
from _cli import run_cli
from ottobounds import engine, verify
from ottobounds.errors import DomainError

# Default-seed rows of `run_suite("all")` (budget 10^6), as recorded before
# the ceiling check became one pass per point: (name, worst, evaluations).
REFERENCE_ROWS = [
    ("efficiency-ceiling", 0.4999999944846905, 4747402),
    ("work-optimum", 1.083267371637664e-09, 25200),
    ("reduction-identities", 1.6777050534185766e-13, 548),
    ("cooling-windows", 1.6475709685437323e-13, 182),
]
GRID_EVALUATIONS = 4011323  # feasible points of the 48^4 grid plus its refinement


def test_default_seed_suite_rows_are_unchanged():
    checks = verify.run_suite("all")
    assert [(c.name, c.worst, c.evaluations) for c in checks] == REFERENCE_ROWS
    assert all(c.passed for c in checks)


def _textbook_efficiency(a, b, z, r):
    """Reference for `verify.exact_efficiency`: the formula as written, with
    fresh temporaries for every step and np.where for the engine region."""
    a, b, z, r = (np.asarray(v, dtype=float) for v in (a, b, z, r))
    dh = 1.0 + (2.0 + np.expm1(b)) * np.sinh(r) ** 2
    x = z * dh * np.tanh(0.5 * a) / np.tanh(0.5 * b)
    with np.errstate(divide="ignore"):
        eta = 1.0 / (2.0 / (1.0 - z * z) + 1.0 / (x - 1.0))
    return np.where((x > 1.0) & (a > b * z), eta, -np.inf)


def _one_shot_draws(samples, seed, rows=slice(None)):
    """The draw leg as one samples x 4 batch through the textbook formula
    (best and feasible count of ``rows`` of it)."""
    rng = np.random.default_rng(seed)
    a, b, z, r = rng.uniform(
        low=[1e-4, 1e-4, 1e-4, 0.0], high=[10.0, 10.0, 0.9999, 10.0], size=(samples, 4)
    )[rows].T
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
    assert type(got) is type(want) and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_a_0d_point_has_the_bits_of_the_same_array_element():
    # A numpy scalar's ** 2 goes through libm pow, which here is one ulp off
    # the product an array element gets; the in-place formula squares both alike.
    point = (1.1805203037176988, 1.4658597073301436, 0.5213981783590097, 0.6787315663387217)
    lane = verify.exact_efficiency(*(np.array([v]) for v in point))[0]
    assert verify.exact_efficiency(*point).tobytes() == lane.tobytes()


def test_exact_efficiency_takes_only_the_point():
    assert list(inspect.signature(verify.exact_efficiency).parameters) == ["a", "b", "z", "r"]


def _traced_peak(fn):
    """Peak traced bytes while ``fn()`` runs.  A full collection empties
    CPython's free lists, and refilling them costs 9-14 KB, so none may run
    inside the measured call."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def _draws(samples, seed=verify.DEFAULT_SEED):
    """One thread's draw leg over every chunk of ``samples`` draws."""
    return verify._draw_leg(samples, seed)(itertools.count())


def test_legs_sharing_one_counter_judge_each_chunk_once():
    # More threads than cores and a short switch interval: a chunk claimed
    # twice or skipped would change the count or the best value.
    samples, seed = 9 * verify.DRAW_CHUNK + 3, 4
    claims, results = itertools.count(), []
    legs = [verify._draw_leg(samples, seed) for _ in range(4)]
    threads = [threading.Thread(target=lambda leg=leg: results.append(leg(claims)))
               for leg in legs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == 4
    best = max(b for b, _ in results)
    assert (best, sum(c for _, c in results)) == _one_shot_draws(samples, seed)


def test_ceiling_memory_does_not_grow_with_the_budget():
    # Each thread's work is traced alone, here, so no peak depends on how
    # the two threads interleave.  Four times the draws, the same peak:
    # CPython's free lists make the traced bytes of two identical calls
    # differ by a few dozen, hence the 1 KiB slack; one more chunk held at
    # once would add hundreds of KiB.  The caller runs draws and the worker
    # the grid and then draws, so these peaks bound the check's.
    _draws(verify.DRAW_CHUNK + 7)   # first-call caches
    verify._grid_leg()
    n = verify.DRAW_CHUNK
    draws = [_traced_peak(lambda: _draws(k * n + 7)) for k in (2, 8)]
    grid = _traced_peak(verify._grid_leg)
    assert abs(draws[0] - draws[1]) <= 1024
    assert max(draws) + max(grid, *draws) < 2.5 * 2**20
    assert _traced_peak(lambda: verify.ceiling_check(samples=8 * n + 7)) < 2.5 * 2**20


def test_chunked_draws_reproduce_a_one_shot_draw():
    grid = verify.ceiling_check(samples=0, seed=11)
    n = verify.DRAW_CHUNK
    for samples in (1, n - 1, n, n + 7, 3 * n + 5):   # one short chunk, whole ones, a tail
        check = verify.ceiling_check(samples=samples, seed=11)
        best, count = _one_shot_draws(samples, seed=11)
        assert check.worst == max(grid.worst, best)
        assert check.evaluations == grid.evaluations + count
        assert f"plus {samples} seeded draws" in check.detail


def _spy_on(monkeypatch, name, keep=lambda args, result: args):
    """Record ``keep(args, result)`` for every call of ``verify.<name>``."""
    calls = []
    real = getattr(verify, name)

    def spy(*args):
        result = real(*args)
        calls.append(keep(args, result))
        return result

    monkeypatch.setattr(verify, name, spy)
    return calls


@pytest.mark.parametrize("samples", [0, 1, verify.DRAW_CHUNK, verify.DRAW_CHUNK + 1,
                                     3 * verify.DRAW_CHUNK + 5])
def test_the_draw_leg_calls_the_kernel_once_per_chunk(monkeypatch, samples):
    # The kernel's first half and the engine region, once per chunk; eta's
    # tail only where a row can beat the best so far.
    halves = [_spy_on(monkeypatch, name) for name in ("_zdh_into", "_engine_into")]
    tails = _spy_on(monkeypatch, "_eta_tail")
    _draws(samples, seed=3)
    chunks = -(-samples // verify.DRAW_CHUNK)
    assert [len(calls) for calls in halves] == [chunks, chunks]
    assert len(tails) <= chunks


def test_the_draw_legs_aliased_buffers_give_the_bits_of_exact_efficiency(monkeypatch):
    # Hand-picked rows: an engine, x <= 1, a <= b z with x > 1, and x = 1
    # exactly (r = 0 makes dh = 1, and this z is tanh(1/2)/tanh(3/2)).
    rows = np.array([(5.0, 0.1, 0.5, 1.0), (2.0, 0.5, 0.1, 0.0), (1.0, 4.0, 0.9, 3.0),
                     (3.0, 1.0, 0.5105430578904047, 0.0)])
    lows, highs = np.array(verify.CEILING_BOX).T
    rows = np.vstack([rows, np.random.default_rng(8).uniform(lows, highs, size=(3000, 4))])
    a, b, z, r = rows.T.copy()
    x = z * (1.0 + (2.0 + np.expm1(b)) * np.sinh(r) ** 2) * np.tanh(0.5 * a) / np.tanh(0.5 * b)
    assert x[3] == 1.0
    colder = a > b * z
    assert np.any(colder & (x > 1.0)) and np.any(colder & (x < 1.0)) and np.any(~colder & (x > 1.0))

    want = verify.exact_efficiency(a, b, z, r)
    engines = want[want > -np.inf]

    judge = verify._judge_rows
    calls = _spy_on(monkeypatch, "_judge_rows")
    _draws(len(rows), seed=3)
    (args,) = calls
    fb, fr, dh, fa, bz, fz, zp = args[5][:7]
    assert fb is fa is bz is fz and fr is dh and zp is args[2]   # the aliasing under test
    for row, values in zip(args[:4], (a, b, z, r)):
        row[...] = values
    tails = _spy_on(monkeypatch, "_eta_tail", keep=lambda args, eta: eta.copy())
    # With no best yet every engine row reaches the tail, in row order.
    assert judge(*args[:-1], np.inf) == (engines.size, float(engines.max()))
    (eta,) = tails
    assert eta.tobytes() == engines.tobytes()


def _bound(z):
    """U(z) = 1 / (2 / (1 - z z)) through the kernel's numpy steps: eta on
    an engine row at z is at most this."""
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        return np.divide(1.0, np.divide(2.0, np.subtract(1.0, np.multiply(z, z))))


@pytest.mark.parametrize("best", [-np.inf, 0.0, 0.45, 0.4999999, 0.49999997944998625,
                                  REFERENCE_ROWS[0][1], 0.5, 0.75])
def test_the_draw_cut_skips_only_rows_that_cannot_beat_the_best(best):
    # 0.4999999794... is the default-seed draw leg's best, the next the
    # ceiling's.  U does not rise with z, so U <= best at the cut and above
    # it covers every skipped row.
    cut = verify._z_cut(best)
    above = [cut]
    for _ in range(4):
        above.append(np.nextafter(above[-1], np.inf))
    assert np.all(_bound(above) <= best)
    if 0.0 < best < 0.5:
        assert cut < 1.0 and np.diff(_bound(np.linspace(0.0, cut, 1001))).max() <= 0.0


def test_eta_on_an_engine_row_is_at_most_its_envelope():
    rng = np.random.default_rng(19)
    lows, highs = np.array(verify.CEILING_BOX).T
    a, b, z, r = rng.uniform(lows, highs, size=(20_000, 4)).T
    eta = verify.exact_efficiency(a, b, z, r)
    engine = eta > -np.inf
    assert np.all(eta[engine] <= _bound(z[engine]))


@pytest.mark.parametrize("seed", [0, 4, 7])
def test_a_best_draw_in_a_late_chunk_is_found(seed):
    # In these streams the best row sits in chunk 3 of 5, after the cut has
    # been set by the chunks before it; judged in either order, the draws
    # keep the one-shot best and count.
    n = verify.DRAW_CHUNK
    samples = 4 * n + 5
    best, count = _one_shot_draws(samples, seed)
    assert best > _one_shot_draws(samples, seed, rows=slice(0, 3 * n))[0]
    assert _draws(samples, seed) == (best, count)
    assert verify._draw_leg(samples, seed)(iter([4, 3, 2, 1, 0])) == (best, count)


def test_after_its_first_chunk_a_leg_sends_few_rows_to_the_eta_tail(monkeypatch):
    # A clock-free guard on the cut: at the default budget and seed one leg
    # judges 62 chunks.  Its first chunk (no best yet) sends every engine
    # row to eta's tail, about 12 000; after that a few rows a chunk do,
    # where a cut that judged every engine row would send ~12 000 each.
    sizes = _spy_on(monkeypatch, "_eta_tail", keep=lambda args, eta: eta.size)
    best, count = _draws(verify.DEFAULT_BUDGET)
    chunks = -(-verify.DEFAULT_BUDGET // verify.DRAW_CHUNK)
    first = _one_shot_draws(verify.DRAW_CHUNK, verify.DEFAULT_SEED)[1]
    assert sizes[0] == first
    assert len(sizes) <= chunks and max(sizes[1:]) <= 16 and sum(sizes[1:]) <= 3 * (chunks - 1)
    assert (best, count) == _one_shot_draws(verify.DEFAULT_BUDGET, verify.DEFAULT_SEED)


def _spy_on_the_worker(monkeypatch, then):
    """Pass each result of `verify._eta_into` computed off the calling
    thread, where the grid leg runs, through ``then``; returns the threads
    of those calls.  The caller's calls pass unchanged."""
    caller = threading.current_thread()
    threads = []
    real = verify._eta_into

    def spy(*args):
        eta = real(*args)
        if threading.current_thread() is caller:
            return eta
        threads.append(threading.current_thread())
        return then(eta)

    monkeypatch.setattr(verify, "_eta_into", spy)
    return threads


def _spy_on_the_grid_passes(monkeypatch):
    """Record the thread of every `verify._grid_pass` call."""
    threads = []
    real = verify._grid_pass

    def spy(axes):
        threads.append(threading.current_thread())
        return real(axes)

    monkeypatch.setattr(verify, "_grid_pass", spy)
    return threads


def test_grid_leg_runs_on_one_worker_thread(monkeypatch):
    before = threading.active_count()
    threads = _spy_on_the_grid_passes(monkeypatch)
    check = verify.ceiling_check(samples=100, seed=11)
    assert threading.active_count() == before
    assert len(threads) == 2   # the coarse pass and the fine pass
    assert threads[0] is threads[1] is not threading.current_thread()
    assert not threads[0].is_alive()
    assert check.evaluations == GRID_EVALUATIONS + _one_shot_draws(100, seed=11)[1]


def _textbook_grid(axes):
    """A grid pass by brute force: the textbook formula at every point,
    the first maximum in C order, the count of points > -inf."""
    eta = _textbook_efficiency(*np.meshgrid(*axes, indexing="ij", sparse=True))
    k = int(eta.argmax())
    at = np.unravel_index(k, eta.shape)
    return (float(eta.flat[k]), tuple(float(ax[i]) for ax, i in zip(axes, at)),
            int(np.count_nonzero(eta > -np.inf)))


def test_a_grid_pass_keeps_the_first_maximum_in_c_order():
    rng = np.random.default_rng(18)
    lows, highs = np.array(verify.CEILING_BOX).T
    repeated = [np.array([3.0, 9.0, 9.0, 5.0, 9.0]), np.array([0.5, 0.5, 2.0]),
                np.array([0.2, 0.6, 0.2, 0.6]), np.array([4.0, 0.0, 4.0, 4.0])]
    want = _textbook_grid(repeated)
    tied = _textbook_efficiency(*np.meshgrid(*repeated, indexing="ij", sparse=True)) == want[0]
    assert len(set(np.nonzero(tied)[0])) > 1 and np.count_nonzero(tied[1]) > 1   # across, in slabs
    # At r = 0, P = z: z = T(3, 1) is the least feasible P, its predecessor infeasible.
    t = float(verify._thresholds(np.tanh(np.array([[1.5]])), np.tanh(np.array([[0.5]])))[0, 0])
    edge = [np.array([3.0]), np.array([1.0]), np.array([np.nextafter(t, 0.0), t]), np.array([0.0])]
    assert _textbook_grid(edge)[2] == 1
    cases = [repeated, edge]
    for _ in range(60):
        axes = [rng.uniform(lo, hi, size=rng.integers(1, 8)) for lo, hi in zip(lows, highs)]
        cases.append([rng.choice(ax, size=len(ax) + 2) for ax in axes] if rng.random() < 0.3 else axes)
    for axes in cases:
        assert verify._grid_pass(axes) == _textbook_grid(axes)


def test_a_grid_pass_without_a_feasible_point():
    # a <= b z everywhere: the cold bath is never the colder one.
    axes = [np.linspace(1e-4, 0.1, 3), np.linspace(5.0, 10.0, 3), np.linspace(0.5, 0.9, 3),
            np.linspace(0.0, 10.0, 3)]
    assert verify._grid_pass(axes) == (-np.inf, (1e-4, 5.0, 0.5, 0.0), 0)


def test_thresholds_hold_on_both_sides():
    rng = np.random.default_rng(5)
    ta, tb = np.tanh(0.5 * rng.uniform(1e-4, 10.0, size=(2, 400, 1)))
    ta = np.concatenate([ta, [[np.tanh(0.5e-4)], [1.0]]])
    tb = tb.reshape(1, -1)
    t = verify._thresholds(ta, tb)
    assert np.all(t * ta / tb > 1.0)
    assert not np.any(np.nextafter(t, -np.inf) * ta / tb > 1.0)


def _nan_everywhere(eta):
    eta.fill(np.nan)
    return eta


@pytest.mark.parametrize("then, error", [
    (_nan_everywhere, DomainError),                 # the grid scan rejects a NaN
    (lambda eta: eta / np.zeros(()), RuntimeWarning),   # divide by zero, a warning made an error
], ids=["nan", "warning-as-error"])
def test_what_the_grid_leg_raises_is_raised_in_the_caller(monkeypatch, then, error):
    before = threading.active_count()
    threads = _spy_on_the_worker(monkeypatch, then)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error):
            verify.ceiling_check(samples=100)
    assert threading.active_count() == before
    assert threads and not threads[0].is_alive()


def test_a_draw_leg_failure_is_raised_after_the_worker_is_joined(monkeypatch):
    def failing_leg(samples, seed):
        def run(claims):
            raise ArithmeticError("draw leg failed")
        return run

    before = threading.active_count()
    threads = _spy_on_the_grid_passes(monkeypatch)
    monkeypatch.setattr(verify, "_draw_leg", failing_leg)
    with pytest.raises(ArithmeticError, match="draw leg failed"):
        verify.ceiling_check(samples=100)
    assert threading.active_count() == before
    assert threads and not threads[0].is_alive()


def test_callers_errstate_holds_in_the_grid_leg(monkeypatch):
    seen = []
    _spy_on_the_worker(monkeypatch, lambda eta: seen.append(np.geterr()["over"]) or eta)
    with np.errstate(over="raise"):   # numpy's default is "warn"
        verify.ceiling_check(samples=0)
    assert seen and set(seen) == {"raise"}


def test_an_advanced_generator_gives_the_rows_of_the_one_shot_stream():
    n = verify.DRAW_CHUNK
    samples = 3 * n + 5
    rows = np.random.default_rng(11).random((samples, 4))
    for k in (0, 1, 3):   # chunk 3 is the 5-row tail
        bits = np.random.PCG64(11)
        bits.advance(4 * n * k)
        chunk = np.random.Generator(bits).random((min(n, samples - k * n), 4))
        assert chunk.tobytes() == rows[k * n:(k + 1) * n].tobytes()


def test_each_chunk_is_judged_alike_whichever_leg_claims_it():
    n, samples = verify.DRAW_CHUNK, 3 * verify.DRAW_CHUNK + 5
    for k in range(4):
        start = k * n
        want = _one_shot_draws(samples, seed=11, rows=slice(start, start + n))
        assert verify._draw_leg(samples, 11)(iter([k])) == want
    # Two legs sharing one claim order, each moving its own generator.
    legs = [verify._draw_leg(samples, 11) for _ in range(2)]
    (b0, c0), (b1, c1) = legs[0](iter([3, 0])), legs[1](iter([1, 2]))
    assert (max(b0, b1), c0 + c1) == _one_shot_draws(samples, seed=11)


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


def test_unknown_suite_is_a_domain_error():
    with pytest.raises(DomainError):
        verify.run_suite("bogus")


def test_suites_take_only_the_budget_and_the_seed():
    # The grids, the box and the tolerances are fixed; only the ceiling's
    # draws are tunable.
    def params(fn):
        return [(p.name, p.default) for p in inspect.signature(fn).parameters.values()]

    assert params(verify.ceiling_check) == [("samples", verify.DEFAULT_BUDGET),
                                            ("seed", verify.DEFAULT_SEED)]
    for check in (verify.optimality_check, verify.identities_check, verify.windows_check):
        assert params(check) == []
    assert params(verify.run_suite) == [("name", inspect.Parameter.empty),
                                        ("budget", verify.DEFAULT_BUDGET),
                                        ("seed", verify.DEFAULT_SEED)]
    assert verify.DEFAULT_BUDGET == 1_000_000


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


LN_DBL_MAX = 709.782712893384   # the last b with a finite expm1


@pytest.mark.parametrize("point", [
    (2000.0, 1000.0, 0.9, 1e-165),   # sinh^2 r underflows to 0; expm1(b) overflows
    (2000.0, 1000.0, 0.5, 1.2406e-217),   # x - 1 of order 1
    (1500.0, 750.0, 0.5, 0.5),       # the term overflows: eta = (1 - z^2)/2
    (5000.0, 1400.0, 0.3, 1e-300),
    (800.0, 709.7827128933841, 0.5, 1e-150),   # the first b with an infinite expm1
] + [(2.0 * b, b, 0.9, r)             # a > b z; no engine at r = 0 (x = z)
     for b in (LN_DBL_MAX, math.nextafter(LN_DBL_MAX, 1e3), 710.0, 1000.0, 1e300)
     for r in (0.0, 1e-300, 1.0, 400.0)])
def test_exact_efficiency_past_the_expm1_overflow_matches_mpmath(point):
    # In log space ln x carries about b eps absolute error, from rounding
    # ln(1 + e^b) + 2 ln sinh r.
    got = verify.exact_efficiency(*point)
    want = ref.exact_efficiency(*point)
    assert got.shape == ()
    if want == -math.inf:
        assert got == -np.inf
    else:
        assert abs(float(got) - want) <= 1e-13 * got


@pytest.mark.parametrize("point", [(1000.0, 700.0, 0.5, 10.0), (1000.0, 5.0, 0.5, 711.0),
                                   (1000.0, 1e-300, 0.5, 300.0), (1.0, 5e-324, 0.5, 0.5),
                                   (5e-324, 5e-324, 0.5, 356.0)])
def test_exact_efficiency_where_the_term_overflows_below_the_cut(point):
    # (2 + expm1 b) sinh^2 r, then sinh r, overflows to inf, its limit:
    # eta = (1 - z^2)/2.  So does x = z dh tanh(a/2) / tanh(b/2) at a tiny
    # b, and where tanh(b/2) underflows to 0.  These warned "overflow
    # encountered" or "divide by zero" (an error here).  Where tanh(a/2)
    # underflows to 0 as well, x = inf 0 warned "invalid value encountered
    # in multiply" and gave -inf; in log space x is e^710, no longer 0 inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = verify.exact_efficiency(*point)
    assert got == 0.375 and abs(float(got) - ref.exact_efficiency(*point)) <= 1e-15 * got


@pytest.mark.parametrize("point", [
    (1.5e-323, 1e-323, 0.5, 1.0),   # a/2 rounded from 1.5 to 2 units of 5e-324: 0.3333, 7 % off
    (1e-320, 1e-320, 0.9, 3.0),     # 1.1e-9 off
    (2.5e-310, 1e-310, 0.5, 0.5),   # b/2 just below the cut
    (1.0, 1e-310, 1e-300, 0.5),     # b/2 below it, a/2 normal: ln 2 tanh(a/2), not ln a
    (3e-310, 2.2e-310, 0.5, 0.5),   # a/2 and b/2 just above it, in the kernel
])
def test_exact_efficiency_at_subnormal_a_or_b_matches_mpmath(point):
    # Halving a subnormal rounds by up to 2.5e-324, so below a/2 or b/2 =
    # 1e-310, 2.5e-14 of the half, the ratio tanh(a/2) / tanh(b/2) is taken
    # in log space from a and b themselves.
    got = verify.exact_efficiency(*point)
    assert abs(float(got) - ref.exact_efficiency(*point)) <= 1e-13 * got


def test_exact_efficiency_above_the_subnormal_cut_keeps_the_kernel_bits():
    # A cut at DBL_MIN took this point into log space, 9.8e-15 off.
    point = (4e-308, 1e-308, 0.5, 0.2)
    assert verify.exact_efficiency(*point) == float(ref.exact_efficiency(*point))


def test_exact_efficiency_where_both_tanh_underflow():
    # tanh(a/2) and tanh(b/2) both underflow to 0.  x = 0/0 warned "invalid
    # value encountered in divide" (an error here); in log space x = 0.77,
    # as mpmath says, which fails x > 1: no engine.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = verify.exact_efficiency(5e-324, 5e-324, 0.5, 0.5)
    assert got == -np.inf


def test_the_log_space_lanes_match_mpmath_and_keep_the_other_lanes():
    # ln z + ln dh stays finite where z dh overflows: x = e^20.5 here, not inf.
    a, b, z, r = 5e-324, [5e-324, 3e-320, 1.0], [1e-300, 1e-5, 0.5], [356.0, 360.0, 0.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lanes = verify.exact_efficiency(a, b, z, r)
    for k in range(2):
        assert abs(lanes[k] - ref.exact_efficiency(a, b[k], z[k], r[k])) <= 1e-15 * lanes[k]
    assert lanes[2] == verify.exact_efficiency(a, 1.0, 0.5, 0.5) == -np.inf   # a < b z


def test_exact_efficiency_past_the_expm1_overflow_keeps_the_other_lanes():
    # At r = 0, dh = 1 and x = z tanh(a/2) < 1: no engine, as mpmath says.
    assert verify.exact_efficiency(2000.0, 1000.0, 0.9, 0.0) == -np.inf
    a, b, z, r = [5.0, 2000.0, 3.0], [0.1, 1000.0, 2.0], 0.5, [1.0, 1e-165, 0.7]
    lanes = verify.exact_efficiency(a, b, z, r)
    assert lanes[[0, 2]].tobytes() == verify.exact_efficiency(a[::2], b[::2], z, r[::2]).tobytes()
    assert lanes[1] == verify.exact_efficiency(2000.0, 1000.0, 0.5, 1e-165)


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


def test_work_argmax_near_its_lower_bracket_end():
    # z* = 0.0052 here and the fixed polish step h = 1e-5 is 0.2 % of it;
    # the error is 9.5e-9, just under the optimality suite's 1e-8.
    z, _ = verify.work_argmax(0.5, 10.5)
    assert abs(z - engine.z_star(0.5, 10.5)) < 1e-8


@pytest.mark.parametrize("tau, r", [(0.0, 1.0), (1.0, 0.5), (0.5, -0.1), (0.5, np.inf),
                                    (np.array([0.5, 1.2]), np.array([0.0, 1.0])),
                                    # the maximum z* = 0.00248 lies below the bracket;
                                    # sech 2r underflows to 0
                                    (0.5, 12.0), (0.5, 400.0)])
def test_work_argmax_rejects_out_of_domain_inputs(tau, r):
    with pytest.raises(DomainError):
        verify.work_argmax(tau, r)
