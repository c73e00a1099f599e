"""The package surface: 7 submodules and 33 re-exports, loaded on first access; their signatures."""

import enum
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import ottobounds

SUBMODULES = {"cycle", "engine", "errors", "fridge", "oracle", "special", "verify"}
REEXPORTS = {
    "cycle": {"AdiabaticityMode", "BathSpec", "CyclePerformance", "CycleSpec", "FrequencyPair",
              "OperatingMode", "SqueezePlacement", "effective_temperature", "efficiency_sudden",
              "heats_work", "lambda_sudden"},
    "engine": {"EngineBoundsReport", "EngineParams", "efficiency_ht", "engine_report", "eta_mw",
               "eta_rk", "eta_up", "eta_up_thermal", "generalized_carnot", "work_ht", "z2_of_eta",
               "z_star"},
    "fridge": {"FridgeBoundsReport", "FridgeParams", "cop_ht", "fridge_report", "r_window",
               "zeta_up", "zeta_up_thermal"},
    "oracle": {"SupremumReport", "find_root_scalar", "maximize_scalar"},
}


def test_all_lists_the_submodules_and_the_reexports():
    assert len(ottobounds.__all__) == len(set(ottobounds.__all__)) == 40
    assert set(ottobounds.__all__) == SUBMODULES.union(*REEXPORTS.values())


@pytest.mark.parametrize("home", sorted(REEXPORTS))
def test_each_reexport_is_its_home_modules_object(home):
    module = importlib.import_module(f"ottobounds.{home}")
    for name in REEXPORTS[home]:
        assert getattr(ottobounds, name) is getattr(module, name), name


def test_each_submodule_attribute_is_the_submodule():
    for name in SUBMODULES:
        assert getattr(ottobounds, name) is importlib.import_module(f"ottobounds.{name}")


def test_dir_lists_every_public_name():
    assert set(ottobounds.__all__) <= set(dir(ottobounds))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ottobounds import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ottobounds.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ottobounds.no_such_name


def test_the_readme_quick_start_runs_as_written():
    # The python block under "Library quick start", run as a reader pastes
    # it; its comments state the two values checked here.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    perf = namespace["perf"]
    assert "perf.mode_label      # OperatingMode.ENGINE\n" in block
    assert perf.mode_label is ottobounds.OperatingMode.ENGINE
    assert "perf.eta             # 0.3211...\n" in block
    assert repr(perf.eta).startswith("0.3211")


# Removed wrappers, with what replaces each: CHANGES.md, "API history",
# under "Removed names" (and "Moved names" for HT_BETA_OMEGA_MAX and
# axis_points).
REMOVED = {"cycle": ("thermal_occupation", "squeezed_occupation", "classify_mode", "delta_h",
                     "cycle_energies"),
           "engine": ("pwc_ht", "HT_BETA_OMEGA_MAX"), "errors": ("real",),
           "fridge": ("cop_quasistatic", "zeta_carnot", "hot_heat_ht", "extracted_work_ht",
                      "tau_window"),
           "oracle": ("axis_points",)}


@pytest.mark.parametrize("home", sorted(REMOVED))
def test_removed_names_are_attribute_errors(home):
    module = importlib.import_module(f"ottobounds.{home}")
    for name in REMOVED[home]:
        assert name not in ottobounds.__all__ and name not in getattr(module, "__all__", ())
        with pytest.raises(AttributeError):
            getattr(ottobounds, name)
        with pytest.raises(AttributeError):
            getattr(module, name)


def test_the_first_access_binds_every_name_and_removes_the_hook():
    # A module-level __getattr__ stops CPython caching attribute loads on the
    # module, so once everything is bound the hook must be gone.  A submodule
    # name loads that submodule alone and keeps the hook.
    code = ("import ottobounds as ob, sys; "
            "assert not set(ob.__all__) & set(vars(ob)); "
            "assert not [m for m in sys.modules if m.startswith('ottobounds.')]; "
            "from ottobounds import engine; "
            "loaded = {m for m in sys.modules if m.startswith('ottobounds.')}; "
            "assert loaded == {'ottobounds.' + m for m in ('_record', 'engine', 'errors', "
            "'special')}, loaded; "
            "assert '__getattr__' in vars(ob) and 'eta_up' not in vars(ob); "
            "ob.eta_up; "
            "assert set(ob.__all__) <= set(vars(ob)) and '__getattr__' not in vars(ob)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr


def test_submodules_resolve_through_the_package_in_a_fresh_interpreter():
    # Callers such as the benchmark's gate reach functions as
    # ottobounds.verify.run_suite without importing the submodule first.
    code = ("import ottobounds as ob; "
            "assert callable(ob.verify.run_suite) and callable(ob.engine.eta_rk); "
            "print(ob.engine.eta_rk(0.5))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert float(res.stdout) == ottobounds.eta_rk(0.5)


# The signature of every callable re-export, and of three public functions
# outside ``__all__``, so that a new parameter shows up in review as a
# one-line diff here.  The enums are left out: their call signature is the
# enum machinery's, and it changes between Python versions.
SIGNATURES = {
    "AdiabaticityMode": "(kind, lam=None)",
    "BathSpec": "(beta, r=0.0)",
    "CyclePerformance": "(h_a, h_b, h_c, h_d, q2, q4, w_ext, mode_label, eta=None, cop=None)",
    "CycleSpec": "(cold, hot, freqs, mode, placement=<SqueezePlacement.HOT_BATH: 'hot'>)",
    "FrequencyPair": "(omega1, omega2)",
    "effective_temperature": "(beta, omega, r)",
    "efficiency_sudden": "(spec)",
    "heats_work": "(spec)",
    "lambda_sudden": "(freqs)",
    "EngineBoundsReport": "(eta_c, eta_c_gen, eta_up, eta_mw, z_star, pwc_satisfied)",
    "EngineParams": "(z, tau, r=0.0)",
    "efficiency_ht": "(z, tau, r)",
    "engine_report": "(eta_c, r)",
    "eta_mw": "(eta_c, r)",
    "eta_rk": "(eta_c)",
    "eta_up": "(eta_c, r)",
    "eta_up_thermal": "(eta_c)",
    "generalized_carnot": "(eta_c, r)",
    "work_ht": "(p)",
    "z2_of_eta": "(eta, eta_c, r)",
    "z_star": "(tau, r)",
    "FridgeBoundsReport": "(zeta_c, zeta_up, tau_window, r_window, cooling_feasible, reason=None)",
    "FridgeParams": "(z, tau, r=0.0)",
    "cop_ht": "(p)",
    "fridge_report": "(tau, r=0.0)",
    "r_window": "(tau)",
    "zeta_up": "(tau, r)",
    "zeta_up_thermal": "(zeta_c)",
    "SupremumReport": "(best_input, best_value, evaluations)",
    "find_root_scalar": "(g, bracket)",
    "maximize_scalar": "(fn, lo, hi)",
    "oracle.refine_parabolic": "(fn, x)",
    "fridge.cooling_heat_ht": "(z, tau, r)",
    "cli.build_parser": "(command)",
}


def test_public_signatures_match_the_table():
    from ottobounds import cli, fridge, oracle
    callables = {name: getattr(ottobounds, name) for name in ottobounds.__all__}
    callables = {name: obj for name, obj in callables.items()
                 if callable(obj) and not isinstance(obj, enum.EnumMeta)}
    callables.update({"oracle.refine_parabolic": oracle.refine_parabolic,
                      "fridge.cooling_heat_ht": fridge.cooling_heat_ht,
                      "cli.build_parser": cli.build_parser})
    assert {name: str(inspect.signature(obj)) for name, obj in callables.items()} == SIGNATURES
