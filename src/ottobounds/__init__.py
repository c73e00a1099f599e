"""Analytic performance theory of the sudden-quench harmonic Otto machine
coupled to squeezed thermal reservoirs, with built-in numerical verification.

`cycle` holds the exact finite-temperature bookkeeping of the four-stroke
cycle; `engine` and `fridge` the closed-form high-temperature bounds;
`oracle` the deterministic search primitives; `verify` the self-check
suites; `cli` the command line.

Importing the package loads none of them (PEP 562): ``ottobounds.engine``
loads that submodule and its imports alone, and the first access to a
re-exported function or class loads them all.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("cycle", "engine", "errors", "fridge", "oracle", "special", "verify")

# home module -> the names the package re-exports from it
_EXPORTS = {
    "cycle": (
        "AdiabaticityMode",
        "BathSpec",
        "CyclePerformance",
        "CycleSpec",
        "FrequencyPair",
        "OperatingMode",
        "SqueezePlacement",
        "effective_temperature",
        "efficiency_sudden",
        "heats_work",
        "lambda_sudden",
    ),
    "engine": (
        "EngineBoundsReport",
        "EngineParams",
        "efficiency_ht",
        "engine_report",
        "eta_mw",
        "eta_rk",
        "eta_up",
        "eta_up_thermal",
        "generalized_carnot",
        "work_ht",
        "z2_of_eta",
        "z_star",
    ),
    "fridge": (
        "FridgeBoundsReport",
        "FridgeParams",
        "cop_ht",
        "fridge_report",
        "r_window",
        "zeta_up",
        "zeta_up_thermal",
    ),
    "oracle": (
        "SupremumReport",
        "find_root_scalar",
        "maximize_scalar",
    ),
}
__all__ = [*_SUBMODULES, *(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name):
    """Load a submodule alone; on first access to a re-export, bind every name and drop this hook.

    A module with a ``__getattr__`` keeps CPython (3.11) from caching
    attribute loads on it, which made each ``ottobounds.<name>`` lookup
    ~4x slower; once the hook is gone the names are plain attributes.
    """
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")   # binds the submodule here
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for module in _SUBMODULES:
        importlib.import_module(f"{__name__}.{module}")   # binds the submodule here
    for module, names in _EXPORTS.items():
        namespace.update((n, getattr(namespace[module], n)) for n in names)
    namespace.pop("__getattr__", None)
    return namespace[name]


def __dir__():
    return sorted({*globals(), *__all__})
