"""Exact tree counts (spanning-tree numbers) of power graphs of finite groups.

Every public name and submodule is loaded on first access: `import powertree`
imports no submodule, `powertree.build` imports `powertree.groups` and
`powertree.errors` imports that module (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule with the public names it exports; __all__ and dir() read this too
_EXPORTS = {
    "classify": ("ClassificationEntry", "classify_kappa_below_125", "epo_check_and_bound",
                 "is_star_kappa_one", "prime_support_bound", "sylow_lower_bound",
                 "verify_a5_recognition"),
    "closedform": ("divisor_profile", "kappa_cyclic", "kappa_cyclic_expansion",
                   "kappa_cyclic_reduced", "kappa_dihedral", "kappa_elementary_abelian",
                   "kappa_epo", "kappa_pq", "kappa_quaternion_pow2",
                   "kappa_quaternion_reduced", "kappa_semidirect_pq"),
    "groups": ("CyclicPoset", "FiniteGroup", "GroupSpec", "build", "count_cyclic_subgroups",
               "direct_product", "max_order", "spectrum"),
    "powergraph": ("PowerGraph", "clique_number", "is_complete", "power_graph",
                   "reduced_power_graph", "to_dot", "to_json"),
    "specparse": ("parse_group_spec",),
    "treecount": ("MultiGraph", "TreeNumber", "block_decomposition_kappa",
                  "exact_integer_determinant", "quotient_kappa", "temperley_kappa"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "errors", "numutil", "table1")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
