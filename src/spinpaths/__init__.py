"""Exact XX-ring correlation functions and their lattice-path combinatorics.

The re-exports resolve on first use (PEP 562): importing the package
loads no submodule, and an integer name loads no numpy.
"""

from importlib import import_module

_EXPORTS = {
    "chain": ("BetheMomenta", "bethe_ground_state", "bethe_vector",
              "build_sector_hamiltonian", "enumerate_bethe_sets",
              "hopping_matrix", "hopping_power", "norm_squared",
              "sector_basis"),
    "core": ("ChainGeometry",),
    "correlators": ("equality_of_sums_report", "laplace_generating_f",
                    "multi_particle_g", "one_particle_g", "persistence_exact",
                    "persistence_spectral", "transition_amplitude",
                    "trig_path_count"),
    "partitions": ("boxed_partitions", "lambda_to_mu", "mu_to_lambda",
                   "staircase"),
    "paths": ("PathNest", "conjugate_nest_partition_function",
              "count_random_turns_paths", "enumerate_nests",
              "nest_partition_function", "watermelon_count"),
    "qpoly": ("QPolynomial", "macmahon_count", "macmahon_z", "q_binomial"),
    "schur": ("cauchy_binet", "projection_average_q", "schur_count_at_one",
              "schur_determinant", "schur_evaluate", "vandermonde"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
