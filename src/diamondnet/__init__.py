"""Capacity approximation and simplification of Gaussian diamond relay networks.

A diamond network connects a source to a destination through a layer of
relays. This package computes the combinatorial min-cut approximation to
its capacity (exactly, in O(n log n)), brackets the information-theoretic
cut-set bound around it, discovers small relay subsets guaranteed to carry
a k/(k+1) fraction of it, and analyzes the amplify-and-forward strategy.
See the ``diamondnet`` CLI for the file format and commands.
"""

import os
import sys

# numpy's bundled OpenBLAS starts a worker thread per core when it loads,
# and the workers spin idle until they time out, which in one CLI command
# costs about as much CPU time as the command itself. The package's only
# BLAS calls are the amplify-and-forward kernel's dot products, one per row,
# which gain little from threads, so a process that loads numpy through
# this package gets one BLAS thread. A user's own OPENBLAS_NUM_THREADS and a numpy loaded earlier are
# left alone, and the variable is removed again so that child processes
# see only what the user set.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .af import (
    AfCoefficients,
    AfReport,
    af_grid_search,
    af_optimize,
    af_rate,
    af_rate_batch,
    af_snr_bound_sides,
    af_upper_bound,
)
from .cuts import (
    Cut,
    OmegaResult,
    SandwichReport,
    cut_value,
    gap_constant,
    omega_bruteforce,
    omega_fast,
    sandwich,
)
from .errors import DegenerateNetworkError, SizeLimitError, ValidationError
from .generate import random_network
from .model import (
    Network,
    RateTable,
    network_from,
    point_capacity,
    rate_table,
)
from .netfile import NetworkFile, from_network, from_rates, load, loads
from .selection import (
    Certificate,
    GuaranteeReport,
    SelectionResult,
    TradeoffReport,
    guarantee,
    hybrid_tradeoff,
    omega_k_bruteforce,
    omega_k_ratio,
    omega_k_table,
    select,
    strategy_gap,
    tight_config,
    verify_selection,
)
from .verify import Failure, VerifyReport, run_verification, trial_seed

__version__ = "0.1.0"

__all__ = [
    "AfCoefficients",
    "AfReport",
    "Certificate",
    "Cut",
    "DegenerateNetworkError",
    "Failure",
    "GuaranteeReport",
    "Network",
    "NetworkFile",
    "OmegaResult",
    "RateTable",
    "SandwichReport",
    "SelectionResult",
    "SizeLimitError",
    "TradeoffReport",
    "ValidationError",
    "VerifyReport",
    "af_grid_search",
    "af_optimize",
    "af_rate",
    "af_rate_batch",
    "af_snr_bound_sides",
    "af_upper_bound",
    "cut_value",
    "from_network",
    "from_rates",
    "gap_constant",
    "guarantee",
    "hybrid_tradeoff",
    "load",
    "loads",
    "network_from",
    "omega_bruteforce",
    "omega_fast",
    "omega_k_bruteforce",
    "omega_k_ratio",
    "omega_k_table",
    "point_capacity",
    "random_network",
    "rate_table",
    "run_verification",
    "sandwich",
    "select",
    "strategy_gap",
    "tight_config",
    "trial_seed",
    "verify_selection",
]
