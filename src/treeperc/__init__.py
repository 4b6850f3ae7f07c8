"""Exact critical curves and Monte Carlo experiments for two-range
oriented percolation on trees."""

__version__ = "0.1.0"

from .coupling import (
    HatConfig,
    PhiMap,
    dominance_test,
    explore_hat_to_C,
    finite_coupling,
    omega_bar,
)
from .critical import asymptotics_table, qc, qc_sweep, rho, s_star
from .percolation import (
    AdmissibleSet,
    EdgeOracle,
    PercParams,
    conditioned_cluster_sample,
    criteria_eval,
    decompose,
    estimate_survival,
    explore_layers,
    long_boundary,
    short_cluster,
    simulate_z_first,
)
from .spectral import pf_eigen
from .tree import TreeParams
from .window_chain import (
    build_offspring_matrix,
    chain_survival,
    child_window_dist,
    initial_window_dist,
    simulate_window_chain,
)
