"""Linear chord diagrams with blocks of k vertices.

Exact enumeration by short chords, connected components, and
non-crossing blocks; recurrences, generating functions, Poisson and
Gaussian limit data, and the memory game on board graphs.
"""

from __future__ import annotations

from .asymptotics import (
    AsymptoticReport,
    nc_mean_report,
    nc_mean_variance,
    poisson_convergence_report,
    poisson_lambda,
    tv_distance_interval,
)
from .counting import (
    SelfCheckError,
    count_zero_short,
    mean_short_chords,
    short_chord_row,
    total_diagrams,
)
from .diagrams import (
    BlockStats,
    BudgetExceededError,
    Diagram,
    LatticePath,
    canonicalize,
    encode_lattice_path,
    stats,
    survey,
)
from .memory_game import (
    Board,
    board_from_edges,
    board_from_spec,
    exhaustive_distribution,
    grid_board,
    mean_polyominoes,
    path_board,
    sample_placements,
    torus_board,
)
from .series import BivariateSeries, C_series, F_series, L_series, T_series
from .tables import fuss_catalan, kp1_rows, kp2_rows, noncrossing_row, noncrossing_rows

__version__ = "0.1.0"

__all__ = [
    "AsymptoticReport",
    "BivariateSeries",
    "BlockStats",
    "Board",
    "BudgetExceededError",
    "C_series",
    "Diagram",
    "F_series",
    "L_series",
    "LatticePath",
    "SelfCheckError",
    "T_series",
    "board_from_edges",
    "board_from_spec",
    "canonicalize",
    "count_zero_short",
    "encode_lattice_path",
    "exhaustive_distribution",
    "fuss_catalan",
    "grid_board",
    "kp1_rows",
    "kp2_rows",
    "mean_polyominoes",
    "mean_short_chords",
    "nc_mean_report",
    "nc_mean_variance",
    "noncrossing_row",
    "noncrossing_rows",
    "path_board",
    "poisson_convergence_report",
    "poisson_lambda",
    "sample_placements",
    "short_chord_row",
    "stats",
    "survey",
    "torus_board",
    "total_diagrams",
    "tv_distance_interval",
    "__version__",
]
