"""Exact tools for low-pattern-complexity configurations on Z^d.

Configurations are finitely described integer-valued assignments evaluated
exactly (integers, rationals, quadratic irrationals); on top of them sit
pattern-complexity counting, annihilating-polynomial discovery and
verification, line-polynomial factorization, periodic decomposition,
complexity lower bounds with empirical scanning, and cluster-tiling
analysis.  No floating point anywhere.
"""

from .annihilator import (
    AnnihilatorReport,
    ExpansionCheck,
    build_radical_witness,
    expansion_bound,
    find_annihilator,
    radical_witness_normal_form,
    search_difference_annihilator,
    verify_expansion,
)
from .configurations import (
    ComplexityResult,
    Configuration,
    CosetIndicator,
    FiniteSupport,
    Mechanical,
    Pattern,
    Periodic,
    Sum,
    ValueMap,
    extract_pattern,
    pattern_complexity,
)
from .decomposition import WindowDecomposition, decompose, difference, integrate
from .lattice import Lattice, Window
from .laurent import (
    AnnihilationResult,
    LaurentPolynomial,
    LineFactorization,
    PeriodicityResult,
    annihilates,
    apply,
    line_content,
    line_factorization,
    newton_polygon_directions,
    periodicity_test,
)
from .nivat import (
    BoundReport,
    PeriodicityClassReport,
    ScanRow,
    bound_disjoint_lines,
    bound_line_size,
    bound_two_directions,
    corollary_report,
    disjoint_pattern_line_count,
    line_pattern_census,
    nivat_scan,
    periodicity_class,
    scan_csv,
)
from .quadratic import QuadraticReal, is_prime, is_squarefree
from .textio import (
    format_config,
    format_poly,
    format_tile,
    parse_config,
    parse_poly,
    parse_tile,
    parse_vectors,
    parse_window,
)
from .tiling import (
    ClusterTile,
    PeriodicCoTiler,
    TilingResult,
    prime_periodicity_check,
    search_periodic_cotiler,
    tile_polynomial,
    verify_cotiler,
)

__version__ = "0.1.0"
