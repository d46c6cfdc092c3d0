"""Exact relation engine for multiple zeta values.

Words over {x, y} encode index compositions; duality and derivation
operators produce kernel elements of the evaluation map; exact rational
elimination measures the spans they generate.  See the ``cli`` module
for the command-line front end.
"""

from .linalg import RelationMatrix, dim_intersection, in_span, rank
from .numeric import residual, zeta_numeric
from .operators import delta_u, delta_u_inv, duality, partial, tau, theta
from .poly import Poly
from .relations import (FamilySpec, derivation_all, duality_all,
                        duality_ht_sum, duality_k1_sum)
from .series import GradedSeries, apply_theta_series, geom, series_mul
from .verify import (build_table, check_corollary, conjecture_scan,
                     verify_theorem_i, verify_theorem_ii)
from .words import Word, basis, parse_word, word_of_composition

__version__ = "0.1.0"

# exact elimination is pure Python: packed rows combined as big integers
# (``linalg.Echelon``)
kernel_backend = "python"

__all__ = [
    "Word", "Poly", "GradedSeries", "RelationMatrix", "FamilySpec",
    "basis", "parse_word", "word_of_composition",
    "tau", "duality", "partial", "theta", "delta_u", "delta_u_inv",
    "geom", "series_mul", "apply_theta_series",
    "duality_all", "derivation_all", "duality_ht_sum", "duality_k1_sum",
    "rank", "in_span", "dim_intersection",
    "zeta_numeric", "residual",
    "verify_theorem_i", "verify_theorem_ii", "check_corollary",
    "conjecture_scan", "build_table",
    "kernel_backend", "__version__",
]
