"""jetorders: exact jet/Taylor-map invariants of polynomial subspaces.

Given a finite-dimensional subspace V of Q[x_1..x_n], this package
computes, in exact rational arithmetic: jet matrices and their ranks at
rational and generic points, injectivity and jet orders with gap
sequences, Weierstrass loci as rank-drop minors, the weight-graded spaces
of differential operators preserving a monomial V together with their
image in End(V), and, for monomial V, the lattice-polytope formulas for
the same invariants on the associated toric variety.
"""

__version__ = "0.1.0"

from .algebra import (
    MINUS_INFINITY,
    DifferentialOperator,
    Polynomial,
    op_apply,
    op_compose,
    op_weight_split,
    poly_eval,
)
from .diffops import (
    EndImage,
    WeightSpace,
    annihilator_weight_dim,
    check_irreducible,
    evaluation_image,
    hirzebruch_generators,
    preserve_check,
    preserving_operators_truncated,
    preserving_weight_space,
    sl_generators,
    weight_spaces,
    weight_window,
)
from .jets import (
    GENERIC,
    JetMatrix,
    OrderReport,
    SubspaceV,
    generic_rank,
    jet_matrix,
    n_inj_at,
    n_surj_at,
    weierstrass_minors,
    weierstrass_scan,
)
from .linalg import rank_exact
from .toric import (
    LatticePolytope,
    ToricReport,
    chart_subspace,
    d_gonal,
    edge_stats,
    n1_surj_toric,
    n_inj_face,
    n_inj_hilbert,
    n_inj_max,
    n_surj_toric,
    polytope_build,
    smooth_check,
    toric_report,
    very_ample_check,
    vertex_chart,
)
from .verify import (
    FamilySpec,
    VerifyReport,
    hirzebruch_family,
    verify_hirzebruch,
    verify_veronese,
    veronese_family,
)
