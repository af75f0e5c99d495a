"""Exact divisor operators for the equivariant orbifold quantum cohomology
of symmetric product stacks of A_r resolutions.

The library computes two-point extended Gromov-Witten invariants of
nonzero degree from Hurwitz counts and equivariant localization data,
assembles divisor-operator matrices over truncated series with exact
rational-function coefficients, and certifies the known n = 2, r = 1
closed-form operator together with its distinct-eigenvalue claim.
"""

from .algebra import (
    GaussRational,
    Poly1,
    Poly2,
    RatFunc2,
    TruncSeries,
    char_poly_squarefree,
    expand_q_closed_form,
)
from .chenruan import (
    gram_matrix,
    pairing,
)
from .hurwitz import (
    hurwitz,
    one_part_double_hurwitz,
)
from .invariants import (
    ZeroDegreeTable,
    three_point_divisor_series,
    two_point_series,
)
from .memo import clear_caches
from .operators import (
    OperatorMatrix,
    closed_form_matrix_a1n2,
    default_divisor_basis,
    divisor_operator,
    eigen_certify,
    grading,
    verify_a1n2,
    zero_degree_table_a1n2,
)
from .partitions import (
    ONE,
    aut_order,
    age,
    ecurve,
    enumerate_sub_splittings,
    fixedpt,
    omega,
    partition,
    partitions_of,
    weighted_partition,
)
from .surface import (
    class_of,
    e_chain,
    e_dot,
    integrate,
    tangent_weights,
)

__version__ = "0.1.0"
