"""ncjet: exact engine for noncommutative differential structures.

Jet modules, Spencer operators, connections of higher order, quantization
maps and star products over finite-dimensional algebras, all in exact
rational arithmetic.
"""

__version__ = "0.1.0"

from .linalg import Mat, Subspace, AffineSpace, rat, rat_str, rref, kernel_of, solve_affine, intersect, quotient_data, kron
from .algebra import (
    Algebra,
    Bimodule,
    LeftModule,
    validate_algebra,
    quaternion_algebra,
    functions_on_points,
    matrix_algebra,
)
from .calculus import Calculus, CalculusError, build_calculus, universal_calculus, quaternion_calculus, twisted_pair
from .fixtures import fixture, FIXTURE_NAMES
from .demo import demo_quaternion
