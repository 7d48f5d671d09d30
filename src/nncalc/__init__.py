"""nncalc: hierarchies of isomorphic arithmetics and the calculus over them.

A strictly increasing bijection g of [0,1] with g(p) + g(1-p) = 1 generates
a ladder of arithmetics (transport +,-,*,/ through the k-th iterate of g),
a ladder of probabilities p_k = g^k(p), and a non-Newtonian calculus of
maps between levels.  This package implements the ladder, its calculus,
and the probabilistic applications: singlet tables, Clauser-Horne
combinations at two levels, hierarchical laws of large numbers, Renyi
entropy, geodesic-angle probability ladders, and complex numbers over a
pair of arithmetics.
"""

from .arithmetic import ArithmeticContext, arith, compare, embed_natural, embed_rational, power
from .calculus import LevelFunction, nn_derivative, nn_exp, nn_integral, nn_ln
from .errors import (
    ApplicabilityError,
    ConfigError,
    DomainError,
    LevelRangeError,
    NncalcError,
    PullbackDivisionError,
    QuadratureError,
)
from .generator import (
    BandReport,
    ExtendedGenerator,
    Generator,
    convex_combine,
    effective_band,
    generator_from_config,
    h_view,
    load_generator,
    make_identity_generator,
    make_sine_generator,
    sine_extended,
    validate_generator,
)
from .probability import (
    CondNode,
    CondTree,
    alpha_of_theta,
    joint_product,
    level_shift,
    normalization_residual,
    singlet_table,
    tree_joint,
    tree_normalization,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
