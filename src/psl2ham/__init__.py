"""Hamilton cycle certificates for orbital graphs of PSL(2,k) acting on
the 5(k+1) cosets of a subgroup of order k(k-1)/10, where k = s^m is a
prime power with 10 | k-1 and p = (k+1)/2 prime.

The pipeline needs field arithmetic only, and builds no group: every
stage is a function of the field.  Exact GF(s^m) arithmetic -> coset
labels (beta, fiber), with closed-form representatives -> the ten orbits
of the cyclic subgroup S of order p, held as two walks off one power
walk of sigma, the other eight read by the fiber shift -> the quotient
multigraph of an orbital graph, read off the two walks by the batched
oracle `orbitals` and cross-derived by 4 matrix-form neighborhoods ->
voltage selection and a closed-form lift over the quotient cycle 0..9 -> a
certificate that carries its field, its claims and cycle edges checked by
that oracle.  `verify_text`, the one verifier, holds certificate text to
the writer's, `certificate_chunks`, of the header's lift.  Every point is
one int code; `beta_texts` spells every beta, and `point_text` one point.
Records are NamedTuples.  The command line, `psl2ham.cli`, only parses
arguments and is not imported here.
"""

from .action import beta_texts, point_text, rep, s_orbits, sigma
from .diag import (DiagonalEquation, SolutionProfile, WeilReport,
                   double_edge_equation, m_pairs, solution_profile,
                   weil_check)
from .errors import InvariantViolation, ParameterError
from .gf import Field, is_prime, list_instances
from .orbital import build_graph, neighborhood, orbitals
from .quotient import (HamiltonCertificate, QuotientMultigraph,
                       build_quotient, certificate_chunks, lift, lift_cycle,
                       run_pipeline, verify_text)

__all__ = [
    "beta_texts", "point_text", "rep", "s_orbits", "sigma",
    "DiagonalEquation", "SolutionProfile", "WeilReport",
    "double_edge_equation", "m_pairs", "solution_profile", "weil_check",
    "InvariantViolation", "ParameterError",
    "Field", "is_prime", "list_instances",
    "build_graph", "neighborhood", "orbitals",
    "HamiltonCertificate", "QuotientMultigraph", "build_quotient",
    "certificate_chunks", "lift", "lift_cycle", "run_pipeline", "verify_text",
]

__version__ = "0.1.0"
