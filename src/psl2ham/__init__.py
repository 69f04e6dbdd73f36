"""Hamilton cycle certificates for orbital graphs of PSL(2,k) acting on
the 5(k+1) cosets of a subgroup of order k(k-1)/10, where k = s^m is a
prime power with 10 | k-1 and p = (k+1)/2 prime.

The pipeline: exact GF(s^m) arithmetic -> PSL(2,k) and its distinguished
subgroups -> the coset action -> the five basic orbital graphs -> the
quotient multigraph over the ten orbits of the cyclic subgroup S of order
p -> voltage selection and lifting -> a machine-verifiable certificate.
"""

from .action import CosetAction, OmegaPoint, parse_point, point_str
from .cli import (InstanceParams, full_graph_mode, list_instances,
                  run_pipeline)
from .diag import (DiagonalEquation, WeilReport, count_nonzero_x2,
                   count_solutions, double_edge_equation,
                   equation_for_orbit_pair, has_double_edge_solution,
                   has_nonzero_x2_solution, m_pairs, weil_check)
from .errors import InvariantViolation, ParameterError
from .gf import Field, is_prime
from .orbital import (OrbitalGraph, Suborbit, build_graph, neighborhood,
                      orbital_of, suborbits)
from .psl2 import PSL2, mulclose
from .quotient import (HamiltonCertificate, QuotientMultigraph,
                       build_quotient, certificate_to_text, lift_cycle,
                       parse_certificate, unroll_lift, verify_certificate)

__all__ = [
    "CosetAction", "OmegaPoint", "parse_point", "point_str",
    "InstanceParams", "full_graph_mode", "list_instances", "run_pipeline",
    "DiagonalEquation", "WeilReport", "count_nonzero_x2", "count_solutions",
    "double_edge_equation", "equation_for_orbit_pair",
    "has_double_edge_solution", "has_nonzero_x2_solution", "m_pairs",
    "weil_check",
    "InvariantViolation", "ParameterError",
    "Field", "is_prime",
    "OrbitalGraph", "Suborbit", "build_graph", "neighborhood", "orbital_of",
    "suborbits",
    "PSL2", "mulclose",
    "HamiltonCertificate", "QuotientMultigraph", "build_quotient",
    "certificate_to_text", "lift_cycle", "parse_certificate", "unroll_lift",
    "verify_certificate",
]

__version__ = "0.1.0"
