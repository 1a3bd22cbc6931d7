"""Exact invariants controlling counting asymptotics for algebraic tori."""

from .intlinalg import (
    FinAbGroup,
    IntMatrix,
    LatticeQuotient,
    SNFDecomposition,
    finite_cokernel_order,
    induced_endomorphism,
    smith_normal_form,
    torsion_elements,
)
from .torus import CoweightSystem, DiagGroup, TorusAnalysis, TorusSpec, load_spec

__all__ = [
    "CoweightSystem",
    "DiagGroup",
    "FinAbGroup",
    "IntMatrix",
    "LatticeQuotient",
    "SNFDecomposition",
    "TorusAnalysis",
    "TorusSpec",
    "finite_cokernel_order",
    "induced_endomorphism",
    "load_spec",
    "smith_normal_form",
    "torsion_elements",
]
