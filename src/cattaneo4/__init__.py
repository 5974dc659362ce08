"""Spectral solver and experiment harness for a fourth-order damped wave
model of heat conduction with Dirichlet boundary data.

The displacement solves

    theta'' = -a theta' + b Lap(theta) - c Lap(theta''),

which the Dirichlet eigenbasis turns into the family of mode equations
(1 - c lam^2) theta'' + a theta' + b lam^2 theta = 0.  Whenever c equals
some 1/lam_n^2 the leading coefficient of mode n vanishes and the problem
degenerates; those values form the exceptional set that most of this
package is built around detecting, avoiding, or deliberately approaching.
"""

from .boundary import (BoundaryOperator, BoundarySignal, build_blocks,
                       dirichlet_map_interval, evolve_with_boundary)
from .errors import (DegenerateModeError, ExceptionalParameterError,
                     SingularParameterError, UnsolvableModeError)
from .experiments import (first_crossing, heat_comparison, limit1_reference,
                          limit1_scan, limit2_scan, limit3_scan,
                          propagation_burst, singularity_scan, weyl_exponent_fit,
                          whole_line_mode)
from .modal import (CharacteristicRoots, ParameterSet, characteristic_roots,
                    evolve_modes, reference_telegraph_mode, second_order_roots)
from .solver import (Field, WellPosednessReport, basis_field, check_wellposed,
                     evolve_homogeneous, field_norm, project_samples,
                     reconstruct, zero_field)
from .spectrum import BasisDescriptor, Spectrum

__version__ = "0.1.0"

__all__ = [
    "BasisDescriptor", "BoundaryOperator", "BoundarySignal", "CharacteristicRoots",
    "DegenerateModeError", "ExceptionalParameterError", "Field",
    "ParameterSet",
    "SingularParameterError", "Spectrum",
    "UnsolvableModeError", "WellPosednessReport",
    "basis_field", "build_blocks", "characteristic_roots",
    "check_wellposed", "dirichlet_map_interval",
    "evolve_homogeneous", "evolve_modes", "evolve_with_boundary",
    "field_norm", "first_crossing", "heat_comparison",
    "limit1_reference", "limit1_scan", "limit2_scan", "limit3_scan",
    "project_samples", "propagation_burst", "reconstruct",
    "reference_telegraph_mode",
    "second_order_roots", "singularity_scan",
    "weyl_exponent_fit", "whole_line_mode", "zero_field",
]
