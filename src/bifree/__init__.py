"""Executable bi-free probability at desk scale.

Partition-lattice combinatorics, moment/cumulant transforms, additive
bi-free convolution and semigroups, Fock-space operator models,
and the bi-free Levy-Hincin correspondence, all checkable by exact
rational arithmetic or small-matrix numerics.
"""

from . import scalars
from .convolution import (UncertifiedScaleWarning, bifree_convolve,
                          free_convolve_marginal, semigroup_scale)
from .cumulants import (CumulantTable, MomentTable, cumulant_seq_to_moment_seq,
                        cumulants_to_moments, mobius_cumulant,
                        moment_seq_to_cumulant_seq, moments_to_cumulants,
                        verify_voiculescu_identity, zero_cumulants)
from .errors import (BifreeError, CommutationError, DegreeError,
                     InconsistentDataError, OrderError, RealizabilityError,
                     ShapeError, SingularSeriesError, SizeLimitError,
                     UnsupportedMeasureError)
from .fock import (FockModel, amplify, check_commutation, levy_marginal_model,
                   model_cumulants, moment_table_from_model, vacuum_moment)
from .levy_hincin import (BoundednessReport, CpsdReport, LevyHincinData,
                          LhValidation, check_cond_bounded, check_cpsd,
                          check_moment_2sequence, extract_levy_measures,
                          gns_reconstruct, lh_to_cumulants,
                          r_transform_from_lh, validate_lh)
from .limits import (bifree_gaussian, bifree_poisson, compound_bifree_poisson,
                     compound_family, poisson_family, row_sum_moments,
                     triangular_limit_estimate)
from .measures import (DiscretePlanarMeasure, marginal, moment_table,
                       point_mass, product_measure)
from .partitions import (ChiMap, Partition, catalan, enumerate_bnc,
                         enumerate_nc, is_noncrossing, mobius_nc, mobius_top,
                         sigma_chi)

__version__ = "0.1.0"
