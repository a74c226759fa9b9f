"""qrecon: numerical reconstruction of finite quantum kinematics from
information-geometric first principles.

Subsystems: bit-pattern partitions and their shift/scale symmetries
(`partitions`), probability factorization trees and the theta chart
(`probmodel`), Fisher / extended Fisher / Fubini-Study metrics (`metrics`),
measurement simulation and the replicas' estimates (`sampling`), the
Bloch sphere and its observable charts (`bloch`), and the butterfly ladder
relating conjugate distributions (`butterfly`) with its in-place numpy
kernel (`kernels`).  `criteria` holds the paper's numerical criteria, the
dense-vs-ladder timing among them, and `cli` runs them.
"""

from .bloch import (BlochPoint, ExtendedCoords, bloch_from_extended,
                    chart_tangent_metric, extended_from_bloch,
                    metric_in_coords, pauli_expectations, psi_from_bloch,
                    rebit_conjugate, shift_rotation_2,
                    transformed_phase_jacobian)
from .butterfly import (ButterflyPlan, apply_butterfly, assemble_transform,
                        bit_reversal_permutation, chain_propagate,
                        derive_shift_phases, dft_matrix, make_plan,
                        node_position, shift_operator_check, stage_matrix,
                        twiddle_phase, twiddle_stage,
                        verify_danielson_lanczos)
from .exceptions import ConfigError, DomainError, RangeError, SingularityError
from .kernels import AVAILABLE_BACKENDS, BACKEND
from .metrics import (extended_fisher_metric,
                      extended_fisher_metric_recursive, fisher_matrix,
                      fubini_study_distance, fubini_study_metric,
                      random_state, random_tangent)
from .partitions import (DigitSubsetSet, Partition, PhaseSpaceSet,
                         apply_shift, enumerate_binary_partitions,
                         finest_common_partition, is_invariant_under_shift,
                         make_lsb_partition, scale_transform_set,
                         shift_invariant_equal_partitions)
from .probmodel import (ConditionalTree, Distribution, factorize,
                        marginalize_to_partition, prob_from_theta,
                        reconstitute, s_variable, theta_from_prob)
from .sampling import measurement_stream, tomography_experiment

__version__ = "0.1.0"
