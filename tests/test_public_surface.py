"""The public surface of qrecon and the guards it shares.

The names `qrecon/__init__.py` imports are pinned here, so that adding or
removing a public name is a visible edit of this list.  Every width guard
refuses widths above its cap with a DomainError before it allocates: the
cases below must never reach an allocation, because the arrays they name
would not fit in memory.  Every array and every angle goes through one real
or complex conversion, which refuses text, ragged nesting and ints too large
for a float with a DomainError; an angle is no bool either.  Every seed and count of the sampling layer
goes through one integer check, which refuses anything but a non-negative
int with a DomainError.
"""

import ast
import math

import numpy as np
import pytest

import qrecon
from qrecon.butterfly import (assemble_transform, bit_reversal_permutation,
                              derive_shift_phases, dft_matrix, make_plan,
                              node_position, shift_operator_check,
                              stage_matrix, twiddle_phase, twiddle_stage,
                              verify_danielson_lanczos)
from qrecon.exceptions import MAX_OBJECT_WIDTH, MAX_WIDTH, DomainError
from qrecon.metrics import tangent_amplitudes
from qrecon.partitions import make_lsb_partition

PUBLIC_NAMES = [
    "AVAILABLE_BACKENDS", "BACKEND", "BlochPoint", "ButterflyPlan",
    "ConditionalTree", "ConfigError", "DigitSubsetSet", "Distribution",
    "DomainError", "ExtendedCoords", "Partition", "PhaseSpaceSet",
    "RangeError", "SingularityError", "apply_butterfly", "apply_shift",
    "assemble_transform",
    "bit_reversal_permutation",
    "bloch_from_extended", "chain_propagate", "chart_tangent_metric",
    "derive_shift_phases", "dft_matrix", "enumerate_binary_partitions",
    "extended_fisher_metric", "extended_fisher_metric_recursive",
    "extended_from_bloch", "factorize", "finest_common_partition",
    "fisher_matrix", "fubini_study_distance",
    "fubini_study_metric",
    "is_invariant_under_shift", "make_lsb_partition", "make_plan",
    "marginalize_to_partition", "measurement_stream", "metric_in_coords",
    "node_position", "pauli_expectations", "prob_from_theta",
    "psi_from_bloch", "random_state", "random_tangent", "rebit_conjugate",
    "reconstitute", "s_variable", "scale_transform_set",
    "shift_invariant_equal_partitions", "shift_operator_check",
    "shift_rotation_2", "stage_matrix",
    "theta_from_prob", "tomography_experiment", "transformed_phase_jacobian",
    "twiddle_phase", "twiddle_stage", "verify_danielson_lanczos",
]


def test_the_public_names_are_pinned():
    with open(qrecon.__file__) as f:
        tree = ast.parse(f.read())
    imported = sorted(alias.asname or alias.name for node in tree.body
                      if isinstance(node, ast.ImportFrom) for alias in node.names)
    assert imported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 58


VECTOR, DENSE, STREAMED = MAX_WIDTH, MAX_WIDTH // 2, MAX_WIDTH - 6
RNG = np.random.default_rng(0)

# (name, call of one width or size, the least width or size above its cap)
CAPPED = [
    ("bit_reversal_permutation", bit_reversal_permutation, VECTOR + 1),
    ("node_position", lambda n: node_position(n, 0, 0, 0), VECTOR + 1),
    ("derive_shift_phases", derive_shift_phases, VECTOR + 1),
    ("twiddle_stage", lambda n: twiddle_stage(n, 1), VECTOR + 1),
    ("twiddle_phase", lambda n: twiddle_phase(n, 1, 0), VECTOR + 1),
    ("make_plan", make_plan, VECTOR + 1),
    ("random_state", lambda n: qrecon.random_state(n, RNG), VECTOR + 1),
    ("make_lsb_partition", lambda n: make_lsb_partition(n, 1), MAX_OBJECT_WIDTH + 1),
    ("stage_matrix", lambda n: stage_matrix(n, 1), DENSE + 1),
    ("assemble_transform", assemble_transform, DENSE + 1),
    # the least power of 2 above the cap: other sizes fail as such
    ("dft_matrix", dft_matrix, 2 << DENSE),
    ("verify_danielson_lanczos", verify_danielson_lanczos, STREAMED + 1),
    ("shift_operator_check", shift_operator_check, STREAMED + 1),
]


@pytest.mark.parametrize("which", ["cap+1", "1e30"])
@pytest.mark.parametrize("name, call, above", CAPPED, ids=[c[0] for c in CAPPED])
def test_widths_above_the_cap_are_refused(name, call, above, which):
    with pytest.raises(DomainError):
        call(above if which == "cap+1" else 10**30)


TEXT, RAGGED = ["a", "b"], [[0.6], [0.6, 0.8]]
HUGE = 10**400  # an int too large for a float
STATE = np.array([0.6, 0.8])

# (name, call of one array-valued input): text, ragged nesting or an int too
# large for a float in an array position
ARRAY_INPUTS = [
    ("extended_fisher_metric", lambda x: qrecon.extended_fisher_metric(x, x)),
    ("extended_fisher_metric_recursive",
     lambda x: qrecon.extended_fisher_metric_recursive(x, x)),
    ("fubini_study_metric", lambda x: qrecon.fubini_study_metric(STATE, x)),
    ("fubini_study_distance", lambda x: qrecon.fubini_study_distance(x, STATE)),
    ("random_tangent", lambda x: qrecon.random_tangent(x, RNG)),
    ("tangent_amplitudes", lambda x: tangent_amplitudes(STATE, x, x)),
    ("chain_propagate", qrecon.chain_propagate),
    ("apply_butterfly", lambda x: qrecon.apply_butterfly(make_plan(1), x)),
    ("pauli_expectations", qrecon.pauli_expectations),
    ("transformed_phase_jacobian", qrecon.transformed_phase_jacobian),
    ("Distribution", qrecon.Distribution),
    ("s_variable", qrecon.s_variable),
    ("ConditionalTree", lambda x: qrecon.ConditionalTree(1, [x])),
]


@pytest.mark.parametrize("value", [TEXT, RAGGED, HUGE], ids=["text", "ragged", "huge"])
@pytest.mark.parametrize("name, call", ARRAY_INPUTS, ids=[c[0] for c in ARRAY_INPUTS])
def test_text_or_ragged_arrays_are_refused(name, call, value):
    with pytest.raises(DomainError):
        call(value)


# (name, call of one angle)
ANGLES = [
    ("prob_from_theta", qrecon.prob_from_theta),
    ("theta_from_prob", qrecon.theta_from_prob),
    ("tomography_experiment",
     lambda t: qrecon.tomography_experiment({"q": t}, {"q": 10}, 1, 10)),
    ("rebit_conjugate", qrecon.rebit_conjugate),
    ("metric_in_coords", lambda t: qrecon.metric_in_coords(t, 0.1, 0.2)),
]


@pytest.mark.parametrize("value", ["x", None, np.ones((2, 2)), math.nan, math.inf, HUGE,
                                   True, np.True_, np.array(True, dtype=object),
                                   np.array(np.True_, dtype=object),
                                   np.array("1.5", dtype=object)],
                         ids=["text", "None", "2x2", "nan", "inf", "huge", "true",
                              "np-true", "object-true", "object-np-true",
                              "object-text"])
@pytest.mark.parametrize("name, call", ANGLES, ids=[c[0] for c in ANGLES])
def test_an_angle_must_be_a_real_number(name, call, value):
    with pytest.raises(DomainError):
        call(value)


# (name, call of one seed or count of the sampling layer)
COUNTS = [
    ("measurement_stream-seed", lambda s: qrecon.measurement_stream(s, "q")),
    ("tomography_experiment-seed",
     lambda s: qrecon.tomography_experiment({"q": 1.0}, {"q": 10}, s, 10)),
    ("tomography_experiment-trials",
     lambda m: qrecon.tomography_experiment({"q": 1.0}, {"q": m}, 1, 10)),
    ("tomography_experiment-replicas",
     lambda r: qrecon.tomography_experiment({"q": 1.0}, {"q": 10}, 1, r)),
]


@pytest.mark.parametrize("value", ["1", None, 2.0, math.nan, True, -1],
                         ids=["text", "None", "float", "nan", "bool", "negative"])
@pytest.mark.parametrize("name, call", COUNTS, ids=[c[0] for c in COUNTS])
def test_a_seed_or_count_must_be_a_non_negative_int(name, call, value):
    with pytest.raises(DomainError):
        call(value)
