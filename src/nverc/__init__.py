"""nverc: pulse control of the NV ground-state triplet driven at the
zero-field splitting.

Closed-form segment unitaries and two-pulse rotation gates on the
double-quantum transition, gate synthesis by generalized Euler angles, an
independent lab-frame Schrodinger propagator for cross-validation,
strain/electric-field compensation, simulated calibration, and a sweep CLI
for figure-style datasets.
"""

from .calib import (OdmrResult, RabiExtraction, RatioScanResult, rabi_extract,
                    ratio_scan, simulate_odmr)
from .erc import (ErcQuantities, bright_dark, characteristic_quantities,
                  closed_form_unitary, dq_rotation, erc_unitary,
                  not_gate_sequence)
from .errors import (AxisDegenerateError, ConfigError, DomainError,
                     ExtractionError, NoConvergenceError, NvErcError,
                     RegimeError, ResonanceError, StepSizeUnderflow)
from .prop import (IntegratorConfig, PropagationResult, apply_sequence,
                   frame_transform, propagate, sequence_unitary)
from .pulses import (DQRotation, PulseSegment, PulseSequence, RotationAxis,
                     SEQUENCE_SCHEMA, sequence_from_json, sequence_to_json)
from .spin import (DQBlochPoint, FrameTag, StateVector3, SystemParams,
                   Unitary3, dq_projection, phi_state, spin_matrices,
                   state_fidelity, unitary_fidelity)
from .strain import (EffectiveParams, compensation_ratio, dressing_unitary,
                     effective_params, ey_characteristics, phi_from_times)
from .synth import SynthesisResult, dq_block, dq_gate_fidelity, synthesize_gate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core types
    "SystemParams", "StateVector3", "Unitary3", "DQBlochPoint", "FrameTag",
    "PulseSegment", "PulseSequence", "DQRotation", "RotationAxis",
    "ErcQuantities", "EffectiveParams", "IntegratorConfig", "PropagationResult",
    "SynthesisResult", "OdmrResult", "RabiExtraction", "RatioScanResult",
    # operations
    "spin_matrices", "phi_state", "dq_projection", "state_fidelity",
    "unitary_fidelity", "characteristic_quantities", "bright_dark",
    "erc_unitary", "closed_form_unitary", "dq_rotation", "not_gate_sequence",
    "apply_sequence", "sequence_unitary", "synthesize_gate", "dq_block",
    "dq_gate_fidelity", "propagate", "frame_transform", "ey_characteristics",
    "phi_from_times", "compensation_ratio", "effective_params",
    "dressing_unitary", "simulate_odmr", "rabi_extract", "ratio_scan",
    "sequence_to_json", "sequence_from_json", "SEQUENCE_SCHEMA",
    # errors
    "NvErcError", "RegimeError", "DomainError", "ResonanceError",
    "AxisDegenerateError", "NoConvergenceError", "ExtractionError",
    "StepSizeUnderflow", "ConfigError",
]
