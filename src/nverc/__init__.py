"""nverc: pulse control of the NV ground-state triplet driven at the
zero-field splitting.

Closed-form segment unitaries and two-pulse rotation gates on the
double-quantum transition, gate synthesis by generalized Euler angles, an
independent lab-frame Schrodinger propagator for cross-validation,
strain/electric-field compensation, simulated calibration, and a sweep CLI
for figure-style datasets.
"""

from .calib import (OdmrResult, RabiExtraction, RatioScanResult, phi_from_times,
                    rabi_extract, ratio_scan, simulate_odmr)
from .erc import (ErcQuantities, bright_dark, characteristic_quantities,
                  closed_form_unitary, dq_rotation, erc_unitary,
                  not_gate_sequence)
from .errors import (AxisDegenerateError, ConfigError, DomainError,
                     ExtractionError, NoConvergenceError, NvErcError,
                     RegimeError, ResonanceError)
from .ham import (EffectiveParams, compensation_ratio, dressing_unitary,
                  effective_params)
from .prop import evolve, sequence_unitary
from .pulses import (DQRotation, PulseSegment, PulseSequence, RotationAxis,
                     SEQUENCE_SCHEMA, sequence_from_json, sequence_to_json)
from .spin import FrameTag, StateVector3, SystemParams, Unitary3, phi_state
from .synth import SynthesisResult, dq_block, dq_gate_fidelity, synthesize_gate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core types
    "SystemParams", "StateVector3", "Unitary3", "FrameTag",
    "PulseSegment", "PulseSequence", "DQRotation", "RotationAxis",
    "ErcQuantities", "EffectiveParams",
    "SynthesisResult", "OdmrResult", "RabiExtraction", "RatioScanResult",
    # operations
    "phi_state", "characteristic_quantities",
    "bright_dark", "erc_unitary", "closed_form_unitary", "dq_rotation", "not_gate_sequence",
    "evolve", "sequence_unitary", "synthesize_gate", "dq_block", "dq_gate_fidelity",
    "phi_from_times", "compensation_ratio", "effective_params",
    "dressing_unitary", "simulate_odmr", "rabi_extract", "ratio_scan",
    "sequence_to_json", "sequence_from_json", "SEQUENCE_SCHEMA",
    # errors
    "NvErcError", "RegimeError", "DomainError", "ResonanceError",
    "AxisDegenerateError", "NoConvergenceError", "ExtractionError",
    "ConfigError",
]
