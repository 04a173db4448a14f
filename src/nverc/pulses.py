"""Timed, phased microwave drive segments: the executable gate program.

A :class:`PulseSequence` serializes to the ``nverc-seq/1`` JSON document:
ordered segments with fields ``{duration, alpha, beta, omega_x, omega_y}``
plus a header carrying the system parameters and their frame tag
``SystemParams.interaction_frame``, the frame the program's propagator is
expressed in.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import asdict, dataclass

from .errors import ConfigError
from .spin import SystemParams

__all__ = [
    "PulseSegment",
    "PulseSequence",
    "DQRotation",
    "RotationAxis",
    "SEQUENCE_SCHEMA",
    "sequence_to_json",
    "sequence_from_json",
    "reduce_angle",
]

SEQUENCE_SCHEMA = "nverc-seq/1"


def reduce_angle(theta: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    t = math.remainder(theta, 2.0 * math.pi)
    if t <= -math.pi:  # remainder returns [-pi, pi]; fold the lower endpoint
        t += 2.0 * math.pi
    return t


@dataclass(frozen=True)
class PulseSegment:
    """Constant-amplitude, constant-phase drive segment.

    ``alpha`` is the main-drive phase, ``beta`` the orthogonal-drive phase
    (defaults to ``alpha``).  Amplitudes are per-segment so a sequence can
    switch drive strength between pulses.
    """

    duration: float
    alpha: float
    omega_x: float
    omega_y: float = 0.0
    beta: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration >= 0.0):
            raise ValueError(f"segment duration must be finite and >= 0, got {self.duration}")
        for name in ("alpha", "omega_x", "omega_y"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"segment field {name} must be finite")
        if self.beta is None:
            object.__setattr__(self, "beta", self.alpha)
        elif not math.isfinite(self.beta):
            raise ValueError("segment field beta must be finite")


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulse segments."""

    segments: tuple[PulseSegment, ...]

    def __init__(self, segments):
        object.__setattr__(self, "segments", tuple(segments))

    @property
    def total_duration(self) -> float:
        return float(sum(seg.duration for seg in self.segments))

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)


class RotationAxis(str, enum.Enum):
    """Which of the two available DQ rotation axes a two-pulse gate uses."""

    MINUS_PHI = "minus_phi"
    PLUS_PHI = "plus_phi"


@dataclass(frozen=True)
class DQRotation:
    """Rotation on the DQ Bloch sphere: axis label plus angle in (-pi, pi]."""

    axis: RotationAxis
    theta: float

    def __init__(self, axis, theta: float):
        object.__setattr__(self, "axis", RotationAxis(axis))
        if not math.isfinite(theta):
            raise ValueError("rotation angle must be finite")
        object.__setattr__(self, "theta", reduce_angle(float(theta)))


def sequence_to_json(seq: PulseSequence, params: SystemParams) -> str:
    doc = {
        "schema": SEQUENCE_SCHEMA,
        "frame": params.interaction_frame.value,
        "params": asdict(params),
        # the schema's key order, which is not PulseSegment's (beta last)
        "segments": [
            {
                "duration": seg.duration,
                "alpha": seg.alpha,
                "beta": seg.beta,
                "omega_x": seg.omega_x,
                "omega_y": seg.omega_y,
            }
            for seg in seq.segments
        ],
    }
    return json.dumps(doc, indent=2)


def _number_fields(what: str, obj) -> dict:
    """``obj``, a JSON object of numbers; a value that is not a JSON number
    (a bool included) is refused naming its key."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {obj!r}")
    for k, v in obj.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{what} field {k!r} must be a JSON number, got {v!r}")
    return obj


def sequence_from_json(text: str) -> tuple[PulseSequence, SystemParams]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid sequence JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"a sequence document must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != SEQUENCE_SCHEMA:
        raise ConfigError(
            f"unsupported sequence schema {doc.get('schema')!r}, expected {SEQUENCE_SCHEMA!r}"
        )
    if extra := set(doc) - {"schema", "frame", "params", "segments"}:
        raise ConfigError(f"sequence document key {sorted(extra)[0]!r} is not read")
    try:
        # the constructors refuse a missing or unknown field by name
        params = SystemParams(**_number_fields("params", doc["params"]))
        segments = [PulseSegment(**_number_fields("segment", s)) for s in doc["segments"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed sequence document: {exc}") from exc
    frame = params.interaction_frame.value
    if doc.get("frame", frame) != frame:
        raise ConfigError(f"sequence frame {doc['frame']!r} is not the frame {frame!r} "
                          "of its parameters")
    return PulseSequence(segments), params
