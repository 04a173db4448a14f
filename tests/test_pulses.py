import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nverc import (ConfigError, DQRotation, FrameTag, PulseSegment, PulseSequence,
                   RotationAxis, SystemParams, sequence_from_json,
                   sequence_to_json)
from nverc.pulses import reduce_angle


class TestSegments:
    def test_beta_defaults_to_alpha(self):
        seg = PulseSegment(1.0, 0.7, 3.0)
        assert seg.beta == 0.7

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            PulseSegment(-0.1, 0.0, 3.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PulseSegment(1.0, float("inf"), 3.0)

    def test_total_duration(self):
        seq = PulseSequence([PulseSegment(1.0, 0.0, 3.0), PulseSegment(2.5, 0.1, 3.0)])
        assert seq.total_duration == pytest.approx(3.5)
        assert len(seq) == 2


class TestAngles:
    @given(st.floats(-50.0, 50.0, allow_nan=False))
    @settings(max_examples=100)
    def test_reduce_angle_range_and_congruence(self, theta):
        t = reduce_angle(theta)
        assert -math.pi < t <= math.pi + 1e-15
        assert abs(math.remainder(t - theta, 2 * math.pi)) < 1e-9

    def test_rotation_angle_reduced(self):
        r = DQRotation(RotationAxis.MINUS_PHI, 3 * math.pi)
        assert r.theta == pytest.approx(math.pi)
        r2 = DQRotation("plus_phi", -math.pi)
        assert r2.theta == pytest.approx(math.pi)


class TestSerialization:
    def _roundtrip(self, seq, params):
        text = sequence_to_json(seq, params)
        seq2, params2 = sequence_from_json(text)
        return text, seq2, params2

    @given(fields=st.tuples(*[st.floats(-5.0, 5.0)] * 3),
           segs=st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(-7.0, 7.0),
                                   st.floats(0.0, 10.0), st.floats(-1.0, 1.0),
                                   st.none() | st.floats(-7.0, 7.0)),
                         max_size=5))
    def test_roundtrip(self, fields, segs):
        ex, ey, ez = fields
        p = SystemParams(D=500.0, muB=1.0, omega_x=3.0, Ex=ex, Ey=ey, Ez=ez)
        seq = PulseSequence([PulseSegment(d, a, ox, omega_y=oy, beta=b)
                             for d, a, ox, oy, b in segs])
        text, seq2, p2 = self._roundtrip(seq, p)
        assert '"nverc-seq/1"' in text
        assert json.loads(text)["frame"] == p.interaction_frame.value
        assert p2 == p
        assert seq2 == seq

    @pytest.mark.parametrize("ez", [0.0, 0.5])
    def test_frame_must_be_the_parameters_frame(self, ez):
        p = SystemParams(D=500.0, muB=1.0, omega_x=3.0, Ez=ez)
        doc = json.loads(sequence_to_json(PulseSequence([PulseSegment(1.0, 0.2, 3.0)]), p))
        # "lab" was a frame tag once; no propagator is expressed in it now
        for frame in [*(tag.value for tag in FrameTag), "lab"]:
            doc["frame"] = frame
            if frame == p.interaction_frame.value:
                assert sequence_from_json(json.dumps(doc))[1] == p
            else:
                with pytest.raises(ConfigError, match="frame"):
                    sequence_from_json(json.dumps(doc))
        del doc["frame"]
        seq, p2 = sequence_from_json(json.dumps(doc))
        assert (seq, p2) == (PulseSequence([PulseSegment(1.0, 0.2, 3.0)]), p)

    def test_schema_version_enforced(self):
        p = SystemParams(D=500.0, muB=1.0, omega_x=3.0)
        text = sequence_to_json(PulseSequence([]), p).replace("nverc-seq/1", "nverc-seq/9")
        with pytest.raises(ConfigError):
            sequence_from_json(text)

    def test_malformed_document(self):
        # not JSON, JSON that is not an object, an object missing its keys
        for text in ("{not json", "[]", '"x"', "null"):
            with pytest.raises(ConfigError):
                sequence_from_json(text)
        with pytest.raises(ConfigError):
            sequence_from_json('{"schema": "nverc-seq/1", "segments": [{}], "params": {}}')

    @pytest.mark.parametrize("change,named", [
        ({"params": {"D": True, "muB": False, "omega_x": 3}}, "'D'"),
        ({"params": {"D": 500.0, "muB": 1.0, "omega_x": "3"}}, "'omega_x'"),
        ({"segments": [{"duration": True, "alpha": False, "omega_x": 3.0}]}, "'duration'"),
        ({"segments": [{"duration": 1.0, "alpha": None, "omega_x": 3.0}]}, "'alpha'"),
        ({"segments": [{"duration": 1.0, "alpha": 0.0, "omega_x": 3.0, "omega_z": 1}]},
         "'omega_z'"),
        ({"params": {"D": 10 ** 400, "muB": 1.0, "omega_x": 3.0}}, "too large"),
        ({"extra": 1}, "'extra'"),
    ], ids=["params-bools", "params-string", "segment-bools", "segment-null",
            "segment-unknown-key", "params-huge-integer", "document-unknown-key"])
    def test_refuses_what_the_config_readers_refuse(self, change, named):
        # bools loaded as numbers and unread keys were dropped, where a
        # config file refuses both
        p = SystemParams(D=500.0, muB=1.0, omega_x=3.0)
        doc = json.loads(sequence_to_json(PulseSequence([PulseSegment(1.0, 0.2, 3.0)]), p))
        with pytest.raises(ConfigError, match=named):
            sequence_from_json(json.dumps({**doc, **change}))
