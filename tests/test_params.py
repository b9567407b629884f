"""SystemParams defaults and validation."""

from __future__ import annotations

import pytest

from repro.durable import ValidationError
from repro.params import PAPER_PARAMS, SystemParams


def test_paper_defaults_match_section_5_2():
    assert PAPER_PARAMS.t_s == 12.5
    assert PAPER_PARAMS.t_r == 12.5
    assert PAPER_PARAMS.t_ns == 3.0
    assert PAPER_PARAMS.t_nr == 2.0
    assert PAPER_PARAMS.packet_bytes == 64


def test_wire_time():
    p = SystemParams(packet_bytes=64, link_bandwidth=160.0)
    assert p.wire_time == pytest.approx(0.4)


def test_t_step_composition():
    p = SystemParams()
    assert p.t_step == pytest.approx(p.t_ns + p.t_switch + p.wire_time + p.t_nr)


def test_t_step_magnitude_near_paper_model():
    # t_ns + t_nr = 5 µs dominate; t_step should land in [5, 6.5].
    assert 5.0 <= PAPER_PARAMS.t_step <= 6.5


def test_negative_times_rejected():
    with pytest.raises(ValueError):
        SystemParams(t_s=-1)
    with pytest.raises(ValueError):
        SystemParams(t_nr=-0.1)


def test_bad_packet_size_rejected():
    with pytest.raises(ValueError):
        SystemParams(packet_bytes=0)


def test_bad_bandwidth_rejected():
    with pytest.raises(ValueError):
        SystemParams(link_bandwidth=0)


@pytest.mark.parametrize(
    "field", ["t_s", "t_r", "t_ns", "t_nr", "t_switch", "t_dma", "link_bandwidth"]
)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_times_rejected(field, bad):
    # A NaN time would run the whole simulation on NaN timestamps.
    with pytest.raises(ValidationError):
        PAPER_PARAMS.with_(**{field: bad})


def test_with_override():
    p = PAPER_PARAMS.with_(t_ns=5.0)
    assert p.t_ns == 5.0 and p.t_nr == PAPER_PARAMS.t_nr
    assert PAPER_PARAMS.t_ns == 3.0  # original untouched


def test_frozen():
    with pytest.raises(Exception):
        PAPER_PARAMS.t_s = 1.0


class TestMachineParams:
    def test_defaults_project_paper_params(self):
        from repro.params import PAPER_MACHINE

        assert PAPER_MACHINE.t_s == PAPER_PARAMS.t_s
        assert PAPER_MACHINE.t_r == PAPER_PARAMS.t_r
        assert PAPER_MACHINE.t_step == PAPER_PARAMS.t_step
        assert PAPER_MACHINE.ports == 1

    def test_from_system_projection(self):
        from repro.params import MachineParams

        system = SystemParams(t_s=9.0, t_r=8.0)
        machine = MachineParams.from_system(system, t_sq=2.5, ports=2)
        assert machine.t_s == 9.0 and machine.t_r == 8.0
        assert machine.t_step == pytest.approx(system.t_step)
        assert machine.t_sq == 2.5 and machine.ports == 2

    @pytest.mark.parametrize("field", ["t_s", "t_r", "t_step", "t_sq"])
    @pytest.mark.parametrize("bad", [0, -1.5, "3", None, True])
    def test_non_positive_or_non_numeric_times_rejected(self, field, bad):
        from repro.params import MachineParams

        with pytest.raises(ValueError):
            MachineParams(**{field: bad})

    @pytest.mark.parametrize("bad", [0, -2, 1.5, "2", True])
    def test_bad_ports_rejected(self, bad):
        from repro.params import MachineParams

        with pytest.raises(ValueError):
            MachineParams(ports=bad)

    def test_dict_roundtrip_and_unknown_keys(self):
        from repro.params import MachineParams

        machine = MachineParams(t_sq=2.0, ports=4)
        assert MachineParams.from_dict(machine.to_dict()) == machine
        with pytest.raises(ValueError):
            MachineParams.from_dict({"warp_factor": 9})

    def test_hashable_by_value(self):
        from repro.params import MachineParams

        assert hash(MachineParams(t_sq=2.0)) == hash(MachineParams(t_sq=2.0))
        assert MachineParams(t_sq=2.0) != MachineParams(t_sq=3.0)
