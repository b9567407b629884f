"""Typed argument validation: garbage is refused before work is scheduled.

Property tests (hypothesis) pin the contract of the two checkers and
the boundaries that use them: no non-positive, NaN, infinite, or
boolean value may reach a sweep, a plan request, or the server's
deadline arithmetic.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.durable import ValidationError, check_positive_int, check_positive_number


class TestCheckPositiveInt:
    @given(st.integers(min_value=1, max_value=10**9))
    def test_valid_integers_pass_through(self, value):
        assert check_positive_int("x", value) == value

    @given(st.integers(max_value=0))
    def test_non_positive_rejected(self, value):
        with pytest.raises(ValidationError, match="must be >="):
            check_positive_int("x", value)

    @given(
        st.one_of(
            st.booleans(),
            st.floats(),
            st.text(max_size=5),
            st.none(),
            st.lists(st.integers(), max_size=2),
        )
    )
    def test_non_integers_rejected(self, value):
        with pytest.raises(ValidationError, match="must be an integer"):
            check_positive_int("x", value)

    def test_minimum_is_configurable(self):
        assert check_positive_int("n", 2, minimum=2) == 2
        with pytest.raises(ValidationError, match=">= 2"):
            check_positive_int("n", 1, minimum=2)


class TestCheckPositiveNumber:
    @given(
        st.one_of(
            st.integers(min_value=1, max_value=10**9),
            st.floats(
                min_value=1e-9, max_value=1e18, allow_nan=False, allow_infinity=False
            ),
        )
    )
    def test_positive_finite_numbers_pass(self, value):
        assert check_positive_number("t", value) == float(value)

    @given(
        st.one_of(
            st.just(float("nan")),
            st.just(float("inf")),
            st.just(float("-inf")),
            st.floats(max_value=0.0, allow_nan=False),
            st.integers(max_value=0),
        )
    )
    def test_nan_inf_and_non_positive_rejected(self, value):
        with pytest.raises(ValidationError, match="positive finite"):
            check_positive_number("t", value)

    @given(st.one_of(st.booleans(), st.text(max_size=5), st.none()))
    def test_non_numbers_rejected(self, value):
        with pytest.raises(ValidationError, match="must be a number"):
            check_positive_number("t", value)


class TestPlanRequestBoundary:
    @given(
        st.one_of(
            st.integers(max_value=1),
            st.booleans(),
            st.floats(),
            st.none(),
        )
    )
    def test_bad_n_rejected_before_planning(self, n):
        from repro.service import PlanRequest

        with pytest.raises(ValidationError):
            PlanRequest(n=n, m=4)

    @given(st.one_of(st.integers(max_value=0), st.booleans(), st.floats()))
    def test_bad_m_rejected_before_planning(self, m):
        from repro.service import PlanRequest

        with pytest.raises(ValidationError):
            PlanRequest(n=8, m=m)

    def test_valid_request_constructs(self):
        from repro.service import PlanRequest

        assert PlanRequest(n=8, m=4).n == 8


class TestMachineParamsBoundary:
    @given(
        st.sampled_from(["t_s", "t_r", "t_step", "t_sq"]),
        st.one_of(
            st.just(float("nan")),
            st.just(float("inf")),
            st.floats(max_value=0.0, allow_nan=False),
        ),
    )
    def test_non_positive_timings_rejected(self, field, value):
        from repro.params import MachineParams

        with pytest.raises(ValidationError):
            MachineParams(**{field: value})


class TestEngineBoundary:
    def test_run_sweep_rejects_bad_engine_arguments(self):
        from repro.analysis.sweep import run_sweep

        def measure(x):
            return x

        for kwargs in (
            {"workers": 0},
            {"workers": 1.5},
            {"chunk_size": -1},
        ):
            with pytest.raises(ValidationError):
                run_sweep(measure, {"x": [1]}, **kwargs)

    def test_server_rejects_nan_timeouts(self):
        from repro.service import PlanServer

        with pytest.raises(ValidationError):
            PlanServer(request_timeout=float("nan"))
        with pytest.raises(ValidationError):
            PlanServer(drain_timeout=0.0)
        with pytest.raises(ValidationError):
            PlanServer(max_inflight=0)


class TestCliBoundary:
    def test_cli_refuses_before_any_work(self, capsys):
        from repro.cli import main

        assert main(["fig13a", "--workers", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_cli_resume_requires_checkpoint(self, capsys):
        from repro.cli import main

        assert main(["fig13a", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_cli_resume_requires_existing_file(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "never-written.ckpt"
        code = main(
            ["fig13a", "--topologies", "1", "--dest-sets", "1",
             "--checkpoint", str(missing), "--resume"]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err
