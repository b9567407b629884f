"""Shared oracles of the plan-service tests."""

from __future__ import annotations

from repro.service import PlanRequest, plan


def compact_result(request: PlanRequest) -> dict:
    """The compact answer form of ``request``, built from ``plan()``'s full
    form: the same fields without ``"schedule"``, with the machine's
    ``"ports"`` ahead of ``"excluded"``."""
    fields = plan(request).to_dict()
    del fields["schedule"]
    excluded = fields.pop("excluded")
    fields.update(ports=request.params.ports, excluded=excluded)
    return fields
