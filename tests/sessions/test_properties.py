"""Property-based invariants: work conservation, FIFO order, determinism.

Sweep determinism across worker counts is pinned for every campaign in
``tests/analysis/test_campaign.py``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import host
from repro.sessions import (
    SCHEDULERS,
    Session,
    SessionSimulator,
    generate_sessions,
)

from .conftest import STAR_HOSTS, STEP_PARAMS, star


def _fabric():
    topo, router = star(STAR_HOSTS)
    return topo, router, [host(i) for i in range(STAR_HOSTS)]


#: A random non-overlapping batch of up to four sessions on the star.
session_batches = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),  # arrival
        st.integers(min_value=1, max_value=3),  # packets
        st.integers(min_value=1, max_value=2),  # dests per session
    ),
    min_size=1,
    max_size=4,
).map(
    lambda rows: [
        Session(
            source=host(3 * i),
            destinations=tuple(host(3 * i + 1 + d) for d in range(dests)),
            num_packets=m,
            arrival_time=round(arrival, 1),
            session_id=i,
        )
        for i, (arrival, m, dests) in enumerate(rows)
    ]
)


class TestWorkConservation:
    @settings(max_examples=25, deadline=None)
    @given(
        sessions=session_batches,
        scheduler=st.sampled_from(sorted(SCHEDULERS)),
        max_active=st.sampled_from([1, 2, None]),
    )
    def test_no_idle_slot_while_sessions_wait(self, sessions, scheduler, max_active):
        topo, router, ordering = _fabric()
        sim = SessionSimulator(
            topo, router, ordering,
            params=STEP_PARAMS, scheduler=scheduler, max_active=max_active,
        )
        result = sim.run_sessions(sessions)
        assert len(result.results) == len(sessions)
        assert sim.last_arbiter.work_conservation_violations() == []


class TestFifoOrdering:
    @settings(max_examples=25, deadline=None)
    @given(sessions=session_batches)
    def test_fifo_never_reorders_ready_sessions(self, sessions):
        """If Y was ready when X was admitted and Y admitted later,
        X must precede Y in FIFO key order."""
        topo, router, ordering = _fabric()
        sim = SessionSimulator(
            topo, router, ordering,
            params=STEP_PARAMS, scheduler="fifo", max_active=1,
        )
        sim.run_sessions(sessions)
        key = {s.session_id: s.sort_key for s in sessions}
        ready_at, admit_at = {}, {}
        for time, kind, sid in sim.last_arbiter.log:
            if kind == "ready":
                ready_at[sid] = time
            elif kind == "admit":
                admit_at[sid] = time
        for x, tx in admit_at.items():
            for y, ty in admit_at.items():
                if ready_at[y] <= tx and ty > tx:
                    assert key[y] >= key[x]


class TestGeneratorDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(["poisson", "batch", "flash_crowd"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        count=st.integers(min_value=1, max_value=12),
    )
    def test_same_seed_reproduces_exactly(self, kind, seed, count):
        hosts = [host(i) for i in range(16)]
        kwargs = {"count": count, "packets": 2, "seed": seed}
        if kind == "poisson":
            kwargs.update(rate=0.05, dests=3)
        elif kind == "batch":
            kwargs.update(dests=3)
        else:
            kwargs.update(max_dests=4, window=20.0)
        assert generate_sessions(kind, hosts, **kwargs) == generate_sessions(
            kind, hosts, **kwargs
        )

