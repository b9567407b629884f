"""The plan function against direct core computations."""

from __future__ import annotations

import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    build_kbinomial_tree,
    cache_stats,
    cached_kbinomial_steps,
    clear_caches,
    fpfs_first_last,
    fpfs_schedule,
    optimal_k,
    steps_needed,
)
from repro.membership.amend import amended_request
from repro.params import MachineParams
from repro.service import NodePlan, PlanRequest, PlanResult, plan
from repro.service import planner as planner_module
from repro.service.planner import (
    MAX_PLAN_WORK,
    _LRUMemo,
    _plan_shape,
    plan_compact_json,
    plan_compact_json_warm,
)

from .helpers import compact_result

GRID = [(n, m) for n in (2, 3, 8, 16, 31, 64) for m in (1, 2, 8, 32)]


class TestPlanMatchesCore:
    @pytest.mark.parametrize("n,m", GRID)
    def test_k_is_theorem_3(self, n, m):
        assert plan(PlanRequest(n=n, m=m)).k == optimal_k(n, m)

    @pytest.mark.parametrize("n,m", GRID)
    def test_schedule_matches_exact_fpfs(self, n, m):
        result = plan(PlanRequest(n=n, m=m))
        tree = build_kbinomial_tree(range(n), result.k)
        recv = fpfs_schedule(tree, m)
        for row in result.schedule:
            assert row.children == tree.children(row.node)
            assert row.first_recv == recv[(row.node, 0)]
            assert row.last_recv == recv[(row.node, m - 1)]
            assert row.child_first_send == tuple(recv[(c, 0)] for c in row.children)
        assert result.total_steps == max(recv.values())
        assert result.total_steps == cached_kbinomial_steps(n, result.k, m)

    @pytest.mark.parametrize("n,m", GRID)
    def test_theorem_2_breakdown(self, n, m):
        result = plan(PlanRequest(n=n, m=m))
        assert result.t1 == steps_needed(n, result.k)
        assert result.total_steps == result.t1 + result.pipeline_steps
        # Theorem 2's (m-1)·k term: exact on full trees, an upper
        # bound on partial ones (fan-outs never exceed k).
        assert result.pipeline_steps <= (m - 1) * result.k
        tree = build_kbinomial_tree(range(n), result.k)
        assert result.root_fanout == tree.root_fanout

    def test_cost_model_uses_machine_params(self):
        params = MachineParams(t_s=10.0, t_r=20.0, t_step=2.0, t_sq=3.0)
        result = plan(PlanRequest(n=16, m=4, params=params))
        assert result.latency_us == pytest.approx(10.0 + result.total_steps * 2.0 + 20.0)
        tree = build_kbinomial_tree(range(16), result.k)
        assert result.buffer_bound_us == pytest.approx(tree.max_fanout * 3.0)

    def test_multiport_shortens_schedule(self):
        one = plan(PlanRequest(n=32, m=8, params=MachineParams(ports=1)))
        two = plan(PlanRequest(n=32, m=8, params=MachineParams(ports=2)))
        assert two.total_steps <= one.total_steps

    def test_parent_links_consistent(self):
        result = plan(PlanRequest(n=31, m=4))
        rows = {row.node: row for row in result.schedule}
        assert rows[0].parent is None
        for row in result.schedule:
            for child in row.children:
                assert rows[child].parent == row.node


#: Machine times as the wire delivers them: JSON floats or integers.
TIMES = st.one_of(
    st.floats(0.01, 1000.0, allow_nan=False, allow_infinity=False), st.integers(1, 1000)
)


@st.composite
def plan_requests(draw):
    """n in [2, 600], m in [1, 40], any exclude set, any machine view."""
    n = draw(st.integers(2, 600))
    m = draw(st.integers(1, 40))
    exclude = draw(st.sets(st.integers(1, n - 1), max_size=min(n - 2, 8)))
    params = draw(
        st.one_of(
            st.just(MachineParams()),
            st.builds(
                MachineParams,
                t_s=TIMES,
                t_r=TIMES,
                t_step=TIMES,
                t_sq=TIMES,
                ports=st.integers(1, 3),
            ),
        )
    )
    return PlanRequest(n=n, m=m, params=params, exclude=tuple(exclude))


class TestWireFormat:
    def test_roundtrip_through_json(self):
        result = plan(PlanRequest(n=24, m=6))
        wire = json.loads(json.dumps(result.to_dict()))
        assert PlanResult.from_dict(wire) == result

    @settings(max_examples=60, deadline=None)
    @given(request=plan_requests())
    def test_decoder_rebuilds_the_oracle(self, request):
        """A decoded ``to_dict`` equals ``plan()`` and hashes the same;
        every row equals the one its fields make through
        ``NodePlan.__init__``."""
        oracle = plan(request)
        encoded = json.dumps(oracle.to_dict(), separators=(",", ":"))
        decoded = PlanResult.from_dict(json.loads(encoded))
        assert decoded == oracle
        assert hash(decoded) == hash(oracle)
        for row, fields in zip(decoded.schedule, json.loads(encoded)["schedule"]):
            fields["children"] = tuple(fields["children"])
            fields["child_first_send"] = tuple(fields["child_first_send"])
            built = NodePlan(**fields)
            assert row == built and hash(row) == hash(built)
            assert row._asdict() == built._asdict()

    def test_machine_params_wire_form_is_asdict(self):
        from dataclasses import asdict

        for params in (MachineParams(), MachineParams(t_s=3, t_r=2.5, t_step=1, t_sq=0.5, ports=2)):
            assert params.to_dict() == asdict(params)
            assert json.dumps(params.to_dict()) == json.dumps(asdict(params))


@st.composite
def compact_requests(draw):
    """n in [2, 1024], ports 1-3, any exclusions, some folded from an amend delta."""
    n = draw(st.integers(2, 1024))
    m = draw(st.integers(1, min(40, MAX_PLAN_WORK // n)))
    exclude = tuple(draw(st.sets(st.integers(1, n - 1), max_size=min(n - 2, 8))))
    params = MachineParams(ports=draw(st.integers(1, 3)))
    if draw(st.booleans()):
        return PlanRequest(n=n, m=m, params=params, exclude=exclude)
    join = draw(st.integers(0, 3))
    free = [p for p in range(1, n) if p not in exclude]
    leave = draw(st.sets(st.sampled_from(free), max_size=min(len(free) + join - 1, 4)))
    return amended_request(n, m, params, exclude, join=join, leave=tuple(leave))


class TestCompactForm:
    @settings(max_examples=80, deadline=None)
    @given(request=compact_requests())
    def test_compact_answer_expands_to_the_plan(self, request):
        """The compact line is about 150 bytes at any n, and
        ``from_dict`` rebuilds exactly ``plan()`` from it."""
        encoded = plan_compact_json(request)
        assert encoded == json.dumps(compact_result(request), separators=(",", ":")).encode()
        assert len(encoded) <= 256 + 8 * len(request.exclude)
        decoded = PlanResult.from_dict(json.loads(encoded))
        oracle = plan(request)
        assert decoded == oracle
        assert hash(decoded) == hash(oracle)
        for row in decoded.schedule:
            built = NodePlan(**row._asdict())
            assert row == built and hash(row) == hash(built)

    def test_warm_lookup_reads_the_compact_memo_only(self):
        request = PlanRequest(n=512, m=32, exclude=(3, 7, 9))
        _plan_shape.cache_clear()
        assert plan_compact_json_warm(request) is None
        assert _plan_shape.cache_info().currsize == 0
        encoded = plan_compact_json(request)
        assert plan_compact_json_warm(request) == encoded
        # The compact memo is the service's only answer memo.
        assert "plan_wire" not in cache_stats()

    @pytest.mark.parametrize(
        "change, fragment",
        [
            ({"k": 0}, "k=0 outside"),
            ({"k": 513}, "k=513 outside"),
            ({"k": True}, "k=True outside"),
            ({"k": 2.0}, "k=2.0 outside"),
            ({"n": 1}, "n must be >= 2"),
            ({"n": 512.0}, "n must be an integer"),
            ({"m": 0}, "m must be >= 1"),
            ({"ports": 0}, "ports must be >= 1"),
            ({"ports": True}, "ports must be an integer"),
            ({"ports": 1.0}, "ports must be an integer"),
            ({"n": 131073, "m": 1, "k": 3}, "exceeds the limit"),
            ({"m": MAX_PLAN_WORK}, "exceeds the limit"),
            ({"excluded": [7, 3]}, "rise strictly"),
            ({"excluded": [3, 3]}, "rise strictly"),
            ({"excluded": [0]}, "cannot exclude the source"),
            ({"excluded": [512]}, "position 512 outside"),
            ({"excluded": ["3"]}, "entries must be integers"),
            ({"excluded": ["3", 1]}, "entries must be integers"),
            ({"excluded": 3}, "must be a list"),
            ({"n": 3, "k": 1, "excluded": [1, 2]}, "leaves no destinations"),
        ],
    )
    def test_malformed_compact_payloads_raise_before_building(self, monkeypatch, change, fragment):
        payload = json.loads(plan_compact_json(PlanRequest(n=512, m=32)))
        payload.update(change)

        def refuse(*args):
            raise AssertionError("a malformed payload built a tree")

        monkeypatch.setattr(planner_module, "build_kbinomial_tree", refuse)
        planner_module._schedule_rows.cache_clear()
        with pytest.raises(ValueError, match=fragment):
            PlanResult.from_dict(payload)

    def test_expansion_holds_rows_in_a_row_bounded_memo_only(self):
        """A client expands compact answers into the row memo, which is
        bounded by rows, and never into the unbounded shared tree memo."""
        payload = json.loads(plan_compact_json(PlanRequest(n=300, m=8, exclude=(4,))))
        clear_caches()
        assert PlanResult.from_dict(payload) == plan(PlanRequest(n=300, m=8, exclude=(4,)))
        stats = cache_stats()
        assert stats["build_kbinomial_tree"].currsize == 0
        assert stats["plan_schedule"].currsize == 1
        assert planner_module._schedule_rows.cache_info().maxsize == MAX_PLAN_WORK


class TestWireMemo:
    @settings(max_examples=30, deadline=None)
    @given(request=plan_requests())
    def test_warm_lookup_answers_only_from_the_memo(self, request):
        _plan_shape.cache_clear()
        assert plan_compact_json_warm(request) is None
        assert _plan_shape.cache_info().currsize == 0  # the miss computed nothing
        encoded = plan_compact_json(request)
        assert plan_compact_json_warm(request) == encoded
        info = _plan_shape.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_bounded_lru_with_lookup_hits(self):
        computed = []

        def square(x):
            computed.append(x)
            return x * x

        memo = _LRUMemo(square, maxsize=3)
        assert [memo(1), memo(2), memo(3)] == [1, 4, 9]
        assert memo.lookup(1) == 1  # now the most recently used
        assert memo(4) == 16  # evicts 2, the least recently used
        assert memo.lookup(2) is None
        assert memo(1) == 1 and memo(3) == 9
        assert computed == [1, 2, 3, 4]
        assert tuple(memo.cache_info()) == (3, 4, 3, 3)  # hits, misses, maxsize, size
        memo.cache_clear()
        assert tuple(memo.cache_info()) == (0, 0, 3, 0)
        assert _plan_shape.cache_info().maxsize == 4096

    def test_weighted_bound_evicts_by_total_weight(self):
        """With a ``weight``, ``maxsize`` bounds the stored entries' total
        weight, and the newest entry stays even when it alone is over."""
        memo = _LRUMemo(lambda n: "x" * n, maxsize=10, weight=len)
        memo(4), memo(5)
        assert memo.lookup(4) == "xxxx"  # 9 of 10; 4 is now the most recent
        memo(3)  # 12 of 10: evicts 5, the least recently used
        assert memo.lookup(5) is None
        assert memo.cache_info().currsize == 2
        memo(20)  # over the bound alone: held, every other entry evicted
        assert memo.lookup(20) == "x" * 20
        assert memo.cache_info().currsize == 1
        memo(1)
        assert memo.lookup(20) is None and memo.lookup(1) == "x"
        memo.cache_clear()
        memo(6), memo(4)  # exactly 10: a clear forgot the weight held
        assert memo.cache_info().currsize == 2

    def test_counts_and_bound_hold_under_threads(self):
        """Ten threads calling and looking up over a small memo: no
        update is lost, the bound holds and every value is right."""
        memo = _LRUMemo(lambda x: x * x, maxsize=8)
        counted = []
        errors = []
        barrier = threading.Barrier(10)

        def worker(seed):
            calls = lookup_hits = 0
            barrier.wait()
            try:
                for i in range(3000):
                    key = (i * 7 + seed) % 24
                    if i % 3:
                        assert memo(key) == key * key
                        calls += 1
                    else:
                        found = memo.lookup(key)
                        assert found is None or found == key * key
                        lookup_hits += found is not None
                    assert memo.cache_info().currsize <= 8
            except AssertionError as exc:
                errors.append(exc)
            counted.append(calls + lookup_hits)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(10)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        info = memo.cache_info()
        assert info.hits + info.misses == sum(counted)
        assert info.currsize <= 8


class TestRequestValidation:
    @pytest.mark.parametrize("n", [1, 0, -3, 2.5, "64", True, None])
    def test_bad_n_rejected(self, n):
        with pytest.raises(ValueError):
            PlanRequest(n=n, m=1)

    @pytest.mark.parametrize("m", [0, -1, 1.5, "8", False, None])
    def test_bad_m_rejected(self, m):
        with pytest.raises(ValueError):
            PlanRequest(n=4, m=m)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            PlanRequest(n=4, m=1, params={"t_s": 1.0})

    def test_requests_hash_by_value(self):
        a = PlanRequest(n=16, m=8)
        b = PlanRequest(n=16, m=8)
        assert a == b and hash(a) == hash(b)
        assert a != PlanRequest(n=16, m=8, params=MachineParams(t_sq=2.0))


def survivor_rows(request: PlanRequest, k: int):
    """The rows of ``request``'s plan built straight over its surviving
    positions: the Fig. 11 tree over the survivors' chain and its
    one-port first/last receive steps, with no relabelling."""
    survivors = [p for p in range(request.n) if p not in request.exclude]
    tree = build_kbinomial_tree(survivors, k)
    ends = fpfs_first_last(tree, request.m)
    return tuple(
        NodePlan(
            node,
            None if node == tree.root else tree.parent(node),
            tree.children(node),
            tuple(ends[child][0] for child in tree.children(node)),
            *ends[node],
        )
        for node in survivors
    )


@st.composite
def excluding_requests(draw):
    """One-port requests, n in [3, 1500], with 1-8 excluded positions."""
    n = draw(st.integers(3, 1500))
    m = draw(st.integers(1, 40))
    exclude = draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=min(n - 2, 8)))
    return PlanRequest(n=n, m=m, exclude=tuple(exclude))


class TestExclude:
    @settings(max_examples=60, deadline=None)
    @given(request=excluding_requests())
    def test_rows_are_the_tree_over_the_survivors(self, request):
        """A plan with exclusions has exactly the rows of the tree built
        over its survivors, whether computed or expanded from the
        compact answer."""
        result = plan(request)
        expected = survivor_rows(request, result.k)
        assert result.schedule == expected
        assert hash(result.schedule) == hash(expected)
        assert PlanResult.from_dict(json.loads(plan_compact_json(request))).schedule == expected

    @pytest.mark.slow
    @pytest.mark.parametrize("n, m", [(131072, 1), (65536, 2)])
    def test_rows_at_the_plan_work_bound(self, n, m):
        """The largest plans the service accepts, with positions excluded
        at both ends of the chain and in the middle."""
        request = PlanRequest(n=n + 3, m=m, exclude=(1, n // 2, n + 2))
        result = PlanResult.from_dict(json.loads(plan_compact_json(request)))
        assert result.schedule == survivor_rows(request, result.k)
        assert result == plan(request)

    def test_plan_over_survivors_matches_reduced_n(self):
        full = plan(PlanRequest(n=6, m=2))
        reduced = plan(PlanRequest(n=8, m=2, exclude=(3, 5)))
        assert reduced.excluded == (3, 5)
        assert reduced.k == full.k
        assert reduced.t1 == full.t1
        assert reduced.total_steps == full.total_steps

    def test_rows_remap_onto_surviving_positions(self):
        result = plan(PlanRequest(n=8, m=2, exclude=(3, 5)))
        survivors = [0, 1, 2, 4, 6, 7]
        assert [row.node for row in result.schedule] == survivors
        for row in result.schedule:
            assert row.parent is None or row.parent in survivors
            assert all(child in survivors for child in row.children)

    def test_exclude_is_sorted_and_deduplicated(self):
        request = PlanRequest(n=8, m=2, exclude=(5, 3, 5))
        assert request.exclude == (3, 5)

    def test_exclude_round_trips_the_wire_format(self):
        result = plan(PlanRequest(n=8, m=2, exclude=(3, 5)))
        assert PlanResult.from_dict(json.loads(json.dumps(result.to_dict()))) == result

    @pytest.mark.parametrize(
        "exclude,fragment",
        [
            ((0,), "source"),
            ((8,), "outside"),
            ((-1,), "outside"),
            (("x",), "integers"),
            ((1, 2, 3, 4, 5, 6, 7), "leaves no destinations"),
        ],
    )
    def test_invalid_exclusions_rejected(self, exclude, fragment):
        with pytest.raises(ValueError, match=fragment):
            PlanRequest(n=8, m=2, exclude=exclude)
