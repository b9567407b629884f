"""Command-line interface: regenerate figures and run one-off simulations.

Installed as ``repro-mcast`` (see ``pyproject.toml``), or run as
``python -m repro.cli``.  Subcommands::

    repro-mcast fig12a              # optimal k vs m (analytic)
    repro-mcast fig12b              # optimal k vs n (analytic)
    repro-mcast surface --n-max 512 --m-max 64 --out surface.json
    repro-mcast fig13a [--full] [--workers 4]   # simulated latency vs m
    repro-mcast fig13b [--full]
    repro-mcast fig14a [--full]     # binomial vs k-binomial vs m
    repro-mcast fig14b [--full]
    repro-mcast optimal-k -n 64 -m 8
    repro-mcast tree -n 16 -k 3     # draw the Fig. 11 construction
    repro-mcast simulate --dests 15 --bytes 512 [--tree binomial] [--ni fcfs]
    repro-mcast trace --dests 15 --bytes 512 --out trace.json   # Perfetto trace
    repro-mcast reliable --loss 0.05 --dests 31 --bytes 1024
    repro-mcast chaos --smoke          # CI-sized fault-injection check
    repro-mcast chaos --runs 5 --dests 31 --bytes 512 --out chaos.json
    repro-mcast churn --smoke          # CI-sized dynamic-membership check
    repro-mcast churn --runs 5 --dests 31 --bytes 512 --out churn.json
    repro-mcast sessions --smoke       # CI-sized concurrent-sessions check
    repro-mcast sessions --loads 0.5,1.0,2.0 --out sessions.json
    repro-mcast decoster --bytes 4096
    repro-mcast serve --port 7017 --workers 2       # plan service
    repro-mcast plan -n 64 -m 8 [--connect HOST:PORT] [--schedule]
    repro-mcast metrics [--connect HOST:PORT] [--check]  # Prometheus text

Observability flags (see docs/ARCHITECTURE.md "Observability"):
``--trace-out PATH`` on ``simulate``/``fig13*``/``fig14*``/``serve``
writes a Chrome trace-event JSON (open in https://ui.perfetto.dev);
``--stats`` prints the unified metrics snapshot (service counters,
cache hit rates, sim buffer gauges) after the command runs;
``--profile-out PATH [--profile-hz N]`` on the sweep/serve/sessions
commands samples the command's wall-clock stacks (``.json`` writes a
speedscope profile, any other suffix collapsed flamegraph stacks).
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Optional, Sequence

from .analysis import (
    ExperimentConfig,
    fig12a_optimal_k,
    fig12b_optimal_k,
    fig13a_latency_vs_m,
    fig13b_latency_vs_n,
    fig14a_comparison_vs_m,
    fig14b_comparison_vs_n,
    render_comparison,
    render_series,
    render_table,
)
from .core import (
    AnalyticSurface,
    build_kbinomial_tree,
    min_k_binomial,
    optimal_k,
    predicted_steps,
    render_tree,
)
from .durable.errors import ValidationError, check_positive_int, check_positive_number
from .machine import Machine

__all__ = ["main"]

#: (attribute, validator) for every numeric option that must be a
#: positive integer / number; checked before any work is scheduled so a
#: typo'd ``--workers 0`` or NaN timeout fails in milliseconds, not
#: after a sweep has forked processes.
_POSITIVE_INT_ARGS = (
    "workers", "topologies", "dest_sets", "runs", "dests", "bytes",
    "max_m", "max_inflight", "max_batch", "max_n", "ports",
    "n_max", "m_max", "count", "max_active",
    "shards", "vnodes", "replication", "fail_after",
)
_POSITIVE_NUMBER_ARGS = (
    "timeout", "max_delay", "t_s", "t_r", "t_step", "t_sq",
    "profile_hz", "probe_interval", "probe_timeout",
)
#: Integer options where zero is meaningful (ids, epochs, seeds).
_NONNEGATIVE_INT_ARGS = ("shard_id", "ring_epoch", "hot_threshold")
#: (attribute, minimum) of the short multicast-size options: a set of
#: ``-n`` nodes needs a destination, ``-m`` and ``-k`` at least one.
_SIZE_ARGS = (("n", 2), ("m", 1), ("k", 1))
#: Hosts on the irregular testbed every ``--dests`` command draws its
#: source and destinations from (§5.2: 16 switches × 4 hosts).
_TESTBED_HOSTS = 64


def _validate_args(args) -> None:
    """Reject non-positive/NaN numeric options with a typed error."""
    for name in _POSITIVE_INT_ARGS:
        value = getattr(args, name, None)
        if value is not None:
            check_positive_int(f"--{name.replace('_', '-')}", value)
    for name in _POSITIVE_NUMBER_ARGS:
        value = getattr(args, name, None)
        if value is not None:
            check_positive_number(f"--{name.replace('_', '-')}", value)
    for name in _NONNEGATIVE_INT_ARGS:
        value = getattr(args, name, None)
        if value is not None:
            check_positive_int(f"--{name.replace('_', '-')}", value, minimum=0)
    for name, minimum in _SIZE_ARGS:
        value = getattr(args, name, None)
        if value is not None:
            check_positive_int(f"-{name}", value, minimum=minimum)
    dests = getattr(args, "dests", None)
    if dests is not None and dests >= _TESTBED_HOSTS:
        raise ValidationError(
            f"--dests must be <= {_TESTBED_HOSTS - 1} (the testbed has "
            f"{_TESTBED_HOSTS} hosts, one of them the source), got {dests}"
        )
    if getattr(args, "resume", False) and not getattr(args, "checkpoint", None):
        raise ValidationError("--resume requires --checkpoint PATH")


def _config(args) -> ExperimentConfig:
    if args.full:
        return ExperimentConfig.paper()
    return ExperimentConfig(
        n_topologies=args.topologies, n_dest_sets=args.dest_sets, seed=args.seed
    )


def _maybe_csv(args, x_label, x_values, series) -> None:
    csv_path = getattr(args, "csv", None)
    if csv_path:
        from .analysis import series_to_csv

        written = series_to_csv(csv_path, x_label, x_values, series)
        print(f"wrote {written}")


def _maybe_tracer(args):
    """A wall-clock tracer when ``--trace-out`` was given, else None."""
    if getattr(args, "trace_out", None):
        from .obs import Tracer

        return Tracer()
    return None


def _finish_trace(args, tracer, seed=None, params=None) -> None:
    """Write the recorded trace (with its manifest) and say where."""
    if tracer is None:
        return
    from .obs import run_manifest, write_chrome_trace

    manifest = run_manifest(params=params, seed=seed, extra={"command": args.command})
    print(f"wrote {write_chrome_trace(args.trace_out, tracer, manifest)}")


def _checkpoint_of(args):
    """The checkpoint path for a sweep command, validated for --resume."""
    import os as _os

    path = getattr(args, "checkpoint", None)
    if path and getattr(args, "resume", False) and not _os.path.exists(path):
        raise ValidationError(
            f"--resume given but checkpoint {path!r} does not exist; "
            "drop --resume for a fresh run"
        )
    return path


def _report_checkpoint(args) -> None:
    """Say what the checkpoint did (the CI smoke greps for 'resumed')."""
    if not getattr(args, "checkpoint", None):
        return
    from .durable import DURABLE_METRICS

    snap = DURABLE_METRICS.snapshot()
    print(
        f"checkpoint {args.checkpoint}: resumed {snap['chunks_resumed']} "
        f"chunk(s) ({snap['points_resumed']} points), journaled "
        f"{snap['chunks_journaled']} new"
    )


def _maybe_profiler(args):
    """A sampling profiler when ``--profile-out`` was given, else None."""
    if not getattr(args, "profile_out", None):
        return None
    from .obs import SamplingProfiler

    return SamplingProfiler(hz=getattr(args, "profile_hz", None) or 100.0)


def _finish_profile(args, profiler) -> None:
    """Write the captured profile (format keyed off the suffix)."""
    if profiler is None:
        return
    snap = profiler.snapshot()
    if args.profile_out.endswith(".json"):
        written = profiler.write_speedscope(
            args.profile_out, name=f"repro-mcast {args.command}"
        )
    else:
        written = profiler.write_collapsed(args.profile_out)
    print(f"wrote {written} ({snap['samples']} samples @ {snap['hz']:.0f} Hz)")


def _maybe_stats(args) -> None:
    """Print the unified metrics snapshot when ``--stats`` was given."""
    if getattr(args, "stats", False):
        import json as _json

        from .obs import GLOBAL_METRICS

        print(_json.dumps(GLOBAL_METRICS.snapshot(), indent=2, sort_keys=True))


def _cmd_fig12a(args) -> None:
    m_values = tuple(range(1, args.max_m + 1))
    data = fig12a_optimal_k(m_values=m_values)
    series = {f"{d} dest": data[d] for d in sorted(data, reverse=True)}
    print(
        render_series(
            "m",
            list(m_values),
            series,
            title="Fig. 12(a): optimal k vs number of packets",
        )
    )
    _maybe_csv(args, "m", list(m_values), series)


def _cmd_fig12b(args) -> None:
    n_values = tuple(range(2, 65))
    data = fig12b_optimal_k(n_values=n_values)
    print(
        render_series(
            "n",
            list(n_values),
            {f"{m} pkt": data[m] for m in sorted(data)},
            title="Fig. 12(b): optimal k vs multicast set size",
        )
    )


def _cmd_fig13a(args) -> None:
    config = _config(args)
    tracer = _maybe_tracer(args)
    data = fig13a_latency_vs_m(config, workers=args.workers, tracer=tracer, checkpoint=_checkpoint_of(args))
    m_values = (1, 2, 4, 8, 16, 24, 32)
    series = {f"{d} dest": data[d] for d in sorted(data, reverse=True)}
    print(
        render_series(
            "m",
            list(m_values),
            series,
            title="Fig. 13(a): k-binomial latency (us) vs packets",
        )
    )
    _maybe_csv(args, "m", list(m_values), series)
    _report_checkpoint(args)
    _finish_trace(args, tracer, seed=config.seed)


def _cmd_fig13b(args) -> None:
    config = _config(args)
    tracer = _maybe_tracer(args)
    data = fig13b_latency_vs_n(config, workers=args.workers, tracer=tracer, checkpoint=_checkpoint_of(args))
    dests = (7, 15, 23, 31, 39, 47, 55, 63)
    print(
        render_series(
            "dests",
            list(dests),
            {f"{m} pkt": data[m] for m in sorted(data, reverse=True)},
            title="Fig. 13(b): k-binomial latency (us) vs set size",
        )
    )
    _report_checkpoint(args)
    _finish_trace(args, tracer, seed=config.seed)


def _cmd_fig14a(args) -> None:
    config = _config(args)
    tracer = _maybe_tracer(args)
    data = fig14a_comparison_vs_m(config, workers=args.workers, tracer=tracer, checkpoint=_checkpoint_of(args))
    m_values = (1, 2, 4, 8, 16, 24, 32)
    for d, curves in data.items():
        print(
            render_comparison(
                "m",
                list(m_values),
                curves["binomial"],
                curves["kbinomial"],
                title=f"Fig. 14(a): {d} destinations",
            )
        )
        print()
    _report_checkpoint(args)
    _finish_trace(args, tracer, seed=config.seed)


def _cmd_fig14b(args) -> None:
    config = _config(args)
    tracer = _maybe_tracer(args)
    data = fig14b_comparison_vs_n(config, workers=args.workers, tracer=tracer, checkpoint=_checkpoint_of(args))
    dests = (7, 15, 23, 31, 39, 47, 55, 63)
    for m, curves in data.items():
        print(
            render_comparison(
                "dests",
                list(dests),
                curves["binomial"],
                curves["kbinomial"],
                title=f"Fig. 14(b): {m}-packet messages",
            )
        )
        print()
    _report_checkpoint(args)
    _finish_trace(args, tracer, seed=config.seed)


def _cmd_optimal_k(args) -> None:
    k = optimal_k(args.n, args.m)
    print(f"optimal k for n={args.n}, m={args.m}: {k}")
    rows = [
        [kk, predicted_steps(args.n, kk, args.m)]
        for kk in range(1, min_k_binomial(args.n) + 1)
    ]
    print(render_table(["k", f"steps (m={args.m})"], rows))


def _cmd_surface(args) -> None:
    if args.load:
        surface = AnalyticSurface.load(args.load)
        action = f"loaded from {args.load} (CRC verified)"
    else:
        surface = AnalyticSurface.build(
            args.n_max, args.m_max, exact=args.exact, ports=args.ports
        )
        action = f"built in {surface.build_seconds * 1e3:.1f} ms"
    if args.out:
        surface.save(args.out)
        action += f", saved to {args.out}"
    print(f"analytic surface {action}")
    rows = [[name, value] for name, value in surface.stats().items()]
    print(render_table(["field", "value"], rows, title="Analytic surface"))
    _maybe_stats(args)


def _cmd_tree(args) -> None:
    chain = list(range(args.n))
    k = args.k if args.k is not None else optimal_k(args.n, args.m)
    tree = build_kbinomial_tree(chain, k)
    print(f"{k}-binomial tree over {args.n} nodes (m={args.m}):")
    print(render_tree(tree))


def _cmd_simulate(args) -> None:
    tracer = _maybe_tracer(args)
    machine = Machine.irregular(
        seed=args.seed,
        ni=args.ni,
        ordering=args.ordering,
        ni_ports=args.ports,
        channel_model=args.channel_model,
        tracer=tracer,
    )
    rng = random.Random(args.seed + 1)
    picked = rng.sample(list(machine.hosts), args.dests + 1)
    result = machine.multicast(picked[0], picked[1:], args.bytes, tree=args.tree)
    m = machine.packets_for(args.bytes)
    print(
        render_table(
            ["dests", "bytes", "packets", "tree", "NI", "latency us", "peak buf"],
            [
                [
                    args.dests,
                    args.bytes,
                    m,
                    str(args.tree),
                    args.ni,
                    round(result.latency, 1),
                    result.max_intermediate_buffer,
                ]
            ],
            title="multicast on a 64-host irregular network",
        )
    )
    _finish_trace(
        args,
        tracer,
        seed=args.seed,
        params={"dests": args.dests, "bytes": args.bytes, "tree": str(args.tree), "ni": args.ni},
    )
    _maybe_stats(args)


def _cmd_trace(args) -> None:
    """Run one multicast with tracing on and dump a Perfetto-loadable file."""
    from .obs import Tracer, run_manifest, trace_summary, write_chrome_trace, write_jsonl

    tracer = Tracer()
    machine = Machine.irregular(
        seed=args.seed,
        ni=args.ni,
        ordering=args.ordering,
        tracer=tracer,
    )
    rng = random.Random(args.seed + 1)
    picked = rng.sample(list(machine.hosts), args.dests + 1)
    result = machine.multicast(picked[0], picked[1:], args.bytes, tree=args.tree)
    m = machine.packets_for(args.bytes)
    print(
        render_table(
            ["dests", "bytes", "packets", "NI", "latency us", "peak buf"],
            [
                [
                    args.dests,
                    args.bytes,
                    m,
                    args.ni,
                    round(result.latency, 1),
                    result.max_intermediate_buffer,
                ]
            ],
            title="traced multicast on a 64-host irregular network",
        )
    )
    print(trace_summary(tracer))
    manifest = run_manifest(
        params={"dests": args.dests, "bytes": args.bytes, "tree": str(args.tree), "ni": args.ni},
        seed=args.seed,
        extra={"command": "trace"},
    )
    if args.format == "jsonl":
        print(f"wrote {write_jsonl(args.out, tracer)}")
    else:
        print(f"wrote {write_chrome_trace(args.out, tracer, manifest)}")
    _maybe_stats(args)


def _cmd_reliable(args) -> None:
    from .core import build_kbinomial_tree
    from .mcast import ReliableMulticastSimulator, cco_ordering, chain_for
    from .network import UpDownRouter, build_irregular_network
    from .params import PAPER_PARAMS

    topology = build_irregular_network(seed=args.seed)
    router = UpDownRouter(topology)
    ordering = cco_ordering(topology, router)
    rng = random.Random(args.seed + 1)
    picked = rng.sample(list(topology.hosts), args.dests + 1)
    chain = chain_for(picked[0], picked[1:], ordering)
    m = PAPER_PARAMS.packets_for(args.bytes)
    tree = build_kbinomial_tree(chain, optimal_k(len(chain), m))
    sim = ReliableMulticastSimulator(
        topology, router, loss_rate=args.loss, loss_seed=args.seed
    )
    result = sim.run(tree, m)
    print(
        render_table(
            ["dests", "packets", "loss rate", "dropped", "latency us"],
            [[args.dests, m, args.loss, sim.last_dropped, round(result.latency, 1)]],
            title="reliable FPFS multicast (NACK recovery from parent NI buffers)",
        )
    )


def _campaign(command: str):
    """The :class:`~repro.analysis.campaign.Campaign` a subcommand runs."""
    if command == "chaos":
        from .faults import CHAOS as campaign
    elif command == "churn":
        from .membership import CHURN as campaign
    else:
        from .sessions import SESSIONS as campaign
    return campaign


def _cmd_campaign(args, axes=None, point=None) -> None:
    """A campaign subcommand (chaos, churn, sessions): grid, table, records.

    ``--smoke`` runs the campaign's smoke grid at ``--seed`` through the
    same sweep, so ``--checkpoint``, ``--out`` and the manifest mean the
    same thing either way.  ``axes`` and ``point`` add a subcommand's
    own grid axes and point kwargs to a full sweep.
    """
    from .analysis import write_records
    from .obs import run_manifest
    from .params import PAPER_PARAMS

    campaign = _campaign(args.command)
    checkpoint = _checkpoint_of(args)
    if args.smoke:
        grid, point = campaign.smoke_grid(args.seed), dict(campaign.smoke_kwargs)
        records = campaign.smoke(seed=args.seed, workers=args.workers, checkpoint=checkpoint)
    else:
        grid = campaign.grid(seed=range(args.seed, args.seed + args.runs), **(axes or {}))
        point = dict(point or {}, dests=args.dests, m=PAPER_PARAMS.packets_for(args.bytes))
        records = campaign.sweep(grid, workers=args.workers, checkpoint=checkpoint, **point)
    print(campaign.table(records))
    if args.smoke:
        print(campaign.smoke_ok)
    if args.out:
        manifest = run_manifest(
            params={"grid": grid, "point": point},
            seed=args.seed,
            extra={"command": args.command, "smoke": args.smoke},
        )
        print(f"wrote {write_records(args.out, records, manifest)}")
    _report_checkpoint(args)
    _maybe_stats(args)


def _sessions_grid(args):
    """Parse and validate the sessions sweep grid from CLI options."""
    from .sessions import SCHEDULERS

    schedulers = tuple(s for s in args.schedulers.split(",") if s)
    for name in schedulers:
        if name not in SCHEDULERS:
            raise ValidationError(
                f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
            )
    try:
        loads = tuple(float(v) for v in args.loads.split(",") if v)
    except ValueError as exc:
        raise ValidationError(f"--loads must be comma-separated numbers: {exc}")
    for value in loads:
        check_positive_number("--loads", value)
    if not schedulers or not loads:
        raise ValidationError("--schedulers and --loads must be non-empty")
    return schedulers, loads


def _trace_sessions(args, scheduler: str, load: float) -> None:
    """One traced representative run, so --trace-out shows per-session tracks."""
    from .analysis.experiments import _testbed
    from .obs import Tracer
    from .params import PAPER_PARAMS
    from .sessions import SessionSimulator
    from .sessions.sweep import SAFETY_LIMIT, _workload

    m = PAPER_PARAMS.packets_for(args.bytes)
    tracer = Tracer()
    topology, router, ordering = _testbed(1997 + args.seed)
    sessions = _workload(
        args.arrival, ordering, load=load, seed=args.seed,
        count=args.count, dests=args.dests, m=m,
    )
    simulator = SessionSimulator(
        topology, router, ordering,
        scheduler=scheduler, max_active=args.max_active, tracer=tracer,
    )
    simulator.run_sessions(sessions, time_limit=SAFETY_LIMIT)
    _finish_trace(
        args, tracer, seed=args.seed,
        params={
            "scheduler": scheduler, "load": load, "arrival": args.arrival,
            "count": args.count, "dests": args.dests, "bytes": args.bytes,
        },
    )


def _cmd_sessions(args) -> None:
    """The sessions campaign over --schedulers × --loads, plus --trace-out."""
    schedulers, loads = _sessions_grid(args)
    _cmd_campaign(
        args,
        axes={"scheduler": schedulers, "load": loads},
        point={"arrival": args.arrival, "count": args.count, "max_active": args.max_active},
    )
    if getattr(args, "trace_out", None):
        _trace_sessions(args, schedulers[0], loads[-1])


def _cmd_decoster(args) -> None:
    from .core import (
        decoster_latency,
        decoster_optimal_packet_size,
        multicast_latency_model,
        predicted_steps,
    )
    from .params import PAPER_PARAMS

    p = PAPER_PARAMS
    n = args.n
    m = p.packets_for(args.bytes)
    smart = multicast_latency_model(predicted_steps(n, optimal_k(n, m), m), p)
    host_fixed = decoster_latency(n, args.bytes, p.packet_bytes, p)
    size, host_tuned = decoster_optimal_packet_size(n, args.bytes, p)
    print(
        render_table(
            ["scheme", "packet size B", "latency us"],
            [
                ["smart NI (FPFS, k-binomial)", p.packet_bytes, round(smart, 1)],
                ["host packetization [2] @ fixed", p.packet_bytes, round(host_fixed, 1)],
                ["host packetization [2] @ tuned", size, round(host_tuned, 1)],
            ],
            title=f"smart NI vs De Coster [2] host packetization (n={n}, {args.bytes} B)",
        )
    )


def _machine_params(args):
    from .params import MachineParams

    overrides = {}
    for name in ("t_s", "t_r", "t_step", "t_sq"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "ports", None) is not None:
        overrides["ports"] = args.ports
    return MachineParams(**overrides)


def _cmd_serve(args) -> None:
    import asyncio

    from .service import PlanServer, RequestJournal

    tracer = _maybe_tracer(args)
    journal = RequestJournal(args.journal) if args.journal else None
    server = PlanServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        max_batch=args.max_batch,
        max_delay=args.max_delay,
        request_timeout=args.timeout,
        max_n=args.max_n,
        tracer=tracer,
        journal=journal,
        shard_id=args.shard_id,
        ring_epoch=args.ring_epoch,
    )

    async def _run() -> None:
        # Start before serving so the bound (possibly ephemeral) port
        # is printed; run_until_signal() then drains on SIGTERM/SIGINT.
        await server.start()
        if journal is not None:
            print(
                f"request journal {args.journal}: recovered "
                f"{journal.recovered_entries} entries", flush=True,
            )
        print(f"plan service listening on {server.host}:{server.port}", flush=True)
        await server.run_until_signal()

    asyncio.run(_run())
    print("plan service drained and stopped")
    _finish_trace(args, tracer)
    _maybe_stats(args)


def _router_kwargs(args) -> dict:
    return {
        "host": args.host,
        "port": args.port,
        "vnodes": args.vnodes,
        "seed": args.seed,
        "replication": args.replication,
        "probe_interval": args.probe_interval,
        "fail_after": args.fail_after,
    }


async def _run_router(router, shards: int) -> None:
    await router.start()
    print(
        f"cluster router listening on {router.host}:{router.port}"
        f" ({shards} shards)", flush=True,
    )
    await router.run_until_signal()


def _cmd_cluster_serve(args) -> None:
    """Spawn N shard workers plus a router, in the foreground."""
    import asyncio

    from .cluster import ClusterRouter, spawn_shards

    shards = spawn_shards(
        args.shards,
        workers=args.workers,
        max_inflight=args.max_inflight,
        journal_dir=args.journal_dir,
    )
    try:
        for shard in shards:
            print(
                f"shard {shard.shard_id} pid {shard.pid} listening on "
                f"{shard.spec.host}:{shard.spec.port}", flush=True,
            )
        router = ClusterRouter([s.spec for s in shards], **_router_kwargs(args))
        asyncio.run(_run_router(router, len(shards)))
    finally:
        for shard in shards:
            shard.terminate()
        for shard in shards:
            try:
                shard.wait(timeout=10)
            except Exception:  # noqa: BLE001 - escalate a wedged drain
                shard.kill()
    print("cluster drained and stopped")


def _parse_shard_spec(text: str):
    from .cluster import ShardSpec

    sid_part, eq, address = text.partition("=")
    if not eq:
        raise ValidationError(
            f"--shard must look like ID=HOST:PORT, got {text!r}"
        )
    host, _, port = address.rpartition(":")
    try:
        return ShardSpec(
            shard_id=int(sid_part), host=host or "127.0.0.1", port=int(port)
        )
    except ValueError as exc:
        raise ValidationError(f"bad --shard {text!r}: {exc}") from exc


def _cmd_cluster_route(args) -> None:
    """Route over externally managed shards (no spawning)."""
    import asyncio

    from .cluster import ClusterRouter

    specs = [_parse_shard_spec(text) for text in args.shard]
    router = ClusterRouter(specs, **_router_kwargs(args))
    asyncio.run(_run_router(router, len(specs)))
    print("cluster router stopped")


def _cmd_cluster_status(args) -> None:
    """One status snapshot from a live router, rendered as a table."""
    from .cluster import cluster_status_remote

    host, _, port = args.connect.rpartition(":")
    status = cluster_status_remote(host or "127.0.0.1", int(port))
    ring = status["ring"]
    rows = []
    for sid, shard in sorted(status["shards"].items(), key=lambda kv: int(kv[0])):
        rows.append(
            [
                sid,
                f"{shard['host']}:{shard['port']}",
                "up" if shard["up"] else "DOWN",
                shard["status"] or "-",
                "-" if shard["ring_epoch"] is None else shard["ring_epoch"],
                "-" if shard["recovered_entries"] is None else shard["recovered_entries"],
                shard["strikes"],
            ]
        )
    print(
        render_table(
            ["shard", "address", "up", "status", "epoch", "recovered", "strikes"],
            rows,
            title=(
                f"cluster ring epoch {ring['epoch']}: {len(ring['members'])} member(s),"
                f" {len(status['down'])} down, replication {status['replication']}"
            ),
        )
    )
    counters = status["counters"]
    print(
        f"forwarded {counters['forwarded']}, failovers {counters['failovers']},"
        f" failed shards {counters['failed_shards']}, rejoins {counters['rejoins']},"
        f" warmed keys {counters['warmed_keys']}, errors {counters['errors']}"
    )


def _cmd_plan(args) -> None:
    params = _machine_params(args)
    if args.connect:
        from .service import plan_remote

        host, _, port = args.connect.rpartition(":")
        result = plan_remote(host or "127.0.0.1", int(port), args.n, args.m, params)
        source = f"server {args.connect}"
    else:
        from .service import PlanRequest, plan

        result = plan(PlanRequest(n=args.n, m=args.m, params=params))
        source = "local planner"
    print(
        render_table(
            ["n", "m", "k", "k_T", "T1", "pipeline", "steps", "latency us", "buf bound us"],
            [
                [
                    result.n,
                    result.m,
                    result.k,
                    result.root_fanout,
                    result.t1,
                    result.pipeline_steps,
                    result.total_steps,
                    round(result.latency_us, 1),
                    round(result.buffer_bound_us, 2),
                ]
            ],
            title=f"optimal multicast plan ({source})",
        )
    )
    if args.schedule:
        print()
        print("node  parent  first/last recv  children (first-send step)")
        for row in result.schedule:
            sends = ", ".join(
                f"{child}@{step}" for child, step in zip(row.children, row.child_first_send)
            )
            parent = "-" if row.parent is None else row.parent
            print(
                f"{row.node:>4}  {parent:>6}  {row.first_recv:>5}/{row.last_recv:<5}"
                f"     {sends or '-'}"
            )


def _cmd_metrics(args) -> None:
    """Prometheus exposition: render locally or scrape a live server."""
    if args.connect:
        from .service import metrics_remote

        host, _, port = args.connect.rpartition(":")
        text = metrics_remote(host or "127.0.0.1", int(port))
    else:
        from .obs import render_prometheus

        text = render_prometheus()
    if args.check:
        from .obs import parse_prometheus

        families = parse_prometheus(text)
        samples = sum(len(f.samples) for f in families.values())
        print(f"exposition OK: {len(families)} families, {samples} samples")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    elif not args.check:
        print(text, end="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mcast",
        description="Reproduce Kesavan & Panda (ICPP 1997) figures and run multicast sims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_profile_options(p):
        p.add_argument(
            "--profile-out", dest="profile_out", default=None, metavar="PATH",
            help="sample this command's wall-clock stacks; .json writes a "
                 "speedscope profile, any other suffix collapsed stacks",
        )
        p.add_argument(
            "--profile-hz", dest="profile_hz", type=float, default=100.0,
            help="sampling rate for --profile-out (default 100)",
        )

    def add_sim_options(p):
        p.add_argument("--full", action="store_true", help="paper's 30x10 protocol")
        p.add_argument("--topologies", type=int, default=3)
        p.add_argument("--dest-sets", type=int, default=6)
        p.add_argument("--seed", type=int, default=1997)
        p.add_argument("--csv", default=None, help="also write the series as CSV")
        p.add_argument(
            "--workers", type=int, default=1,
            help="processes for the sweep grid (1 = serial)",
        )
        p.add_argument(
            "--trace-out", dest="trace_out", default=None, metavar="PATH",
            help="write a Chrome trace of the sweep (open in Perfetto)",
        )
        p.add_argument(
            "--checkpoint", default=None, metavar="PATH",
            help="journal completed chunks here; rerun with the same path "
                 "to resume a killed sweep (byte-identical results)",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="require the --checkpoint file to already exist",
        )
        add_profile_options(p)

    p = sub.add_parser("fig12a", help="optimal k vs packets (analytic)")
    p.add_argument("--max-m", type=int, default=35)
    p.add_argument("--csv", default=None, help="also write the series as CSV")
    p.set_defaults(func=_cmd_fig12a)

    p = sub.add_parser("fig12b", help="optimal k vs set size (analytic)")
    p.set_defaults(func=_cmd_fig12b)

    for name, func, help_text in (
        ("fig13a", _cmd_fig13a, "k-binomial latency vs packets (simulated)"),
        ("fig13b", _cmd_fig13b, "k-binomial latency vs set size (simulated)"),
        ("fig14a", _cmd_fig14a, "binomial vs k-binomial vs packets (simulated)"),
        ("fig14b", _cmd_fig14b, "binomial vs k-binomial vs set size (simulated)"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_sim_options(p)
        p.set_defaults(func=func)

    p = sub.add_parser("optimal-k", help="Theorem 3 fan-out for (n, m)")
    p.add_argument("-n", type=int, required=True, help="multicast set size")
    p.add_argument("-m", type=int, required=True, help="number of packets")
    p.set_defaults(func=_cmd_optimal_k)

    p = sub.add_parser(
        "surface", help="build/save/load the vectorized analytic surface"
    )
    p.add_argument("--n-max", dest="n_max", type=int, default=512)
    p.add_argument("--m-max", dest="m_max", type=int, default=64)
    p.add_argument(
        "--exact", action="store_true",
        help="also build the exact-variant tables (one FPFS schedule per (n, k))",
    )
    p.add_argument("--ports", type=int, default=1, help="NI ports for the exact tables")
    p.add_argument("--out", default=None, metavar="PATH", help="save (atomic, CRC-stamped)")
    p.add_argument("--load", default=None, metavar="PATH", help="load instead of building")
    p.add_argument("--stats", action="store_true", help="print the unified metrics snapshot")
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("tree", help="draw a k-binomial tree")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, default=None, help="fan-out cap (default: optimal)")
    p.add_argument("-m", type=int, default=1, help="packets (for the optimal-k default)")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("simulate", help="one multicast on the 64-host testbed")
    p.add_argument("--dests", type=int, default=15)
    p.add_argument("--bytes", type=int, default=512)
    p.add_argument("--tree", default="optimal", help="optimal|binomial|linear|flat|<k>")
    p.add_argument("--ni", default="fpfs", choices=["fpfs", "fcfs", "conventional"])
    p.add_argument("--ordering", default="cco", choices=["cco", "poc", "random"])
    p.add_argument("--ports", type=int, default=1, help="NI injection ports")
    p.add_argument(
        "--channel-model", default="path", choices=["path", "worm"],
        help="wormhole occupancy model",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--trace-out", dest="trace_out", default=None, metavar="PATH",
        help="write a Chrome trace of the run (open in Perfetto)",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="print the unified metrics snapshot after the run",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("trace", help="traced multicast -> Perfetto-loadable JSON")
    p.add_argument("--dests", type=int, default=15)
    p.add_argument("--bytes", type=int, default=512)
    p.add_argument("--tree", default="optimal", help="optimal|binomial|linear|flat|<k>")
    p.add_argument("--ni", default="fpfs", choices=["fpfs", "fcfs", "conventional"])
    p.add_argument("--ordering", default="cco", choices=["cco", "poc", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="trace.json", help="output path (default trace.json)")
    p.add_argument(
        "--format", default="chrome", choices=["chrome", "jsonl"],
        help="chrome = Perfetto-loadable JSON object; jsonl = one event per line",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="print the unified metrics snapshot after the run",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("reliable", help="reliable multicast over lossy links")
    p.add_argument("--loss", type=float, default=0.05, help="packet loss probability")
    p.add_argument("--dests", type=int, default=31)
    p.add_argument("--bytes", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_reliable)

    def add_campaign_options(p, *, smoke_help, dests):
        p.add_argument("--smoke", action="store_true", help=smoke_help)
        p.add_argument("--seed", type=int, default=0, help="first sweep seed")
        p.add_argument("--runs", type=int, default=3, help="seeds per grid cell")
        p.add_argument(
            "--dests", type=int, default=dests,
            help="destinations per multicast",
        )
        p.add_argument("--bytes", type=int, default=512, help="message size")
        p.add_argument(
            "--workers", type=int, default=1,
            help="processes for the sweep grid (results identical for any count)",
        )
        p.add_argument("--out", default=None, metavar="PATH", help="write records + manifest JSON")
        p.add_argument(
            "--checkpoint", default=None, metavar="PATH",
            help="journal completed chunks here; rerun with the same path to "
                 "resume a killed sweep",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="require the --checkpoint file to already exist",
        )
        p.add_argument(
            "--stats", action="store_true",
            help="print the unified metrics snapshot after the sweep",
        )
        add_profile_options(p)
        p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("chaos", help="fault-injection sweep (survival curves)")
    add_campaign_options(p, smoke_help="CI-sized check: every scenario once", dests=31)

    p = sub.add_parser(
        "churn", help="dynamic-membership sweep (joins/leaves mid-multicast)"
    )
    add_campaign_options(p, smoke_help="CI-sized check: every scenario once", dests=31)

    p = sub.add_parser(
        "sessions", help="concurrent multicast sessions under contention-aware scheduling"
    )
    add_campaign_options(
        p, smoke_help="CI-sized check: FIFO vs CDA at high offered load", dests=15
    )
    p.add_argument(
        "--schedulers", default="fifo,rr,sjf,cda",
        help="comma list of admission schedulers (fifo|rr|sjf|cda)",
    )
    p.add_argument(
        "--loads", default="0.5,1.0,2.0",
        help="comma list of offered-load multipliers",
    )
    p.add_argument(
        "--arrival", default="flash_crowd",
        choices=["flash_crowd", "poisson", "batch"],
        help="arrival process shaping the workload",
    )
    p.add_argument("--count", type=int, default=10, help="sessions per run")
    p.add_argument(
        "--max-active", dest="max_active", type=int, default=2,
        help="concurrent-session admission slots",
    )
    p.add_argument(
        "--trace-out", dest="trace_out", default=None, metavar="PATH",
        help="write a Chrome trace of one representative run — each session "
             "gets its own named track (open in Perfetto)",
    )
    p.set_defaults(func=_cmd_sessions)

    p = sub.add_parser("decoster", help="compare with De Coster [2] host packetization")
    p.add_argument("-n", type=int, default=64, help="multicast set size")
    p.add_argument("--bytes", type=int, default=4096)
    p.set_defaults(func=_cmd_decoster)

    def add_machine_params(p):
        p.add_argument("--t-s", dest="t_s", type=float, default=None, help="host send overhead us")
        p.add_argument("--t-r", dest="t_r", type=float, default=None, help="host recv overhead us")
        p.add_argument("--t-step", dest="t_step", type=float, default=None, help="per-step cost us")
        p.add_argument("--t-sq", dest="t_sq", type=float, default=None, help="send-queue push us")
        p.add_argument("--ports", type=int, default=None, help="NI injection ports")

    p = sub.add_parser("serve", help="run the multicast plan service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7017, help="0 picks an ephemeral port")
    p.add_argument("--workers", type=int, default=1, help="planner executor threads")
    p.add_argument("--max-inflight", type=int, default=256, help="admission bound")
    p.add_argument("--max-batch", type=int, default=64, help="micro-batch flush size")
    p.add_argument("--max-delay", type=float, default=0.001, help="micro-batch window s")
    p.add_argument("--timeout", type=float, default=5.0, help="per-request deadline s")
    p.add_argument("--max-n", type=int, default=65536, help="largest accepted n")
    p.add_argument(
        "--journal", default=None, metavar="PATH",
        help="journal accepted plan requests; on restart they are replayed "
             "to pre-warm the plan caches (warm restart)",
    )
    p.add_argument(
        "--shard-id", dest="shard_id", type=int, default=None,
        help="cluster identity: which shard this server is (labels its "
             "health report and Prometheus exposition)",
    )
    p.add_argument(
        "--ring-epoch", dest="ring_epoch", type=int, default=0,
        help="cluster identity: the ring epoch this shard starts at "
             "(requests stamped with an older epoch get stale_map)",
    )
    p.add_argument(
        "--trace-out", dest="trace_out", default=None, metavar="PATH",
        help="write a Chrome trace of handled requests on shutdown",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="print the unified metrics snapshot after shutdown",
    )
    add_profile_options(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "cluster", help="sharded plan service: spawn, route, inspect"
    )
    cluster_sub = p.add_subparsers(dest="cluster_command", required=True)

    def add_router_options(cp):
        cp.add_argument("--host", default="127.0.0.1")
        cp.add_argument(
            "--port", type=int, default=7117, help="router port (0 = ephemeral)"
        )
        cp.add_argument("--vnodes", type=int, default=64, help="ring points per shard")
        cp.add_argument("--seed", type=int, default=0, help="ring placement seed")
        cp.add_argument(
            "--replication", type=int, default=2,
            help="replica-chain length per key (2 = primary + one replica)",
        )
        cp.add_argument(
            "--probe-interval", dest="probe_interval", type=float, default=0.5,
            help="seconds between health probes",
        )
        cp.add_argument(
            "--fail-after", dest="fail_after", type=int, default=2,
            help="consecutive probe misses that evict a shard",
        )

    cp = cluster_sub.add_parser(
        "serve", help="spawn N shard workers and route in the foreground"
    )
    add_router_options(cp)
    cp.add_argument("--shards", type=int, default=4, help="shard worker processes")
    cp.add_argument("--workers", type=int, default=1, help="planner threads per shard")
    cp.add_argument("--max-inflight", type=int, default=256, help="per-shard admission bound")
    cp.add_argument(
        "--journal-dir", dest="journal_dir", default=None, metavar="DIR",
        help="per-shard request journals here (warm handoff on respawn)",
    )
    cp.set_defaults(func=_cmd_cluster_serve)

    cp = cluster_sub.add_parser(
        "route", help="route over externally started shards"
    )
    add_router_options(cp)
    cp.add_argument(
        "--shard", action="append", required=True, metavar="ID=HOST:PORT",
        help="one shard address (repeatable), e.g. --shard 0=127.0.0.1:7017",
    )
    cp.set_defaults(func=_cmd_cluster_route)

    cp = cluster_sub.add_parser("status", help="one status snapshot from a router")
    cp.add_argument(
        "--connect", required=True, metavar="HOST:PORT", help="router address"
    )
    cp.set_defaults(func=_cmd_cluster_status)

    p = sub.add_parser(
        "metrics", help="Prometheus text exposition of the unified metrics"
    )
    p.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="scrape a live plan server instead of rendering locally",
    )
    p.add_argument("--out", default=None, metavar="PATH", help="write instead of printing")
    p.add_argument(
        "--check", action="store_true",
        help="strict-parse the exposition and print a summary instead of the text",
    )
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("plan", help="one plan query (local, or --connect to a server)")
    p.add_argument("-n", type=int, required=True, help="multicast set size")
    p.add_argument("-m", type=int, required=True, help="number of packets")
    p.add_argument("--connect", default=None, metavar="HOST:PORT")
    p.add_argument("--schedule", action="store_true", help="print the per-node schedule")
    add_machine_params(p)
    p.set_defaults(func=_cmd_plan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "tree", None) is not None and str(args.tree).isdigit():
        args.tree = int(args.tree)
    try:
        _validate_args(args)
        profiler = _maybe_profiler(args)
        if profiler is not None:
            with profiler:
                rc = args.func(args)
            _finish_profile(args, profiler)
        else:
            rc = args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return int(rc) if rc else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
