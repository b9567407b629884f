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
    repro-mcast simulate --dests 15 --bytes 512 --trace-out trace.json  # Perfetto
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

Each flag two or more subcommands take is defined once
(``_SHARED_FLAGS``); ``main`` owns the one command lifecycle (see its
docstring); one body runs Figs. 13–14 off ``_SIM_FIGURES``.

Observability flags (see docs/ARCHITECTURE.md "Observability"):
``--trace-out PATH`` on ``simulate``/``fig13*``/``fig14*``/``sessions``/
``serve`` writes a Chrome trace-event JSON (open in
https://ui.perfetto.dev; a ``.jsonl`` suffix writes JSON lines);
``--stats`` prints the unified metrics snapshot (service counters,
cache hit rates, sim buffer gauges) after the command runs;
``--profile-out PATH [--profile-hz N]`` on the sweep/serve/sessions
commands samples the command's wall-clock stacks (``.json`` writes a
speedscope profile, any other suffix collapsed flamegraph stacks).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import replace
from typing import Optional, Sequence, Tuple

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
    series_to_csv,
)
from .analysis.experiments import DEST_AXIS, PACKET_AXIS, _testbed
from .core import (
    build_kbinomial_tree,
    decoster_latency,
    decoster_optimal_packet_size,
    min_k_binomial,
    multicast_latency_model,
    optimal_k,
    predicted_steps,
    render_tree,
)
from .durable import DURABLE_METRICS
from .durable.errors import ValidationError, check_positive_int, check_positive_number
from .machine import Machine
from .obs import (
    GLOBAL_METRICS,
    NULL_PROFILER,
    SamplingProfiler,
    Tracer,
    run_manifest,
    trace_summary,
    write_chrome_trace,
    write_jsonl,
)
from .params import PAPER_PARAMS

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
    "profile_hz", "probe_interval",
)
#: Integer options where zero is meaningful (ids, epochs).
_NONNEGATIVE_INT_ARGS = ("shard_id", "ring_epoch")
#: (attribute, minimum) of the short multicast-size options: a set of
#: ``-n`` nodes needs a destination, ``-m`` and ``-k`` at least one.
_SIZE_ARGS = (("n", 2), ("m", 1), ("k", 1))
#: Hosts on the irregular testbed every ``--dests`` command draws its
#: source and destinations from (§5.2: 16 switches × 4 hosts).
_TESTBED_HOSTS = 64
#: The named ``--tree`` specs of :meth:`repro.machine.Machine.tree_for`;
#: any other spec is an integer fan-out cap k >= 1.
_TREE_NAMES = ("optimal", "binomial", "linear", "flat")


def _address(flag: str, text: str) -> Tuple[str, int]:
    """``HOST:PORT`` as ``(host, port)``; an empty host is 127.0.0.1."""
    host, _, port = text.rpartition(":")
    if not port.isdigit() or not 1 <= int(port) <= 65535:
        raise ValidationError(
            f"{flag} must look like HOST:PORT with a port in 1..65535, got {text!r}"
        )
    return host or "127.0.0.1", int(port)


def _validate_args(args) -> None:
    """Reject malformed options with a typed error; parse ``--tree``."""
    for names, check, minimum in (
        (_POSITIVE_INT_ARGS, check_positive_int, {}),
        (_POSITIVE_NUMBER_ARGS, check_positive_number, {}),
        (_NONNEGATIVE_INT_ARGS, check_positive_int, {"minimum": 0}),
    ):
        for name in names:
            value = getattr(args, name, None)
            if value is not None:
                check(f"--{name.replace('_', '-')}", value, **minimum)
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
    tree = getattr(args, "tree", None)
    if tree is not None and tree not in _TREE_NAMES:
        if not tree.isdigit():
            raise ValidationError(
                f"--tree must be {'|'.join(_TREE_NAMES)} or an integer k >= 1, got {tree!r}"
            )
        args.tree = check_positive_int("--tree", int(tree))
    port = getattr(args, "port", None)
    if port is not None and not 0 <= port <= 65535:
        raise ValidationError(f"--port must be in 0..65535, got {port}")
    if getattr(args, "connect", None):
        _address("--connect", args.connect)
    checkpoint = getattr(args, "checkpoint", None)
    if getattr(args, "resume", False):
        if not checkpoint:
            raise ValidationError("--resume requires --checkpoint PATH")
        if not os.path.exists(checkpoint):
            raise ValidationError(
                f"--resume given but checkpoint {checkpoint!r} does not exist; "
                "drop --resume for a fresh run"
            )


def _maybe_csv(args, x_label, x_values, series) -> None:
    if args.csv:
        print(f"wrote {series_to_csv(args.csv, x_label, x_values, series)}")


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


#: The four simulated figures, one §5.2 protocol read along two axes:
#: name -> (driver, x label, x values, curve label, title).  A Fig. 13
#: driver returns one latency curve per key, a Fig. 14 driver a binomial
#: and a k-binomial curve per key, rendered one table per key.
_SIM_FIGURES = {
    "fig13a": (fig13a_latency_vs_m, "m", PACKET_AXIS, "{} dest", "Fig. 13(a): k-binomial latency (us) vs packets"),
    "fig13b": (fig13b_latency_vs_n, "dests", DEST_AXIS, "{} pkt", "Fig. 13(b): k-binomial latency (us) vs set size"),
    "fig14a": (fig14a_comparison_vs_m, "m", PACKET_AXIS, "{} dest", "Fig. 14(a): {} destinations"),
    "fig14b": (fig14b_comparison_vs_n, "dests", DEST_AXIS, "{} pkt", "Fig. 14(b): {}-packet messages"),
}


def _cmd_sim_figure(args) -> None:
    """Figs. 13–14: one §5.2 sweep, rendered and written as CSV."""
    driver, x_label, x_values, curve, title = _SIM_FIGURES[args.command]
    sizes = (
        ExperimentConfig.paper()
        if args.full
        else ExperimentConfig(n_topologies=args.topologies, n_dest_sets=args.dest_sets)
    )
    config = replace(sizes, seed=args.seed)
    data = driver(config, workers=args.workers, tracer=args.tracer, checkpoint=args.checkpoint)
    keys = sorted(data, reverse=True)
    if isinstance(data[keys[0]], dict):
        series = {}
        for key in keys:
            curves = data[key]
            print(
                render_comparison(
                    x_label,
                    x_values,
                    curves["binomial"],
                    curves["kbinomial"],
                    title=title.format(key),
                )
            )
            print()
            series.update({f"{curve.format(key)} {tree}": ys for tree, ys in curves.items()})
    else:
        series = {curve.format(key): data[key] for key in keys}
        print(render_series(x_label, x_values, series, title=title))
    _maybe_csv(args, x_label, x_values, series)


def _cmd_optimal_k(args) -> None:
    k = optimal_k(args.n, args.m)
    print(f"optimal k for n={args.n}, m={args.m}: {k}")
    rows = [
        [kk, predicted_steps(args.n, kk, args.m)]
        for kk in range(1, min_k_binomial(args.n) + 1)
    ]
    print(render_table(["k", f"steps (m={args.m})"], rows))


def _cmd_surface(args) -> None:
    from .core.surface import AnalyticSurface  # numpy, loaded for this command only

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


def _cmd_tree(args) -> None:
    chain = list(range(args.n))
    k = args.k if args.k is not None else optimal_k(args.n, args.m)
    tree = build_kbinomial_tree(chain, k)
    print(f"{k}-binomial tree over {args.n} nodes (m={args.m}):")
    print(render_tree(tree))


def _draw(hosts, args):
    """The seeded (source, destinations) draw of ``simulate`` and ``reliable``."""
    picked = random.Random(args.seed + 1).sample(list(hosts), args.dests + 1)
    return picked[0], picked[1:]


def _cmd_simulate(args) -> dict:
    machine = Machine.irregular(
        seed=args.seed,
        ni=args.ni,
        ordering=args.ordering,
        ni_ports=args.ports,
        channel_model=args.channel_model,
        tracer=args.tracer,
    )
    result = machine.multicast(*_draw(machine.hosts, args), args.bytes, tree=args.tree)
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
    if args.tracer is not None:
        print(trace_summary(args.tracer))
    return {"dests": args.dests, "bytes": args.bytes, "tree": str(args.tree), "ni": args.ni}


def _cmd_reliable(args) -> None:
    from .mcast import ReliableMulticastSimulator, chain_for

    topology, router, ordering = _testbed(args.seed)
    source, destinations = _draw(topology.hosts, args)
    chain = chain_for(source, destinations, ordering)
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


def _cmd_campaign(args, axes=None, point=None) -> None:
    """A campaign subcommand (chaos, churn, sessions): grid, table, records.

    ``--smoke`` runs the campaign's smoke grid at ``--seed`` through the
    same sweep, so ``--checkpoint``, ``--out`` and the manifest mean the
    same thing either way.  ``axes`` and ``point`` add a subcommand's
    own grid axes and point kwargs to a full sweep.
    """
    from .analysis import write_records

    if args.command == "chaos":
        from .faults import CHAOS as campaign
    elif args.command == "churn":
        from .membership import CHURN as campaign
    else:
        from .sessions import SESSIONS as campaign
    if args.smoke:
        grid, point = campaign.smoke_grid(args.seed), dict(campaign.smoke_kwargs)
        records = campaign.smoke(seed=args.seed, workers=args.workers, checkpoint=args.checkpoint)
    else:
        grid = campaign.grid(seed=range(args.seed, args.seed + args.runs), **(axes or {}))
        point = dict(point or {}, dests=args.dests, m=PAPER_PARAMS.packets_for(args.bytes))
        records = campaign.sweep(grid, workers=args.workers, checkpoint=args.checkpoint, **point)
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


def _cmd_sessions(args) -> Optional[dict]:
    """The sessions campaign over --schedulers × --loads.

    Traced, it adds one representative run (the first scheduler at the
    highest load) whose trace gives each session its own track.
    """
    from .sessions import SCHEDULERS, SessionSimulator
    from .sessions.sweep import SAFETY_LIMIT, _workload

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
    _cmd_campaign(
        args,
        axes={"scheduler": schedulers, "load": loads},
        point={"arrival": args.arrival, "count": args.count, "max_active": args.max_active},
    )
    if args.tracer is None:
        return None
    scheduler, load = schedulers[0], loads[-1]
    topology, router, ordering = _testbed(1997 + args.seed)
    sessions = _workload(
        args.arrival, ordering, load=load, seed=args.seed,
        count=args.count, dests=args.dests, m=PAPER_PARAMS.packets_for(args.bytes),
    )
    simulator = SessionSimulator(
        topology, router, ordering,
        scheduler=scheduler, max_active=args.max_active, tracer=args.tracer,
    )
    simulator.run_sessions(sessions, time_limit=SAFETY_LIMIT)
    return {
        "scheduler": scheduler, "load": load, "arrival": args.arrival,
        "count": args.count, "dests": args.dests, "bytes": args.bytes,
    }


def _cmd_decoster(args) -> None:
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


def _cmd_serve(args) -> None:
    import asyncio

    from .service import PlanServer, RequestJournal

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
        tracer=args.tracer,
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


def _cmd_cluster_router(args) -> None:
    """``cluster serve`` spawns N shard workers, ``cluster route`` takes
    externally started ones; either routes over them in the foreground."""
    import asyncio

    from .cluster import ClusterRouter, ShardSpec, spawn_shards

    spawn = args.cluster_command == "serve"
    if spawn:
        shards = spawn_shards(
            args.shards,
            workers=args.workers,
            max_inflight=args.max_inflight,
            journal_dir=args.journal_dir,
        )
        specs = [s.spec for s in shards]
    else:
        shards, specs = [], []
        for text in args.shard:
            sid, eq, address = text.partition("=")
            if not eq or not sid.isdigit():
                raise ValidationError(f"--shard must look like ID=HOST:PORT, got {text!r}")
            specs.append(ShardSpec(int(sid), *_address("--shard", address)))
    try:
        for shard in shards:
            print(
                f"shard {shard.shard_id} pid {shard.pid} listening on "
                f"{shard.spec.host}:{shard.spec.port}", flush=True,
            )
        router = ClusterRouter(
            specs,
            host=args.host,
            port=args.port,
            vnodes=args.vnodes,
            seed=args.seed,
            replication=args.replication,
            probe_interval=args.probe_interval,
            fail_after=args.fail_after,
        )

        async def _run() -> None:
            await router.start()
            print(
                f"cluster router listening on {router.host}:{router.port}"
                f" ({len(specs)} shards)", flush=True,
            )
            await router.run_until_signal()

        asyncio.run(_run())
    finally:
        for shard in shards:
            shard.terminate()
        for shard in shards:
            try:
                shard.wait(timeout=10)
            except Exception:  # noqa: BLE001 - escalate a wedged drain
                shard.kill()
    print("cluster drained and stopped" if spawn else "cluster router stopped")


def _cmd_cluster_status(args) -> None:
    """One status snapshot from a live router, rendered as a table."""
    from .cluster import cluster_status_remote

    status = cluster_status_remote(*_address("--connect", args.connect))
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
    from .params import MachineParams

    params = MachineParams(**{
        name: getattr(args, name)
        for name in ("t_s", "t_r", "t_step", "t_sq", "ports")
        if getattr(args, name) is not None
    })
    if args.connect:
        from .service import plan_remote

        result = plan_remote(*_address("--connect", args.connect), args.n, args.m, params)
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

        text = metrics_remote(*_address("--connect", args.connect))
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


#: Every flag that two or more subcommands take, defined once:
#: dest -> (flags, ``add_argument`` keywords).  :func:`_add` attaches
#: them by dest; a subcommand overrides only a default, ``required`` or
#: a help string.
_SHARED_FLAGS = {
    "n": (("-n",), dict(type=int, required=True, help="multicast set size")),
    "m": (("-m",), dict(type=int, required=True, help="number of packets")),
    "seed": (("--seed",), dict(type=int, default=0, help="random seed")),
    "dests": (("--dests",), dict(type=int, default=31, help="destinations per multicast")),
    "bytes": (("--bytes",), dict(type=int, default=512, help="message size")),
    "ports": (("--ports",), dict(type=int, default=1, help="NI injection ports")),
    "full": (("--full",), dict(action="store_true", help="paper's 30x10 protocol")),
    "topologies": (("--topologies",), dict(type=int, default=3)),
    "dest_sets": (("--dest-sets",), dict(type=int, default=6)),
    "smoke": (("--smoke",), dict(action="store_true", help="run the CI-sized smoke grid")),
    "runs": (("--runs",), dict(type=int, default=3, help="seeds per grid cell")),
    "workers": (("--workers",), dict(
        type=int, default=1,
        help="processes for the sweep grid (results identical for any count)",
    )),
    "csv": (("--csv",), dict(default=None, help="also write the series as CSV")),
    "out": (("--out",), dict(default=None, metavar="PATH", help="write records + manifest JSON")),
    "checkpoint": (("--checkpoint",), dict(
        default=None, metavar="PATH",
        help="journal completed chunks here; rerun with the same path to "
             "resume a killed sweep (byte-identical results)",
    )),
    "resume": (("--resume",), dict(
        action="store_true", help="require the --checkpoint file to already exist",
    )),
    "trace_out": (("--trace-out",), dict(
        default=None, metavar="PATH",
        help="write a Chrome trace of the run (open in Perfetto); "
             "a .jsonl suffix writes JSON lines",
    )),
    "stats": (("--stats",), dict(
        action="store_true", help="print the unified metrics snapshot afterwards",
    )),
    "profile_out": (("--profile-out",), dict(
        default=None, metavar="PATH",
        help="sample this command's wall-clock stacks; .json writes a "
             "speedscope profile, any other suffix collapsed stacks",
    )),
    "profile_hz": (("--profile-hz",), dict(
        type=float, default=100.0, help="sampling rate for --profile-out (default 100)",
    )),
    "host": (("--host",), dict(default="127.0.0.1")),
    "port": (("--port",), dict(type=int, default=7117, help="router port (0 = ephemeral)")),
    "max_inflight": (("--max-inflight",), dict(type=int, default=256, help="admission bound")),
    "vnodes": (("--vnodes",), dict(type=int, default=64, help="ring points per shard")),
    "replication": (("--replication",), dict(
        type=int, default=2, help="replica-chain length per key (2 = primary + one replica)",
    )),
    "probe_interval": (("--probe-interval",), dict(
        type=float, default=0.5, help="seconds between health probes",
    )),
    "fail_after": (("--fail-after",), dict(
        type=int, default=2, help="consecutive probe misses that evict a shard",
    )),
    "connect": (("--connect",), dict(
        default=None, metavar="HOST:PORT",
        help="ask a live server or router instead of working locally",
    )),
}
#: The flags every sweep subcommand (Figs. 13–14 and the campaigns) takes.
_SWEEP_FLAGS = ("seed", "workers", "checkpoint", "resume", "profile_out", "profile_hz")
#: The router flags of ``cluster serve`` and ``cluster route``.
_ROUTER_FLAGS = (
    "host", "port", "vnodes", "seed", "replication", "probe_interval", "fail_after",
)


def _add(parser, *names: str, **overrides: dict) -> None:
    """Attach shared flags by dest; ``overrides[dest]`` replaces keywords."""
    for name in names:
        flags, kwargs = _SHARED_FLAGS[name]
        parser.add_argument(*flags, **{**kwargs, **overrides.get(name, {})})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mcast",
        description="Reproduce Kesavan & Panda (ICPP 1997) figures and run multicast sims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig12a", help="optimal k vs packets (analytic)")
    p.add_argument("--max-m", type=int, default=35)
    _add(p, "csv")
    p.set_defaults(func=_cmd_fig12a)

    p = sub.add_parser("fig12b", help="optimal k vs set size (analytic)")
    p.set_defaults(func=_cmd_fig12b)

    for name, help_text in (
        ("fig13a", "k-binomial latency vs packets (simulated)"),
        ("fig13b", "k-binomial latency vs set size (simulated)"),
        ("fig14a", "binomial vs k-binomial vs packets (simulated)"),
        ("fig14b", "binomial vs k-binomial vs set size (simulated)"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add(
            p, "full", "topologies", "dest_sets", "csv", "trace_out", *_SWEEP_FLAGS,
            seed={"default": 1997},
        )
        p.set_defaults(func=_cmd_sim_figure)

    p = sub.add_parser("optimal-k", help="Theorem 3 fan-out for (n, m)")
    _add(p, "n", "m")
    p.set_defaults(func=_cmd_optimal_k)

    p = sub.add_parser(
        "surface", help="build/save/load the vectorized analytic surface"
    )
    p.add_argument("--n-max", type=int, default=512)
    p.add_argument("--m-max", type=int, default=64)
    p.add_argument(
        "--exact", action="store_true",
        help="also build the exact-variant tables (one FPFS schedule per (n, k))",
    )
    p.add_argument("--load", default=None, metavar="PATH", help="load instead of building")
    _add(
        p, "ports", "out", "stats",
        ports={"help": "NI ports for the exact tables"},
        out={"help": "save (atomic, CRC-stamped)"},
    )
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("tree", help="draw a k-binomial tree")
    p.add_argument("-k", type=int, default=None, help="fan-out cap (default: optimal)")
    _add(
        p, "n", "m",
        m={"required": False, "default": 1, "help": "packets (for the optimal-k default)"},
    )
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("simulate", help="one multicast on the 64-host testbed")
    p.add_argument("--tree", default="optimal", help="|".join(_TREE_NAMES) + "|<k>")
    p.add_argument("--ni", default="fpfs", choices=["fpfs", "fcfs", "conventional"])
    p.add_argument("--ordering", default="cco", choices=["cco", "poc", "random"])
    p.add_argument(
        "--channel-model", default="path", choices=["path", "worm"],
        help="wormhole occupancy model",
    )
    _add(p, "dests", "bytes", "ports", "seed", "trace_out", "stats", dests={"default": 15})
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reliable", help="reliable multicast over lossy links")
    p.add_argument("--loss", type=float, default=0.05, help="packet loss probability")
    _add(p, "dests", "bytes", "seed", bytes={"default": 1024})
    p.set_defaults(func=_cmd_reliable)

    for name, dests, help_text in (
        ("chaos", 31, "fault-injection sweep (survival curves)"),
        ("churn", 31, "dynamic-membership sweep (joins/leaves mid-multicast)"),
        ("sessions", 15, "concurrent multicast sessions under contention-aware scheduling"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add(
            p, "smoke", "runs", "dests", "bytes", "out", "stats", *_SWEEP_FLAGS,
            dests={"default": dests}, seed={"help": "first sweep seed"},
        )
        p.set_defaults(func=_cmd_campaign)
    # ``p`` is now the sessions parser, which adds its own grid axes.
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
        "--max-active", type=int, default=2,
        help="concurrent-session admission slots",
    )
    _add(p, "trace_out")
    p.set_defaults(func=_cmd_sessions)

    p = sub.add_parser("decoster", help="compare with De Coster [2] host packetization")
    _add(p, "n", "bytes", n={"required": False, "default": 64}, bytes={"default": 4096})
    p.set_defaults(func=_cmd_decoster)

    p = sub.add_parser("serve", help="run the multicast plan service")
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
        "--shard-id", type=int, default=None,
        help="cluster identity: which shard this server is (labels its "
             "health report and Prometheus exposition)",
    )
    p.add_argument(
        "--ring-epoch", type=int, default=0,
        help="cluster identity: the ring epoch this shard starts at "
             "(requests stamped with an older epoch get stale_map)",
    )
    _add(
        p, "host", "port", "workers", "max_inflight", "trace_out", "stats",
        "profile_out", "profile_hz",
        port={"default": 7017, "help": "0 picks an ephemeral port"},
        workers={"help": "planner executor threads"},
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "cluster", help="sharded plan service: spawn, route, inspect"
    )
    cluster_sub = p.add_subparsers(dest="cluster_command", required=True)

    cp = cluster_sub.add_parser(
        "serve", help="spawn N shard workers and route in the foreground"
    )
    cp.add_argument("--shards", type=int, default=4, help="shard worker processes")
    cp.add_argument(
        "--journal-dir", default=None, metavar="DIR",
        help="per-shard request journals here (warm handoff on respawn)",
    )
    _add(
        cp, *_ROUTER_FLAGS, "workers", "max_inflight",
        workers={"help": "planner threads per shard"},
        max_inflight={"help": "per-shard admission bound"},
        seed={"help": "ring placement seed"},
    )
    cp.set_defaults(func=_cmd_cluster_router)

    cp = cluster_sub.add_parser(
        "route", help="route over externally started shards"
    )
    cp.add_argument(
        "--shard", action="append", required=True, metavar="ID=HOST:PORT",
        help="one shard address (repeatable), e.g. --shard 0=127.0.0.1:7017",
    )
    _add(cp, *_ROUTER_FLAGS, seed={"help": "ring placement seed"})
    cp.set_defaults(func=_cmd_cluster_router)

    cp = cluster_sub.add_parser("status", help="one status snapshot from a router")
    _add(cp, "connect", connect={"required": True, "help": "router address"})
    cp.set_defaults(func=_cmd_cluster_status)

    p = sub.add_parser(
        "metrics", help="Prometheus text exposition of the unified metrics"
    )
    p.add_argument(
        "--check", action="store_true",
        help="strict-parse the exposition and print a summary instead of the text",
    )
    _add(p, "connect", "out", out={"help": "write instead of printing"})
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("plan", help="one plan query (local, or --connect to a server)")
    p.add_argument("--schedule", action="store_true", help="print the per-node schedule")
    p.add_argument("--t-s", type=float, default=None, help="host send overhead us")
    p.add_argument("--t-r", type=float, default=None, help="host recv overhead us")
    p.add_argument("--t-step", type=float, default=None, help="per-step cost us")
    p.add_argument("--t-sq", type=float, default=None, help="send-queue push us")
    _add(p, "n", "m", "connect", "ports", ports={"default": None})
    p.set_defaults(func=_cmd_plan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; invalid arguments return 2 with ``error: ...``.

    A ``--connect`` command whose server cannot be reached, or answers
    with an error, returns 1 with its typed error on one line.

    After the command, in this order: the checkpoint report, the trace
    (its manifest holds the command, its seed and the parameters the
    command returns), the ``--stats`` snapshot and the profile.
    """
    args = build_parser().parse_args(argv)
    try:
        _validate_args(args)
        args.tracer = Tracer() if getattr(args, "trace_out", None) else None
        profile_out = getattr(args, "profile_out", None)
        profiler = SamplingProfiler(hz=args.profile_hz) if profile_out else NULL_PROFILER
        with profiler:
            params = args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Imported here: the service package costs every command ~75 ms.
        from .service.client import PlanServiceError

        if not isinstance(exc, PlanServiceError):
            raise
        # A --connect command's server is down or refused the request.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "checkpoint", None):
        # The CI smoke greps this line for "resumed".
        snap = DURABLE_METRICS.snapshot()
        print(
            f"checkpoint {args.checkpoint}: resumed {snap['chunks_resumed']} "
            f"chunk(s) ({snap['points_resumed']} points), journaled "
            f"{snap['chunks_journaled']} new"
        )
    if args.tracer is not None:
        if args.trace_out.endswith(".jsonl"):
            written = write_jsonl(args.trace_out, args.tracer)
        else:
            manifest = run_manifest(
                params=params, seed=getattr(args, "seed", None),
                extra={"command": args.command},
            )
            written = write_chrome_trace(args.trace_out, args.tracer, manifest)
        print(f"wrote {written}")
    if getattr(args, "stats", False):
        print(json.dumps(GLOBAL_METRICS.snapshot(), indent=2, sort_keys=True))
    if profile_out:
        snap = profiler.snapshot()
        if profile_out.endswith(".json"):
            written = profiler.write_speedscope(profile_out, name=f"repro-mcast {args.command}")
        else:
            written = profiler.write_collapsed(profile_out)
        print(f"wrote {written} ({snap['samples']} samples @ {snap['hz']:.0f} Hz)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
