"""CLI subcommands (fast paths only; sim figures use tiny protocols)."""

from __future__ import annotations

import socket

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def test_fig12a(capsys):
    out = run_cli(capsys, "fig12a", "--max-m", "5")
    assert "Fig. 12(a)" in out and "63 dest" in out


def test_fig12b(capsys):
    out = run_cli(capsys, "fig12b")
    assert "Fig. 12(b)" in out and "8 pkt" in out


def test_optimal_k(capsys):
    out = run_cli(capsys, "optimal-k", "-n", "64", "-m", "8")
    assert "optimal k for n=64, m=8: 2" in out


def test_tree_rendering(capsys):
    out = run_cli(capsys, "tree", "-n", "8", "-k", "2")
    assert "2-binomial tree" in out
    assert "└─" in out


def test_tree_defaults_to_optimal_k(capsys):
    out = run_cli(capsys, "tree", "-n", "16", "-m", "8")
    assert "2-binomial tree" in out  # optimal_k(16, 8) == 2


def test_long_chains_draw_and_plan(capsys):
    """A k = 1 tree over 1,200 nodes, and a plan whose optimal tree is a
    1,500-node chain, nest no call per tree level."""
    out = run_cli(capsys, "tree", "-n", "1200", "-k", "1")
    assert "1-binomial tree" in out and "└─ 1199 [s1199]" in out
    out = run_cli(capsys, "plan", "-n", "1500", "-m", "3000")
    assert "1500  3000  1    1  1499" in out


def test_simulate(capsys):
    out = run_cli(capsys, "simulate", "--dests", "7", "--bytes", "128")
    assert "latency" in out and "fpfs" in out


def test_simulate_integer_tree_spec(capsys):
    out = run_cli(capsys, "simulate", "--dests", "7", "--bytes", "128", "--tree", "2")
    assert "latency" in out


def test_simulate_alternative_ni_and_ordering(capsys):
    out = run_cli(capsys, "simulate", "--dests", "7", "--bytes", "64", "--ni", "fcfs", "--ordering", "poc")
    assert "fcfs" in out


def test_fig13a_tiny(capsys):
    out = run_cli(capsys, "fig13a", "--topologies", "1", "--dest-sets", "1")
    assert "Fig. 13(a)" in out


def test_fig13b_tiny(capsys):
    out = run_cli(capsys, "fig13b", "--topologies", "1", "--dest-sets", "1")
    assert "Fig. 13(b)" in out


def test_fig14a_tiny(capsys):
    out = run_cli(capsys, "fig14a", "--topologies", "1", "--dest-sets", "1")
    assert "Fig. 14(a)" in out and "ratio" in out


def test_fig14b_tiny(capsys):
    out = run_cli(capsys, "fig14b", "--topologies", "1", "--dest-sets", "1")
    assert "Fig. 14(b)" in out and "ratio" in out


def test_reliable(capsys):
    out = run_cli(capsys, "reliable", "--loss", "0.05", "--dests", "7", "--bytes", "256")
    assert "reliable FPFS multicast" in out
    assert "latency" in out


def test_decoster(capsys):
    out = run_cli(capsys, "decoster", "--bytes", "512")
    assert "De Coster" in out
    assert "tuned" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_plan_local(capsys):
    out = run_cli(capsys, "plan", "-n", "64", "-m", "8")
    assert "optimal multicast plan (local planner)" in out
    assert "latency us" in out


def test_plan_with_schedule_and_params(capsys):
    out = run_cli(
        capsys, "plan", "-n", "16", "-m", "4", "--t-sq", "2.5", "--ports", "2", "--schedule"
    )
    assert "optimal multicast plan" in out
    assert "first/last recv" in out
    # Every chain position gets a schedule row.
    assert all(f"\n{node:>4}" in out or out.startswith(f"{node:>4}") for node in range(16))


def test_plan_rejects_bad_n(capsys):
    # Validation errors exit 2 with the message on stderr, not a traceback.
    assert main(["plan", "-n", "1", "-m", "2"]) == 2
    assert "n must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["optimal-k", "-n", "1", "-m", "4"],
        ["optimal-k", "-n", "64", "-m", "0"],
        ["tree", "-n", "1"],
        ["tree", "-n", "8", "-k", "0"],
        ["decoster", "-n", "1"],
    ],
    ids=["optimal-k-n1", "optimal-k-m0", "tree-n1", "tree-k0", "decoster-n1"],
)
def test_bad_sizes_exit_2_with_error(capsys, argv):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["simulate", "reliable", "chaos", "churn", "sessions"]
)
def test_dests_past_the_testbed_exit_2(capsys, tmp_path, command):
    # 64 hosts: a source plus at most 63 destinations.
    assert main([command, "--dests", "64"]) == 2
    assert "error: --dests" in capsys.readouterr().err


def test_simulate_trace_out_writes_perfetto_json(capsys, tmp_path):
    import json

    out_path = tmp_path / "trace.json"
    out = run_cli(
        capsys, "simulate", "--dests", "7", "--bytes", "256", "--trace-out", str(out_path)
    )
    assert "latency" in out and "trace:" in out  # the table, then the trace summary
    assert f"wrote {out_path}" in out
    doc = json.loads(out_path.read_text())
    assert doc["traceEvents"] and doc["metadata"]["command"] == "simulate"
    assert {e["ph"] for e in doc["traceEvents"]} >= {"X", "M"}


def test_simulate_trace_out_jsonl_suffix(capsys, tmp_path):
    import json

    out_path = tmp_path / "trace.jsonl"
    run_cli(capsys, "simulate", "--dests", "3", "--trace-out", str(out_path))
    lines = out_path.read_text().splitlines()
    assert lines and all("ph" in json.loads(line) for line in lines)


def test_simulate_trace_out_and_stats(capsys, tmp_path):
    import json

    out_path = tmp_path / "sim.json"
    out = run_cli(
        capsys, "simulate", "--dests", "7", "--bytes", "128",
        "--trace-out", str(out_path), "--stats",
    )
    assert "latency" in out and f"wrote {out_path}" in out
    assert '"sim"' in out and '"cache"' in out  # the --stats snapshot
    doc = json.loads(out_path.read_text())
    assert doc["metadata"]["seed"] == 0 and doc["traceEvents"]


def test_fig13a_trace_out_records_sweep_spans(capsys, tmp_path):
    import json

    out_path = tmp_path / "fig.json"
    out = run_cli(
        capsys, "fig13a", "--topologies", "1", "--dest-sets", "1",
        "--trace-out", str(out_path),
    )
    assert "Fig. 13(a)" in out
    doc = json.loads(out_path.read_text())
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert spans and all(e["cat"] == "sweep" for e in spans)


def test_metrics_renders_parseable_prometheus_text(capsys):
    from repro.obs import parse_prometheus

    out = run_cli(capsys, "metrics")
    families = parse_prometheus(out)
    assert any(name.startswith("repro_cache") for name in families)


def test_metrics_check_mode_summarizes(capsys, tmp_path):
    out_path = tmp_path / "metrics.prom"
    out = run_cli(capsys, "metrics", "--check", "--out", str(out_path))
    assert "exposition OK:" in out and "families" in out
    from repro.obs import parse_prometheus

    parse_prometheus(out_path.read_text())


def test_profile_out_writes_collapsed_stacks(capsys, tmp_path):
    prof = tmp_path / "prof.collapsed"
    out = run_cli(
        capsys, "fig13a", "--topologies", "1", "--dest-sets", "1",
        "--profile-out", str(prof), "--profile-hz", "400",
    )
    assert f"wrote {prof}" in out and "Hz" in out
    # Samples are timing-dependent; the file is valid either way.
    for line in prof.read_text().splitlines():
        stack, count = line.rsplit(" ", 1)
        assert stack and int(count) > 0


def test_profile_out_json_writes_speedscope(capsys, tmp_path):
    import json

    prof = tmp_path / "prof.json"
    run_cli(
        capsys, "sessions", "--smoke", "--profile-out", str(prof),
    )
    doc = json.loads(prof.read_text())
    assert doc["profiles"][0]["type"] == "sampled"


def test_profile_hz_must_be_positive(capsys):
    assert main([
        "sessions", "--smoke", "--profile-out", "x", "--profile-hz", "0",
    ]) == 2
    assert "profile-hz" in capsys.readouterr().err


def _stub_latency_grid(monkeypatch):
    """Replace the §5.2 sweep behind Figs. 13–14 with a distinct value
    per (d, m, tree); returns the list of configs it was called with."""
    from repro.analysis import experiments

    configs = []

    def fake_grid(config, dest_counts, m_values, trees, workers, tracer=None, checkpoint=None):
        configs.append(config)
        return {
            (d, m, tree): d * 100.0 + m + (0.5 if tree == "binomial" else 0.25)
            for d in dest_counts for m in m_values for tree in trees
        }

    monkeypatch.setattr(experiments, "_latency_grid", fake_grid)
    return configs


@pytest.mark.parametrize(
    "figure, header",
    [
        ("fig13a", ["m", "63 dest", "47 dest", "31 dest", "15 dest"]),
        ("fig13b", ["dests", "8 pkt", "4 pkt", "2 pkt", "1 pkt"]),
        ("fig14a", ["m", "47 dest binomial", "47 dest kbinomial",
                    "15 dest binomial", "15 dest kbinomial"]),
        ("fig14b", ["dests", "8 pkt binomial", "8 pkt kbinomial",
                    "2 pkt binomial", "2 pkt kbinomial"]),
    ],
    ids=["fig13a", "fig13b", "fig14a", "fig14b"],
)
def test_sim_figure_csv_matches_printed_series(capsys, tmp_path, monkeypatch, figure, header):
    import csv

    _stub_latency_grid(monkeypatch)
    path = tmp_path / f"{figure}.csv"
    out = run_cli(capsys, figure, "--csv", str(path))
    assert f"wrote {path}" in out
    written_header, *rows = list(csv.reader(path.open()))
    assert written_header == header

    def cells(*values):
        return [f"{float(v):.2f}" for v in values]

    if figure.startswith("fig13"):
        expected = [[x, *cells(*ys)] for x, *ys in rows]
    else:  # one table per curve: binomial, k-binomial, ratio
        expected = [
            [row[0], *cells(row[i], row[i + 1], float(row[i]) / float(row[i + 1]))]
            for i in range(1, len(header), 2)
            for row in rows
        ]
    printed = [
        line.split() for line in out.splitlines()
        if line.strip() and all(token.replace(".", "", 1).isdigit() for token in line.split())
    ]
    assert printed == expected


def test_full_protocol_keeps_seed(capsys, monkeypatch):
    configs = _stub_latency_grid(monkeypatch)
    run_cli(capsys, "fig13a", "--full", "--seed", "5")
    assert [(c.n_topologies, c.n_dest_sets, c.seed) for c in configs] == [(10, 30, 5)]


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "-n", "8", "-m", "2", "--connect", "localhost"],
        ["metrics", "--connect", "127.0.0.1:notaport"],
        ["cluster", "status", "--connect", "nohost"],
        ["simulate", "--tree", "foo"],
        ["simulate", "--tree", "0"],
        ["serve", "--port", "70000"],
    ],
    ids=["plan-connect", "metrics-connect", "status-connect", "tree-foo", "tree-0", "serve-port"],
)
def test_malformed_values_exit_2(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [["plan", "-n", "8", "-m", "2"], ["cluster", "status"], ["metrics"]],
    ids=["plan", "cluster-status", "metrics"],
)
def test_connect_to_a_closed_port_is_one_error_line(capsys, argv):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]  # closed again: nothing listens there
    assert main([*argv, "--connect", f"127.0.0.1:{port}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unavailable: ")
    assert len(err.splitlines()) == 1
