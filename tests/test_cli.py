"""Tests for the command-line interface (in-process, no subprocesses)."""

import io
import sys

import pytest

from repro.cli import main


def test_info_command(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "ELink" in out and "EDBT 2006" in out


def test_cluster_synthetic(capsys):
    code = main(
        [
            "cluster",
            "--dataset", "synthetic",
            "--n", "80",
            "--algorithm", "elink",
            "--delta", "0.05",
            "--seed", "3",
            "--validate",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "clusters over 80 nodes" in out
    assert "validation: OK" in out


def test_cluster_every_algorithm(capsys):
    for algorithm in (
        "elink",
        "elink-explicit",
        "elink-unordered",
        "spanning-forest",
        "hierarchical",
        "spectral",
    ):
        code = main(
            [
                "cluster",
                "--dataset", "synthetic",
                "--n", "40",
                "--algorithm", algorithm,
                "--delta", "0.08",
            ]
        )
        assert code == 0, algorithm
        assert "clusters over 40 nodes" in capsys.readouterr().out


def test_cluster_with_map(capsys):
    code = main(
        [
            "cluster",
            "--dataset", "death-valley",
            "--n", "60",
            "--algorithm", "elink",
            "--delta", "300",
            "--map",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "A" in out  # the map draws cluster glyphs


def test_save_and_query_round_trip(tmp_path, capsys):
    state = tmp_path / "state.json"
    assert main(
        [
            "cluster",
            "--dataset", "synthetic",
            "--n", "60",
            "--algorithm", "elink",
            "--delta", "0.06",
            "--save", str(state),
        ]
    ) == 0
    capsys.readouterr()
    assert state.exists()
    assert main(["query", "--state", str(state), "--node", "5", "--radius", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "matches (" in out and "cost:" in out


def test_query_with_explicit_feature(tmp_path, capsys):
    state = tmp_path / "state.json"
    main(
        [
            "cluster",
            "--dataset", "synthetic",
            "--n", "50",
            "--algorithm", "elink",
            "--delta", "0.06",
            "--save", str(state),
        ]
    )
    capsys.readouterr()
    assert main(["query", "--state", str(state), "--feature", "0.6", "--radius", "0.05"]) == 0
    assert "matches (" in capsys.readouterr().out


def test_query_unknown_node(tmp_path, capsys):
    state = tmp_path / "state.json"
    main(
        [
            "cluster", "--dataset", "synthetic", "--n", "30",
            "--algorithm", "elink", "--delta", "0.06", "--save", str(state),
        ]
    )
    with pytest.raises(SystemExit):
        main(["query", "--state", str(state), "--node", "nope", "--radius", "0.1"])


def test_query_state_without_clustering(tmp_path, capsys):
    import numpy as np

    from repro.geometry import grid_topology
    from repro.io import save_state

    topology = grid_topology(2, 2)
    state = tmp_path / "bare.json"
    save_state(
        state,
        topology=topology,
        features={v: np.zeros(1) for v in topology.graph.nodes},
    )
    assert main(["query", "--state", str(state), "--node", "0", "--radius", "1"]) == 1


def test_experiment_quick(capsys):
    assert main(["experiment", "complexity", "--quick"]) == 0
    assert "Theorems 2-3" in capsys.readouterr().out


def test_experiment_unknown(capsys):
    assert main(["experiment", "fig99"]) == 2


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit):
        main([])


# ----------------------------------------------------------------------
# pipe safety: `repro <cmd> ... | head` must exit cleanly for EVERY
# subcommand when the pipe's reader goes away mid-output.
# ----------------------------------------------------------------------
class _ClosedPipe(io.TextIOBase):
    """A stdout whose consumer (e.g. ``head``) has already exited."""

    def writable(self):
        return True

    def write(self, _s):
        raise BrokenPipeError


@pytest.fixture(scope="module")
def pipe_artifacts(tmp_path_factory):
    """Saved state + recorded trace the piped subcommands read back."""
    root = tmp_path_factory.mktemp("pipe-cli")
    state = root / "state.json"
    trace = root / "trace.jsonl"
    assert main(
        [
            "cluster", "--dataset", "synthetic", "--n", "40",
            "--algorithm", "elink", "--delta", "0.06",
            "--save", str(state), "--trace", str(trace),
        ]
    ) == 0
    return {"state": str(state), "trace": str(trace)}


_PIPE_CASES = {
    "info": lambda art: ["info"],
    "cluster": lambda art: [
        "cluster", "--dataset", "synthetic", "--n", "24",
        "--algorithm", "spanning-forest", "--delta", "0.3",
    ],
    "query": lambda art: [
        "query", "--state", art["state"], "--node", "5", "--radius", "0.05",
    ],
    "query-explain": lambda art: [
        "query", "--state", art["state"], "--node", "5", "--radius", "0.05", "--explain",
    ],
    "query-bench": lambda art: [
        "query-bench", "--quick", "--n", "24", "--queries", "4", "--no-bench",
    ],
    "experiment": lambda art: ["experiment", "complexity", "--quick"],
    "trace": lambda art: ["trace", art["trace"]],
    "verify": lambda art: ["verify", "--n", "9", "--crash", "0.0"],
    "serve": lambda art: ["serve", "--n", "16", "--rounds", "2", "--bootstrap-rounds", "2"],
}


@pytest.mark.parametrize("subcommand", sorted(_PIPE_CASES))
def test_subcommand_survives_closed_stdout(subcommand, pipe_artifacts, monkeypatch):
    # The guards close stderr on their way out (the standard quiet-exit
    # idiom), so hand them a throwaway stream rather than pytest's.
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    assert main(_PIPE_CASES[subcommand](pipe_artifacts)) == 0
