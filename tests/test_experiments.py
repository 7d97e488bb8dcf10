"""Tests for the figure-reproduction harness (quick profiles).

Each experiment must run, return the expected columns, and show the
*shape* the paper's figure reports.
"""

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments import (
    complexity,
    fig08_quality_tao,
    fig09_quality_death_valley,
    fig10_update_cost,
    fig11_quality_slack,
    fig12_scalability_time,
    fig13_scalability_size,
    fig14_range_query_tao,
    fig15_range_query_synthetic,
    path_query_cost,
)
from repro.experiments.common import ExperimentTable, check_profile


def test_check_profile():
    assert check_profile("full") == "full"
    with pytest.raises(ValueError):
        check_profile("medium")


def test_experiment_table_formatting():
    table = ExperimentTable("t", "Title", columns=("a", "b"))
    table.add_row(a=1, b=2.5)
    text = table.to_text()
    assert "Title" in text and "2.5" in text
    with pytest.raises(ValueError):
        table.add_row(a=1)


def test_registry_is_complete():
    assert set(ALL_EXPERIMENTS) == {
        "fig01", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
        "fig15", "complexity", "path_query",
        "ablation_signalling", "ablation_switching", "ablation_loss",
        "ablation_asynchrony", "ablation_failures", "optimality_gap",
        "energy_hotspots",
    }


def test_ablation_experiments_quick_profiles_run():
    from repro.experiments import (
        ablation_loss,
        ablation_signalling,
        ablation_switching,
        energy_hotspots,
        optimality_gap,
    )

    signalling = ablation_signalling.run(profile="quick")
    for row in signalling.rows:
        assert row["unordered_time"] < row["implicit_time"]

    switching = ablation_switching.run(profile="quick")
    assert all(row["switches"] == 0 for row in switching.rows if row["c"] == 0)

    loss = ablation_loss.run(profile="quick")
    assert all(row["valid"] for row in loss.rows)

    gap = optimality_gap.run(profile="quick")
    for row in gap.rows:
        assert row["elink"] >= row["optimal"] - 1e-9

    energy = energy_hotspots.run(profile="quick")
    by_scheme = {row["scheme"]: row for row in energy.rows}
    assert by_scheme["centralized"]["imbalance"] > by_scheme["elink"]["imbalance"]
    # Pinned quick energies (total_mj, hottest_mj, imbalance).
    assert [
        (row["scheme"], row["total_mj"], row["hottest_mj"], row["imbalance"])
        for row in energy.rows
    ] == [("elink", 81.81, 3.761, 1.79), ("centralized", 1228.32, 166.809, 7.33)]


@pytest.fixture(scope="module")
def fig08_table():
    return fig08_quality_tao.run(profile="quick")


def test_fig08_columns_and_shape(fig08_table):
    assert list(fig08_table.columns)[0] == "delta"
    counts = fig08_table.column("elink_implicit")
    # Cluster counts fall (weakly) from the smallest to the largest delta.
    assert counts[0] > counts[-1]
    # Implicit and explicit quality match closely on every row.
    for row in fig08_table.rows:
        assert abs(row["elink_implicit"] - row["elink_explicit"]) <= max(
            2, 0.15 * row["elink_implicit"]
        )


def test_fig09_runs_and_declines():
    table = fig09_quality_death_valley.run(profile="quick")
    counts = table.column("elink_implicit")
    assert counts[0] > counts[-1]
    assert "hierarchical" in table.columns  # quick profile includes it


def test_fig10_elink_beats_centralized():
    table = fig10_update_cost.run(profile="quick")
    for row in table.rows:
        assert row["centralized"] > row["elink"]
    # The advantage holds at every slack; the paper reports roughly 10x.
    ratios = table.column("centralized_over_elink")
    assert max(ratios) > 3.0
    # Pinned quick totals: a replay that changes any count fails here.
    assert table.column("slack") == [0.01, 0.02, 0.04, 0.06, 0.08]
    assert table.column("elink") == [1939, 909, 471, 204, 44]
    assert table.column("centralized") == [22296, 13648, 7656, 6100, 5312]


def test_fig11_quality_degrades_with_slack():
    table = fig11_quality_slack.run(profile="quick")
    for series in ("elink", "centralized", "spanning_forest"):
        counts = table.column(series)
        assert counts[-1] >= counts[0]


def test_fig12_bands_ordered():
    table = fig12_scalability_time.run(profile="quick")
    last = table.rows[-1]
    assert last["centralized_raw"] > last["centralized_model"]
    assert last["centralized_model"] > last["elink_implicit"] - last["elink_implicit"] * 0.5
    assert last["elink_explicit"] > last["elink_implicit"]
    # Cumulative series never decrease.
    for series in ("centralized_raw", "centralized_model", "elink_implicit"):
        values = table.column(series)
        assert all(b >= a for a, b in zip(values, values[1:]))
    # Pinned quick cumulative counts, days 1-4.
    assert table.column("day") == [1, 2, 3, 4]
    assert table.column("centralized_raw") == [4224, 8448, 12672, 16896]
    assert table.column("centralized_model") == [2652, 3988, 6156, 7656]
    assert table.column("elink_implicit") == [1093, 1153, 1261, 1313]
    assert table.column("elink_explicit") == [1515, 1575, 1683, 1735]
    assert table.column("hierarchical") == [6184, 6251, 6403, 6495]
    assert table.column("spanning_forest") == [1448, 1501, 1649, 1753]


def test_fig13_implicit_cheapest_distributed():
    table = fig13_scalability_size.run(profile="quick")
    for row in table.rows:
        assert row["elink_implicit"] < row["spanning_forest"]
        assert row["elink_implicit"] < row["hierarchical"]
        assert row["elink_implicit"] < row["elink_explicit"]


def test_fig14_clustered_beats_tag():
    table = fig14_range_query_tao.run(profile="quick")
    for row in table.rows:
        assert row["elink"] < row["tag"]


def test_fig15_runs_with_small_gains():
    table = fig15_range_query_synthetic.run(profile="quick")
    for row in table.rows:
        # Uncorrelated data: gains exist but are modest (< 2x).
        assert row["tag"] / row["elink"] < 3.0


def test_complexity_messages_per_node_bounded():
    table = complexity.run(profile="quick")
    per_node = table.column("implicit_msgs_per_node")
    assert max(per_node) / min(per_node) < 2.0


def test_path_query_agreement_and_gain():
    table = path_query_cost.run(profile="quick")
    assert any(row["found_fraction"] > 0 for row in table.rows)
    gains = [
        row["flood_over_clustered"] for row in table.rows if row["found_fraction"] > 0.3
    ]
    assert gains and max(gains) > 1.0


def test_fig01_zone_map_quick():
    from repro.experiments import fig01_zone_map

    table = fig01_zone_map.run(profile="quick")
    row = table.rows[0]
    assert row["true_zones"] >= 2
    assert row["pairwise_agreement"] > 0.5
    # The ASCII maps are attached as notes.
    assert any("temperature field" in note for note in table.notes)


def test_runner_jobs_matches_serial(capsys):
    """``--jobs N`` must print byte-identical tables to a serial run; only
    wall-clock timings may differ.  fig09 exercises the per-trial
    decomposition, the others the whole-experiment unit."""
    import re

    from repro.experiments import runner

    def normalized():
        out = capsys.readouterr().out
        out = re.sub(r"finished in [0-9.]+s", "finished in Xs", out)
        return re.sub(r"\[suite: [^\]]*\]\n", "", out)

    argv = ["--quick", "--only", "fig09", "complexity", "optimality_gap", "--no-bench"]
    assert runner.main(argv) == 0
    serial = normalized()
    assert runner.main(argv + ["--jobs", "4"]) == 0
    parallel = normalized()
    assert serial == parallel
    assert "fig09" in serial


def test_runner_profile_covers_scale_sweep(tmp_path, capsys):
    """``--profile`` with ``--max-n`` alone profiles the scale sweep's
    vectorised rounds and writes the report."""
    from repro.experiments import runner

    out = tmp_path / "profile.txt"
    argv = ["--max-n", "300", "--profile", "--profile-out", str(out), "--no-bench"]
    assert runner.main(argv) == 0
    assert "_VectorRun._fire_expand" in out.read_text(encoding="utf-8")
    assert f"[wrote {out}]" in capsys.readouterr().out
