"""Smoke test of the benchmark harness on tiny generated configs.

    python3 -m pytest perfbench/test_harness.py -q

It checks that every metric named in BENCHMARK.json is emitted, that the
inputs follow the seed, and that a corrupted CSV is counted as failed.
"""

import json

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_benchmark_json_lists_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_follow_the_seed():
    assert workloads.make_config(0) == workloads.bundled_config()
    assert workloads.make_config(7) == workloads.make_config(7)
    assert workloads.make_config(7) != workloads.make_config(8)
    for seed in range(1, 50):
        assert abs(workloads.seed_scale(seed) - 1.0) <= workloads.SCALE_SPREAD


def test_end_to_end_metrics_are_emitted():
    result = run.run_workload("coherent", seed=1, seconds=0, trace=False, tiny=True)
    assert result["correct"], result["messages"]
    assert set(result["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_per_layer_metrics_are_emitted(workload):
    result = run.run_workload(workload, seed=1, seconds=0, trace=True, tiny=True)
    assert result["correct"], result["messages"]
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == names("per_layer")


def test_corrupted_csv_counts_as_failed(tmp_path):
    cli = run.load_cli()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.make_config(1, tiny=True)))
    cmds = workloads.commands("coherent", config)
    passes = [run.run_pass(cli, cmds, tmp_path / f"p{k}") for k in range(2)]
    verdicts = run.oracle_verdicts(config, tmp_path / "p0", cmds)
    assert run.count_failures(passes, verdicts)[:2] == (6, 0)

    path = tmp_path / "p0" / "wavelength_sweep.csv"
    lines = path.read_text().splitlines()
    lam, eta = lines[2].split(",")
    lines[2] = f"{lam},{float(eta) + 1e-6!r}"
    path.write_text("\n".join(lines) + "\n")
    verdicts = run.oracle_verdicts(config, tmp_path / "p0", cmds)
    attempted, failed, messages = run.count_failures(passes, verdicts)
    assert (attempted, failed) == (6, 2)
    assert all("sweep-wavelength" in m and "efficiency: row 1" in m for m in messages)
