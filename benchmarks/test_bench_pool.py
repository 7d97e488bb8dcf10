"""Micro-benchmarks for the warm worker pool's dispatch payload.

Submitting a lightweight trial spec vs pickling a whole dataset across
the process boundary — the reason ``runner --jobs N`` workers receive
specs and rebuild their context on their side.
"""

import pickle


def test_dispatch_payload_spec_vs_dataset(benchmark):
    """Round-trip pickle cost of what crosses the pool boundary.

    Trial specs (what the runner actually submits) against the full
    dataset object a naive decomposition would ship per task.
    """
    from repro.datasets import generate_synthetic_dataset
    from repro.experiments import fig13_scalability_size

    specs = fig13_scalability_size.trial_specs("full")
    dataset = generate_synthetic_dataset(400, seed=3)

    spec_blob = pickle.dumps(specs)
    dataset_blob = pickle.dumps(dataset)
    # The asymmetry that motivates spec-only submission.
    assert len(spec_blob) * 100 < len(dataset_blob)

    def round_trip():
        return pickle.loads(pickle.dumps(specs))

    assert benchmark(round_trip) == specs


def test_dispatch_payload_dataset_round_trip(benchmark):
    """The avoided cost: pickling a 400-node dataset per task."""
    from repro.datasets import generate_synthetic_dataset

    dataset = generate_synthetic_dataset(400, seed=3)

    def round_trip():
        return pickle.loads(pickle.dumps(dataset))

    out = benchmark(round_trip)
    assert out.topology.num_nodes == 400
