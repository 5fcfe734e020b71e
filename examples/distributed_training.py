"""Offline dataset generation + synchronous data-parallel IC training (Algorithm 2).

Reproduces the paper's training pipeline end to end at laptop scale:

1. generate an offline dataset of execution traces from the mini-Sherpa
   simulator and store it in sorted, grouped shard files (Section 4.4.3),
2. pre-generate every address-specific layer of the inference network from the
   dataset and freeze the architecture (Section 4.4),
3. train with synchronous data-parallel SGD across ranks that run side by
   side in forked rank processes (as many as this machine has usable cores),
   using sparse + fused gradient allreduce, Adam-LARC and polynomial LR decay
   (Sections 4.4.4 and 6.3),
4. report throughput, load imbalance and the projected scaling on Cori /
   Edison from the calibrated performance model (Figures 4 and 6).

Run with::

    python examples/distributed_training.py
"""

import os
import tempfile

import numpy as np

from repro import seed_all
from repro.common.config import Config
from repro.common.rng import RandomState
from repro.data import generate_dataset, regroup_dataset, sorted_indices_by_trace_type
from repro.distributed import CORI, EDISON, ClusterPerformanceModel, DistributedTrainer, SingleNodeModel
from repro.ppl.nn import InferenceNetwork, collect_address_statistics
from repro.simulators import TauDecayModel


def main() -> None:
    seed_all(7)
    rng = RandomState(7)
    model = TauDecayModel()

    # ---- 1. offline dataset ---------------------------------------------------------
    num_traces = 400
    print(f"generating an offline dataset of {num_traces} traces ...")
    with tempfile.TemporaryDirectory() as workdir:
        raw_dir = os.path.join(workdir, "raw")
        sorted_dir = os.path.join(workdir, "sorted")
        dataset = generate_dataset(model, num_traces, directory=raw_dir, records_per_shard=20, rng=rng)
        stats = collect_address_statistics(dataset)
        print(f"  {stats['num_traces']} traces, {stats['num_unique_addresses']} unique addresses, "
              f"{stats['num_trace_types']} trace types, lengths {stats['min_length']}-{stats['max_length']}")

        print("sorting by trace type and regrouping into larger shard files ...")
        order = sorted_indices_by_trace_type(dataset)
        dataset = regroup_dataset(dataset, sorted_dir, records_per_shard=50, order=order)
        print(f"  {dataset.store.num_shards} shard files of up to 50 traces")

        # ---- 2-3. network + distributed training -------------------------------------
        config = Config(
            observation_shape=model.observation_shape,
            lstm_hidden=32, observation_embedding_dim=16, address_embedding_dim=8,
            sample_embedding_dim=4, proposal_mixture_components=3,
        )
        network = InferenceNetwork(config=config, observe_key="detector", rng=rng)
        num_ranks = 4
        iterations = 20
        trainer = DistributedTrainer(
            network, dataset,
            num_ranks=num_ranks, local_minibatch_size=8,
            larc=True,
            lr_schedule="poly2", total_iterations_hint=iterations,
            learning_rate=3e-3, end_learning_rate=1e-4,
            validation_fraction=0.15, seed=7,
        )
        print(f"\ntraining on {num_ranks} ranks in forked rank processes "
              f"(global minibatch {trainer.report.traces_per_iteration}, "
              f"{network.num_parameters():,} parameters) ...")
        report = trainer.train(iterations, validate_every=5)

        print(f"  train loss {report.train_losses[0]:.2f} -> {report.train_losses[-1]:.2f}")
        print(f"  validation loss {report.validation_losses[0]:.2f} -> {report.validation_losses[-1]:.2f}")
        print(f"  wall-clock throughput {report.mean_throughput:.1f} traces/s "
              f"(modelled perfectly balanced {report.best_throughput:.1f}, "
              f"load imbalance {report.load_imbalance_percent:.1f}%)")
        sync_share = report.phase_means["sync"] / sum(report.phase_means.values())
        print(f"  measured sync share of a step (wait at the join + averaging): {sync_share:.2f}")
        print(f"  mean effective minibatch size {np.mean(report.effective_minibatch_sizes):.1f} "
              f"of {trainer.report.traces_per_iteration}")
        sync = report.communication[-1]
        print(f"  last allreduce (counted): {sync.num_calls} collective calls, {sync.bytes / 1e6:.2f} MB")

    # ---- 4. projected scaling (Table 2 / Figure 6) -------------------------------------
    print("\nprojecting to the paper's platforms with the calibrated performance model (modelled):")
    single_socket = report.mean_throughput / 2  # 2 ranks per node in the paper's setup
    node_model = SingleNodeModel(reference_platform="HSW", measured_traces_per_s=single_socket)
    for code in ("IVB", "HSW", "SKL"):
        print(f"  {code}: {node_model.throughput(code, 1):.1f} traces/s per socket "
              f"({node_model.throughput(code, 2):.1f} per node)")
    for cluster in (CORI, EDISON):
        perf = ClusterPerformanceModel(cluster, single_node_model=node_model,
                                       local_minibatch_size=64, rng=RandomState(1))
        point = perf.weak_scaling([1024], iterations=10)[0]
        print(f"  {cluster.name} at 1,024 nodes: {point.average_traces_per_s:,.0f} traces/s average "
              f"(ideal {point.ideal_traces_per_s:,.0f}, efficiency {point.efficiency:.2f})")


if __name__ == "__main__":
    main()
