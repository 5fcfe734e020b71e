"""The paper's headline use case: inverting the tau-decay + detector pipeline.

A mini-Sherpa simulator generates a tau lepton, decays it through the decay
table, and deposits the visible products in a 3D voxel calorimeter.  Given one
observed calorimeter image we then ask: what tau momentum, decay channel and
final-state energies produced it?

Three engines are compared, as in Section 6.4 / Figure 8:

* prior importance sampling (the naive baseline),
* RMH — the MCMC reference posterior,
* inference compilation (IC) — a 3DCNN-LSTM proposal network trained once on
  prior simulations, then reused for fast amortized inference.

Run with::

    python examples/tau_decay_inference.py            # scaled-down defaults (~2 min)
    python examples/tau_decay_inference.py --quick    # smoke-test sizes
"""

import argparse
import time

import numpy as np

from repro import seed_all
from repro.common.config import Config
from repro.common.rng import RandomState
from repro.ppl.inference import RandomWalkMetropolis, batched_importance_sampling
from repro.ppl.inference.inference_compilation import InferenceCompilation
from repro.simulators import TauDecayModel, branching_ratios, channel_names, ground_truth_event


def summarize(label, posterior, ground_truth, weighted=True):
    """One line per posterior; a weighted (importance-sampled) one also shows
    the Kish effective sample size of its weights out of its trace count."""
    px = posterior.extract("px")
    py = posterior.extract("py")
    channel_probs = posterior.extract("channel").categorical_probabilities()
    true_channel = int(ground_truth["channel"])
    ess = f"  ESS={posterior.effective_sample_size():.1f}/{len(posterior)}" if weighted else ""
    print(f"  {label:22s} px={px.mean:+.2f}+/-{px.stddev:.2f}  py={py.mean:+.2f}+/-{py.stddev:.2f}  "
          f"P(true channel)={channel_probs.get(true_channel, 0.0):.2f}{ess}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="tiny sizes for a fast smoke run")
    parser.add_argument("--training-traces", type=int, default=None)
    args = parser.parse_args()

    seed_all(1)
    rng = RandomState(1)
    model = TauDecayModel()

    training_traces = args.training_traces or (400 if args.quick else 2400)
    rmh_samples = 500 if args.quick else 4000
    ic_samples = 50 if args.quick else 300

    # ---- a test observation with known ground truth ------------------------------
    ground_truth, observation = ground_truth_event(
        overrides={"px": 1.2, "py": -0.8, "pz": 45.5, "channel": 1}, rng=RandomState(99)
    )
    true_channel = int(ground_truth["channel"])
    print("ground truth event:")
    print(f"  px={ground_truth['px']:+.2f}  py={ground_truth['py']:+.2f}  pz={ground_truth['pz']:.2f}")
    print(f"  channel {true_channel} ({channel_names()[true_channel]}), "
          f"FSP energies {ground_truth['fsp_energy_1']:.1f}/{ground_truth['fsp_energy_2']:.1f} GeV, "
          f"MET {ground_truth['met']:.2f}")
    conditioned = {"detector": observation}

    # ---- baseline: prior importance sampling --------------------------------------
    print("\nrunning prior importance sampling (baseline) ...")
    prior_is = batched_importance_sampling(model, conditioned, num_traces=ic_samples * 4, rng=rng)

    # ---- reference: RMH MCMC -------------------------------------------------------
    print(f"running RMH for {rmh_samples} samples (the reference posterior) ...")
    start = time.time()
    sampler = RandomWalkMetropolis(model, conditioned, burn_in=rmh_samples // 4)
    rmh_posterior = sampler.run(rmh_samples, rng=rng)
    rmh_time = time.time() - start
    print(f"  RMH took {rmh_time:.1f}s, acceptance rate {sampler.acceptance_rate:.2f}")

    # ---- amortized: inference compilation ------------------------------------------
    config = Config(
        observation_shape=model.observation_shape,
        lstm_hidden=32, observation_embedding_dim=16, address_embedding_dim=8,
        sample_embedding_dim=4, proposal_mixture_components=3,
    )
    engine = InferenceCompilation(config=config, observe_key="detector", rng=rng)
    print(f"\ntraining the IC proposal network on {training_traces} prior simulations ...")
    start = time.time()
    history = engine.train(model, num_traces=training_traces, minibatch_size=16,
                           learning_rate=3e-3, lr_schedule="poly2", end_learning_rate=1e-4)
    print(f"  training took {time.time() - start:.1f}s; loss {history.losses[0]:.2f} -> {history.losses[-1]:.2f}; "
          f"{engine.network.num_parameters():,} parameters across {engine.network.num_addresses} addresses")

    print(f"running amortized IC inference ({ic_samples} traces) ...")
    start = time.time()
    ic_posterior = engine.posterior(model, conditioned, num_traces=ic_samples, rng=rng)
    ic_time = time.time() - start
    print(f"  IC inference took {ic_time:.1f}s (amortized: reusable for any new observation)")

    # ---- the Figure 8 comparison ----------------------------------------------------
    print("\nposterior comparison (truth: px=%+.2f, py=%+.2f, channel=%d):" %
          (ground_truth["px"], ground_truth["py"], true_channel))
    summarize("prior IS", prior_is, ground_truth)
    summarize("RMH reference", rmh_posterior, ground_truth, weighted=False)
    summarize("IC (amortized)", ic_posterior, ground_truth)
    print(f"\nprior P(channel={true_channel}) = {branching_ratios()[true_channel]:.2f}")
    print("ESS is the Kish effective sample size of the importance weights: near 1, one "
          "trace carries the weight and the +/- spreads above mean nothing.")


if __name__ == "__main__":
    main()
