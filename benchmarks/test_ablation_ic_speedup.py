"""Ablation (Section 6.4): IC inference speed-up over the RMH baseline.

The paper reports that a 2M-trace IC run completed in 30 minutes on 24 nodes
versus 115 hours for the 7.68M-trace RMH result — a 230x speed-up for a
comparable posterior.  Two effects combine to produce it:

1. **statistical efficiency** — every IC trace is an independent draw from the
   proposal, whereas RMH samples are strongly autocorrelated (the paper
   measures ~1e5 iterations per effectively independent trace), so RMH needs
   far more *simulator executions* per effective posterior sample; and
2. **parallelism** — IC importance sampling is embarrassingly parallel while
   an RMH chain is inherently sequential.

On the mini-Sherpa substrate the simulator itself is so cheap that raw
wall-clock comparisons are dominated by the (Python) NN overhead rather than
by simulator cost, which inverts the paper's regime.  The bench therefore
measures the transferable quantity — simulator executions per effective
sample for each engine — and prices executions at a Sherpa-like per-event
cost to report the wall-clock speed-up in the paper's regime, alongside the
raw measured numbers.
"""

import time

import numpy as np

from repro.common.rng import RandomState
from repro.ppl.inference import RandomWalkMetropolis, effective_sample_size

from benchmarks.conftest import print_table

RMH_SAMPLES = 1500
RMH_CHAINS = 5
IC_SAMPLES = 150
PARALLEL_RANKS = 48          # the paper's IC run used 24 dual-socket HSW nodes
SHERPA_COST_PER_EXECUTION = 0.1  # seconds per simulated event at Sherpa scale


def test_ablation_ic_speedup_over_rmh(benchmark, tau_model, tau_observation, trained_ic_engine):
    _, observation = tau_observation
    conditioned = {"detector": observation}

    # --- RMH: sequential, autocorrelated ---------------------------------------
    # The autocorrelation-ESS estimate of one 1500-sample chain swings ~4-22
    # with the chain's seed (70-540 executions per effective sample), so the
    # comparison uses the median chain of RMH_CHAINS, not one seed's draw.
    start = time.perf_counter()
    rmh_ess_per_chain = []
    for chain in range(RMH_CHAINS):
        sampler = RandomWalkMetropolis(tau_model, conditioned, burn_in=200)
        rmh_posterior = sampler.run(RMH_SAMPLES, rng=RandomState(31 + chain))
        rmh_ess_per_chain.append(effective_sample_size([t["px"] for t in rmh_posterior.values]))
    rmh_wall_time = (time.perf_counter() - start) / RMH_CHAINS
    rmh_ess = max(float(np.median(rmh_ess_per_chain)), 1.0)
    rmh_executions = sampler.num_executions
    rmh_exec_per_eff = rmh_executions / rmh_ess

    # --- IC: amortized importance sampling with the trained network -------------
    start = time.perf_counter()
    ic_posterior = benchmark.pedantic(
        trained_ic_engine.posterior,
        args=(tau_model, conditioned),
        kwargs={"num_traces": IC_SAMPLES, "rng": RandomState(32)},
        iterations=1,
        rounds=1,
    )
    ic_wall_time = time.perf_counter() - start
    ic_ess = max(ic_posterior.effective_sample_size(), 1.0)
    ic_exec_per_eff = IC_SAMPLES / ic_ess
    ic_overhead_per_trace = ic_wall_time / IC_SAMPLES  # NN + bookkeeping cost per trace

    # --- price executions at Sherpa cost (the paper's regime) -------------------
    rmh_time_at_scale = rmh_exec_per_eff * SHERPA_COST_PER_EXECUTION  # sequential chain
    ic_time_at_scale = (
        ic_exec_per_eff * (SHERPA_COST_PER_EXECUTION + ic_overhead_per_trace) / PARALLEL_RANKS
    )
    speedup_at_scale = rmh_time_at_scale / ic_time_at_scale
    statistical_advantage = rmh_exec_per_eff / ic_exec_per_eff

    print_table(
        "Ablation: RMH vs IC inference for the same observation",
        ["engine", "wall time (s)", "simulator executions", "ESS", "executions per effective sample"],
        [
            [f"RMH (median of {RMH_CHAINS} chains)", f"{rmh_wall_time:.1f}", rmh_executions, f"{rmh_ess:.1f}", f"{rmh_exec_per_eff:.1f}"],
            ["IC (1 rank)", f"{ic_wall_time:.1f}", IC_SAMPLES, f"{ic_ess:.1f}", f"{ic_exec_per_eff:.1f}"],
        ],
    )
    print(
        f"statistical advantage (RMH/IC executions per effective sample): {statistical_advantage:.1f}x; "
        f"modelled wall-clock speed-up at Sherpa per-event cost ({SHERPA_COST_PER_EXECUTION}s) "
        f"with {PARALLEL_RANKS} parallel IC ranks: {speedup_at_scale:.0f}x (paper: 230x)"
    )

    # Shape assertions: IC needs no more simulator executions per effective
    # sample than RMH (usually far fewer), and in the paper's cost regime the
    # combined statistical + parallel advantage is at least an order of
    # magnitude.  We do not require the exact 230x.
    assert ic_exec_per_eff <= rmh_exec_per_eff * 1.2
    assert speedup_at_scale > 10.0
    # Amortization: the trained engine can be reused for a second observation
    # without retraining (just another cheap IS run).
    second = trained_ic_engine.posterior(tau_model, conditioned, num_traces=20, rng=RandomState(33))
    assert len(second) == 20
