"""Per-layer metrics, measured from outside the layers.

This change touches nothing under ``src/``, so every number here comes from
one of three places: a public counter surface read at the edges of the timed
window (``PosteriorService.stats()``, ``DistributedTrainer.phase_timer`` /
``.report``, transport byte counters), a span the benchmark recorded around
its own call into a layer, or a *probe* — a short timing of one public layer
function on the run's own inputs, taken after the timed window.  Metric names
are final (later issues cite them); the prefix names the layer.  Values
labelled *computed* are derived from sizes or counts, not timed.
"""

from __future__ import annotations

import copy
import os
import pickle
import threading
import time
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro.common.rng import RandomState
from repro.data import TraceDataset
from repro.data.packing import PackedEpochPlan, pack_minibatch
from repro.distributions.batched import BatchedCategorical, BatchedMixtureOfTruncatedNormals
from repro.ppl.inference.batched import (
    TraceJob,
    execute_trace_jobs,
    mixed_batched_importance_sampling,
    per_trace_rngs,
)
from repro.ppl.inference.plans import PlanCache, bucket_size_for, compile_plan
from repro.distributions.geometry import prior_signature
from repro.ppx.messages import ObserveRequest, Run, RunResult, SampleRequest, SampleResult
from repro.ppx.serialization import decode_message, encode_message
from repro.serving import ProcessCohortPool, observation_fingerprint
from repro.tensor import Tensor, no_grad, optim
from repro.tensor.nn.conv import Conv3d

PROBE_REPEATS = 9


def median_s(fn: Callable[[], Any], repeats: int = PROBE_REPEATS) -> float:
    """Median wall time of ``fn`` over ``repeats`` calls after one warm call."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def delta(measurement, *path: str) -> float:
    """Change of one ``service.stats()`` counter across the timed window."""
    before, after = measurement.extra["before"], measurement.extra["after"]
    for key in path:
        before, after = before.get(key, 0), after.get(key, 0)
    return after - before


# ------------------------------------------------------------------- repro.serving
def serving_counters(measurement) -> Dict[str, float]:
    after = measurement.extra["after"]
    lookups = delta(measurement, "cache_hits") + delta(measurement, "cache_misses")
    return {
        "serving.cohort_exec_s": delta(measurement, "scheduler_phase_totals_s", "cohort_execution"),
        # Window reservoirs of the service's lifetime (they include the warm-up cohorts).
        "serving.mean_cohort_occupancy": after["mean_cohort_occupancy"],
        "serving.mixed_cohort_fraction": after["mixed_cohort_fraction"],
        "serving.cache_hit_rate": ratio(delta(measurement, "cache_hits"), lookups),
        "serving.shed_share": ratio(
            delta(measurement, "shed_deadline") + delta(measurement, "rejected_overload"),
            delta(measurement, "submitted"),
        ),
    }


def cache_lookup(service, observations: Sequence[Dict[str, Any]], num_traces: int) -> Dict[str, float]:
    """Fingerprint + cache probe on workload observations (read after the window's counters)."""

    def lookup_all() -> None:
        for observation in observations:
            key = observation_fingerprint(observation, "probe", num_traces)
            service.cache.lookup(key, record_miss=False)

    return {"serving.cache_lookup_us": 1e6 * median_s(lookup_all) / len(observations)}


def trace_jobs(requests, observe_key: str, num_traces: int) -> List[List[TraceJob]]:
    """One shard of seeded trace jobs per request, derived as the service derives them."""
    shards = []
    for index, (observation, seed) in enumerate(requests):
        array = np.asarray(observation[observe_key], dtype=float)
        shards.append(
            [
                TraceJob(index, observation, array, rng)
                for rng in per_trace_rngs(RandomState(seed), num_traces)
            ]
        )
    return shards


def procpool(model, network, requests, num_traces: int) -> Dict[str, float]:
    """One cohort through a worker process minus the same jobs run in-process.

    Paired per cohort (identical jobs both ways), median of the differences:
    a cohort's own time varies far more with its traces than the round trip
    adds.  The first cohort warms the worker and both plan caches untimed.
    """
    observe_key = network.observe_key
    plans = PlanCache()
    differences, payload = [], []
    pool = ProcessCohortPool(model, network, num_workers=1, use_plans=True).start()
    try:
        for index, (jobs, again) in enumerate(
            zip(
                trace_jobs(requests[:1] + requests, observe_key, num_traces),
                trace_jobs(requests[:1] + requests, observe_key, num_traces),
            )
        ):
            done = threading.Event()
            outcome: List[Any] = []
            start = time.perf_counter()
            pool.submit(jobs, lambda _entries, traces, error: (outcome.extend([traces, error]), done.set()))
            if not done.wait(timeout=120) or outcome[1] is not None:
                raise RuntimeError(f"procpool probe cohort failed: {outcome[1:]!r}")
            remote_s = time.perf_counter() - start
            start = time.perf_counter()
            execute_trace_jobs(model, again, network, plan_cache=plans)
            local_s = time.perf_counter() - start
            if index >= 1:
                differences.append(remote_s - local_s)
                payload.append(len(pickle.dumps(jobs)) + len(pickle.dumps(outcome[0])))
    finally:
        pool.stop()
    return {
        "serving.procpool_roundtrip_ms": 1e3 * float(np.median(differences)),
        # computed: pickled size of the jobs sent plus the traces returned
        "serving.procpool_bytes_per_job": float(np.mean(payload)) / num_traces,
    }


# ------------------------------------------------------------- repro.ppl.inference
def engine_counters(measurement) -> Dict[str, float]:
    rounds = delta(measurement, "engine", "num_rounds")
    steps = delta(measurement, "engine", "num_proposal_steps")
    return {
        "engine.proposal_steps_per_s": ratio(steps, measurement.wall_s),
        # share of lockstep rounds served by a compiled plan (not lease hits:
        # a leased plan that diverges mid-cohort finishes on the dynamic path)
        "engine.plan_hit_rate": ratio(delta(measurement, "engine", "num_planned_rounds"), rounds),
        "engine.divergent_round_share": ratio(delta(measurement, "engine", "num_divergent_rounds"), rounds),
        "engine.fallback_share": ratio(delta(measurement, "engine", "num_fallbacks"), steps),
        "engine.obs_embeddings_per_cohort": ratio(
            delta(measurement, "engine", "num_observation_embeddings"),
            delta(measurement, "engine", "num_cohorts"),
        ),
    }


def direct_engine(model, network, observe_key, requests, num_traces, max_batch, measurement) -> Dict[str, float]:
    """The same requests run straight through the engine in full cohorts, one caller.

    ``serving.overhead_share`` extrapolates that per-trace cost to every trace
    the service executed in the window: 1 - direct time / service wall.  It
    can be negative where the service's parallel workers beat one caller.
    """
    plans = PlanCache()

    def run_all() -> None:
        mixed_batched_importance_sampling(
            model, [(observation, num_traces, RandomState(seed)) for observation, seed in requests],
            batch_size=max_batch, network=network, observe_key=observe_key, plan_cache=plans,
        )

    direct_traces_per_s = len(requests) * num_traces / median_s(run_all, repeats=2)
    executed = delta(measurement, "traces_executed")
    return {
        "engine.direct_traces_per_s": direct_traces_per_s,
        "serving.overhead_share": 1.0 - ratio(executed / direct_traces_per_s, measurement.wall_s),
    }


def plan_compile(network, traces, num_traces: int) -> Dict[str, float]:
    """Compile time of the run's most common trace type at the request's bucket."""
    by_type: Dict[str, List[Any]] = {}
    for trace in traces:
        by_type.setdefault(trace.trace_type, []).append(trace)
    trace_type, group = max(by_type.items(), key=lambda item: len(item[1]))
    steps = [s for s in group[0].samples if s.controlled and s.distribution is not None]
    exemplar = [(s.address, s.distribution) for s in steps]
    static = [prior_signature(s.distribution) is not None for s in steps]
    bucket = bucket_size_for(num_traces)
    seconds = median_s(lambda: compile_plan(network, trace_type, exemplar, static, bucket))
    return {"engine.plan_compile_ms": 1e3 * seconds}


def posterior_quality(records, num_traces: int, wall_s: float) -> Dict[str, float]:
    ess = [record.ess for record in records]
    return {
        "quality.ess_per_trace": float(np.mean(ess)) / num_traces,
        "quality.ess_per_s": float(np.sum(ess)) / wall_s,
    }


# ------------------------------------------------------- repro.ppl.nn / repro.tensor
def nn_inference(network, observations: np.ndarray, trace, batch: int) -> Dict[str, float]:
    """Embedding of one cohort's observations; one LSTM step + proposal emission at ``batch``."""
    step = next(
        s for s in trace.samples
        if s.controlled and s.distribution is not None and s.address in network.proposal_layers
    )
    with no_grad():
        embed_s = median_s(lambda: network.observation_embedding(Tensor(observations)))
        rows = network.observation_embedding(Tensor(observations)).data
        obs_embed = Tensor(np.resize(rows, (batch, rows.shape[1])))
        state = network.lstm.initial_state(batch)
        previous = Tensor(np.zeros((batch, network.sample_dim)))

        def lstm_input() -> Tensor:
            return Tensor.cat([obs_embed, network.address_embeddings[step.address](batch), previous], axis=1)

        def proposal_step() -> None:
            hidden, _ = network.lstm.step(lstm_input(), state)
            network.proposal_layers[step.address].proposal_batch(hidden, [step.distribution] * batch)

        fixed_input = lstm_input()
        return {
            "nn.obs_embed_ms": 1e3 * embed_s,
            "nn.proposal_step_ms": 1e3 * median_s(proposal_step),
            "tensor.lstm_step_ms": 1e3 * median_s(lambda: network.lstm.step(fixed_input, state)),
        }


def lstm_step(network, batch: int) -> Dict[str, float]:
    width = network.obs_dim + network.address_dim + network.sample_dim
    with no_grad():
        state = network.lstm.initial_state(batch)
        fixed_input = Tensor(np.zeros((batch, width)))
        return {"tensor.lstm_step_ms": 1e3 * median_s(lambda: network.lstm.step(fixed_input, state))}


def conv3d(network, observations: np.ndarray) -> Dict[str, float]:
    """Every Conv3d of the observation embedding, each timed on its real input shape."""
    x = Tensor(observations.reshape(observations.shape[0], 1, *observations.shape[1:]))
    forward_s = backward_s = flops = 0.0
    for module in network.observation_embedding.network:
        if isinstance(module, Conv3d):
            layer_input = Tensor(x.data, requires_grad=True)

            def forward_backward() -> None:
                module.zero_grad()
                module(layer_input).sum().backward()

            layer_forward_s = median_s(lambda: module(layer_input))
            forward_s += layer_forward_s
            backward_s += max(0.0, median_s(forward_backward) - layer_forward_s)
        with no_grad():
            x = module(x)
        if isinstance(module, Conv3d):
            # computed: 2 * output elements * (C_in * kernel volume) multiply-adds
            flops += 2.0 * x.data.size * module.in_channels * float(np.prod(module.kernel_size))
    return {
        "tensor.conv3d_fwd_ms": 1e3 * forward_s,
        "tensor.conv3d_bwd_ms": 1e3 * backward_s,
        "tensor.conv3d_flops": flops,
    }


def training_step(network, traces, observe_key: str) -> Dict[str, float]:
    """Loss forward, backward and one Adam step on one minibatch (on a copy of the network)."""
    network = copy.deepcopy(network)
    optimizer = optim.Adam(list(network.named_parameters()), lr=1e-4)
    pack_s = median_s(lambda: pack_minibatch(traces, observe_key=observe_key))
    packs = pack_minibatch(traces, observe_key=observe_key)
    forward, backward, step = [], [], []
    for _ in range(PROBE_REPEATS):
        optimizer.zero_grad()
        start = time.perf_counter()
        loss = network.loss_packed(packs)
        mid = time.perf_counter()
        loss.backward()
        after_backward = time.perf_counter()
        optimizer.step()
        step.append(time.perf_counter() - after_backward)
        forward.append(mid - start)
        backward.append(after_backward - mid)
    return {
        "nn.loss_fwd_ms": 1e3 * float(np.median(forward)),
        "nn.loss_bwd_ms": 1e3 * float(np.median(backward)),
        "tensor.optimizer_step_ms": 1e3 * float(np.median(step)),
        "data.pack_build_ms_per_minibatch": 1e3 * pack_s,
    }


def check_packed_loss(network, dataset, observe_key: str, minibatch: int) -> List[str]:
    """The packed loss must equal the per-object reference loss on a probe minibatch."""
    traces = dataset.get_batch(range(minibatch))
    with no_grad():
        packed = network.loss_packed(pack_minibatch(traces, observe_key=observe_key)).item()
        network.vectorized_loss = False
        try:
            reference = network.loss(traces).item()
        finally:
            network.vectorized_loss = True
    if not np.isclose(packed, reference, rtol=1e-9, atol=0.0):
        return [f"packed loss {packed!r} differs from the reference loss {reference!r}"]
    return []


# -------------------------------------------------------------- repro.distributions
def distributions(generator: np.random.Generator, batch: int = 32, components: int = 3) -> Dict[str, float]:
    """Row sampling and scoring of the two proposal families at B=32 (mean of both)."""
    locs = generator.normal(size=(batch, components))
    scales = np.abs(generator.normal(size=(batch, components))) + 0.1
    weights = np.abs(generator.normal(size=(batch, components))) + 0.05
    mixture = BatchedMixtureOfTruncatedNormals(
        locs, scales, weights, locs.min(axis=1) - 1.0, locs.max(axis=1) + 1.0
    )
    probs = generator.dirichlet(np.ones(5), size=batch)
    categorical = BatchedCategorical(probs)
    rngs = [RandomState(int(seed)) for seed in generator.integers(0, 2**31 - 1, size=batch)]
    sample_s = log_prob_s = 0.0
    for family in (mixture, categorical):
        values = family.sample_rows(rngs)
        sample_s += median_s(lambda: family.sample_rows(rngs))
        log_prob_s += median_s(lambda: family.log_prob_rows(values))
    return {
        "dist.sample_rows_us_per_row": 1e6 * sample_s / (2 * batch),
        "dist.log_prob_rows_us_per_row": 1e6 * log_prob_s / (2 * batch),
    }


# ------------------------------------------------------ repro.simulators / repro.trace
def prior_trace_ms(model, seed: int, count: int = 50) -> float:
    rng = RandomState(seed)
    model.prior_trace(rng)
    start = time.perf_counter()
    for _ in range(count):
        model.prior_trace(rng)
    return 1e3 * (time.perf_counter() - start) / count


def trace_shape(traces) -> Dict[str, float]:
    return {
        "trace.mean_length": float(np.mean([trace.length for trace in traces])),
        "trace.num_trace_types": float(len({trace.trace_type for trace in traces})),
    }


# ---------------------------------------------------------------------- repro.ppx
def ppx(measurement, local_trace_ms: float) -> Dict[str, float]:
    # computed: Run + RunResult, and a request/reply pair per sample and observe statement
    messages_per_trace = float(np.mean([2 + 2 * statements for _, _, statements in measurement.extra["shapes"]]))
    trace = measurement.extra["first_trace"]
    messages = [Run(), RunResult(result=0)]
    for sample in trace.samples:
        messages.append(
            SampleRequest(
                address=sample.address, distribution=sample.distribution.to_dict(),
                name=sample.name, control=sample.controlled,
            )
        )
        messages.append(SampleResult(value=sample.value))
    for observed in trace.observes:
        messages.append(
            ObserveRequest(
                address=observed.address, distribution=observed.distribution.to_dict(),
                value=np.asarray(observed.value), name=observed.name,
            )
        )
    encoded = [encode_message(message) for message in messages]
    encode_s = median_s(lambda: [encode_message(message) for message in messages])
    decode_s = median_s(lambda: [decode_message(data) for data in encoded])
    remote_ms = 1e3 * float(np.median(measurement.latencies_s))
    return {
        "ppx.msgs_per_trace": messages_per_trace,
        "ppx.bytes_per_trace": measurement.extra["ppx_bytes"] / measurement.traces,
        "ppx.encode_us_per_msg": 1e6 * encode_s / len(messages),
        "ppx.decode_us_per_msg": 1e6 * decode_s / len(messages),
        "ppx.roundtrip_us_per_msg": 1e3 * (remote_ms - local_trace_ms) / messages_per_trace,
    }


# ---------------------------------------------------------------------- repro.data
def dataset_write(directory: str, tracer, num_traces: int) -> Dict[str, float]:
    totals = tracer.totals()
    write_s = totals["dataset.add_trace"]["total_s"] + totals["dataset.flush"]["total_s"]
    size = sum(os.path.getsize(os.path.join(directory, name)) for name in os.listdir(directory))
    return {
        "data.write_ms_per_trace": 1e3 * write_s / num_traces,
        "data.write_bytes_per_trace": size / num_traces,
    }


def dataset_read(directory: str) -> Dict[str, float]:
    """Cold read of every trace in trace-type-sorted order through a fresh handle."""
    dataset = TraceDataset(directory)
    order = sorted(range(len(dataset)), key=lambda i: (dataset.trace_type_of(i), dataset.trace_length_of(i), i))
    start = time.perf_counter()
    dataset.get_batch(order)
    return {"data.read_ms_per_trace": 1e3 * (time.perf_counter() - start) / len(order)}


def packed_pipeline(traces, minibatch: int, observe_key: str, measurement, read_ms_per_trace: float) -> Dict[str, float]:
    """Pack-cache hit rate and data-wait share of the single-process trainer.

    The trainer builds its ``PackedEpochPlan`` inside ``train()``, out of
    reach; an identical plan built here gives the cold and warm cost of
    fetching one minibatch.  Each epoch visits every minibatch once, so the
    first ``num_minibatches`` visits miss the pack cache and the rest hit —
    both numbers are computed from that, not observed inside the trainer.
    """
    plan = PackedEpochPlan(traces, minibatch, observe_key=observe_key)

    def epoch_s() -> float:
        start = time.perf_counter()
        for batch_id in range(plan.num_minibatches):
            plan.minibatch(batch_id)
            plan.packs(batch_id)
        return (time.perf_counter() - start) / plan.num_minibatches

    cold_s, warm_s = epoch_s(), epoch_s()
    visits = measurement.attempted
    misses = min(visits, plan.num_minibatches)
    wait_s = misses * cold_s + (visits - misses) * warm_s + 1e-3 * read_ms_per_trace * len(traces)
    return {
        "data.pack_cache_hit_rate": ratio(visits - misses, visits),
        "data.minibatch_wait_share": ratio(wait_s, measurement.wall_s),
    }


# --------------------------------------------------------------- repro.distributed
#: DistributedTrainer phase -> span name / phase_share suffix
PHASES = (("batch_read", "read"), ("forward_backward", "forward_backward"), ("sync", "sync"), ("optimizer", "optimize"))


def record_phase_spans(tracer, records) -> None:
    """Lay each iteration's measured phases end to end inside its root span.

    The trainer reports phase *durations* (slowest rank), not start times, so
    the child spans are placed back to back from the iteration's start and
    clipped to it; their durations, not their offsets, are the measurement.
    """
    if not tracer.enabled:
        return
    roots = [span for span in tracer.spans if span.name == "iteration"]
    for root, record in zip(roots, records):
        cursor = root.start
        for phase, label in PHASES:
            end = min(root.end, cursor + record.phases.get(phase, 0.0))
            tracer.record(f"trainer.{label}", cursor, end, root.id, root.request_id)
            cursor = end


def distributed(trainer, measurement, probes: Dict[str, float]) -> Dict[str, float]:
    iterations = measurement.attempted
    records = trainer.phase_timer.records[-iterations:]
    report = trainer.report
    phase_s = {phase: sum(record.phases.get(phase, 0.0) for record in records) for phase, _ in PHASES}
    total_s = sum(phase_s.values())
    actual = sum(report.iteration_times[-iterations:])
    best = sum(report.best_iteration_times[-iterations:])
    # The trainer times forward+backward as one phase; split it by the probe's ratio.
    forward_share = ratio(probes["nn.loss_fwd_ms"], probes["nn.loss_fwd_ms"] + probes["nn.loss_bwd_ms"])
    compute = ratio(phase_s["forward_backward"], total_s)
    return {
        "dtrain.allreduce_ms_per_iter": 1e3 * phase_s["sync"] / iterations,
        # computed: elements reduced x 4 bytes (CommunicationStats)
        "dtrain.allreduce_bytes_per_iter": float(
            np.mean([stats.bytes for stats in report.communication[-iterations:]])
        ),
        "dtrain.load_imbalance_pct": 100.0 * ratio(actual - best, best),
        "dtrain.phase_share.read": ratio(phase_s["batch_read"], total_s),
        "dtrain.phase_share.forward": compute * forward_share,
        "dtrain.phase_share.backward": compute * (1.0 - forward_share),
        "dtrain.phase_share.optimize": ratio(phase_s["optimizer"], total_s),
        "dtrain.phase_share.sync": ratio(phase_s["sync"], total_s),
        "data.minibatch_wait_share": ratio(phase_s["batch_read"], total_s),
        # every rank call re-packs its minibatch: there is no pack cache on this path
        "data.pack_cache_hit_rate": 0.0,
    }
