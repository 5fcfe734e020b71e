"""Compiled trace-type execution plans: the lockstep engine's plan cache.

The paper's premise is that inference compilation amortises work across many
executions of the same simulator, and serving traffic concentrates on a few
hot trace types.  This module applies the TensorRT-runtime playbook (plan
cache, dynamic-shape bucketing, pre-allocated outputs) to guided execution.
Dynamic rounds have since taken the per-group shortcuts without a plan
(:meth:`repro.ppl.nn.inference_network.BatchedProposalSession.proposals`):
a plan hit now reads ≈ 1.03x a dynamic round on a hot trace type, and plans
are slated for deletion.  What a plan is:

* :func:`compile_plan` turns one observed trace type into an immutable
  :class:`EnginePlan` — the address order, per-step precompiled geometry /
  smoothing vectors / address-embedding rows, and the shape information the
  scratch buffers are sized from.
* :class:`PlanScratch` pre-allocates the ``(B_max, ...)`` buffers a planned
  cohort writes into (LSTM input, batched-distribution parameters via the
  ``build_into`` constructors of :mod:`repro.distributions.batched`), reused
  across cohorts instead of reallocated per step.
* :class:`PlanCache` owns the compiled plans at runtime: cohort sizes are
  rounded up to a small set of **bucket sizes** so a B=3 request is served by
  the B=4 plan (prefix rows) rather than compiling per-B; plans are
  invalidated wholesale when ``InferenceNetwork.version`` changes (wired
  through the same update listeners as the serving ``PosteriorCache``); and
  repeated mid-cohort divergences **demote** a trace type back to the dynamic
  path (a branchy model is not plannable).
* :class:`PlannedProposalSession` executes a cohort against a plan: while the
  cohort conforms, each round is one slot-ordered batched step with no
  per-round grouping, gather/scatter, or geometry derivation.  The first
  non-conforming round falls back to the dynamic grouped path of the parent
  class mid-cohort.  Either way the round's proposal values are drawn and
  scored driver-side by the parent's one answer tail
  (``BatchedProposalSession._answer_rows``).

**Equivalence gate.** The planned path is bit-identical to the dynamic path —
samples, log-weights and generator states — because every shortcut reuses the
exact expression it shortcuts: compiled geometry is
:func:`~repro.distributions.geometry.prior_geometry` of priors validated
exactly equal (:func:`~repro.distributions.geometry.prior_signature`), the
``build_into`` constructors mirror the batched ``__init__`` op-for-op, the
LSTM/embedding math is row-independent so slot order and full-batch stepping
change nothing, and both paths draw through the same ``sample_rows`` /
``log_prob_rows`` calls on the same per-slot streams.

``EnginePlan``/``PlanStep`` are frozen and must never be mutated outside this
module — enforced by ``repro.analysis``'s plan-mutation checker.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributions import Categorical
from repro.distributions.batched import BatchedCategorical, CategoricalScratch, MixtureScratch
from repro.distributions.geometry import PriorGeometry, prior_geometry, prior_signature
from repro.ppl.nn.inference_network import BatchedProposalSession, InferenceNetwork
from repro.ppl.nn.proposals import ProposalCategorical, ProposalNormalMixture
from repro.tensor import functional as F
from repro.tensor import no_grad
from repro.tensor.tensor import Tensor

__all__ = [
    "DEFAULT_BUCKET_SIZES",
    "EnginePlan",
    "PlanCache",
    "PlanScratch",
    "PlanStep",
    "PlannedProposalSession",
    "bucket_size_for",
    "compile_plan",
]

#: Cohort sizes plans are compiled at: a cohort of B leases the plan of the
#: smallest bucket >= B and uses its buffers' first B rows.  Above the top
#: bucket, sizes round up to the next multiple of it.
DEFAULT_BUCKET_SIZES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)


def bucket_size_for(batch_size: int, buckets: Sequence[int] = DEFAULT_BUCKET_SIZES) -> int:
    """Round a cohort size up to its plan bucket."""
    for bucket in buckets:
        if batch_size <= bucket:
            return int(bucket)
    top = int(buckets[-1])
    return ((int(batch_size) + top - 1) // top) * top


@dataclass(frozen=True)
class PlanStep:
    """One controlled draw of a compiled trace type.

    Frozen — plan steps are shared across cohorts and threads and must never
    be mutated after compilation (see the module docstring).
    """

    address: str
    #: the network has layers for this address; False = prior-fallback step
    known: bool
    #: proposal family: "mixture" | "categorical" | "fallback"
    kind: str
    #: exact prior fingerprint when every observed trace agreed (static step);
    #: None = dynamic priors, re-derive geometry per round
    signature: Optional[Tuple]
    #: precompiled (bucket,) geometry rows (static mixture steps only)
    geometry: Optional[PriorGeometry]
    #: precomputed ``0.01 * prior.probs`` (static categorical steps only)
    smooth_probs: Optional[np.ndarray]
    #: precomputed (bucket, addr_dim) address-embedding rows (known steps)
    addr_rows: Optional[np.ndarray]
    #: K (mixture components / categories) — sizes the step's scratch
    num_components: int
    #: the previous step advanced the LSTM and owns a sample embedding
    prev_known: bool
    prev_address: Optional[str]


@dataclass(frozen=True)
class EnginePlan:
    """Immutable compiled execution plan of one (trace type, bucket).

    Compiled once per :class:`PlanCache` entry and shared by every cohort the
    cache serves; all mutable per-cohort state lives in the leased
    :class:`PlanScratch` and the session.  Never mutate a plan outside
    ``plans.py`` — ``repro.analysis`` flags such writes.
    """

    trace_type: str
    bucket_size: int
    network_version: int
    lstm_input_dim: int
    sample_dim: int
    steps: Tuple[PlanStep, ...]


class PlanScratch:
    """Pre-allocated per-cohort buffers of one plan (leased, never shared).

    One scratch hosts one executing cohort at a time: the cache pools a few
    per plan so concurrent shards each lease their own.  Buffers are sized at
    the plan's bucket and served to smaller cohorts as row prefixes.
    """

    def __init__(self, plan: EnginePlan) -> None:
        bucket = plan.bucket_size
        self.plan = plan
        self.lstm_input = np.empty((bucket, plan.lstm_input_dim))
        #: all-zero previous-sample embedding input (read-only by convention)
        self.zero_prev = np.zeros((bucket, plan.sample_dim))
        self.mixture: Dict[int, MixtureScratch] = {}
        self.categorical: Dict[int, CategoricalScratch] = {}
        for index, step in enumerate(plan.steps):
            if step.signature is None:
                continue
            if step.kind == "mixture":
                self.mixture[index] = MixtureScratch(bucket, step.num_components)
            elif step.kind == "categorical":
                self.categorical[index] = CategoricalScratch(bucket, step.num_components)


def _step_kind(layer) -> Optional[str]:
    if isinstance(layer, ProposalNormalMixture):
        return "mixture"
    if isinstance(layer, ProposalCategorical):
        return "categorical"
    return None


def compile_plan(
    network: InferenceNetwork,
    trace_type: str,
    exemplar: Sequence[Tuple[str, Any]],
    static_flags: Sequence[bool],
    bucket: int,
) -> Optional[EnginePlan]:
    """Compile one (trace type, bucket) into an immutable :class:`EnginePlan`.

    ``exemplar`` holds the ``(address, prior)`` controlled draws of one
    observed trace of the type; ``static_flags[i]`` is True when every
    observed trace carried an exactly-equal prior at step ``i`` (so its
    geometry / smoothing can be precompiled — still validated per round).
    Returns ``None`` when the type is not plannable: an address is handled by
    a custom proposal-layer family the planner has no emission fast path for.
    """
    steps: List[PlanStep] = []
    prev_known = False
    prev_address: Optional[str] = None
    with no_grad():
        for index, (address, prior) in enumerate(exemplar):
            known = address in network.proposal_layers
            kind = "fallback"
            signature: Optional[Tuple] = None
            geometry: Optional[PriorGeometry] = None
            smooth_probs: Optional[np.ndarray] = None
            addr_rows: Optional[np.ndarray] = None
            num_components = 0
            if known:
                layer = network.proposal_layers[address]
                maybe_kind = _step_kind(layer)
                if maybe_kind is None:
                    return None
                kind = maybe_kind
                signature = prior_signature(prior) if static_flags[index] else None
                # Rows of an AddressEmbedding forward are replicas of one
                # learned vector, so the bucket-size precompute's first B rows
                # are exactly the dynamic path's size-B forward.
                addr_rows = network.address_embeddings[address](bucket).data
                if kind == "mixture":
                    num_components = layer.num_components
                    if signature is not None:
                        # Bitwise equal to deriving from the round's actual
                        # priors, because the signature match is exact.
                        geometry = prior_geometry([prior] * bucket)
                else:
                    num_components = layer.num_categories
                    if signature is not None and isinstance(prior, Categorical):
                        smooth_probs = 0.01 * prior.probs
                    else:
                        # Prior smoothing needs a Categorical prior; anything
                        # else goes through the dynamic emission per round.
                        signature = None
            steps.append(
                PlanStep(
                    address=address,
                    known=known,
                    kind=kind,
                    signature=signature,
                    geometry=geometry,
                    smooth_probs=smooth_probs,
                    addr_rows=addr_rows,
                    num_components=num_components,
                    prev_known=prev_known,
                    prev_address=prev_address,
                )
            )
            if known:
                # Mirrors the dynamic sessions: a known step records itself
                # as the previous step; a fallback resets the tracking.
                prev_known = address in network.sample_embeddings
                prev_address = address
            else:
                prev_known = False
                prev_address = None
    return EnginePlan(
        trace_type=trace_type,
        bucket_size=int(bucket),
        network_version=network.version,
        lstm_input_dim=network.obs_dim + network.address_dim + network.sample_dim,
        sample_dim=network.sample_dim,
        steps=tuple(steps),
    )


class _TraceTypeRecord:
    """Mutable per-trace-type bookkeeping inside the cache lock."""

    __slots__ = (
        "trace_type",
        "traces",
        "cohorts",
        "last_seen",
        "exemplar",
        "exemplar_sigs",
        "static_flags",
        "compilable",
        "divergences",
        "demoted",
        "plans",
    )

    def __init__(self, trace_type: str) -> None:
        self.trace_type = trace_type
        self.traces = 0
        self.cohorts = 0
        self.last_seen = 0
        self.exemplar: Optional[List[Tuple[str, Any]]] = None
        self.exemplar_sigs: Optional[List[Optional[Tuple]]] = None
        self.static_flags: Optional[List[bool]] = None
        self.compilable: Optional[bool] = None
        self.divergences = 0
        self.demoted = False
        self.plans: Dict[int, EnginePlan] = {}


class PlanCache:
    """Runtime cache of compiled execution plans, shared engine-to-serving.

    Thread-safe (thread-pool serving shards lease concurrently).  Lifecycle:

    1. **observe** — completed cohorts report their traces; the cache counts
       trace types, keeps an exemplar address/prior schedule per type, and
       refines per-step *static* flags (a step stays static while every
       observed prior matches exactly).
    2. **lease** — before a cohort runs, the engine asks for a plan at the
       cohort's bucket size.  A type observed at least ``hot_after`` cohorts
       is eligible; its plan is compiled on first lease per bucket and reused
       after.  Misses (cold cache, demoted/uncompilable types) return ``None``
       and the cohort runs the dynamic path.
    3. **divergence/demotion** — a planned cohort that stops conforming
       mid-plan falls back dynamically and reports where; ``demote_after``
       such mid-plan divergences demote the type (branchy model).  Divergence
       at step 0 is a mispredicted lease (different trace type), never
       demotes.
    4. **invalidate** — everything is dropped when the network retrains
       (``InferenceNetwork.version`` is checked at every lease/observe, and
       the serving layer also invalidates eagerly via update listeners).
    """

    def __init__(
        self,
        hot_after: int = 1,
        demote_after: int = 3,
        bucket_sizes: Sequence[int] = DEFAULT_BUCKET_SIZES,
        max_trace_types: int = 64,
        max_pool: int = 8,
    ) -> None:
        self._lock = threading.Lock()
        self._records: Dict[str, _TraceTypeRecord] = {}
        self._pools: Dict[Tuple[str, int], List[PlanScratch]] = {}
        self.hot_after = int(hot_after)
        self.demote_after = int(demote_after)
        self.bucket_sizes = tuple(int(b) for b in bucket_sizes)
        self.max_trace_types = int(max_trace_types)
        self.max_pool = int(max_pool)
        self._version_seen: Optional[int] = None
        self._clock = 0
        self.compiles = 0
        self.invalidations = 0

    # ------------------------------------------------------------ invalidation
    def invalidate(self) -> None:
        """Drop every record and compiled plan (network parameters changed)."""
        with self._lock:
            self._drop_all()

    def _drop_all(self) -> None:
        self._records.clear()
        self._pools.clear()
        self.invalidations += 1

    def _sync_version(self, network) -> None:
        version = getattr(network, "version", None)
        if version != self._version_seen:
            if self._version_seen is not None and self._records:
                self._drop_all()
            self._version_seen = version

    # ------------------------------------------------------------- observation
    def observe_traces(self, traces: Sequence[Any], network) -> None:
        """Record a completed cohort's traces (counts, exemplars, static flags)."""
        if network is None or not traces:
            return
        with self._lock:
            self._sync_version(network)
            self._clock += 1
            by_type: Dict[str, List[Any]] = {}
            for trace in traces:
                by_type.setdefault(trace.trace_type, []).append(trace)
            for trace_type, group in by_type.items():
                record = self._records.get(trace_type)
                if record is None:
                    if len(self._records) >= self.max_trace_types:
                        self._evict_coldest()
                    record = _TraceTypeRecord(trace_type)
                    self._records[trace_type] = record
                record.traces += len(group)
                record.cohorts += 1
                record.last_seen = self._clock
                if record.demoted or record.compilable is False or record.plans:
                    # Counting is enough: demoted/uncompilable types stay
                    # dynamic, and static flags freeze once a plan compiled
                    # (the per-round signature validation still guards them).
                    continue
                self._refine(record, group)

    def _refine(self, record: _TraceTypeRecord, group: Sequence[Any]) -> None:
        for trace in group:
            steps = [
                s for s in trace.samples if s.controlled and s.distribution is not None
            ]
            if record.exemplar is None:
                record.exemplar = [(s.address, s.distribution) for s in steps]
                record.exemplar_sigs = [prior_signature(s.distribution) for s in steps]
                record.static_flags = [sig is not None for sig in record.exemplar_sigs]
                continue
            flags = record.static_flags
            sigs = record.exemplar_sigs
            for i, s in enumerate(steps):
                if flags[i] and prior_signature(s.distribution) != sigs[i]:
                    flags[i] = False

    def _evict_coldest(self) -> None:
        coldest = min(self._records.values(), key=lambda r: r.last_seen)
        del self._records[coldest.trace_type]
        for key in [k for k in self._pools if k[0] == coldest.trace_type]:
            del self._pools[key]

    # ------------------------------------------------------------------ leasing
    def lease(self, network, batch_size: int) -> Optional[Tuple[EnginePlan, PlanScratch]]:
        """A ``(plan, scratch)`` lease for the predicted trace type, or ``None``.

        Prediction is by traffic mass: the hottest eligible (not demoted,
        compilable, observed >= ``hot_after`` cohorts) trace type.  A wrong
        prediction costs one divergent round at step 0 and a dynamic
        fallback — never wrong results.
        """
        if network is None:
            return None
        with self._lock:
            self._sync_version(network)
            record = self._predict_record()
            if record is None:
                return None
            bucket = bucket_size_for(batch_size, self.bucket_sizes)
            plan = record.plans.get(bucket)
            if plan is None:
                plan = compile_plan(
                    network, record.trace_type, record.exemplar, record.static_flags, bucket
                )
                if plan is None:
                    record.compilable = False
                    return None
                record.compilable = True
                record.plans[bucket] = plan
                self.compiles += 1
            pool = self._pools.get((record.trace_type, bucket))
            scratch = pool.pop() if pool else PlanScratch(plan)
            return plan, scratch

    def _predict_record(self) -> Optional[_TraceTypeRecord]:
        best: Optional[_TraceTypeRecord] = None
        for record in self._records.values():
            if record.demoted or record.compilable is False or record.exemplar is None:
                continue
            if record.cohorts < self.hot_after:
                continue
            if best is None or (record.traces, record.last_seen) > (best.traces, best.last_seen):
                best = record
        return best

    def release(self, plan: EnginePlan, scratch: PlanScratch) -> None:
        """Return a leased scratch to its plan's pool."""
        with self._lock:
            if plan.network_version != self._version_seen:
                return  # stale lease released after an invalidation
            pool = self._pools.setdefault((plan.trace_type, plan.bucket_size), [])
            if len(pool) < self.max_pool:
                pool.append(scratch)

    # ---------------------------------------------------------------- demotion
    def record_divergence(self, plan: EnginePlan, at_step: int) -> bool:
        """Record a planned cohort diverging; True when this demoted the type.

        Divergence at step 0 means the *lease prediction* was wrong (a cohort
        of a different trace type) — that is the cache's miss to absorb, not
        evidence the type is branchy, so it never counts toward demotion.
        """
        with self._lock:
            record = self._records.get(plan.trace_type)
            if record is None or at_step <= 0:
                return False
            record.divergences += 1
            if not record.demoted and record.divergences >= self.demote_after:
                record.demoted = True
                return True
            return False

    # ------------------------------------------------------------------- stats
    def stats(self) -> Dict[str, int]:
        """What only the cache knows: compiles, invalidations, what it holds.

        Lease hits and misses, divergences and demotions are counted once, by
        the engine that acts on them (``plan_hits``, ``plan_misses``,
        ``num_plan_divergences``, ``plan_demotions`` in its stat block) — the
        copy that also survives a worker-process boundary.
        """
        with self._lock:
            return {
                "compiles": self.compiles,
                "invalidations": self.invalidations,
                "trace_types": len(self._records),
                "plans": sum(len(r.plans) for r in self._records.values()),
            }


class PlannedProposalSession(BatchedProposalSession):
    """A lockstep session executing a cohort against a compiled plan.

    While the cohort conforms to the plan, each round skips the dynamic
    path's per-round work: no address grouping, no per-slot gather/scatter of
    LSTM state (the whole batch steps in place, in slot order), precompiled
    geometry, ``build_into`` constructors into the plan's scratch on static
    steps.  Previous values are encoded and rounds drawn by the parent's code
    (one batched encode where the previous priors share a signature; one
    driver-side vectorised draw per round).  The first round that
    does not conform — wrong address, wrong cohort size, more rounds than the
    plan has steps — permanently drops this session onto the dynamic path of
    the parent class (state carries over row-for-row) and records where it
    diverged so the cache can demote chronically divergent types.
    """

    def __init__(
        self,
        network: InferenceNetwork,
        plan: EnginePlan,
        scratch: PlanScratch,
        rngs: Sequence[Any],
        observations: Sequence[Any],
    ) -> None:
        super().__init__(network, observations, rngs)
        if self.batch_size > plan.bucket_size:
            raise ValueError(
                f"cohort of {self.batch_size} cannot run on a bucket-{plan.bucket_size} plan"
            )
        self.plan = plan
        self.scratch = scratch
        self._cursor = 0
        self._on_plan = True
        self._geometries: List[Optional[PriorGeometry]] = [
            step.geometry.prefix(self.batch_size) if step.geometry is not None else None
            for step in plan.steps
        ]
        self._round_priors: List[Any] = [None] * self.batch_size
        self._round_values: List[Any] = [None] * self.batch_size
        self.num_planned_rounds = 0
        self.num_plan_divergences = 0
        self.num_plan_geometry_misses = 0
        self.diverged_at = -1

    # ---------------------------------------------------------------- dispatch
    def proposals(self, requests):
        if self._on_plan:
            responses = self._planned_round(requests)
            if responses is not None:
                return responses
            # Divergence: the cohort stopped conforming (different trace
            # type, extra rounds, or a short round).  The parent class IS the
            # dynamic path and shares the per-slot LSTM state and
            # previous-sample tracking, so falling back mid-cohort is just
            # routing the remaining rounds through it.
            self._on_plan = False
            self.diverged_at = self._cursor
            self.num_plan_divergences += 1
        return super().proposals(requests)

    def _planned_round(self, requests):
        plan = self.plan
        cursor = self._cursor
        if cursor >= len(plan.steps) or len(requests) != self.batch_size:
            return None
        step = plan.steps[cursor]
        for request in requests:
            if request[1] != step.address:
                return None
        self._cursor = cursor + 1
        self.num_rounds += 1
        self.num_proposal_steps += len(requests)
        self.num_planned_rounds += 1
        if not step.known:
            # Prior-fallback step: same semantics as the dynamic path — no
            # LSTM advance, previous-sample tracking reset, workers sample
            # their own priors on their own rngs.
            self.num_fallbacks += len(requests)
            responses: Dict[int, Any] = {}
            for slot, _, _, _ in requests:
                responses[slot] = None
                self._prev_address[slot] = None
                self._prev_prior[slot] = None
            return responses
        return self._planned_step(cursor, step, requests)

    # ------------------------------------------------------------ planned step
    def _planned_step(self, index: int, step: PlanStep, requests):
        network = self.network
        size = self.batch_size
        self.num_batched_steps += 1
        priors = self._round_priors
        values = self._round_values
        signature = step.signature
        static_ok = signature is not None
        for slot, _, prior, previous_value in requests:
            priors[slot] = prior
            values[slot] = previous_value
            if static_ok and prior_signature(prior) != signature:
                static_ok = False
        if signature is not None and not static_ok:
            # Same trace type, drifted prior parameters: still planned, but
            # this round derives geometry/parameters dynamically.
            self.num_plan_geometry_misses += 1
        with no_grad():
            prev_embed = self._planned_prev_embed(step, values)
            lstm_view = self.scratch.lstm_input[:size]
            np.concatenate(
                [self._obs_rows, step.addr_rows[:size], prev_embed], axis=1, out=lstm_view
            )
            # Full-batch LSTM step in slot order: no gather/scatter.  The
            # recurrence is row-independent, so stepping all rows at once is
            # bitwise the dynamic path's gathered same-address group.
            state = [
                (Tensor(self._h[layer]), Tensor(self._c[layer]))
                for layer in range(network.lstm.num_layers)
            ]
            hidden, new_state = network.lstm.step(Tensor(lstm_view), state)
            for layer, (h, c) in enumerate(new_state):
                self._h[layer] = h.data
                self._c[layer] = c.data
            layer_module = network.proposal_layers[step.address]
            if static_ok and step.kind == "mixture":
                batch = layer_module.proposal_batch_into(
                    hidden, self._geometries[index], self.scratch.mixture[index]
                )
            elif static_ok and step.kind == "categorical":
                cscratch = self.scratch.categorical[index]
                logits = layer_module.network(hidden)
                probs = np.multiply(
                    F.softmax(logits, axis=-1).data, 0.99, out=cscratch.probs[:size]
                )
                np.add(probs, step.smooth_probs[None, :], out=probs)
                batch = BatchedCategorical.build_into(cscratch, probs)
            else:
                batch = layer_module.proposal_batch(hidden, priors)
        return self._answer_rows(batch, [step.address] * size, range(size), priors)

    def _planned_prev_embed(self, step: PlanStep, values) -> np.ndarray:
        """Previous-sample embedding rows for a conforming round."""
        if not step.prev_known:
            return self.scratch.zero_prev[: self.batch_size]
        encoded = self._encode_previous(range(self.batch_size), values)
        return self.network.sample_embeddings[step.prev_address](Tensor(encoded)).data
