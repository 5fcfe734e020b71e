"""The dynamic 3DCNN–LSTM inference network (Section 4.3).

The network's runtime structure changes with every execution trace: an LSTM
core runs for as many steps as the trace has latent draws, and address-specific
embedding and proposal layers are attached according to the sequence of
addresses A_t encountered in the simulator.  New address-specific layers are
created the first time an address is seen (:meth:`InferenceNetwork.polymorph`),
either on-the-fly in online training or in a pre-generation pass over an
offline dataset (Section 4.4, :mod:`repro.ppl.nn.preprocessing`).

Two entry points matter:

* :meth:`InferenceNetwork.loss` — Algorithm 1: split a minibatch into
  sub-minibatches of equal trace type, run each through the LSTM in a single
  batched forward pass, and accumulate ``-log q_phi(x|y)``.
* :meth:`InferenceNetwork.inference_session` — a stateful helper that walks
  the LSTM step by step during guided execution, producing a proposal
  distribution for every address the simulator requests over PPX.
* :meth:`InferenceNetwork.batched_session` — the batched counterpart
  (:class:`BatchedProposalSession`): B guided executions advance in lockstep,
  one observation array per slot (distinct observations are embedded once
  each, so a cohort of one request pays one embedding) and one batched LSTM
  step per address.  When control flow diverges (different traces request
  different addresses at the same step), the cohort is partitioned into
  per-address sub-batches, so a group of size 1 degrades gracefully to
  per-trace stepping.  Every round is drawn and scored by the driver over
  the slots' own random streams — all its mixture groups in one vectorised
  pass — and answered with :class:`DrawnProposal` stubs.  :meth:`InferenceNetwork.planned_session`
  is the same session driven by a compiled plan.

Information flow during guided execution deliberately matches training: a
fallback to the prior at an address the network has never seen resets the
previous-sample embedding to zeros (in both the sessions here and the skipped
step of :meth:`InferenceNetwork._sub_minibatch_loss`), so trained weights see
the same inputs at inference time.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - runtime imports stay lazy (cycle guard)
    from repro.data.packing import PackedSubMinibatch

from repro.common.config import Config, get_config
from repro.data.dataset import observation_array
from repro.distributions import Categorical, Distribution, distribution_from_dict
from repro.distributions.batched import BatchedMixtureOfTruncatedNormals, MixtureScratch
from repro.distributions.geometry import PriorGeometry, prior_geometry, prior_signature
from repro.ppl.nn.embeddings import (
    AddressEmbedding,
    ObservationEmbedding3DCNN,
    ObservationEmbeddingFC,
    SampleEmbedding,
)
from repro.ppl.nn.proposals import ProposalNormalMixture, make_proposal_layer
from repro.tensor import no_grad
from repro.tensor.nn import LSTM, Module, ModuleDict, Parameter
from repro.tensor.tensor import Tensor
from repro.trace.trace import Trace

__all__ = ["InferenceNetwork", "ProposalSession", "BatchedProposalSession", "DrawnProposal"]


class InferenceNetwork(Module):
    """Dynamic LSTM network producing per-address proposal distributions."""

    def __init__(
        self,
        observation_embedding: Optional[Module] = None,
        config: Optional[Config] = None,
        observe_key: Optional[str] = None,
        rng=None,
        vectorized_loss: bool = True,
    ) -> None:
        super().__init__()
        cfg = config or get_config()
        self.config = cfg
        self.observe_key = observe_key
        self._rng = rng
        #: score training steps through packed array inputs (the default hot
        #: path); ``False`` retains the per-object reference path.
        self.vectorized_loss = bool(vectorized_loss)
        if observation_embedding is None:
            observation_embedding = ObservationEmbedding3DCNN(
                observation_shape=cfg.observation_shape,
                embedding_dim=cfg.observation_embedding_dim,
                rng=rng,
            )
        self.observation_embedding = observation_embedding
        obs_dim = getattr(observation_embedding, "embedding_dim", cfg.observation_embedding_dim)
        self.obs_dim = obs_dim
        self.address_dim = cfg.address_embedding_dim
        self.sample_dim = cfg.sample_embedding_dim
        lstm_input = obs_dim + self.address_dim + self.sample_dim
        self.lstm = LSTM(lstm_input, cfg.lstm_hidden, num_layers=cfg.lstm_stacks, rng=rng)
        self.address_embeddings = ModuleDict()
        self.sample_embeddings = ModuleDict()
        self.proposal_layers = ModuleDict()
        #: per-address record of the prior used to build its layers (for saving)
        self.address_specs: Dict[str, Dict[str, Any]] = {}
        self._frozen = False
        #: addresses already resolved by :meth:`polymorph` — layered or (when
        #: frozen) discarded — so re-scans are set lookups, not layer probes
        self._seen_addresses: set = set()
        #: trace types whose full address sequence has been scanned; traces
        #: of a known type are skipped outright (same type = same addresses)
        self._known_trace_types: set = set()
        #: addresses reported as discarded by the most recent polymorph call
        self.last_discarded: List[str] = []
        #: sub-minibatch count of the most recent loss evaluation
        self._last_sub_minibatches = 0
        #: bumped by :meth:`notify_updated` every time the parameters change
        #: in place (a completed training run); serving caches key on it
        self.version = 0
        self._update_listeners: List[Any] = []

    # -------------------------------------------------------- update notification
    def add_update_listener(self, listener) -> None:
        """Register ``listener()`` to run after every in-place parameter update.

        The serving layer uses this to invalidate cached posteriors the moment
        the proposal network they were computed under is retrained — a frozen
        posterior for the *old* parameters is wrong, not merely old.
        """
        if listener not in self._update_listeners:
            self._update_listeners.append(listener)

    def remove_update_listener(self, listener) -> None:
        if listener in self._update_listeners:
            self._update_listeners.remove(listener)

    def notify_updated(self) -> None:
        """Bump :attr:`version` and fan out to registered listeners."""
        self.version += 1
        for listener in list(self._update_listeners):
            listener()

    def __getstate__(self):
        # Listeners reference live services (locks, threads, queues) — they
        # must not ride along when the network is shipped to worker processes.
        state = dict(self.__dict__)
        state["_update_listeners"] = []
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    # ------------------------------------------------------------- polymorphism
    def polymorph(self, traces: Iterable[Trace]) -> List[Tuple[str, Parameter]]:
        """Create address-specific layers for any new addresses in ``traces``.

        Returns the newly created named parameters so that an optimizer can
        register them (online training).  When the network is frozen (the
        distributed offline mode after layer pre-generation), unseen addresses
        are reported via :attr:`last_discarded` instead and no layers are
        created, mirroring the paper's freeze-and-discard behaviour.

        The scan is amortized O(new addresses), not O(minibatch x trace
        length): traces whose trace type has been scanned before are skipped
        outright (same type = same address sequence), and within a new type
        every already-resolved address — layered, or discarded by the frozen
        network — is a single set lookup.  A discarded address is therefore
        reported the *first* time it is seen, not once per occurrence.
        """
        new_parameters: List[Tuple[str, Parameter]] = []
        self.last_discarded = []
        known_types = self._known_trace_types
        seen = self._seen_addresses
        for trace in traces:
            trace_type = trace.trace_type
            if trace_type in known_types:
                continue
            for sample in trace.samples:
                if sample.address in seen or not sample.controlled or sample.distribution is None:
                    continue
                if self._frozen:
                    self.last_discarded.append(sample.address)
                    seen.add(sample.address)
                    continue
                new_parameters.extend(self._create_layers(sample.address, sample.distribution))
            known_types.add(trace_type)
        return new_parameters

    def _create_layers(self, address: str, prior: Distribution) -> List[Tuple[str, Parameter]]:
        self._seen_addresses.add(address)
        before = {name for name, _ in self.named_parameters()}
        self.address_embeddings[address] = AddressEmbedding(self.address_dim, rng=self._rng)
        self.sample_embeddings[address] = SampleEmbedding(
            SampleEmbedding.value_dim_for(prior), self.sample_dim, rng=self._rng
        )
        self.proposal_layers[address] = make_proposal_layer(
            prior,
            input_dim=self.config.lstm_hidden,
            num_components=self.config.proposal_mixture_components,
            rng=self._rng,
        )
        self.address_specs[address] = {"prior": prior.to_dict()}
        return [(name, p) for name, p in self.named_parameters() if name not in before]

    def freeze_architecture(self) -> None:
        """Stop creating new address-specific layers (Section 4.4)."""
        self._frozen = True

    @property
    def num_addresses(self) -> int:
        return len(self.proposal_layers)

    # ------------------------------------------------------------- observations
    def _observation_array(self, trace: Trace) -> np.ndarray:
        return observation_array(trace, self.observe_key)

    # ------------------------------------------------------------------- loss
    def loss(self, traces: Sequence[Trace]) -> Tensor:
        """Algorithm 1: minibatch loss -1/B sum log q_phi(x|y).

        The minibatch is partitioned into sub-minibatches of identical trace
        type so that each sub-minibatch can be pushed through the LSTM in one
        batched forward execution: this is :meth:`loss_packed` over
        :func:`repro.data.packing.pack_minibatch` of the traces.  Callers
        that revisit a minibatch (offline epochs) keep the packs and call
        :meth:`loss_packed` directly.
        """
        from repro.data.packing import pack_minibatch

        return self.loss_packed(pack_minibatch(traces, self.observe_key))

    def loss_packed(self, packs: Sequence["PackedSubMinibatch"]) -> Tensor:
        """The minibatch loss over pre-built packs (one per trace-type group).

        Numerically identical to ``loss(sum of packed traces)`` — the packs
        carry precomputed array inputs, not different math — and it honours
        :attr:`vectorized_loss`: with the flag off, each pack's retained
        traces are scored through the per-object reference path, so the two
        paths stay comparable under the same minibatch schedule.
        """
        packs = list(packs)
        if len(packs) == 0:
            raise ValueError("loss_packed needs at least one pack")
        self._last_sub_minibatches = 0
        num_traces = 0
        total: Optional[Tensor] = None
        for pack in packs:
            num_traces += pack.batch_size
            if self.vectorized_loss:
                group_loss = self._sub_minibatch_loss_packed(pack)
            else:
                group_loss = self._sub_minibatch_loss(pack.traces)
            total = group_loss if total is None else total + group_loss
        assert total is not None
        return total * (1.0 / num_traces)

    @property
    def last_num_sub_minibatches(self) -> int:
        return self._last_sub_minibatches

    def _sub_minibatch_loss_packed(self, pack: "PackedSubMinibatch") -> Tensor:
        """Negative log q over one packed group, in per-step array ops.

        Step for step the same computation graph as
        :meth:`_sub_minibatch_loss` — observation embedding, address
        embedding, LSTM step, proposal log-density, previous-sample embedding
        — but every numpy input (stacked observations, value columns, prior
        geometry, sample encodings) comes precomputed from the pack instead
        of being re-derived from per-trace objects.  Discarded addresses
        (frozen network) skip the step and zero the previous-sample
        embedding, exactly as the reference and the inference sessions do.
        """
        self._last_sub_minibatches += 1
        batch = pack.batch_size
        obs_embed = self.observation_embedding(Tensor(pack.observations))
        state = self.lstm.initial_state(batch)
        prev_embed = Tensor(np.zeros((batch, self.sample_dim)))
        neg_log_q: Optional[Tensor] = None
        for step in pack.steps:
            if step.address not in self.proposal_layers:
                prev_embed = Tensor(np.zeros((batch, self.sample_dim)))
                continue
            addr_embed = self.address_embeddings[step.address](batch)
            lstm_input = Tensor.cat([obs_embed, addr_embed, prev_embed], axis=1)
            hidden, state = self.lstm.step(lstm_input, state)
            log_q = self.proposal_layers[step.address].log_prob_packed(hidden, step)
            neg_log_q = (-log_q) if neg_log_q is None else neg_log_q - log_q
            prev_embed = self.sample_embeddings[step.address](Tensor(step.encoded_values))
        if neg_log_q is None:
            neg_log_q = Tensor(np.zeros(()))
        return neg_log_q

    def _sub_minibatch_loss(self, traces: Sequence[Trace]) -> Tensor:
        """Negative log q summed over a group of same-trace-type traces.

        The per-object reference path (``vectorized_loss=False``): scores
        values against per-trace prior objects and re-derives every array per
        call.  Kept as the bit-identity and benchmark reference for
        :meth:`_sub_minibatch_loss_packed`.
        """
        self._last_sub_minibatches += 1
        batch = len(traces)
        observations = np.stack([self._observation_array(t) for t in traces], axis=0)
        obs_embed = self.observation_embedding(Tensor(observations))
        steps = [
            [s for s in trace.samples if s.controlled and s.distribution is not None]
            for trace in traces
        ]
        num_steps = len(steps[0])
        state = self.lstm.initial_state(batch)
        prev_embed = Tensor(np.zeros((batch, self.sample_dim)))
        neg_log_q: Optional[Tensor] = None
        for t in range(num_steps):
            samples_t = [steps[i][t] for i in range(batch)]
            address = samples_t[0].address
            if address not in self.proposal_layers:
                # Discarded address (frozen network): skip the step AND reset
                # the previous-sample embedding, mirroring the inference-time
                # sessions which fall back to the prior here and feed zeros
                # into the next LSTM step.  Carrying the stale embedding would
                # train the network on an information flow it never sees at
                # inference time.
                prev_embed = Tensor(np.zeros((batch, self.sample_dim)))
                continue
            addr_embed = self.address_embeddings[address](batch)
            lstm_input = Tensor.cat([obs_embed, addr_embed, prev_embed], axis=1)
            hidden, state = self.lstm.step(lstm_input, state)
            values = [s.value for s in samples_t]
            priors = [s.distribution for s in samples_t]
            log_q = self.proposal_layers[address].log_prob(hidden, values, priors)
            neg_log_q = (-log_q) if neg_log_q is None else neg_log_q - log_q
            encoded = SampleEmbedding.encode_values(priors[0], np.asarray(values))
            prev_embed = self.sample_embeddings[address](Tensor(encoded))
        if neg_log_q is None:
            neg_log_q = Tensor(np.zeros(()))
        return neg_log_q

    # --------------------------------------------------------------- inference
    def inference_session(self, observation) -> "ProposalSession":
        """Start a guided-execution session for one observation y."""
        return ProposalSession(self, observation)

    def batched_session(
        self, observations: Sequence[Any], rngs: Sequence[Any]
    ) -> "BatchedProposalSession":
        """Start a lockstep session advancing ``len(observations)`` executions at once.

        ``observations[slot]`` is the observation array for slot ``slot`` and
        ``rngs[slot]`` the random stream that slot's execution draws from: the
        session draws every round's proposal values on those streams itself.
        Duplicate observations (the same array object, or byte-identical
        arrays) are embedded once and share their embedding row, so a cohort
        pays one observation-embedding forward per *distinct* observation —
        one for a single request, and the serving layer's amortization win
        when a cohort coalesces several.
        """
        return BatchedProposalSession(self, observations, rngs)

    def planned_session(
        self, plan, scratch, rngs, observations: Sequence[Any]
    ) -> "BatchedProposalSession":
        """Start a lockstep session driven by a compiled execution plan.

        Built by the engine when the :class:`repro.ppl.inference.plans.PlanCache`
        predicts the cohort's trace type: conforming cohorts run the plan's
        precompiled fast path, anything else falls back to the dynamic rounds
        of :class:`BatchedProposalSession` mid-cohort.  (Imported lazily:
        the plans module builds on this one.)
        """
        from repro.ppl.inference.plans import PlannedProposalSession

        return PlannedProposalSession(self, plan, scratch, rngs, observations)

    # ------------------------------------------------------------- persistence
    def save(self, path: str) -> None:
        """Serialise architecture spec + weights to ``path``."""
        payload = {
            "config": self.config.__dict__,
            "observe_key": self.observe_key,
            "address_specs": self.address_specs,
            "state_dict": self.state_dict(),
            "observation_embedding_kind": type(self.observation_embedding).__name__,
            "observation_embedding_meta": {
                "embedding_dim": getattr(self.observation_embedding, "embedding_dim", None),
                "observation_shape": getattr(self.observation_embedding, "observation_shape", None),
                "input_dim": getattr(self.observation_embedding, "input_dim", None),
            },
        }
        with open(path, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path: str) -> "InferenceNetwork":
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        config = Config(**payload["config"])
        meta = payload["observation_embedding_meta"]
        if payload["observation_embedding_kind"] == "ObservationEmbeddingFC":
            observation_embedding: Module = ObservationEmbeddingFC(
                input_dim=meta["input_dim"], embedding_dim=meta["embedding_dim"]
            )
        else:
            observation_embedding = ObservationEmbedding3DCNN(
                observation_shape=tuple(meta["observation_shape"]),
                embedding_dim=meta["embedding_dim"],
            )
        network = cls(observation_embedding=observation_embedding, config=config, observe_key=payload["observe_key"])
        for address, spec in payload["address_specs"].items():
            prior = distribution_from_dict(spec["prior"])
            network._create_layers(address, prior)
        network.load_state_dict(payload["state_dict"])
        return network


class ProposalSession:
    """Stateful walker that produces proposals during one guided execution.

    The execution controller calls :meth:`proposal` once per latent draw, in
    simulator order.  The session advances the LSTM using the value drawn at
    the *previous* step (read from the execution state's partial trace), which
    is exactly the information flow of Figure 3.
    """

    def __init__(self, network: InferenceNetwork, observation) -> None:
        self.network = network
        observation_arr = np.asarray(observation, dtype=float)
        with no_grad():
            self._obs_embed = network.observation_embedding(Tensor(observation_arr[None, ...]))
        self._state = None
        self._prev_address: Optional[str] = None
        self._prev_prior: Optional[Distribution] = None
        #: counters are named by their ``ENGINE_STAT_KEYS`` key, which is how
        #: ``merge_session_stats`` harvests them
        self.num_proposal_steps = 0
        self.num_fallbacks = 0
        #: a sequential session always pays exactly one embedding forward
        self.num_observation_embeddings = 1

    def _previous_embedding(self, previous_value) -> Tensor:
        if (
            previous_value is None
            or self._prev_address is None
            or self._prev_address not in self.network.sample_embeddings
        ):
            return Tensor(np.zeros((1, self.network.sample_dim)))
        encoded = SampleEmbedding.encode_values(self._prev_prior, np.asarray([previous_value]))
        return self.network.sample_embeddings[self._prev_address](Tensor(encoded))

    def proposal(
        self,
        address: str,
        prior: Distribution,
        previous_value=None,
    ) -> Optional[Distribution]:
        """Proposal distribution for the next latent draw (or None for prior fallback)."""
        self.num_proposal_steps += 1
        if address not in self.network.proposal_layers:
            # Address unseen during training: fall back to the prior without
            # advancing the LSTM (the network has no representation for it).
            self.num_fallbacks += 1
            self._prev_address = None
            self._prev_prior = None
            return None
        with no_grad():
            prev_embed = self._previous_embedding(previous_value)
            addr_embed = self.network.address_embeddings[address](1)
            lstm_input = Tensor.cat([self._obs_embed, addr_embed, prev_embed], axis=1)
            hidden, self._state = self.network.lstm.step(lstm_input, self._state)
            distribution = self.network.proposal_layers[address].proposal_distribution(hidden, prior)
        self._prev_address = address
        self._prev_prior = prior
        return distribution


class DrawnProposal:
    """One slot's answer to a lockstep round: a value already drawn and scored.

    The session draws a whole round driver-side — one ``sample_rows`` pass
    per batch over the very rng objects the slots' executions own, one
    ``log_prob_rows`` pass over the result.  That is race-free because a round
    is answered only after every outstanding slot has posted its request, so
    each stream the driver touches belongs to a thread parked at its gate, and
    ``sample_rows`` consumes a stream exactly as the stand-alone
    ``row_distribution(i).sample`` would.  Workers consume the stub through
    the same ``sample(rng)`` / ``log_prob(value)`` duck type as any proposal:
    ``sample`` returns the stored value without touching the stream (the
    driver already consumed it), ``log_prob`` the stored density.  The stub
    itself is never recorded in the trace — ``ExecutionState.do_sample``
    stores the *prior* — so it carries no pickling or lifetime concerns.
    """

    __slots__ = ("value", "log_q")

    def __init__(self, value, log_q) -> None:
        self.value = value
        self.log_q = log_q

    def sample(self, rng=None, size=None):
        return self.value

    def log_prob(self, value):
        return self.log_q


class BatchedProposalSession:
    """Advances B guided executions in lockstep through the inference network.

    The sequential :class:`ProposalSession` pays the observation embedding,
    one LSTM step and one proposal-layer forward *per trace per address* at
    batch size 1.  This session amortizes all three across a cohort of B
    executions:

    * every slot has its own observation (``observations[slot]``), and each
      *distinct* observation is embedded **once**
      (:attr:`num_observation_embeddings` counts the forwards actually paid),
      so a cohort of one request pays one embedding and *independent*
      requests for different observations can share one cohort — what the
      serving subsystem's micro-batching scheduler coalesces into,
    * all traces currently requesting the same address advance through **one
      batched LSTM step**, and
    * the proposal layer produces the B per-trace proposal distributions in a
      single batched forward pass.

    Per-trace LSTM state is kept as rows of ``(B, hidden)`` arrays, so when
    control flow diverges (traces request different addresses at the same
    step) the cohort is partitioned into per-address groups whose state rows
    are gathered, stepped and scattered back independently — a group of size
    1 is exactly per-trace stepping, which is the graceful fallback the
    divergent case degrades to.  The numerical information flow per trace is
    identical to :class:`ProposalSession` (zero previous-sample embedding
    after a prior fallback, no LSTM advance at unknown addresses).

    Drive it through :func:`repro.ppl.inference.batched.run_mixed_cohort`,
    which suspends B model executions at their controlled draws and answers
    them through :meth:`proposals`.

    Proposals are array-parameterised batched distributions
    (:mod:`repro.distributions.batched`): the mixture groups of a round are
    stacked into ONE object holding their ``(B, K)`` parameters (a
    categorical or custom group gets its own), whose values are drawn on the
    slots' own streams (``rngs[slot]``) and scored, each in one vectorised
    pass, and every slot is answered with a :class:`DrawnProposal`.  Values,
    densities and stream consumption are bit-identical to sampling the
    per-trace ``Mixture``/``Categorical`` the sequential session's
    ``proposal_distribution`` builds.
    """

    def __init__(
        self, network: InferenceNetwork, observations: Sequence[Any], rngs: Sequence[Any]
    ) -> None:
        if len(observations) < 1:
            raise ValueError("a lockstep session needs at least one slot")
        if len(rngs) != len(observations):
            raise ValueError(
                f"a lockstep session needs one rng per slot ({len(observations)}), got {len(rngs)}"
            )
        self.network = network
        self.batch_size = len(observations)
        self._rngs = list(rngs)
        self._obs_rows = self._embed_per_slot(observations)
        hidden = network.lstm.hidden_size
        self._h = [np.zeros((self.batch_size, hidden)) for _ in range(network.lstm.num_layers)]
        self._c = [np.zeros((self.batch_size, hidden)) for _ in range(network.lstm.num_layers)]
        self._prev_address: List[Optional[str]] = [None] * self.batch_size
        self._prev_prior: List[Optional[Distribution]] = [None] * self.batch_size
        #: per-cohort constants a plan would precompile, derived on first use:
        #: geometry per (prior signature, group size), and one mixture scratch
        #: per component count sized to the cohort (a round's mixture groups
        #: are stacked into it and drawn as one batch)
        self._group_geometries: Dict[Tuple, PriorGeometry] = {}
        self._mixture_scratch: Dict[int, MixtureScratch] = {}
        self.num_proposal_steps = 0
        self.num_fallbacks = 0
        self.num_rounds = 0
        self.num_batched_steps = 0
        self.num_divergent_rounds = 0

    def _embed_per_slot(self, observations: Sequence[Any]) -> np.ndarray:
        """Embed per-slot observations, each distinct observation once.

        Slots are deduplicated by object identity first (all jobs of one
        request share one array object, so a one-request cohort never
        serialises anything) and by bytes second (equal observations from
        different requests).  Each distinct observation is embedded with the
        same single-row forward :class:`ProposalSession` uses, so a mixed
        cohort produces bitwise the same embedding rows as running each
        request in its own cohort — the property the serving layer's
        seeded-equivalence tests rely on.
        """
        network = self.network
        by_identity: Dict[int, np.ndarray] = {}
        by_bytes: Dict[Tuple[Any, bytes], np.ndarray] = {}
        rows = np.empty((len(observations), network.obs_dim))
        for slot, observation in enumerate(observations):
            row = by_identity.get(id(observation))
            if row is None:
                array = np.ascontiguousarray(np.asarray(observation, dtype=float))
                key = (array.shape, array.tobytes())
                row = by_bytes.get(key)
                if row is None:
                    with no_grad():
                        row = network.observation_embedding(Tensor(array[None, ...])).data[0]
                    by_bytes[key] = row
                by_identity[id(observation)] = row
            rows[slot] = row
        self.num_observation_embeddings = len(by_bytes)
        return rows

    def proposals(
        self, requests: Sequence[Tuple[int, str, Distribution, Any]]
    ) -> Dict[int, Optional[DrawnProposal]]:
        """Answer one lockstep round of proposal requests.

        ``requests`` holds ``(slot, address, prior, previous_value)`` tuples,
        one per execution currently suspended at a controlled draw — every
        requesting slot's execution must stay suspended until this returns,
        because its stream is drawn from here.  Returns ``slot ->``
        :class:`DrawnProposal` (or ``None`` for the prior fallback at
        addresses the network has no layers for: that slot draws its own
        prior on its own stream).

        Each address group takes its own LSTM step and proposal-head
        forward.  The mixture groups' rows are then drawn together, as one
        batch built into the session's scratch from a geometry derived once
        per (prior signature, group size) — a plan's shortcuts, without a
        plan; priors that do not match a signature exactly derive their
        geometry per row, so every value is bitwise what that produces.
        """
        self.num_rounds += 1
        self.num_proposal_steps += len(requests)
        groups: Dict[str, List[Tuple[int, Distribution, Any]]] = {}
        for slot, address, prior, previous_value in requests:
            groups.setdefault(address, []).append((slot, prior, previous_value))
        if len(groups) > 1:
            self.num_divergent_rounds += 1
        layers = self.network.proposal_layers
        responses: Dict[int, Optional[DrawnProposal]] = {}
        # component count -> (address, slots, priors, parameters) per mixture group
        mixtures: Dict[int, List[Tuple[str, List[int], List[Distribution], Tuple]]] = {}
        for address, members in groups.items():
            if address not in layers:
                # Unseen address: fall back to the prior without advancing the
                # LSTM, and reset the previous-sample tracking (same semantics
                # as ProposalSession.proposal).
                self.num_fallbacks += len(members)
                for slot, _, _ in members:
                    responses[slot] = None
                    self._prev_address[slot] = None
                    self._prev_prior[slot] = None
                continue
            slots = [slot for slot, _, _ in members]
            priors = [prior for _, prior, _ in members]
            hidden = self._step_group(address, members)
            layer = layers[address]
            with no_grad():
                if isinstance(layer, ProposalNormalMixture):
                    parameters = layer._transformed_from_geometry(hidden, self._group_geometry(priors))
                    mixtures.setdefault(layer.num_components, []).append((address, slots, priors, parameters))
                    continue
                batch = layer.proposal_batch(hidden, priors)
            responses.update(self._answer_rows(batch, [address] * len(slots), slots, priors))
        for num_components, parts in mixtures.items():
            responses.update(self._answer_mixtures(num_components, parts))
        return responses

    def _answer_mixtures(self, num_components: int, parts) -> Dict[int, DrawnProposal]:
        """Draw and score a round's mixture groups as ONE batch in the session's scratch.

        Each group's rows keep their own parameters; a batched mixture's rows
        are independent, so stacking groups changes no row's draw or density.
        """
        scratch = self._scratch_for(num_components)
        locs, scales, log_weights, lows, highs, bounded = (
            np.concatenate(column) for column in zip(*(part[3] for part in parts))
        )
        weights = np.exp(log_weights, out=scratch.weights[: locs.shape[0]])
        batch = BatchedMixtureOfTruncatedNormals.build_into(
            scratch, locs, scales, weights, lows, highs, bounded
        )
        addresses = [address for address, slots, _, _ in parts for _ in slots]
        slots = [slot for _, slots, _, _ in parts for slot in slots]
        priors = [prior for _, _, priors, _ in parts for prior in priors]
        return self._answer_rows(batch, addresses, slots, priors)

    def _step_group(self, address: str, members: Sequence[Tuple[int, Distribution, Any]]) -> Tensor:
        """One batched LSTM step for a same-address group; returns its hidden rows.

        A previous-address sub-batch whose priors share one exact signature is
        encoded by one call (a plan's shortcut, without a plan); priors that
        do not match exactly are encoded row by row, so every value is bitwise
        what that produces.
        """
        self.num_batched_steps += 1
        network = self.network
        size = len(members)
        slots = [slot for slot, _, _ in members]
        with no_grad():
            # Previous-sample embeddings: zeros after a fallback / at the first
            # step, otherwise the (address-specific) embedding of the value
            # drawn at the previous step.  Rows are sub-batched by previous
            # address because each previous address owns its own layer.
            prev_embed = np.zeros((size, network.sample_dim))
            by_prev: Dict[str, List[int]] = {}
            for row, (slot, _, previous_value) in enumerate(members):
                prev_addr = self._prev_address[slot]
                if previous_value is None or prev_addr is None or prev_addr not in network.sample_embeddings:
                    continue
                by_prev.setdefault(prev_addr, []).append(row)
            for prev_addr, rows in by_prev.items():
                encoded = self._encode_previous([slots[row] for row in rows], [members[row][2] for row in rows])
                prev_embed[rows] = network.sample_embeddings[prev_addr](Tensor(encoded)).data
            addr_embed = network.address_embeddings[address](size).data
            obs_embed = self._obs_rows[slots]
            lstm_input = Tensor(np.concatenate([obs_embed, addr_embed, prev_embed], axis=1))
            state = [
                (Tensor(self._h[layer][slots]), Tensor(self._c[layer][slots]))
                for layer in range(network.lstm.num_layers)
            ]
            hidden, new_state = network.lstm.step(lstm_input, state)
            for layer, (h, c) in enumerate(new_state):
                self._h[layer][slots] = h.data
                self._c[layer][slots] = c.data
        return hidden

    def _group_geometry(self, priors: Sequence[Distribution]) -> PriorGeometry:
        """The group's prior geometry, derived once per (signature, group size).

        Exactly equal signatures give bitwise equal ``prior_geometry`` rows
        (the rule a plan's precompiled geometry rests on), so the memoised
        geometry is the one these priors would derive.
        """
        signature = prior_signature(priors[0])
        if signature is None or any(prior_signature(prior) != signature for prior in priors[1:]):
            return prior_geometry(priors)
        key = (signature, len(priors))
        geometry = self._group_geometries.get(key)
        if geometry is None:
            geometry = self._group_geometries[key] = prior_geometry(priors)
        return geometry

    def _scratch_for(self, num_components: int) -> MixtureScratch:
        scratch = self._mixture_scratch.get(num_components)
        if scratch is None:
            scratch = self._mixture_scratch[num_components] = MixtureScratch(self.batch_size, num_components)
        return scratch

    def _encode_previous(self, slots: Sequence[int], values: Sequence[Any]) -> np.ndarray:
        """Encoded previous values of ``slots``, whose previous draws share an address.

        One ``encode_values`` call over all of them when their previous priors
        share one exact signature (the encoding reads only the prior's family
        and moments, which the signature fixes), else one call per row.
        """
        priors = [self._prev_prior[slot] for slot in slots]
        signature = prior_signature(priors[0])
        if signature is not None and all(prior_signature(prior) == signature for prior in priors[1:]):
            return SampleEmbedding.encode_values(priors[0], np.asarray(values))
        return np.concatenate(
            [
                SampleEmbedding.encode_values(prior, np.asarray([value]))
                for prior, value in zip(priors, values)
            ],
            axis=0,
        )

    def _answer_rows(
        self, batch, addresses: Sequence[str], slots: Sequence[int], priors: Sequence[Distribution]
    ) -> Dict[int, DrawnProposal]:
        """Draw and score ``batch`` driver-side; one stub per slot.

        Row ``row`` of ``batch`` is the proposal of ``slots[row]``, requested
        at ``addresses[row]`` under ``priors[row]``; rows may belong to
        different addresses.  Every slot's stream is consumed exactly once,
        by the one ``sample_rows`` call.
        """
        values = batch.sample_rows([self._rngs[slot] for slot in slots])
        log_qs = batch.log_prob_rows(values)
        discrete = batch.discrete
        prev_address = self._prev_address
        prev_prior = self._prev_prior
        responses: Dict[int, DrawnProposal] = {}
        for row, slot in enumerate(slots):
            value = int(values[row]) if discrete else values[row]
            responses[slot] = DrawnProposal(value, log_qs[row])
            prev_address[slot] = addresses[row]
            prev_prior[slot] = priors[row]
        return responses
