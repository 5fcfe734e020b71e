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
  batched forward pass, and accumulate ``-log q_phi(x|y)``.  Training is
  teacher-forced, so every pack's steps run as one ragged LSTM sequence and
  the embeddings and the proposal heads each run once per address over all
  of its rows.
* :meth:`InferenceNetwork.batched_session` — guided execution
  (:class:`BatchedProposalSession`): B executions advance in lockstep, one
  observation array per slot (distinct observations are embedded once
  each, so a cohort of one request pays one embedding) and one batched LSTM
  step per address.  When control flow diverges (different traces request
  different addresses at the same step), the cohort is partitioned into
  per-address sub-batches, so a group of size 1 degrades gracefully to
  per-trace stepping, and a one-slot session is one execution walked step
  by step.  Every round is drawn and scored by the driver over the slots'
  own random streams — all its mixture groups in one vectorised pass, and
  each row's prior too — and answered with :class:`DrawnProposal` stubs.
  :meth:`InferenceNetwork.planned_session` is the same session driven by a
  compiled plan.

Information flow during guided execution deliberately matches training: a
fallback to the prior at an address the network has never seen resets the
previous-sample embedding to zeros (in the sessions here and in the skipped
step of both training losses), so trained weights see
the same inputs at inference time.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - runtime imports stay lazy (cycle guard)
    from repro.data.packing import PackedStep, PackedSubMinibatch

from repro.common.config import Config
from repro.distributions import Distribution, distribution_from_dict, log_prob_total
from repro.distributions.batched import BatchedMixtureOfTruncatedNormals, MixtureScratch
from repro.distributions.geometry import PriorGeometry, prior_geometry, prior_signature
from repro.ppl.nn.embeddings import (
    AddressEmbedding,
    ObservationEmbedding3DCNN,
    ObservationEmbeddingFC,
    SampleEmbedding,
)
from repro.ppl.nn.proposals import ProposalNormalMixture, make_proposal_layer
from repro.ppl.state import DrawnProposal
from repro.tensor import no_grad
from repro.tensor.nn import LSTM, Module, ModuleDict, Parameter
from repro.tensor.tensor import Tensor
from repro.trace.trace import Trace

__all__ = ["InferenceNetwork", "BatchedProposalSession", "DrawnProposal"]


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
        cfg = config or Config()
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

        The packs carry precomputed array inputs, and the default path
        (:meth:`_packed_loss`) scores all of them together.  With
        :attr:`vectorized_loss` off, each pack's steps are scored one by one
        through the per-object reference path instead, under the same
        minibatch schedule.  The two agree within floating-point tolerance
        (they sum the same terms in a different order), not bit for bit.
        """
        packs = list(packs)
        if len(packs) == 0:
            raise ValueError("loss_packed needs at least one pack")
        self._last_sub_minibatches = len(packs)
        if self.vectorized_loss:
            total = self._packed_loss(packs)
        else:
            total = self._sub_minibatch_loss(packs[0])
            for pack in packs[1:]:
                total = total + self._sub_minibatch_loss(pack)
        return total * (1.0 / sum(pack.batch_size for pack in packs))

    @property
    def last_num_sub_minibatches(self) -> int:
        return self._last_sub_minibatches

    def _packed_loss(self, packs: Sequence["PackedSubMinibatch"]) -> Tensor:
        """Negative log q summed over every pack of a minibatch, each piece of work once.

        Training is teacher-forced: a step's previous-sample input embeds the
        value *recorded* one step earlier, never a draw from the head, so
        every LSTM input is known before the recurrence starts.  The packs'
        steps are therefore laid out as one ragged time-major sequence
        (PyTorch's ``PackedSequence``): packs sorted by their number of
        active (not discarded) steps, longest first, so that the rows of
        active step ``s`` are a prefix of the rows of step ``s - 1`` and
        packs of different trace types share every step.  Then:

        * one observation-embedding forward over the observations of every pack,
        * per address, one sample-embedding forward over every row that feeds
          a next step,
        * the LSTM input matrix, built by one row gather each from the
          observation embeddings, the stacked address vectors and the
          previous-sample embeddings (whose row 0 is the zero input of a
          first step or of a step after a discarded address),
        * one :meth:`LSTM.forward <repro.tensor.nn.LSTM.forward>` over all
          rows (one sequence node per stacked layer),
        * per address, one row gather of the LSTM output and one
          proposal-head log-density over all of its ``(trace, step)`` rows
          (:func:`repro.data.packing.concat_steps` joins their arrays).

        The terms are those of :meth:`_sub_minibatch_loss`, summed in another
        order.  Discarded addresses (frozen network) skip their step and zero
        the next previous-sample embedding, exactly as the reference and the
        inference sessions do.
        """
        from repro.data.packing import concat_steps

        layers = self.proposal_layers
        active = [[t for t, step in enumerate(pack.steps) if step.address in layers] for pack in packs]
        order = sorted(range(len(packs)), key=lambda p: -len(active[p]))
        length = len(active[order[0]])
        if length == 0:
            return Tensor(np.zeros(()))

        # Previous-sample rows: row 0 is zeros, then each address's embedded
        # rows of the steps that feed an active next step.
        feeding: Dict[str, List[Tuple[int, int]]] = {}
        for p, pack in enumerate(packs):
            for t in active[p]:
                if t + 1 < pack.num_steps and pack.steps[t + 1].address in layers:
                    feeding.setdefault(pack.steps[t].address, []).append((p, t))
        previous_start: Dict[Tuple[int, int], int] = {}
        previous_parts = [Tensor(np.zeros((1, self.sample_dim)))]
        next_row = 1
        for address, positions in feeding.items():
            encoded = []
            for p, t in positions:
                previous_start[(p, t)] = next_row
                encoded.append(packs[p].steps[t].encoded_values)
                next_row += packs[p].batch_size
            previous_parts.append(self.sample_embeddings[address](Tensor(np.concatenate(encoded))))

        # Row indices of the time-major layout, and each address's rows.
        trace_start = np.cumsum([0] + [pack.batch_size for pack in packs])
        address_ids: Dict[str, int] = {}
        obs_index, address_index, previous_index, batch_sizes = [], [], [], []
        scored: Dict[str, Tuple[List[np.ndarray], List["PackedStep"]]] = {}
        row = 0
        for s in range(length):
            batch = 0
            for p in order:
                if len(active[p]) <= s:
                    break
                t, size = active[p][s], packs[p].batch_size
                step = packs[p].steps[t]
                offsets = np.arange(size)
                obs_index.append(trace_start[p] + offsets)
                address_index.append(np.full(size, address_ids.setdefault(step.address, len(address_ids))))
                start = previous_start.get((p, t - 1), 0)
                previous_index.append(start + offsets if start else np.zeros(size, dtype=np.int64))
                rows, steps = scored.setdefault(step.address, ([], []))
                rows.append(row + offsets)
                steps.append(step)
                row += size
                batch += size
            batch_sizes.append(batch)

        observations = np.concatenate([pack.observations for pack in packs])
        obs_embeds = self.observation_embedding(Tensor(observations))
        address_vectors = Tensor.stack([self.address_embeddings[a].vector for a in address_ids])
        previous = previous_parts[0] if len(previous_parts) == 1 else Tensor.cat(previous_parts, axis=0)
        lstm_input = Tensor.cat(
            [
                obs_embeds[np.concatenate(obs_index)],
                address_vectors[np.concatenate(address_index)],
                previous[np.concatenate(previous_index)],
            ],
            axis=1,
        )
        hidden = self.lstm(lstm_input, batch_sizes)

        neg_log_q: Optional[Tensor] = None
        for address, (rows, steps) in scored.items():
            log_q = layers[address].log_prob_packed(hidden[np.concatenate(rows)], concat_steps(steps))
            neg_log_q = (-log_q) if neg_log_q is None else neg_log_q - log_q
        return neg_log_q

    def _sub_minibatch_loss(self, pack: "PackedSubMinibatch") -> Tensor:
        """Negative log q summed over one pack's traces.

        The per-object reference path (``vectorized_loss=False``): one LSTM
        step, one proposal-head log-density and one sample embedding per step,
        scoring each step's recorded values against its per-trace prior
        objects and re-encoding them per call; it reads none of the pack's
        precomputed encodings, geometry or index columns.  Kept as the
        tolerance and benchmark reference for :meth:`_packed_loss`.
        """
        batch = pack.batch_size
        obs_embed = self.observation_embedding(Tensor(pack.observations))
        state = self.lstm.initial_state(batch)
        prev_embed = Tensor(np.zeros((batch, self.sample_dim)))
        neg_log_q: Optional[Tensor] = None
        for step in pack.steps:
            address = step.address
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
            values, priors = step.values, step.priors
            log_q = self.proposal_layers[address].log_prob(hidden, values, priors)
            neg_log_q = (-log_q) if neg_log_q is None else neg_log_q - log_q
            encoded = SampleEmbedding.encode_values(priors[0], np.asarray(values))
            prev_embed = self.sample_embeddings[address](Tensor(encoded))
        if neg_log_q is None:
            neg_log_q = Tensor(np.zeros(()))
        return neg_log_q

    # --------------------------------------------------------------- inference
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
                "channels": getattr(self.observation_embedding, "channels", None),
            },
        }
        with open(path, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path: str) -> "InferenceNetwork":
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        # A network saved before ``seed``/``verbose``/``default_dtype`` left
        # ``Config`` still carries them; they never shaped the network.
        config = Config(**{k: v for k, v in payload["config"].items() if k in Config.__dataclass_fields__})
        meta = payload["observation_embedding_meta"]
        if payload["observation_embedding_kind"] == "ObservationEmbeddingFC":
            observation_embedding: Module = ObservationEmbeddingFC(
                input_dim=meta["input_dim"], embedding_dim=meta["embedding_dim"]
            )
        else:
            # A network saved before ``channels`` was saved has the default CNN.
            channels = {"channels": meta["channels"]} if "channels" in meta else {}
            observation_embedding = ObservationEmbedding3DCNN(
                observation_shape=tuple(meta["observation_shape"]),
                embedding_dim=meta["embedding_dim"],
                **channels,
            )
        network = cls(observation_embedding=observation_embedding, config=config, observe_key=payload["observe_key"])
        for address, spec in payload["address_specs"].items():
            prior = distribution_from_dict(spec["prior"])
            network._create_layers(address, prior)
        network.load_state_dict(payload["state_dict"])
        return network


class BatchedProposalSession:
    """Advances B guided executions in lockstep through the inference network.

    Stepping one execution at a time pays the observation embedding, one
    LSTM step and one proposal-layer forward *per trace per address*.  This
    session amortizes all three across a cohort of B executions:

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
    divergent case degrades to.  Per trace, the information flow is that of
    training: a zero previous-sample embedding after a prior fallback, and
    no LSTM advance at unknown addresses.

    Drive it through :func:`repro.ppl.inference.batched.run_mixed_cohort`,
    which suspends B model executions at their controlled draws and answers
    them through :meth:`proposals` (a one-slot session is answered
    synchronously, on the execution's own thread).

    Proposals are array-parameterised batched distributions
    (:mod:`repro.distributions.batched`): the mixture groups of a round are
    stacked into ONE object holding their ``(B, K)`` parameters (a
    categorical or custom group gets its own), whose values are drawn on the
    slots' own streams (``rngs[slot]``) and scored, each in one vectorised
    pass, and every slot is answered with a :class:`DrawnProposal`.  Values,
    densities and stream consumption are bit-identical to sampling each
    row's stand-alone ``Mixture``/``Categorical``
    (``row_distribution``).
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
        different requests).  Each distinct observation is embedded by its
        own single-row forward, so a mixed cohort produces bitwise the same
        embedding rows as running each request in its own cohort — the
        property the serving layer's seeded-equivalence tests rely on.
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
                # LSTM, and reset the previous-sample tracking (the skipped
                # step of the training loss does the same).
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
        """Draw and score ``batch`` driver-side; one complete stub per slot.

        Row ``row`` of ``batch`` is the proposal of ``slots[row]``, requested
        at ``addresses[row]`` under ``priors[row]``; rows may belong to
        different addresses.  Every slot's stream is consumed exactly once,
        by the one ``sample_rows`` call, and each stub carries the value, its
        proposal density and its prior density (:func:`prior_log_probs`), so
        the slot scores nothing.
        """
        values = batch.sample_rows([self._rngs[slot] for slot in slots])
        log_qs = batch.log_prob_rows(values).tolist()
        log_priors = prior_log_probs(priors, values)
        row_values = values.tolist() if batch.discrete else values
        prev_address = self._prev_address
        prev_prior = self._prev_prior
        responses: Dict[int, DrawnProposal] = {}
        for row, slot in enumerate(slots):
            responses[slot] = DrawnProposal(row_values[row], log_qs[row], log_priors[row])
            prev_address[slot] = addresses[row]
            prev_prior[slot] = priors[row]
        return responses


def prior_log_probs(priors: Sequence[Distribution], values: np.ndarray) -> List[float]:
    """``log_prob_total(priors[row], values[row])`` for every row, bit for bit.

    Rows whose priors share one exact signature (``prior_signature``, as
    :meth:`BatchedProposalSession._group_geometry` groups them) are scored by
    one ``log_prob`` call over their values: the densities of the families
    with a signature (Uniform, scalar Normal, TruncatedNormal, Categorical)
    are elementwise IEEE arithmetic and table lookups, so a row's score does
    not depend on the rows beside it.  Rows without a signature are scored
    one by one.
    """
    scores: List[float] = [0.0] * len(priors)
    by_signature: Dict[Tuple, List[int]] = {}
    for row, prior in enumerate(priors):
        signature = prior_signature(prior)
        if signature is None:
            scores[row] = log_prob_total(prior, values[row])
        else:
            by_signature.setdefault(signature, []).append(row)
    for rows in by_signature.values():
        group = values if len(rows) == len(values) else values[rows]
        for row, score in zip(rows, priors[rows[0]].log_prob(group).tolist()):
            scores[row] = score
    return scores
