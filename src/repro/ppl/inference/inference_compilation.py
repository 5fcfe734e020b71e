"""Inference compilation (IC): amortized inference with learned proposals.

IC (Le et al. 2017; Section 4.2 of the paper) trains a deep recurrent network
to provide proposal distributions for importance sampling by minimising

    L(phi) = E_{p(y)} [ KL( p(x|y) || q_phi(x|y) ) ]
           = E_{p(x,y)} [ -log q_phi(x|y) ] + const,

i.e. by sampling (x, y) pairs from the simulator prior and maximising the
proposal log-density of the recorded latents.  The training phase is costly
but happens once per model; afterwards inference for any new observation is a
(embarrassingly parallel) importance-sampling run with NN proposals, which is
where the paper's 230x speed-up over RMH comes from.

This module provides the single-process engine; its ``train`` is the one-rank
case of the loop in :mod:`repro.distributed.trainer` that also trains N ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.common.config import Config
from repro.common.rng import RandomState, get_rng
from repro.ppl.empirical import Empirical
from repro.ppl.inference.batched import batched_importance_sampling
from repro.ppl.nn.inference_network import InferenceNetwork
from repro.trace.trace import Trace

__all__ = ["InferenceCompilation", "TrainingHistory"]


@dataclass
class TrainingHistory:
    """Loss curve and bookkeeping recorded during IC training."""

    losses: List[float] = field(default_factory=list)
    traces_seen: List[int] = field(default_factory=list)
    num_parameters: List[int] = field(default_factory=list)
    learning_rates: List[float] = field(default_factory=list)

    def append(self, loss: float, traces: int, params: int, lr: float) -> None:
        self.losses.append(float(loss))
        self.traces_seen.append(int(traces))
        self.num_parameters.append(int(params))
        self.learning_rates.append(float(lr))

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


class InferenceCompilation:
    """The IC engine: trains an :class:`InferenceNetwork` and runs amortized IS."""

    def __init__(
        self,
        network: Optional[InferenceNetwork] = None,
        config: Optional[Config] = None,
        observe_key: Optional[str] = None,
        observation_embedding=None,
        rng: Optional[RandomState] = None,
    ) -> None:
        self.config = config or Config()
        self.rng = rng or get_rng()
        self.network = network or InferenceNetwork(
            observation_embedding=observation_embedding,
            config=self.config,
            observe_key=observe_key,
            rng=self.rng,
        )
        self.history = TrainingHistory()
        self._total_traces = 0

    # -------------------------------------------------------------------- train
    def train(
        self,
        model=None,
        num_traces: int = 1000,
        minibatch_size: int = 16,
        dataset: Optional[Sequence[Trace]] = None,
        learning_rate: float = 1e-3,
        larc: bool = False,
        lr_schedule: Optional[str] = None,
        end_learning_rate: float = 1e-5,
        callback: Optional[Callable[[int, float], None]] = None,
    ) -> TrainingHistory:
        """Train the proposal network: one rank of the shared
        :class:`~repro.distributed.trainer.TrainingLoop`, two batch sources.

        Online (``dataset is None``): each minibatch is sampled from ``model``
        on the fly and new address-specific layers are created as they are
        encountered, with their parameters registered into the optimizer.

        Offline (``dataset`` given): the network's layers are pre-generated
        from the dataset and frozen (Algorithm 2's Gˆ(x, y) branch).  The
        dataset is sorted by trace type once and chunked into token-budgeted
        minibatches (:class:`repro.data.packing.PackedEpochPlan`): each epoch
        visits every minibatch in a freshly shuffled order, sub-minibatches
        stay large (Section 4.4.3), and the packed array inputs built for a
        minibatch are cached across epochs.
        """
        # Imported lazily: the trainer module builds on this package.
        from repro.data.packing import PackedEpochPlan, pack_minibatch
        from repro.distributed.trainer import TrainingLoop

        if dataset is None and model is None:
            raise ValueError("either a model (online) or a dataset (offline) is required")
        offline = dataset is not None
        # Validate before any side effect: the offline loop freezes the network
        # irreversibly, so a bad argument must not leave it half-configured.
        if minibatch_size < 1:
            raise ValueError("minibatch_size must be >= 1")
        traces = list(dataset) if offline else None
        num_iterations = max(1, num_traces // minibatch_size)
        loop = TrainingLoop(
            self.network, traces, learning_rate, larc, lr_schedule, end_learning_rate,
            total_steps=num_iterations,
        )
        observe_key = self.network.observe_key

        if not offline:

            def source(rank):
                minibatch = model.prior_traces(minibatch_size, rng=self.rng)
                new_params = self.network.polymorph(minibatch)
                if new_params:
                    loop.optimizer.add_param_group([p for _, p in new_params], [n for n, _ in new_params])
                return pack_minibatch(minibatch, observe_key)

        else:
            plan = PackedEpochPlan(traces, minibatch_size, observe_key=observe_key)

            def source(rank):
                return plan.packs(plan.next_batch_id(self.rng))

        def record(loss, rank_packs, *_timings):
            self._total_traces += sum(pack.batch_size for pack in rank_packs[0])
            self.history.append(loss, self._total_traces, self.network.num_parameters(), loop.optimizer.lr)

        # One rank: the source's packs are the dealt work, and reading it is a no-op.
        loop.run(source, lambda packs: packs, num_iterations, record, callback)
        return self.history

    # ---------------------------------------------------------------- posterior
    def posterior(
        self,
        model,
        observation: Dict[str, Any],
        num_traces: int = 100,
        rng: Optional[RandomState] = None,
        observe_key: Optional[str] = None,
        batch_size: int = 64,
    ) -> Empirical:
        """Amortized inference: importance sampling with NN proposals.

        ``observation`` maps observe names to observed values; the entry used
        for the observation embedding is ``observe_key`` (or the single entry).

        Runs through the batched lockstep engine
        (:func:`repro.ppl.inference.batched.batched_importance_sampling`):
        cohorts of ``batch_size`` guided executions share one observation
        embedding and advance through batched LSTM/proposal steps.  Cohort
        executions run on worker threads, so ``model.forward`` must not
        mutate shared state; pass ``batch_size=1`` to run every trace on the
        calling thread (remote models are serialized automatically).
        """
        rng = rng or self.rng
        return batched_importance_sampling(
            model,
            observation,
            num_traces=num_traces,
            batch_size=batch_size,
            network=self.network,
            observe_key=observe_key,
            rng=rng,
        )

    # -------------------------------------------------------------- persistence
    def save(self, path: str) -> None:
        self.network.save(path)

    @classmethod
    def load(cls, path: str, config: Optional[Config] = None) -> "InferenceCompilation":
        network = InferenceNetwork.load(path)
        engine = cls(network=network, config=config or network.config)
        return engine
