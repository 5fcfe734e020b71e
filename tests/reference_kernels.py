"""Reference implementations the fused tensor kernels are checked against.

These are the expressions ``src/repro/tensor`` used before its hot kernels
were fused: the kernel-offset-unrolled ``einsum`` convolution, the linear
map, LSTM cell and truncated-normal-mixture density composed from elementary
autograd operations, the ragged LSTM sequence as a per-step loop of cells,
and the observation CNN with each ReLU before its pool.  They are slow and build many graph nodes; they live
here only so that ``tests/test_tensor_kernels.py`` and
``benchmarks/test_tensor_kernels.py`` can require value-and-gradient agreement
with (and a speed-up over) them.  The per-tensor Adam and LARC steps and the
per-name dict allreduce strategies are the references for the flat optimizer
step and the flat gradient average; ``tests/test_tensor_optim.py`` and
``tests/test_distributed.py`` require bit-equality with them.  Plain SGD is
the second base optimizer of the LARC and learning-rate schedule tests;
training steps Adam.  The per-call ``choice``/``uniform``/``normal`` row loop
is the reference for the batched distributions' inverse-CDF draws:
``tests/test_distributions_batched.py`` requires the same values and post-draw
generator states, and ``benchmarks/test_process_backend.py`` times the batched
kernel against it.

Guided execution has one source of proposals in ``src/``, the lockstep
``BatchedProposalSession``.  What it replaced lives here as its reference:
the per-trace ``Mixture``/``Categorical`` objects a proposal layer's
``proposal_batch`` rows stand for (:func:`proposal_distributions`), a
session that walks one execution step by step on them
(:class:`SequentialSession`, run by :func:`sequential_trace`), and
importance sampling under an arbitrary per-draw proposal provider
(:func:`provider_importance_sampling`).  ``tests/test_ppl_nn.py``,
``tests/test_batched_inference.py`` and ``tests/test_ppx_end_to_end.py``
require the engine to match them bit for bit;
``benchmarks/test_batched_speedup.py`` times proposal emission against the
per-object path.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.distributed import CommunicationStats
from repro.distributions import Categorical, Distribution, Mixture, Normal, TruncatedNormal
from repro.distributions.batched import BatchedCategorical, BatchedMixtureOfTruncatedNormals
from repro.ppl.empirical import Empirical
from repro.ppl.inference.batched import TraceJob, _TrackingProposalController, form_log_weights
from repro.ppl.nn.embeddings import SampleEmbedding
from repro.ppl.nn.proposals import ProposalCategorical, ProposalLayer
from repro.ppl.state import ProposalController
from repro.tensor import Tensor, functional as F, no_grad
from repro.tensor.optim.optimizer import FlatImage, Optimizer
from repro.tensor.tensor import _accumulate, _make


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight.T + bias`` as three graph nodes (transpose, matmul, add)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def lstm_cell(
    x: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias_ih: Tensor,
    bias_hh: Tensor,
) -> Tuple[Tensor, Tensor]:
    """The LSTM step composed from slices and elementwise operations."""
    hs = h_prev.shape[-1]
    gates = linear(x, weight_ih, bias_ih) + linear(h_prev, weight_hh, bias_hh)
    i_gate = gates[:, 0 * hs : 1 * hs].sigmoid()
    f_gate = gates[:, 1 * hs : 2 * hs].sigmoid()
    g_gate = gates[:, 2 * hs : 3 * hs].tanh()
    o_gate = gates[:, 3 * hs : 4 * hs].sigmoid()
    c_new = f_gate * c_prev + i_gate * g_gate
    h_new = o_gate * c_new.tanh()
    return h_new, c_new


def lstm_sequence(
    x: Tensor,
    batch_sizes: Sequence[int],
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias_ih: Tensor,
    bias_hh: Tensor,
    cell=lstm_cell,
) -> Tensor:
    """The ragged sequence as a per-step loop of ``cell`` from a zero state.

    ``x`` holds the rows of step ``t`` after those of step ``t - 1`` (the
    time-major layout of ``F.lstm_sequence``), and step ``t`` continues the
    first ``batch_sizes[t]`` rows of the step before it.
    """
    hidden = weight_hh.shape[1]
    h = Tensor(np.zeros((batch_sizes[0], hidden)))
    c = Tensor(np.zeros((batch_sizes[0], hidden)))
    outputs, start = [], 0
    for size in batch_sizes:
        h, c = cell(x[start : start + size], h[:size], c[:size], weight_ih, weight_hh, bias_ih, bias_hh)
        outputs.append(h)
        start += size
    return Tensor.cat(outputs, axis=0)


def truncated_normal_mixture_log_prob(
    raw_means: Tensor,
    raw_scales: Tensor,
    logits: Tensor,
    values: np.ndarray,
    geometry,
) -> Tensor:
    """The proposal layers' mixture density, one graph node per operation."""
    loc_t = Tensor(geometry.locs_column)
    scale_t = Tensor(geometry.scales_column)
    means = loc_t + raw_means.tanh() * scale_t
    scales = F.softplus(raw_scales) * scale_t + geometry.min_scale
    log_weights = F.log_softmax(logits, axis=-1)
    log_pdf = F.normal_log_pdf(values, means, scales)
    if geometry.any_bounded:
        alpha = (Tensor(geometry.finite_lows_column) - means) / scales
        beta = (Tensor(geometry.finite_highs_column) - means) / scales
        z = (F.normal_cdf(beta) - F.normal_cdf(alpha)).clamp(min_value=1e-8)
        if geometry.all_bounded:
            log_pdf = log_pdf - z.log()
        else:
            log_pdf = log_pdf - z.log() * Tensor(geometry.bounded_mask_column)
    return F.logsumexp(log_weights + log_pdf, axis=-1)


def _triple(value) -> Tuple[int, int, int]:
    return (value, value, value) if isinstance(value, int) else tuple(value)


def conv3d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, stride=1, padding=0) -> Tensor:
    """3D convolution as one ``einsum`` per kernel offset (27 for a 3x3x3 kernel).

    ``padding`` per dimension is one width for both sides or a ``(before, after)`` pair.
    """
    sd, sh, sw = _triple(stride)
    pads = [(side, side) if isinstance(side, int) else tuple(side) for side in _triple(padding)]
    (pd, _), (ph, _), (pw, _) = pads
    n, c_in, d, h, w = x.shape
    c_out, _, kd, kh, kw = weight.shape
    x_pad = np.pad(x.data, [(0, 0), (0, 0)] + pads, mode="constant")
    d_out = (x_pad.shape[2] - kd) // sd + 1
    h_out = (x_pad.shape[3] - kh) // sh + 1
    w_out = (x_pad.shape[4] - kw) // sw + 1
    offsets = [(i, j, k) for i in range(kd) for j in range(kh) for k in range(kw)]

    def patch(i, j, k):
        return (
            slice(None),
            slice(None),
            slice(i, i + sd * d_out, sd),
            slice(j, j + sh * h_out, sh),
            slice(k, k + sw * w_out, sw),
        )

    out_data = np.zeros((n, c_out, d_out, h_out, w_out))
    for i, j, k in offsets:
        out_data += np.einsum("ncdhw,oc->nodhw", x_pad[patch(i, j, k)], weight.data[:, :, i, j, k])
    if bias is not None:
        out_data += bias.data.reshape(1, c_out, 1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make(out_data, parents)
    if out.requires_grad:
        def _bw(grad):
            if bias is not None and bias.requires_grad:
                _accumulate(bias, grad.sum(axis=(0, 2, 3, 4)))
            if weight.requires_grad:
                grad_w = np.zeros_like(weight.data)
                for i, j, k in offsets:
                    grad_w[:, :, i, j, k] = np.einsum("nodhw,ncdhw->oc", grad, x_pad[patch(i, j, k)])
                _accumulate(weight, grad_w)
            if x.requires_grad:
                grad_x_pad = np.zeros_like(x_pad)
                for i, j, k in offsets:
                    grad_x_pad[patch(i, j, k)] += np.einsum(
                        "nodhw,oc->ncdhw", grad, weight.data[:, :, i, j, k]
                    )
                _accumulate(x, grad_x_pad[:, :, pd : pd + d, ph : ph + h, pw : pw + w])
        out._backward = _bw
    return out


def observation_embedding_conv_relu_pool(embedding, observations: Tensor) -> Tensor:
    """``ObservationEmbedding3DCNN`` composed in the paper's order, each conv's ReLU before its pool.

    The module pools before its ReLU (max commutes with a monotone map, and
    the ReLU then runs on the pooled volume); this walks the same layers with
    every ``pool, ReLU`` pair applied as ``ReLU, pool``.
    """
    from repro.tensor.nn import MaxPool3d, ReLU

    x = observations.reshape(observations.shape[0], 1, *observations.shape[1:])
    modules = list(embedding.network)
    index = 0
    while index < len(modules):
        module = modules[index]
        if isinstance(module, MaxPool3d) and isinstance(modules[index + 1], ReLU):
            x = module(modules[index + 1](x))
            index += 2
        else:
            x = module(x)
            index += 1
    return x


def observation_embedding_uncropped(embedding, observations: Tensor) -> Tensor:
    """``ObservationEmbedding3DCNN`` with every conv padded alike on both sides.

    The module's convs that feed a floor-mode pool pad one voxel less after
    an odd dimension, so they compute only the voxels the pool reads.  This
    walks the same layers with each conv's leading padding on both sides, as
    before that crop: the conv computes its whole output and the pool after
    it floors the odd trailing voxel away.
    """
    from repro.tensor.nn import Conv3d

    x = observations.reshape(observations.shape[0], 1, *observations.shape[1:])
    for module in embedding.network:
        if isinstance(module, Conv3d):
            leading = tuple(before for before, _ in F.conv_padding(module.padding))
            x = F.conv3d(x, module.weight, module.bias, padding=leading)
        else:
            x = module(x)
    return x


# ------------------------------------------------------- batched distributions
def sample_rows_percall(
    batch: Union[BatchedCategorical, BatchedMixtureOfTruncatedNormals],
    generators: Sequence[np.random.Generator],
) -> np.ndarray:
    """``batch.sample_rows`` with each row drawn by ``choice``/``uniform``/``normal``.

    Row ``i`` makes exactly the calls ``batch.row_distribution(i).sample``
    makes on ``generators[i]``: the category or component through
    ``choice(p=...)``, then a bounded row's ``uniform(0, 1)`` (inverted by
    the batch's own truncated-normal tail) or an unbounded row's ``normal``.
    """
    size = batch.batch_size
    if isinstance(batch, BatchedCategorical):
        return np.array(
            [int(generators[i].choice(batch.num_categories, p=batch.probs[i])) for i in range(size)]
        )
    components = np.empty(size, dtype=np.int64)
    # Scratch may stay uninitialised where unused: the gathers below read
    # uniforms only at bounded rows and normals only at unbounded ones.
    uniforms = np.empty(size)
    normals = np.empty(size)
    for i in range(size):
        components[i] = generators[i].choice(batch.num_components, p=batch.weights[i])
        if batch.bounded[i]:
            uniforms[i] = generators[i].uniform(0.0, 1.0)
        else:
            chosen = components[i]
            normals[i] = generators[i].normal(batch.locs[i, chosen], batch.scales[i, chosen])
    out = np.empty(size)
    free = ~batch.bounded
    if np.any(free):
        out[free] = normals[free]
    batch._invert_truncated(out, components, uniforms)
    return out


# ---------------------------------------------------------- guided execution
def proposal_distributions(
    layer: ProposalLayer, hidden: Tensor, priors: Sequence[Distribution]
) -> List[Distribution]:
    """The per-trace proposal objects ``layer.proposal_batch(hidden, priors)`` stands for.

    Row ``i`` of the batch must sample (value and stream consumption) and
    score exactly as object ``i``: a ``Mixture`` of ``Normal``, or of
    ``TruncatedNormal`` built in one ``batch_build`` pass for bounded
    priors, or a ``Categorical`` with 1 % of a categorical prior mixed in.
    """
    if isinstance(layer, ProposalCategorical):
        probs = F.softmax(layer.network(hidden), axis=-1).data
        objects: List[Distribution] = []
        for i, prior in enumerate(priors):
            row = probs[i]
            if isinstance(prior, Categorical):
                row = 0.99 * row + 0.01 * prior.probs
            objects.append(Categorical(row))
        return objects
    means, scales, log_weights, lows, highs, bounded = layer._transformed_parameters(hidden, list(priors))
    weights = np.exp(log_weights)
    count = layer.num_components
    bounded_rows = np.flatnonzero(bounded)
    truncated = {}
    if bounded_rows.size:
        built = TruncatedNormal.batch_build(
            means[bounded_rows].reshape(-1),
            scales[bounded_rows].reshape(-1),
            np.repeat(lows[bounded_rows], count),
            np.repeat(highs[bounded_rows], count),
        )
        for j, row in enumerate(bounded_rows):
            truncated[int(row)] = built[j * count : (j + 1) * count]
    return [
        Mixture(
            truncated.get(i) or [Normal(means[i, k], scales[i, k]) for k in range(count)],
            weights[i],
        )
        for i in range(len(priors))
    ]


class SequentialSession:
    """One guided execution walked step by step on per-object proposals.

    :meth:`proposal` is called once per controlled draw, in simulator order:
    it advances the LSTM at batch size 1 on the value drawn at the previous
    step and returns the :func:`proposal_distributions` object (``None``,
    without an LSTM advance, at an address the network has no layers for;
    the next step then sees a zero previous-sample embedding).
    """

    def __init__(self, network, observation) -> None:
        self.network = network
        with no_grad():
            self._obs_embed = network.observation_embedding(
                Tensor(np.asarray(observation, dtype=float)[None, ...])
            )
        self._state = None
        self._prev_address: Optional[str] = None
        self._prev_prior: Optional[Distribution] = None
        self.num_proposal_steps = 0
        self.num_fallbacks = 0

    def proposal(self, address: str, prior: Distribution, previous_value=None) -> Optional[Distribution]:
        network = self.network
        self.num_proposal_steps += 1
        if address not in network.proposal_layers:
            self.num_fallbacks += 1
            self._prev_address = self._prev_prior = None
            return None
        with no_grad():
            if previous_value is None or self._prev_address not in network.sample_embeddings:
                prev_embed = Tensor(np.zeros((1, network.sample_dim)))
            else:
                encoded = SampleEmbedding.encode_values(self._prev_prior, np.asarray([previous_value]))
                prev_embed = network.sample_embeddings[self._prev_address](Tensor(encoded))
            lstm_input = Tensor.cat(
                [self._obs_embed, network.address_embeddings[address](1), prev_embed], axis=1
            )
            hidden, self._state = network.lstm.step(lstm_input, self._state)
            (distribution,) = proposal_distributions(network.proposal_layers[address], hidden, [prior])
        self._prev_address = address
        self._prev_prior = prior
        return distribution


def sequential_trace(model, job: TraceJob, network):
    """Run ``job`` on a :class:`SequentialSession`; returns ``(trace, session)``.

    The execution draws every value itself, on the job's own stream: the
    proposal objects are sampled by the controller, not by the session.
    """
    session = SequentialSession(network, job.observation_array)
    controller = _TrackingProposalController(session.proposal)
    trace = model.get_trace(controller, observed_values=job.observation, rng=job.stream())
    return trace, session


def provider_importance_sampling(model, observation, num_traces, provider, rng) -> Empirical:
    """Importance sampling with ``provider(address, instance, prior)`` proposals.

    Each trace runs under its own ``ProposalController``, all on ``rng`` in
    turn, and is weighted by ``form_log_weights`` — the engine's weight
    formation — so a provider returning the prior reduces to likelihood
    weighting.
    """
    traces = [
        model.get_trace(ProposalController(provider), observed_values=observation, rng=rng)
        for _ in range(num_traces)
    ]
    return Empirical(traces, form_log_weights(traces, None, observation=observation))


# ------------------------------------------------------------------ optimizers
class SGD(Optimizer):
    """Plain / momentum SGD with optional weight decay (Algorithm 2's generic update)."""

    def __init__(self, params, lr: float = 1e-3, momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.state: Dict[int, dict] = {}

    def direction(self, image: FlatImage) -> np.ndarray:
        """The weight-decayed gradient (momentum is not applied under LARC)."""
        if self.weight_decay:
            return image.grad + self.weight_decay * image.data
        return image.grad

    def step(self) -> None:
        for param in self.params:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                state = self.state.setdefault(id(param), {})
                buf = state.get("momentum_buffer")
                if buf is None:
                    buf = np.zeros_like(param.data)
                buf = self.momentum * buf + grad
                state["momentum_buffer"] = buf
                update = buf
            else:
                update = grad
            param.data = param.data - self.lr * update


class PerTensorAdam:
    """Adam stepped one tensor at a time: about eight temporaries per tensor."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.state: Dict[int, dict] = {}

    def add_param_group(self, params):
        self.params.extend(params)

    def compute_update(self, param) -> np.ndarray:
        grad = param.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        state = self.state.setdefault(id(param), {})
        m = state.get("m")
        v = state.get("v")
        t = state.get("t", 0) + 1
        if m is None:
            m = np.zeros_like(param.data)
            v = np.zeros_like(param.data)
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * (grad * grad)
        state["m"], state["v"], state["t"] = m, v, t
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        return m_hat / (np.sqrt(v_hat) + self.eps)

    def step(self) -> None:
        for param in self.params:
            if param.grad is not None:
                param.data = param.data - self.lr * self.compute_update(param)


class PerTensorLARC:
    """LARC(Adam) stepped one tensor at a time."""

    def __init__(self, base: PerTensorAdam, trust_coefficient=0.02, clip=True, eps=1e-8):
        self.base = base
        self.trust_coefficient = trust_coefficient
        self.clip = clip
        self.eps = eps

    def add_param_group(self, params):
        self.base.add_param_group(params)

    def step(self) -> None:
        global_lr = self.base.lr
        for param in self.base.params:
            if param.grad is None:
                continue
            update = self.base.compute_update(param)
            param_norm = float(np.linalg.norm(param.data))
            update_norm = float(np.linalg.norm(update))
            if param_norm > 0 and update_norm > self.eps:
                local_lr = self.trust_coefficient * param_norm / (update_norm + self.eps)
                effective_lr = min(local_lr, global_lr) if self.clip else local_lr * global_lr
            else:
                effective_lr = global_lr
            param.data = param.data - effective_lr * update


# ------------------------------------------------------------------- allreduce
def _reduce(per_rank: Sequence[Dict[str, np.ndarray]], name: str, shape) -> np.ndarray:
    total = np.zeros(shape, dtype=float)
    for gradients in per_rank:
        if name in gradients:
            total += gradients[name]
    return total / len(per_rank)


def dict_allreduce(
    strategy: str,
    per_rank: Sequence[Dict[str, np.ndarray]],
    shapes: Dict[str, tuple],
    stats: CommunicationStats,
    bucket_elements: int = 1_000_000,
) -> Dict[str, np.ndarray]:
    """The per-name dict reductions: ``dense`` over every name, one call each;
    ``sparse`` over the sorted union of present names, one call each after the
    presence map; ``fused_sparse`` the same union fused into buckets."""
    names = sorted(shapes)
    if strategy == "dense":
        for name in names:
            stats.add_call(math.prod(shapes[name]))
        return {name: _reduce(per_rank, name, shapes[name]) for name in names}
    stats.add_call(len(names))  # presence map
    union = sorted({name for gradients in per_rank for name in gradients})
    if strategy == "sparse":
        for name in union:
            stats.add_call(math.prod(shapes[name]))
    else:
        buckets: List[List[str]] = [[]]
        filled = 0
        for name in union:
            size = math.prod(shapes[name])
            if buckets[-1] and filled + size > bucket_elements:
                buckets.append([])
                filled = 0
            buckets[-1].append(name)
            filled += size
        for bucket in buckets:
            if bucket:
                stats.add_call(sum(math.prod(shapes[name]) for name in bucket))
    return {name: _reduce(per_rank, name, shapes[name]) for name in union}
