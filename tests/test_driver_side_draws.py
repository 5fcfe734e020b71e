"""The driver draws every round: planned and dynamic alike, bit for bit.

A lockstep round is answered by one ``sample_rows`` + one ``log_prob_rows``
pass over the requesting slots' own random streams — on the dynamic grouped
path as on the planned one, and on the dynamic path one pass holds every
mixture group of the round.  The contract pinned here is that this is
invisible: against a reference session that builds each group its own batch,
hands every slot the stand-alone ``row_distribution`` and lets the worker
thread draw for itself (what the engine did before), a cohort's values,
addresses, ``log_q``, log-weights and each job's post-run generator state are
the same — with no plan, with a plan that diverges mid-cohort, at any cohort
size and under any packing.

Each row's prior is scored on the driver as well (``prior_log_probs``), one
``log_prob`` call per exact prior signature, and the stub carries the score:
bit for bit what the slot's own ``log_prob_total`` gave, for every family a
served model draws from, so served posteriors hash as they did when the slot
scored its prior.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ppl
from repro.common.rng import RandomState
from repro.distributions import (
    Beta,
    Categorical,
    Exponential,
    Gamma,
    Mixture,
    Normal,
    TruncatedNormal,
    Uniform,
    log_prob_total,
)
from repro.distributions.batched import BatchedMixtureOfTruncatedNormals
from repro.distributions.geometry import prior_signature
from repro.ppl import FunctionModel
from repro.ppl.inference.batched import (
    TraceJob,
    batched_importance_sampling,
    new_engine_stats,
    per_trace_keys,
    resolve_observation_array,
    run_mixed_cohort,
)
from repro.ppl.inference.inference_compilation import InferenceCompilation
from repro.ppl.inference.plans import PlanCache
from repro.ppl.nn.embeddings import ObservationEmbeddingFC, SampleEmbedding
from repro.ppl.nn import inference_network
from repro.ppl.nn.inference_network import BatchedProposalSession, DrawnProposal, prior_log_probs
from repro.ppl.nn.proposals import ProposalLayer, ProposalNormalMixture
from repro.serving import PosteriorService, posterior_digest
from tests.conftest import built_streams
from tests.test_slot_pool import busy_slots, lent_slots  # noqa: F401 - fixture


# ------------------------------------------------------------------- programs
def rejection_program(with_unseen_address):
    """Four branches, then a rejection loop: variable trace length, and the
    second round of a cohort holds one address group per branch taken — two
    mixture groups, a categorical one and, at inference, a prior fallback."""

    def program():
        kind = ppl.sample(Categorical([0.3, 0.3, 0.25, 0.15]), name="kind", address="kind")
        if kind == 0:
            centre = ppl.sample(Uniform(-1.0, 1.0), name="centre", address="branch_a")
        elif kind == 1:
            centre = ppl.sample(Normal(0.0, 1.0), name="centre", address="branch_b")
        elif kind == 3:
            centre = ppl.sample(Categorical([0.5, 0.5]), name="centre", address="branch_d") - 0.5
        else:
            if with_unseen_address:
                # No layers for this address: a prior-fallback (None) answer
                # in the same round as the other branches' stubs.
                ppl.sample(Normal(0.0, 0.2), name="unseen", address="branch_unseen")
            centre = ppl.sample(Uniform(0.0, 2.0), name="centre", address="branch_c")
        tries = 0
        while True:
            candidate = ppl.sample(Normal(centre, 1.0), name="candidate", address="loop")
            tries += 1
            if abs(candidate) < 1.2 or tries >= 6:
                break
        ppl.observe(Normal(np.array([candidate, centre]), 0.4), name="obs")
        return tries

    return program


def interleaved_program():
    """Uncontrolled draws between controlled ones: the worker consumes its own
    stream between two driver-side draws on the same stream."""
    start = ppl.sample(Uniform(-2.0, 2.0), name="start", address="start")
    total, steps = 0.0, 0
    while total < 1.0 and steps < 6:
        jitter = ppl.sample(Normal(0.0, 0.05), name="jitter", address="jitter", control=False)
        total += ppl.sample(Uniform(0.3, 0.7), name="step", address="step") + jitter
        steps += 1
    scale = ppl.sample(Uniform(0.9, 1.1), name="scale", address="scale", control=False)
    ppl.observe(Normal(np.array([start, total * scale]), 0.3), name="obs")
    return steps


def signatures_program():
    """Groups whose priors share one exact signature, mix two, or drift.

    The first ``width`` group shares one signature and the second, the same
    size at the same address, mixes two; the next round splits the cohort
    into two continuous groups of unequal size (``left``, ``right``), built
    one after the other into the session's one scratch, and ``right``'s prior
    follows ``width`` row by row; each ``drift`` round's prior is one
    ulp-scale step off the last, so a geometry kept from the previous round
    would be wrong for this one.
    """
    kind = ppl.sample(Categorical([0.3, 0.7]), name="kind", address="kind")
    for step in range(2):
        width = ppl.sample(Uniform(-1.0, 1.0 + 0.5 * kind * step), name="width", address="width")
    if kind == 0:
        offset = ppl.sample(Uniform(0.0, 2.0), name="offset", address="left")
    else:
        offset = ppl.sample(Normal(width, 1.0), name="offset", address="right")
    total = width + offset
    for step in range(3):
        total += ppl.sample(Uniform(0.0, 1.0 + step * 2.0**-40), name="drift", address="drift")
    ppl.observe(Normal(np.array([total, width]), 0.4), name="obs")
    return total


def _train(program, seed):
    engine = InferenceCompilation(
        observation_embedding=ObservationEmbeddingFC(input_dim=2, embedding_dim=16),
        observe_key="obs",
        rng=RandomState(seed),
    )
    engine.train(
        FunctionModel(program, name="training"), num_traces=300, minibatch_size=20,
        learning_rate=3e-3,
    )
    return engine.network


@pytest.fixture(scope="module")
def rejection_case():
    network = _train(rejection_program(with_unseen_address=False), seed=3)
    model = FunctionModel(rejection_program(with_unseen_address=True), name="rejection")
    return model, network, {"obs": np.array([0.4, 0.7])}


@pytest.fixture(scope="module")
def interleaved_case():
    network = _train(interleaved_program, seed=4)
    return FunctionModel(interleaved_program, name="interleaved"), network, {
        "obs": np.array([0.5, 1.1])
    }


@pytest.fixture(scope="module")
def signatures_case():
    network = _train(signatures_program, seed=5)
    return FunctionModel(signatures_program, name="signatures"), network, {
        "obs": np.array([2.4, 0.2])
    }


# ------------------------------------------------------------------ harnesses
class _WorkerDrawSession(BatchedProposalSession):
    """The reference: each mixture group builds its own batch (what
    ``proposal_batch`` builds), and each slot gets its stand-alone row and
    draws for itself."""

    def _answer_mixtures(self, num_components, parts):
        responses = {}
        for address, slots, priors, (locs, scales, log_weights, lows, highs, bounded) in parts:
            batch = BatchedMixtureOfTruncatedNormals(
                locs, scales, np.exp(log_weights), lows, highs, bounded=bounded
            )
            responses.update(self._answer_rows(batch, [address] * len(slots), slots, priors))
        return responses

    def _answer_rows(self, batch, addresses, slots, priors):
        responses = {}
        for row, slot in enumerate(slots):
            responses[slot] = batch.row_distribution(row)
            self._prev_address[slot] = addresses[row]
            self._prev_prior[slot] = priors[row]
        return responses


class _SessionSwap:
    """The trained network, with its dynamic lockstep session replaced/observed."""

    def __init__(self, network, session_class=BatchedProposalSession, answers=None):
        self._network = network
        self._session_class = session_class
        self._answers = answers

    def __getattr__(self, name):
        return getattr(self._network, name)

    def batched_session(self, observations, rngs):
        session = self._session_class(self._network, observations, rngs)
        if self._answers is not None:
            answer = session.proposals

            def proposals(requests):
                responses = answer(requests)
                self._answers.extend(responses.values())
                return responses

            session.proposals = proposals
        return session


def seeded_jobs(network, observation, seed, count):
    keys = per_trace_keys(RandomState(seed), count)
    array = resolve_observation_array(network, observation, "obs")
    return [TraceJob(index, observation, array, key) for index, key in enumerate(keys)]


def run_jobs(model, network, jobs, packing, plan_cache=None):
    """Run ``jobs`` in cohorts of the given sizes: ``(traces, rngs, stats)``,
    ``rngs`` being each job's generator after its run."""
    stats = new_engine_stats()
    traces, start = [], 0
    with built_streams() as streams:
        for size in packing:
            traces.extend(
                run_mixed_cohort(model, jobs[start : start + size], network, stats, plan_cache=plan_cache)
            )
            start += size
    return traces, [streams[job.key] for job in jobs], stats


def run_packing(model, network, observation, seed, packing, plan_cache=None):
    """Run ``sum(packing)`` seeded jobs in cohorts of the given sizes."""
    jobs = seeded_jobs(network, observation, seed, sum(packing))
    return run_jobs(model, network, jobs, packing, plan_cache=plan_cache)


def draws(trace):
    return [(s.address, s.controlled, s.value) for s in trace.samples if not s.observed]


def generator_states(rngs):
    return [rng.generator.bit_generator.state for rng in rngs]


def assert_same_run(run, reference, log_q_rtol=0.0):
    traces, rngs, _ = run
    reference_traces, reference_rngs, _ = reference
    assert [draws(t) for t in traces] == [draws(t) for t in reference_traces]
    assert generator_states(rngs) == generator_states(reference_rngs)
    for name in ("log_q", "log_joint"):
        assert np.allclose(
            [getattr(t, name) for t in traces],
            [getattr(t, name) for t in reference_traces],
            rtol=log_q_rtol,
            atol=0.0,
        )


def diverging_plan_cache(model, network, observation, packing):
    """A warm cache that never demotes: every cohort leases the hottest type's plan."""
    cache = PlanCache(demote_after=10**9)
    for seed in (901, 902):
        run_packing(model, network, observation, seed, packing, plan_cache=cache)
    return cache


PACKINGS = {
    "cohorts of 2": [2] * 32,
    "cohorts of 5": [5] * 12 + [4],
    "cohorts of 16": [16] * 4,
    "one cohort of 64": [64],
    "packing 7/20/37": [7, 20, 37],
    "packing 37/20/7": [37, 20, 7],
}


# ---------------------------------------------------------------------- tests
@pytest.mark.parametrize("case", ["rejection_case", "interleaved_case"])
class TestDriverDrawsAreInvisible:
    @pytest.mark.parametrize("packing", PACKINGS.values(), ids=PACKINGS.keys())
    def test_worker_draws_driver_draws_and_diverging_plans_agree(self, case, packing, request):
        model, network, observation = request.getfixturevalue(case)
        reference = run_packing(
            model, _SessionSwap(network, _WorkerDrawSession), observation, 17, packing
        )
        dynamic = run_packing(model, network, observation, 17, packing)
        cache = diverging_plan_cache(model, network, observation, packing)
        planned = run_packing(model, network, observation, 17, packing, plan_cache=cache)
        # Planned-then-diverged against purely dynamic: everything, exactly.
        assert_same_run(planned, dynamic)
        assert planned[2]["num_planned_rounds"] > 0
        # Driver draws against worker draws: values, addresses and streams
        # exactly; the stand-alone row normalises its (normalised) mixture
        # weights once more, which may move a density by an ulp.
        assert_same_run(dynamic, reference, log_q_rtol=1e-13)
        assert any(len(trace.samples) != len(dynamic[0][0].samples) for trace in dynamic[0])

    def test_plans_really_diverge_mid_cohort(self, case, request):
        model, network, observation = request.getfixturevalue(case)
        cache = diverging_plan_cache(model, network, observation, [16] * 4)
        _, _, stats = run_packing(model, network, observation, 17, [16] * 4, plan_cache=cache)
        assert stats["plan_hits"] == 4
        assert stats["num_plan_divergences"] > 0
        assert stats["plan_demotions"] == 0

    def test_packings_agree_up_to_blas_row_position(self, case, request):
        # BLAS rounds a row by its position in the matrix, so across packings
        # the contract is addresses exact, numbers to a stated tolerance.
        model, network, observation = request.getfixturevalue(case)
        first, _, _ = run_packing(model, network, observation, 17, PACKINGS["packing 7/20/37"])
        second, _, _ = run_packing(model, network, observation, 17, PACKINGS["packing 37/20/7"])
        for trace, other in zip(first, second):
            assert [d[:2] for d in draws(trace)] == [d[:2] for d in draws(other)]
            assert np.allclose(
                [d[2] for d in draws(trace)], [d[2] for d in draws(other)], rtol=0.0, atol=1e-9
            )
            assert trace.log_q == pytest.approx(other.log_q, abs=1e-9)


class TestAnswers:
    def test_every_dynamic_answer_is_a_stub_or_a_prior_fallback(self, rejection_case):
        model, network, observation = rejection_case
        answers = []
        _, _, stats = run_packing(
            model, _SessionSwap(network, answers=answers), observation, 23, [16, 16]
        )
        assert stats["num_planned_rounds"] == 0
        assert stats["num_divergent_rounds"] > 0
        stubs = [answer for answer in answers if answer is not None]
        assert stats["num_fallbacks"] == len(answers) - len(stubs) > 0
        assert stubs and all(type(answer) is DrawnProposal for answer in stubs)
        # Discrete groups answer with plain ints, continuous ones with floats.
        assert {type(stub.value) for stub in stubs} == {int, np.float64}

    def test_three_address_groups_in_one_round(self, rejection_case):
        model, network, observation = rejection_case
        traces, _, _ = run_packing(model, network, observation, 23, [16])
        assert len({trace.samples[1].address for trace in traces}) >= 3


MIXTURE_ADDRESSES = {"branch_a", "branch_b", "branch_c", "loop"}


class TestOneMixtureDrawPerRound:
    @pytest.mark.parametrize("packing", PACKINGS.values(), ids=PACKINGS.keys())
    def test_a_round_draws_all_its_mixture_groups_at_once(self, rejection_case, packing, monkeypatch):
        model, network, observation = rejection_case
        reference = run_packing(
            model, _SessionSwap(network, _WorkerDrawSession), observation, 17, packing
        )
        draw, draws = BatchedMixtureOfTruncatedNormals.sample_rows, []

        def counted_sample_rows(self, rngs=None):
            draws.append(self.batch_size)
            return draw(self, rngs)

        monkeypatch.setattr(BatchedMixtureOfTruncatedNormals, "sample_rows", counted_sample_rows)
        rounds = []

        class CountingSession(BatchedProposalSession):
            def proposals(self, requests):
                before = len(draws)
                responses = super().proposals(requests)
                rounds.append(([address for _, address, _, _ in requests], draws[before:]))
                return responses

        dynamic = run_packing(model, _SessionSwap(network, CountingSession), observation, 17, packing)
        assert_same_run(dynamic, reference, log_q_rtol=1e-13)
        for addresses, round_draws in rounds:
            mixture_rows = sum(address in MIXTURE_ADDRESSES for address in addresses)
            assert round_draws == ([mixture_rows] if mixture_rows else [])
        # Two mixture groups, a categorical group and a prior fallback in one round.
        full = [
            addresses for addresses, _ in rounds
            if {"branch_a", "branch_b", "branch_d", "branch_unseen"} <= set(addresses)
        ]
        assert bool(full) == (max(packing) >= 4)


class TestDriverSideFailure:
    @pytest.mark.parametrize("planned", [False, True], ids=["dynamic", "planned"])
    def test_failing_sample_rows_poisons_the_cohort_and_frees_every_worker(
        self, rejection_case, monkeypatch, lent_slots, planned
    ):
        model, network, observation = rejection_case
        cache = diverging_plan_cache(model, network, observation, [16]) if planned else None
        draw, calls = BatchedMixtureOfTruncatedNormals.sample_rows, []

        def exploding_sample_rows(self, rngs=None):
            calls.append(len(rngs))
            if len(calls) == 3:
                raise RuntimeError("driver-side draw exploded")
            return draw(self, rngs)

        monkeypatch.setattr(BatchedMixtureOfTruncatedNormals, "sample_rows", exploding_sample_rows)
        jobs, outcome = seeded_jobs(network, observation, 29, 16), []

        def cohort():
            try:
                run_jobs(model, network, jobs, [16], plan_cache=cache)
            except BaseException as error:  # noqa: BLE001 - asserted below
                outcome.append(error)

        runner = threading.Thread(target=cohort, daemon=True)
        runner.start()
        runner.join(timeout=60.0)
        assert not runner.is_alive(), "the cohort hung after a driver-side draw failed"
        assert len(outcome) == 1 and isinstance(outcome[0], RuntimeError)
        assert "driver-side draw exploded" in str(outcome[0])
        # Every slot thread the cohort borrowed is parked again or retired.
        taken = lent_slots[-1]
        assert len(taken) == 16 and busy_slots(taken) == []
        if planned:
            # The failed cohort gave its scratch back: the next lease reuses it.
            monkeypatch.undo()
            _, _, stats = run_packing(model, network, observation, 29, [16], plan_cache=cache)
            assert stats["plan_hits"] == 1


class _FreshBatchLayer(ProposalLayer):
    """A continuous layer the session cannot build into scratch: every group
    derives its geometry and constructs a fresh batch (``proposal_batch``)."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner

    def proposal_batch(self, hidden, priors):
        return self.inner.proposal_batch(hidden, priors)


class _FreshBatchNetwork:
    """The trained network, its continuous layers served through ``_FreshBatchLayer``."""

    def __init__(self, network):
        self._network = network
        layers = {address: network.proposal_layers[address] for address in network.address_specs}
        self.proposal_layers = {
            address: _FreshBatchLayer(layer) if isinstance(layer, ProposalNormalMixture) else layer
            for address, layer in layers.items()
        }

    def __getattr__(self, name):
        return getattr(self._network, name)


class _PerGroupSession(_WorkerDrawSession):
    """The reference for the dynamic round's shortcuts too: with
    ``_FreshBatchNetwork`` every group derives its own geometry and batch, and
    previous values are encoded row by row; the worker draws."""

    def _encode_previous(self, slots, values):
        return np.concatenate(
            [
                SampleEmbedding.encode_values(self._prev_prior[slot], np.asarray([value]))
                for slot, value in zip(slots, values)
            ],
            axis=0,
        )


class _RecordingSession(BatchedProposalSession):
    """The dynamic session, keeping every instance and what each group held."""

    sessions = []

    def __init__(self, *args):
        super().__init__(*args)
        self.groups = []
        _RecordingSession.sessions.append(self)

    def _step_group(self, address, members):
        signatures = {prior_signature(prior) for _, prior, _ in members}
        self.groups.append((self.num_rounds, address, len(members), signatures))
        return super()._step_group(address, members)


class TestDynamicShortcutsAreInvisible:
    """Geometry kept per (signature, size), groups built into the session's
    scratch and one-call previous-value encodes change no bit against a
    reference that derives, builds and encodes every group afresh."""

    @pytest.mark.parametrize("packing", [[16] * 4, [64], [7, 20, 37]], ids=["16x4", "64", "7/20/37"])
    def test_mixed_shared_and_drifting_signatures_match_the_reference(self, signatures_case, packing):
        model, network, observation = signatures_case
        reference = run_packing(
            model, _SessionSwap(_FreshBatchNetwork(network), _PerGroupSession), observation, 19, packing
        )
        dynamic = run_packing(model, network, observation, 19, packing)
        assert_same_run(dynamic, reference, log_q_rtol=1e-13)

    def test_the_cohort_holds_each_kind_of_group(self, signatures_case):
        model, network, observation = signatures_case
        _RecordingSession.sessions = []
        run_packing(model, _SessionSwap(network, _RecordingSession), observation, 19, [16])
        (session,) = _RecordingSession.sessions
        by_address = {}
        for round_index, address, size, signatures in session.groups:
            by_address.setdefault(address, []).append((round_index, size, signatures))
        # One signature, then the same address and size with two: per-row
        # geometry and, next round, per-row encodes.
        assert [len(signatures) for _, _, signatures in by_address["width"]] == [1, 2]
        # Two continuous groups of unequal size in one round, one scratch between them.
        ((left_round, left_size, _),) = by_address["left"]
        ((right_round, right_size, _),) = by_address["right"]
        assert left_round == right_round and left_size != right_size
        assert len(session._mixture_scratch) == 1
        # The drift rounds share one signature within and a different one across.
        drift = [signatures for _, _, signatures in by_address["drift"]]
        assert all(len(signatures) == 1 for signatures in drift)
        assert len(set.union(*drift)) == 3


# ------------------------------------------------------ priors scored driver-side
def bits(number):
    return np.float64(number).tobytes()


_SCALE = st.floats(0.05, 5.0)
_LOC = st.floats(-5.0, 5.0)


@st.composite
def continuous_prior_spec(draw):
    """A continuous prior a served model may draw from, as a zero-argument factory.

    Uniform, Normal and TruncatedNormal have exact signatures (grouped);
    Beta, Gamma, Exponential and Mixture have none (scored row by row).
    """
    family = draw(
        st.sampled_from(["Uniform", "Normal", "TruncatedNormal", "Beta", "Gamma", "Exponential", "Mixture"])
    )
    if family == "Uniform":
        low, width = draw(_LOC), draw(_SCALE)
        return lambda: Uniform(low, low + width)
    if family == "Normal":
        loc, scale = draw(_LOC), draw(_SCALE)
        return lambda: Normal(loc, scale)
    if family == "TruncatedNormal":
        loc, scale, low, width = draw(_LOC), draw(_SCALE), draw(_LOC), draw(_SCALE)
        return lambda: TruncatedNormal(loc, scale, low, low + width)
    if family == "Beta":
        alpha, beta = draw(_SCALE), draw(_SCALE)
        return lambda: Beta(alpha, beta)
    if family == "Gamma":
        shape, scale = draw(_SCALE), draw(_SCALE)
        return lambda: Gamma(shape, scale)
    if family == "Exponential":
        rate = draw(_SCALE)
        return lambda: Exponential(rate)
    locs, scale, weight = (draw(_LOC), draw(_LOC)), draw(_SCALE), draw(st.floats(0.05, 0.95))
    return lambda: Mixture([Normal(locs[0], scale), Normal(locs[1], scale)], [weight, 1.0 - weight])


#: in and outside every family's support, its edges included
_VALUE = st.one_of(
    st.floats(-50.0, 50.0), st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
)


@st.composite
def continuous_rows(draw):
    """Rows over a few prior specs: each row builds its own prior object, so
    rows of one spec share a signature without sharing an object."""
    specs = draw(st.lists(continuous_prior_spec(), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(specs) - 1), min_size=1, max_size=24))
    values = draw(st.lists(_VALUE, min_size=len(picks), max_size=len(picks)))
    return [specs[pick]() for pick in picks], np.array(values, dtype=float)


@st.composite
def categorical_rows(draw):
    tables = draw(
        st.lists(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5).filter(lambda p: sum(p) > 0),
                 min_size=1, max_size=3)
    )
    picks = draw(st.lists(st.integers(0, len(tables) - 1), min_size=1, max_size=24))
    priors = [Categorical(tables[pick]) for pick in picks]
    values = [draw(st.integers(-1, prior.num_categories)) for prior in priors]
    return priors, np.array(values, dtype=np.int64)


class TestPriorsScoredOnTheDriver:
    @settings(max_examples=300, deadline=None)
    @given(continuous_rows())
    def test_continuous_rows_score_as_the_slot_did(self, rows):
        priors, values = rows
        scores = prior_log_probs(priors, values)
        # The slot scored ``values[row]`` itself: a numpy float of a continuous batch.
        assert [bits(score) for score in scores] == [
            bits(log_prob_total(prior, value)) for prior, value in zip(priors, values)
        ]

    @settings(max_examples=200, deadline=None)
    @given(categorical_rows())
    def test_categorical_rows_score_as_the_slot_did(self, rows):
        priors, values = rows
        scores = prior_log_probs(priors, values)
        # ... and ``int(values[row])`` of a discrete one.
        assert [bits(score) for score in scores] == [
            bits(log_prob_total(prior, int(value))) for prior, value in zip(priors, values)
        ]

    def test_one_log_prob_call_per_signature(self, monkeypatch):
        calls = []
        log_prob = Uniform.log_prob

        def counted_log_prob(self, value):
            calls.append(np.shape(value))
            return log_prob(self, value)

        monkeypatch.setattr(Uniform, "log_prob", counted_log_prob)
        priors = [Uniform(0.0, 1.0), Uniform(0.0, 2.0), Uniform(0.0, 1.0), Beta(2.0, 2.0), Uniform(0.0, 1.0)]
        scores = prior_log_probs(priors, np.array([0.5, 1.5, 3.0, 0.5, -1.0]))
        assert sorted(calls) == [(1,), (3,)]
        assert scores[2] == scores[4] == -np.inf and scores[1] == -np.log(2.0)

    def test_every_stub_carries_the_prior_score(self, rejection_case):
        model, network, observation = rejection_case
        answers = []
        traces, _, _ = run_packing(
            model, _SessionSwap(network, answers=answers), observation, 23, [16, 16]
        )
        stubs = [answer for answer in answers if answer is not None]
        assert stubs and all(type(stub.log_prior) is float for stub in stubs)
        # The trace records the stub's prior score, unscored by the slot.
        recorded = {bits(s.log_prob) for t in traces for s in t.samples if not s.observed}
        assert {bits(stub.log_prior) for stub in stubs} <= recorded


def served_fingerprints(posterior):
    """A posterior's digest, and each trace's ``log_q``, ``log_prior`` and ``log_joint`` bits."""
    return posterior_digest(posterior), [
        np.array([trace.log_q, trace.log_prior, trace.log_joint]).tobytes()
        for trace in posterior.values
    ]


class TestServedPosteriorsAsWhenTheSlotScored:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("guided", [True, False], ids=["ic", "prior"])
    def test_served_posteriors_hash_as_slot_scored_runs(
        self, rejection_case, backend, guided, monkeypatch
    ):
        model, network, observation = rejection_case
        network = network if guided else None
        served = {}
        with PosteriorService(
            model, network, observe_key="obs", max_batch=32, max_latency=0.01, num_workers=2,
            backend=backend,
        ) as service:
            for seed in (3, 4, 5):
                future = service.submit(observation, num_traces=16, seed=seed, use_cache=False)
                served[seed] = served_fingerprints(future.result(timeout=120).posterior)
        # The stubs carry no prior score, so each slot scores its own prior —
        # the engine before the driver scored priors.
        monkeypatch.setattr(
            inference_network, "prior_log_probs", lambda priors, values: [None] * len(priors)
        )
        for seed, fingerprints in served.items():
            direct = batched_importance_sampling(
                model, observation, num_traces=16, network=network, observe_key="obs",
                rng=RandomState(seed),
            )
            assert served_fingerprints(direct) == fingerprints
