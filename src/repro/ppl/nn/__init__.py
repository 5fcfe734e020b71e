"""Neural components of inference compilation: embeddings, proposals, the network."""

from repro.ppl.nn.embeddings import (
    AddressEmbedding,
    ObservationEmbedding3DCNN,
    ObservationEmbeddingFC,
    SampleEmbedding,
)
from repro.ppl.nn.proposals import (
    ProposalCategorical,
    ProposalLayer,
    ProposalNormalMixture,
    make_proposal_layer,
)
from repro.ppl.nn.inference_network import InferenceNetwork
from repro.ppl.nn.preprocessing import collect_address_statistics, pregenerate_layers

__all__ = [
    "AddressEmbedding",
    "ObservationEmbedding3DCNN",
    "ObservationEmbeddingFC",
    "SampleEmbedding",
    "ProposalCategorical",
    "ProposalLayer",
    "ProposalNormalMixture",
    "make_proposal_layer",
    "InferenceNetwork",
    "collect_address_statistics",
    "pregenerate_layers",
]
