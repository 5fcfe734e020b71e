"""Analytic performance model of the HPC platforms (Tables 1-2, Figures 4 and 6).

The paper's throughput and scaling numbers come from Cori (Cray XC40, HSW
nodes), Edison (Cray XC30, IVB nodes) and Intel's Diamond cluster (BDW, SKL,
CSL nodes).  None of that hardware is available here, so the scaling-shaped
results are regenerated with a calibrated analytic model:

* **Platform registry** (Table 1 + Section 5): per-socket core counts, clock
  rates and peak single-precision flop rates.
* **Single-node model** (Table 2): the *measured* traces/s of this
  reproduction's trainer on the local CPU is projected onto each platform by
  the ratio of achievable flop rates (peak x efficiency observed in the
  paper), reproducing the ordering IVB < HSW ~ BDW < SKL ~ CSL and the
  1-socket -> 2-socket scaling.
* **Cluster model** (Figures 4 and 6): per-iteration time = max over ranks of
  (read + forward + backward + optimizer) + allreduce(latency, bandwidth,
  message size), where per-rank compute time varies with the trace lengths in
  its minibatch (the load imbalance that dominates at scale).  Weak scaling
  throughput follows.

The model's constants are calibrated so that the published numbers are
recovered to within a few percent when the paper's measured single-socket
rates are used as input; with this reproduction's own measured rate the
absolute numbers differ but every qualitative shape survives (that is what the
benchmarks assert).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.rng import RandomState, get_rng

__all__ = [
    "CpuPlatform",
    "PLATFORMS",
    "Interconnect",
    "ClusterSpec",
    "CORI",
    "EDISON",
    "SingleNodeModel",
    "ClusterPerformanceModel",
    "WeakScalingPoint",
]


@dataclass(frozen=True)
class CpuPlatform:
    """One row of Table 1 plus the peak flop rates quoted in Sections 5-6."""

    code: str
    model: str
    cores_per_socket: int
    clock_ghz: float
    peak_sp_gflops_per_socket: float
    #: fraction of peak the paper's training achieved on this platform (Table 2)
    observed_efficiency: float

    @property
    def achievable_gflops(self) -> float:
        return self.peak_sp_gflops_per_socket * self.observed_efficiency


#: Table 1 platforms.  Peak SP flop rates: IVB/HSW from Section 5 (460.8 / 1200
#: Gflop/s per socket), BDW quoted as 1331 in Section 6.1; SKL and CSL derived
#: from the paper's measured Gflop/s and % of peak (704/0.20, 720/0.22).
PLATFORMS: Dict[str, CpuPlatform] = {
    "IVB": CpuPlatform("IVB", "E5-2695 v2 @ 2.40GHz", 12, 2.40, 460.8, 0.43),
    "HSW": CpuPlatform("HSW", "E5-2698 v3 @ 2.30GHz", 16, 2.30, 1200.0, 0.38),
    "BDW": CpuPlatform("BDW", "E5-2697A v4 @ 2.60GHz", 16, 2.60, 1331.0, 0.32),
    "SKL": CpuPlatform("SKL", "Platinum 8170 @ 2.10GHz", 26, 2.10, 3520.0, 0.20),
    "CSL": CpuPlatform("CSL", "Gold 6252 @ 2.10GHz", 24, 2.10, 3270.0, 0.22),
}

#: Table 2 measured throughputs (traces/s) used to validate the model's shape.
PAPER_TABLE2 = {
    "IVB": {"1socket": 13.9, "2socket": 25.6, "gflops": 196.0},
    "HSW": {"1socket": 32.1, "2socket": 56.5, "gflops": 453.0},
    "BDW": {"1socket": 30.5, "2socket": 57.8, "gflops": 430.0},
    "SKL": {"1socket": 49.9, "2socket": 82.7, "gflops": 704.0},
    "CSL": {"1socket": 51.1, "2socket": 93.1, "gflops": 720.0},
}

#: two-socket scaling efficiency within a node (memory-bandwidth effects)
TWO_SOCKET_EFFICIENCY = 0.88

#: gradient elements one allreduce moves: the paper's 171,732,688-parameter network
GRADIENT_ELEMENTS = 171_732_688
#: batch reading's share of a rank's compute time in the weak-scaling model
IO_FRACTION = 0.05
#: the single-socket compute time split by phase: the measured single-socket
#: BDW breakdown of Figure 4
PHASE_FRACTIONS = {
    "batch_read": 0.13,
    "forward": 0.28,
    "backward": 0.47,
    "optimizer": 0.12,
}


@dataclass(frozen=True)
class Interconnect:
    """Latency/bandwidth description of the cluster network."""

    name: str
    latency_s: float
    bandwidth_bytes_per_s: float


@dataclass(frozen=True)
class ClusterSpec:
    """A Cori/Edison-like cluster: node platform + interconnect + size."""

    name: str
    platform: CpuPlatform
    interconnect: Interconnect
    max_nodes: int


ARIES = Interconnect("Cray Aries (dragonfly)", latency_s=1.3e-6, bandwidth_bytes_per_s=10e9)
ARIES_XC30 = Interconnect("Cray Aries (XC30)", latency_s=1.6e-6, bandwidth_bytes_per_s=8e9)

CORI = ClusterSpec("Cori", PLATFORMS["HSW"], ARIES, max_nodes=2388)
EDISON = ClusterSpec("Edison", PLATFORMS["IVB"], ARIES_XC30, max_nodes=5586)


# --------------------------------------------------------------------------- single node
class SingleNodeModel:
    """Project a measured single-socket throughput onto the Table 1/2 platforms."""

    def __init__(
        self,
        reference_platform: str = "HSW",
        measured_traces_per_s: Optional[float] = None,
    ) -> None:
        if reference_platform not in PLATFORMS:
            raise KeyError(f"unknown platform {reference_platform!r}")
        self.reference_platform = reference_platform
        # Default calibration: the paper's HSW single-socket rate.
        self.measured_traces_per_s = (
            measured_traces_per_s
            if measured_traces_per_s is not None
            else PAPER_TABLE2[reference_platform]["1socket"]
        )
        reference = PLATFORMS[reference_platform]
        # Work per trace implied by the calibration point (flop / trace).
        self.flops_per_trace = reference.achievable_gflops * 1e9 / self.measured_traces_per_s

    def throughput(self, platform_code: str, sockets: int = 1) -> float:
        """Predicted traces/s on ``sockets`` sockets of a platform."""
        platform = PLATFORMS[platform_code]
        single = platform.achievable_gflops * 1e9 / self.flops_per_trace
        if sockets == 1:
            return single
        return single * sockets * TWO_SOCKET_EFFICIENCY

    def flop_rate(self, platform_code: str) -> float:
        """Predicted sustained Gflop/s on a single socket."""
        return PLATFORMS[platform_code].achievable_gflops

    def table2(self) -> Dict[str, Dict[str, float]]:
        """The full Table 2: per-platform 1-/2-socket traces/s and Gflop/s (% peak)."""
        out: Dict[str, Dict[str, float]] = {}
        for code, platform in PLATFORMS.items():
            out[code] = {
                "1socket_traces_per_s": self.throughput(code, 1),
                "2socket_traces_per_s": self.throughput(code, 2),
                "1socket_gflops": self.flop_rate(code),
                "percent_peak": 100.0 * platform.observed_efficiency,
            }
        return out


# --------------------------------------------------------------------------- cluster
@dataclass
class WeakScalingPoint:
    """One point of the Figure 6 weak-scaling curves."""

    nodes: int
    ranks: int
    average_traces_per_s: float
    peak_traces_per_s: float
    ideal_traces_per_s: float
    efficiency: float
    sync_fraction: float


@dataclass
class PhaseBreakdown:
    """Per-socket-count phase times of Figure 4 (normalised ms/trace)."""

    sockets: int
    actual: Dict[str, float]
    best: Dict[str, float]

    @property
    def imbalance_percent(self) -> float:
        actual_total = sum(self.actual.values())
        best_total = sum(self.best.values())
        if best_total == 0:
            return 0.0
        return 100.0 * (actual_total - best_total) / best_total


class ClusterPerformanceModel:
    """Weak scaling, phase breakdown and load-imbalance model for a cluster."""

    def __init__(
        self,
        cluster: ClusterSpec,
        single_node_model: Optional[SingleNodeModel] = None,
        trace_length_distribution: Optional[Sequence[int]] = None,
        local_minibatch_size: int = 64,
        ranks_per_node: int = 2,
        rng: Optional[RandomState] = None,
    ) -> None:
        self.cluster = cluster
        self.single_node_model = single_node_model or SingleNodeModel(
            reference_platform=cluster.platform.code
            if cluster.platform.code in PLATFORMS
            else "HSW"
        )
        self.local_minibatch_size = local_minibatch_size
        self.ranks_per_node = ranks_per_node
        self.rng = rng or get_rng()
        if trace_length_distribution is None:
            # Default: a heavy-tailed mixture of short and long traces similar
            # to the rejection-sampling-induced length distribution.
            generator = self.rng.generator
            short = generator.poisson(8, size=4000) + 4
            long = generator.poisson(40, size=1000) + 10
            trace_length_distribution = np.concatenate([short, long])
        self.trace_lengths = np.asarray(trace_length_distribution, dtype=float)
        self._mean_length = float(self.trace_lengths.mean())

    # ----------------------------------------------------------------- helpers
    def socket_traces_per_s(self) -> float:
        """Per-socket (per-rank) average throughput on this cluster's platform."""
        return self.single_node_model.throughput(self.cluster.platform.code, sockets=1)

    def _rank_compute_time(self, lengths: np.ndarray) -> float:
        """Compute time of one rank's minibatch: proportional to total tokens."""
        per_trace = 1.0 / self.socket_traces_per_s()
        # Normalise so that a minibatch of mean-length traces costs B * per_trace.
        return float(per_trace * lengths.sum() / self._mean_length)

    def _sample_rank_lengths(self, num_ranks: int) -> List[np.ndarray]:
        generator = self.rng.generator
        return [
            generator.choice(self.trace_lengths, size=self.local_minibatch_size)
            for _ in range(num_ranks)
        ]

    def _allreduce_time(self, num_ranks: int) -> float:
        """Ring-allreduce style cost: 2(N-1)/N * bytes / bandwidth + log2(N) latency."""
        if num_ranks <= 1:
            return 0.0
        interconnect = self.cluster.interconnect
        bytes_moved = GRADIENT_ELEMENTS * 4 * 2 * (num_ranks - 1) / num_ranks
        return float(
            bytes_moved / interconnect.bandwidth_bytes_per_s
            + np.log2(num_ranks) * interconnect.latency_s * 200.0
        )

    # ------------------------------------------------------------ weak scaling
    def weak_scaling(self, node_counts: Sequence[int], iterations: int = 20) -> List[WeakScalingPoint]:
        """Figure 6: average / peak / ideal traces per second vs node count."""
        points: List[WeakScalingPoint] = []
        single_rank_rate = self.socket_traces_per_s()
        for nodes in node_counts:
            ranks = nodes * self.ranks_per_node
            ideal = single_rank_rate * ranks
            iteration_rates = []
            sync_times = []
            for _ in range(iterations):
                lengths = self._sample_rank_lengths(ranks)
                compute_times = np.array([self._rank_compute_time(l) for l in lengths])
                io_time = compute_times.mean() * IO_FRACTION
                sync = self._allreduce_time(ranks)
                iteration_time = compute_times.max() + io_time + sync
                traces_done = ranks * self.local_minibatch_size
                iteration_rates.append(traces_done / iteration_time)
                sync_times.append(sync / iteration_time)
            iteration_rates_arr = np.asarray(iteration_rates)
            points.append(
                WeakScalingPoint(
                    nodes=nodes,
                    ranks=ranks,
                    average_traces_per_s=float(iteration_rates_arr.mean()),
                    peak_traces_per_s=float(iteration_rates_arr.max()),
                    ideal_traces_per_s=float(ideal),
                    efficiency=float(iteration_rates_arr.mean() / ideal),
                    sync_fraction=float(np.mean(sync_times)),
                )
            )
        return points

    # --------------------------------------------------------- phase breakdown
    def phase_breakdown(
        self,
        socket_counts: Sequence[int] = (1, 2, 64),
        iterations: int = 50,
    ) -> List[PhaseBreakdown]:
        """Figure 4: actual vs best (no-imbalance) time per trace, split by phase.

        :data:`PHASE_FRACTIONS` splits the single-socket compute time into the
        forward/backward/optimizer/batch_read phases.
        """
        fractions = PHASE_FRACTIONS
        per_trace_s = 1.0 / self.socket_traces_per_s()
        results: List[PhaseBreakdown] = []
        generator = self.rng.generator
        for sockets in socket_counts:
            actual_totals = {name: 0.0 for name in fractions}
            best_totals = {name: 0.0 for name in fractions}
            actual_sync = 0.0
            best_sync = 0.0
            for _ in range(iterations):
                lengths = self._sample_rank_lengths(max(sockets, 1))
                compute = np.array([l.sum() / self._mean_length for l in lengths]) * per_trace_s
                slowest = int(np.argmax(compute))
                sync = self._allreduce_time(sockets)
                for name, fraction in fractions.items():
                    actual_totals[name] += compute[slowest] * fraction
                    best_totals[name] += compute.mean() * fraction
                actual_sync += sync
                best_sync += sync
            scale = 1000.0 / (iterations * self.local_minibatch_size)  # ms per trace
            actual = {name: value * scale for name, value in actual_totals.items()}
            best = {name: value * scale for name, value in best_totals.items()}
            if sockets > 1:
                actual["sync"] = actual_sync * scale
                best["sync"] = best_sync * scale
            results.append(PhaseBreakdown(sockets=sockets, actual=actual, best=best))
        return results
