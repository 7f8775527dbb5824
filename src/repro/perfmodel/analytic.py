"""Analytic component-time model.

Combines a :class:`repro.perfmodel.profile.WorkloadProfile` with the hardware
model to predict, for a given node count:

* **align** — DP cells over the aggregate GPU throughput, degraded by a
  batch-fill utilization term (small per-rank batches underutilize the
  device) and the measured-at-production alignment imbalance (7.1%,
  Table IV);
* **spgemm** — semiring flops over the aggregate node sparse throughput
  (3.1% imbalance) plus the blocked-SUMMA broadcast cost of §VI-A:
  ``2 alpha (br bc) sqrt(p) log sqrt(p) + beta s (br+bc) sqrt(p) log sqrt(p)``;
* **sparse_other** — streaming passes over the k-mer matrix and the overlap
  blocks (memory-bandwidth bound);
* **io** — parallel read of the FASTA input and write of the triplet output;
* **cwait** — the residual wait of the non-blocking sequence exchange.

The same machinery evaluates both load-balancing schemes (the triangularity
scheme computes roughly half the SpGEMM flops but suffers higher alignment
imbalance in the partial blocks) and the pre-blocking overlap, so strong and
weak scaling series, the overhead table and the production run can all be
regenerated from one model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..hardware.cluster import ClusterSpec, summit_subset
from ..hardware.topology import NetworkSpec
from .profile import WorkloadProfile


def summa_communication_seconds(
    p: int, local_nnz_bytes: float, network: NetworkSpec
) -> float:
    """Plain 2D Sparse SUMMA broadcast cost: ``2(alpha + beta s) sqrt(p) log2 sqrt(p)``."""
    if p <= 1:
        return 0.0
    sqrt_p = np.sqrt(p)
    log_term = max(np.log2(sqrt_p), 1.0)
    return float(
        2.0 * network.alpha_s * sqrt_p * log_term
        + 2.0 * network.beta_s_per_byte * local_nnz_bytes * sqrt_p * log_term
    )


def blocked_summa_communication_seconds(
    p: int, local_nnz_bytes: float, br: int, bc: int, network: NetworkSpec
) -> float:
    """Blocked SUMMA broadcast cost (§VI-A):

    ``2 alpha (br bc) sqrt(p) log sqrt(p) + beta s (br + bc) sqrt(p) log sqrt(p)``.
    """
    if p <= 1:
        return 0.0
    sqrt_p = np.sqrt(p)
    log_term = max(np.log2(sqrt_p), 1.0)
    return float(
        2.0 * network.alpha_s * (br * bc) * sqrt_p * log_term
        + network.beta_s_per_byte * local_nnz_bytes * (br + bc) * sqrt_p * log_term
    )


@dataclass(frozen=True)
class ComponentTimes:
    """Predicted per-component times of one configuration (seconds)."""

    nodes: int
    align: float
    spgemm: float
    sparse_other: float
    comm: float
    io: float
    cwait: float
    pre_blocking: bool = False

    @property
    def sparse_all(self) -> float:
        """All sparse work: the overlap SpGEMM plus the streaming passes."""
        return self.spgemm + self.sparse_other

    @property
    def total(self) -> float:
        """Total runtime under the configured schedule.

        With pre-blocking, the SpGEMM hides behind alignment (§VI-C) and only
        the maximum of the two is paid.
        """
        if self.pre_blocking:
            overlapped = max(self.align, self.spgemm)
        else:
            overlapped = self.align + self.spgemm
        return overlapped + self.sparse_other + self.comm + self.io + self.cwait

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary (for tables and JSON reports)."""
        return {
            "nodes": self.nodes,
            "align": self.align,
            "spgemm": self.spgemm,
            "sparse_other": self.sparse_other,
            "sparse_all": self.sparse_all,
            "comm": self.comm,
            "io": self.io,
            "cwait": self.cwait,
            "total": self.total,
        }


@dataclass
class AnalyticModel:
    """Predicts component times for a workload profile on a Summit-like cluster.

    Parameters
    ----------
    load_balancing:
        ``"index"`` or ``"triangularity"``; the triangularity scheme computes
        roughly ``sparse_savings`` fewer SpGEMM flops but pays
        ``triangularity_align_imbalance`` alignment imbalance instead of the
        index scheme's ``index_align_imbalance``.
    pre_blocking:
        Overlap SpGEMM with alignment (with the §VI-C contention factors).
    gpu_fill_cells:
        Per-rank cell count at which the GPUs reach half of their peak
        utilization (models the batch-fill / pipeline-drain losses that erode
        strong-scaling efficiency as per-rank work shrinks).
    """

    load_balancing: str = "triangularity"
    pre_blocking: bool = True
    index_align_imbalance: float = 0.05
    triangularity_align_imbalance: float = 0.12
    index_sparse_imbalance: float = 0.03
    triangularity_sparse_imbalance: float = 0.08
    sparse_savings: float = 0.45
    align_contention: float = 1.13
    sparse_contention: float = 1.30
    gpu_fill_cells: float = 8.0e12
    #: effective semiring partial products processed per second per node.
    #: This folds in all the memory traffic of the hash SpGEMM and the
    #: per-block merging; calibrated so the production-run SpGEMM lands near
    #: the paper's 2.06 hours (``tests/test_perfmodel.py`` checks the
    #: production metrics land in the paper's ballpark).
    sparse_products_per_second: float = 2.0e7
    #: fixed overhead of one local SUMMA multiply (symbolic phase, buffer
    #: allocation); each rank performs sqrt(p) * num_blocks of them, which is
    #: the "split sparse computations" penalty of §VI-A.
    per_multiply_overhead_s: float = 0.1
    bytes_per_overlap_element: float = 24.0
    output_bytes_per_pair: float = 26.0
    input_bytes_per_residue: float = 1.1
    cluster_factory: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.load_balancing not in ("index", "triangularity"):
            raise ValueError("load_balancing must be 'index' or 'triangularity'")

    # ------------------------------------------------------------------ helpers
    def _cluster(self, nodes: int) -> ClusterSpec:
        if self.cluster_factory is not None:
            return self.cluster_factory(nodes)  # type: ignore[operator]
        return summit_subset(nodes)

    def _align_imbalance(self) -> float:
        return (
            self.triangularity_align_imbalance
            if self.load_balancing == "triangularity"
            else self.index_align_imbalance
        )

    def _sparse_imbalance(self) -> float:
        return (
            self.triangularity_sparse_imbalance
            if self.load_balancing == "triangularity"
            else self.index_sparse_imbalance
        )

    def _sparse_flops(self, profile: WorkloadProfile) -> float:
        if self.load_balancing == "triangularity":
            return profile.spgemm_flops * (1.0 - self.sparse_savings)
        return profile.spgemm_flops

    # ------------------------------------------------------------------ prediction
    def component_times(self, profile: WorkloadProfile, nodes: int) -> ComponentTimes:
        """Predict the component times of running ``profile`` on ``nodes`` nodes."""
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        cluster = self._cluster(nodes)
        node = cluster.node
        network = cluster.network

        # ---- alignment on the GPUs
        cells_per_node = profile.cells / nodes
        fill = cells_per_node / (cells_per_node + self.gpu_fill_cells)
        effective_gcups = node.node_gcups * max(fill, 1e-6)
        align = cells_per_node / (effective_gcups * 1e9)
        align *= 1.0 + self._align_imbalance()

        # ---- overlap SpGEMM on the CPUs
        flops_per_node = self._sparse_flops(profile) / nodes
        br = bc = max(int(round(np.sqrt(profile.num_blocks))), 1)
        local_multiplies = np.sqrt(nodes) * profile.num_blocks
        spgemm = (
            flops_per_node / self.sparse_products_per_second
            + local_multiplies * self.per_multiply_overhead_s
        )
        spgemm *= 1.0 + self._sparse_imbalance()
        local_a_bytes = profile.kmer_nnz * 20.0 / nodes
        comm = blocked_summa_communication_seconds(nodes, local_a_bytes, br, bc, network)

        # ---- other sparse work: streaming over the k-mer matrix and overlap blocks
        overlap_bytes = profile.candidates * self.bytes_per_overlap_element / nodes
        kmer_bytes = profile.kmer_nnz * 20.0 / nodes
        sparse_other = (overlap_bytes + 2.0 * kmer_bytes) / (
            node.memory_bandwidth_gbps * 1e9
        )

        # ---- IO: read FASTA, write triplets
        input_bytes = profile.n_sequences * profile.avg_length * self.input_bytes_per_residue
        output_bytes = profile.output_pairs * self.output_bytes_per_pair
        io = cluster.io_seconds(int(input_bytes), nodes) + cluster.io_seconds(
            int(output_bytes), nodes
        )

        # ---- residual sequence-exchange wait
        seq_bytes_per_node = profile.n_sequences * profile.avg_length / max(np.sqrt(nodes), 1.0)
        cwait = network.point_to_point_seconds(int(min(seq_bytes_per_node, 1 << 26))) * np.log2(
            max(nodes, 2)
        )

        if self.pre_blocking:
            align *= self.align_contention
            spgemm *= self.sparse_contention
        return ComponentTimes(
            nodes=nodes,
            align=float(align),
            spgemm=float(spgemm),
            sparse_other=float(sparse_other),
            comm=float(comm),
            io=float(io),
            cwait=float(cwait),
            pre_blocking=self.pre_blocking,
        )

    # ------------------------------------------------------------------ headline metrics
    def production_metrics(self, profile: WorkloadProfile, nodes: int) -> dict[str, float]:
        """Table-IV style headline numbers for a configuration."""
        times = self.component_times(profile, nodes)
        cluster = self._cluster(nodes)
        kernel_seconds = profile.cells / (cluster.node.node_gcups * 1e9 * nodes)
        return {
            "nodes": nodes,
            "runtime_hours": times.total / 3600.0,
            "alignments_per_second": profile.alignments / times.total,
            "tcups": profile.cells / max(kernel_seconds, 1e-9) / 1e12,
            "align_hours": times.align / 3600.0,
            "spgemm_hours": times.spgemm / 3600.0,
            "sparse_all_hours": times.sparse_all / 3600.0,
            "io_minutes": times.io / 60.0,
            "cwait_minutes": times.cwait / 60.0,
            "io_percent": 100.0 * times.io / times.total,
            "cwait_percent": 100.0 * times.cwait / times.total,
            "total": times.total,
        }
