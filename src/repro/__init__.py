"""repro — reproduction of PASTIS: extreme-scale many-against-many protein similarity search.

This package reimplements, in pure Python/NumPy, the full system described in
*"Extreme-scale many-against-many protein similarity search"* (Selvitopi et
al., SC 2022):

* a sequence substrate (FASTA I/O, k-mer extraction, synthetic metagenome
  generation) — :mod:`repro.sequences`;
* local semiring sparse matrices and SpGEMM — :mod:`repro.sparse`;
* Smith–Waterman alignment kernels including an ADEPT-like batched "GPU"
  aligner — :mod:`repro.align`;
* a simulated MPI runtime with a 2D process grid and an alpha-beta
  communication cost model — :mod:`repro.mpi`;
* 2D-distributed sparse matrices, Sparse SUMMA and the paper's Blocked 2D
  Sparse SUMMA — :mod:`repro.distsparse`;
* the PASTIS pipeline itself (overlap detection, load balancing,
  pre-blocking, similarity-graph construction) — :mod:`repro.core`;
* similarity-graph clustering into protein families (sparse Markov
  clustering on the SpGEMM kernel registry, union-find components,
  quality metrics) — :mod:`repro.graph`;
* baselines (brute force, MMseqs2-like, DIAMOND-like) — :mod:`repro.baselines`;
* an analytic performance model used to project paper-scale experiments —
  :mod:`repro.perfmodel`.

Quickstart
----------
>>> from repro import synthetic_dataset, PastisPipeline, PastisParams
>>> seqs = synthetic_dataset(n_sequences=200, seed=0)
>>> pipeline = PastisPipeline(PastisParams(kmer_length=5))
>>> result = pipeline.run(seqs)
>>> result.similarity_graph.num_edges >= 0
True
"""

from .version import __version__, PAPER
from .sequences import SequenceSet, synthetic_dataset, read_fasta, write_fasta
from .core import PastisParams, PastisPipeline, SearchResult, SimilarityGraph  # noqa: E402
from .graph import ClusterParams, ClusteringResult, cluster_similarity_graph  # noqa: E402

__all__ = [
    "__version__",
    "PAPER",
    "SequenceSet",
    "synthetic_dataset",
    "read_fasta",
    "write_fasta",
    "PastisParams",
    "PastisPipeline",
    "SearchResult",
    "SimilarityGraph",
    "ClusterParams",
    "ClusteringResult",
    "cluster_similarity_graph",
]
