"""The benchmark's workloads: parameters and seeded inputs.

Every workload searches one fixed synthetic database built with the
generator's family, mutation and length-tail defaults
(``synthetic_dataset(n, seed=DATABASE_SEED)``).  The ``--seed`` of a run
never changes the database's content; it permutes the order of its
sequences, which moves pairs between blocks, ranks and alignment batches,
and (for ``query_serve``) orders a fixed request mix and draws its novel
query variants.  Independent 200-sequence
databases differ more than 2x in search time (generator seeds 0-6 took
11-27 s per ``avsa_align`` search on a 2-CPU host), far wider than any
regression bound; a permuted fixed database keeps the work comparable
across seeds while still varying its layout, and keeps the output pinned:
the canonical edge set is the same for every seed (``expected.json``).

``DATABASE_SEED = 4`` was the median-cost generator seed among seeds 0-6
for both database sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.params import PastisParams
from repro.graph.api import ClusterParams
from repro.sequences.sequence import SequenceSet
from repro.sequences.synthetic import synthetic_dataset

DATABASE_SEED = 4

#: clients of the closed serving loop; each round's requests form one batch
SERVE_CLIENTS = 4
#: distinct rounds of the serving mix; the closed loop replays whole passes
MIX_ROUNDS = 6
#: substitution rate of the novel (non-member) serving queries
NOVEL_MUTATION_RATE = 0.10


@dataclass(frozen=True)
class Workload:
    name: str
    n_sequences: int
    params: PastisParams
    serve: bool = False


def _align_params() -> PastisParams:
    return PastisParams(
        kmer_length=5,
        common_kmer_threshold=1,
        num_blocks=9,
        nodes=4,
        clock="measured",
    )


WORKLOADS = {
    # alignment is ~97 % of wall: shows align-kernel and batching gains
    "avsa_align": Workload("avsa_align", 200, _align_params()),
    # the paper's seeding; the discover lane (CSR over a 20^6 k-mer space)
    # is the critical path and align hides behind it
    "avsa_k6": Workload(
        "avsa_k6",
        90,
        PastisParams(
            kmer_length=6,
            substitute_kmers=2,
            common_kmer_threshold=2,
            num_blocks=8,
            nodes=4,
            clock="measured",
            pre_blocking=True,
            cluster=ClusterParams(enabled=True),
        ),
    ),
    # the avsa_align database served from a persisted index
    "query_serve": Workload("query_serve", 200, _align_params(), serve=True),
}


def database(workload: Workload) -> SequenceSet:
    return synthetic_dataset(n_sequences=workload.n_sequences, seed=DATABASE_SEED)


def permutation(n: int, seed: int, index: int) -> np.ndarray:
    """Order of the database in search ``index`` of a run with ``seed``."""
    return np.random.default_rng([seed, index]).permutation(n)


def mutate(codes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A novel query: ``codes`` with substitutions (at least one)."""
    out = codes.copy()
    hits = rng.random(out.size) < NOVEL_MUTATION_RATE
    hits[rng.integers(out.size)] = True
    # a shift of 1..19 in the 20-letter code space always changes the residue
    out[hits] = (out[hits] + rng.integers(1, 20, int(hits.sum()))) % 20
    return out


def serving_mix(db: SequenceSet) -> list[list[tuple[str, int]]]:
    """The fixed request mix: ``MIX_ROUNDS`` rounds of ``(kind, parent)``.

    Client ``c`` serves the ``c``-th length stratum of the database, so
    every batch mixes short and long queries as the database does; kinds
    alternate between database members and novel mutated variants, per
    client and per round.  The mix is fixed like the searched database: a
    batch's cost depends on how many block rows its member queries touch
    (each computed block pays fixed SUMMA and CSR costs), and a seeded mix
    moved the medians by 13-16 % between seeds.
    """
    strata = np.array_split(np.argsort(db.lengths, kind="stable"), SERVE_CLIENTS)
    rng = np.random.default_rng(DATABASE_SEED)
    columns = [rng.choice(stratum, MIX_ROUNDS, replace=False) for stratum in strata]
    return [
        [("member" if (c + r) % 2 == 0 else "novel", int(columns[c][r]))
         for c in range(SERVE_CLIENTS)]
        for r in range(MIX_ROUNDS)
    ]


def query_passes(db: SequenceSet, seed: int, stream: int):
    """Endless seeded passes over :func:`serving_mix`.

    Each pass replays every round of the mix once, in a seeded order, with
    freshly drawn novel variants.  A round is one request per client, each
    ``(kind, parent, codes)``, ``parent`` being the database index the
    query is (or was mutated from).
    """
    mix = serving_mix(db)
    rng = np.random.default_rng([seed, 1000 + stream])
    while True:
        yield [
            [
                (kind, parent,
                 db.codes(parent) if kind == "member" else mutate(db.codes(parent), rng))
                for kind, parent in mix[r]
            ]
            for r in rng.permutation(MIX_ROUNDS)
        ]
