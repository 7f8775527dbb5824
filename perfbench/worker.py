"""One measurement in a fresh process (spawned by ``run.py``).

A fresh process per measurement is what makes ``peak_rss_mb`` and
``setup_s`` meaningful: ``ru_maxrss`` never goes down, and the ``repro``
imports are only paid once per process.

Usage: ``python3 perfbench/worker.py '<json spec>'``; prints one JSON
object as its last line.  Spec keys: ``workload``, ``seed``, ``index``
(which search or serving stream of the run this is), ``trace`` (0/1) and,
for ``query_serve``, ``seconds``: the untraced closed loop replays whole
passes over the request mix until it has run that long; the traced run
replays one pass untraced, then traced.
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import time
from pathlib import Path

T0 = time.perf_counter()
# ---- program set-up: the repro imports every workload pays ---------------
from repro.core.pipeline import PastisPipeline  # noqa: E402
from repro.serve import KmerIndex, QueryBatcher, build_index  # noqa: E402

IMPORT_S = time.perf_counter() - T0

import numpy as np  # noqa: E402

from repro.sequences.sequence import SequenceSet  # noqa: E402

from layers import LayerTrace, layer_metrics  # noqa: E402
from workloads import SERVE_CLIENTS, WORKLOADS, database, permutation, query_passes  # noqa: E402

WORK_DIR = Path(__file__).resolve().parent / ".work"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical_edges(edges: np.ndarray, order: np.ndarray) -> list[list]:
    """Edges in database coordinates, ``lo < hi``, sorted."""
    a, b = order[edges["row"]], order[edges["col"]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keep = np.lexsort((hi, lo))
    return [
        [int(lo[k]), int(hi[k]), int(edges["score"][k]),
         float(edges["ani"][k]), float(edges["coverage"][k])]
        for k in keep
    ]


def search(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    db = database(workload)
    order = permutation(len(db), spec["seed"], spec["index"])
    sequences = db.subset(order)
    pipeline = PastisPipeline(workload.params)

    def timed_run():
        t0 = time.perf_counter()
        result = pipeline.run(sequences)
        return result, time.perf_counter() - t0

    out = {"setup_s": IMPORT_S}
    if spec["trace"]:
        _, untraced = timed_run()
        with LayerTrace() as trace:
            result, traced = timed_run()
        out["layers"] = layer_metrics(trace, 1, traced, untraced)
    else:
        result, out["search_s"] = timed_run()
        out["peak_rss_mb"] = peak_rss_mb()
    out["edges"] = canonical_edges(result.similarity_graph.edges, order)
    return out


def serve(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    db = database(workload)
    passes = query_passes(db, spec["seed"], spec["index"])
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as index_dir:
        t0 = time.perf_counter()
        build_index(db, workload.params, index_dir)
        KmerIndex.open(index_dir)
        setup_s = IMPORT_S + time.perf_counter() - t0
        batcher = QueryBatcher(index_dir, workload.params, max_batch_queries=SERVE_CLIENTS)
        answers: list[dict] = []

        def one_round(requests) -> tuple[float, list[float]]:
            """Submit one query per client, drain them as one batch."""
            submitted = []
            start = time.perf_counter()
            for kind, parent, codes in requests:
                query = SequenceSet(codes, np.array([0, codes.size]), [f"{kind}-{parent}"])
                submitted.append(time.perf_counter())
                batcher.submit(query)
            replies = batcher.drain()
            done = time.perf_counter()
            # rows >= n_db are the batch's novel queries, in request order
            novel = [codes for kind, _, codes in requests if kind == "novel"]
            for (kind, parent, codes), reply in zip(requests, replies):
                matches = []
                for m in reply.matches[0]:
                    partner = int(m["partner"])
                    other = novel[partner - len(db)].tolist() if partner >= len(db) else None
                    matches.append(
                        [partner, int(m["score"]), float(m["ani"]), float(m["coverage"]), other]
                    )
                answers.append(
                    {
                        "kind": kind,
                        "parent": parent,
                        "row": int(reply.rows[0]),
                        "codes": codes.tolist() if kind == "novel" else None,
                        "matches": matches,
                    }
                )
            return done - start, [done - t for t in submitted]

        out = {"setup_s": setup_s, "n_db": len(db)}
        if spec["trace"]:
            schedule = next(passes)
            untraced = [one_round(r)[0] for r in schedule]
            answers.clear()
            with LayerTrace() as trace:
                traced = [one_round(r)[0] for r in schedule]
            out["layers"] = layer_metrics(
                trace, len(schedule), float(np.mean(traced)), float(np.mean(untraced))
            )
        else:
            latencies, batch_walls = [], []
            loop_start = time.perf_counter()
            while time.perf_counter() - loop_start < spec["seconds"]:
                for requests in next(passes):
                    _, waited = one_round(requests)
                    latencies.extend(waited)
                    batch_walls.append(batcher.batches[-1].wall_seconds)
            out["loop_s"] = time.perf_counter() - loop_start
            out["latencies"] = latencies
            out["batch_walls"] = batch_walls
            out["peak_rss_mb"] = peak_rss_mb()
        out["answers"] = answers
    return out


def main() -> None:
    spec = json.loads(sys.argv[1])
    workload = WORKLOADS[spec["workload"]]
    out = serve(spec) if workload.serve else search(spec)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
