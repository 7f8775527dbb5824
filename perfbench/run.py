"""The repository benchmark: seeded workloads, end-to-end metrics, output checks.

    python3 perfbench/run.py --workload avsa_align --seed 0 --seconds 30 --trace 0

Workloads (``workloads.py``; why each was chosen is in ``BENCHMARK.json``):
``avsa_align`` and ``avsa_k6`` time all-vs-all ``PastisPipeline.run``
searches; ``query_serve`` runs a closed loop of serving requests against a
persisted index.  Every measurement runs in a fresh process
(``worker.py``), so peak RSS and set-up are per process; a run repeats
measurements for ``--seconds`` and reports medians.

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric (``layers.py``), as the last stdout line::

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

Every operation's output is checked with code outside the path under test:
canonical edge sets against the digests in ``expected.json``, a seeded
sample of edges re-scored with the scalar Smith-Waterman reference, member
serving answers against their all-vs-all neighbourhoods, novel ones
re-scored.  An exception or a failed check counts the operation as failed.
A stamped report (host, nproc, NumPy, git revision) is written to
``perfbench/results/``.  Regenerate ``expected.json`` with ``--record``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402

from _results import result_meta  # noqa: E402
from repro.align.smith_waterman import smith_waterman_reference  # noqa: E402
from layers import COMPUTED  # noqa: E402
from workloads import WORKLOADS, database  # noqa: E402

EXPECTED = HERE / "expected.json"
RESULTS = HERE / "results"
#: searches per run, whatever --seconds allows: the median of three
#: ignores one search whose database order happens to pad badly
MIN_SEARCHES = 3
#: closed-loop serving processes per run (their loops split --seconds)
SERVE_STREAMS = 2
#: edges re-scored with the scalar reference per search / per serving run
RESCORE_SAMPLE = 4
#: pairs above this many DP cells are too slow for the scalar reference
RESCORE_MAX_CELLS = 100_000
WORKER_TIMEOUT_S = 170


def spawn(spec: dict) -> dict:
    """Run one measurement in a fresh process; raise if it failed."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {spec} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def edges_digest(edges: list) -> str:
    return hashlib.sha256(json.dumps(edges).encode()).hexdigest()


def rescore_ok(a_codes, b_codes, score: int, ani: float, coverage: float) -> bool:
    """One reported alignment against the scalar reference."""
    ref = smith_waterman_reference(np.asarray(a_codes), np.asarray(b_codes))
    return (
        ref.score == score
        and np.float32(ref.identity) == np.float32(ani)
        and np.float32(ref.coverage(len(a_codes), len(b_codes))) == np.float32(coverage)
    )


def _sample(candidates: list, rng: np.random.Generator, cells) -> list:
    small = [c for c in candidates if cells(c) <= RESCORE_MAX_CELLS]
    picks = rng.permutation(len(small))[:RESCORE_SAMPLE]
    return [small[k] for k in picks]


def check_search(out: dict, workload, db, expected: dict, rng) -> bool:
    edges = out["edges"]
    if edges_digest(edges) != expected[workload.name]["digest"]:
        return False
    cells = lambda e: len(db.codes(e[0])) * len(db.codes(e[1]))  # noqa: E731
    return all(
        rescore_ok(db.codes(lo), db.codes(hi), score, ani, cov)
        for lo, hi, score, ani, cov in _sample(edges, rng, cells)
    )


def neighbourhoods(edges: list) -> dict[int, list]:
    """All-vs-all matches of every database sequence, as served answers."""
    out: dict[int, list] = {}
    for lo, hi, score, ani, cov in edges:
        out.setdefault(lo, []).append([hi, score, ani, cov])
        out.setdefault(hi, []).append([lo, score, ani, cov])
    return {row: sorted(matches) for row, matches in out.items()}


def check_serve(out: dict, db, expected: dict, rng) -> list[bool]:
    """Per-request verdicts of one serving process."""
    reference = neighbourhoods(expected["avsa_align"]["edges"])
    n_db = out["n_db"]
    verdicts, novel_matches = [], []
    for request in out["answers"]:
        matches = request["matches"]
        if request["kind"] == "member":
            codes = db.codes(request["parent"]).tolist()
            served = sorted(m[:4] for m in matches if m[0] < n_db)
            ok = request["row"] == request["parent"] and served == reference.get(
                request["parent"], []
            )
            # matches with the batch's novel queries are not in the reference
            matches = [m for m in matches if m[0] >= n_db]
        else:
            codes = request["codes"]
            ok = request["row"] >= n_db
        novel_matches += [(len(verdicts), codes, m) for m in matches]
        verdicts.append(ok)
    # rows >= n_db are the novel queries of the same batch
    partner = lambda m: m[4] if m[0] >= n_db else db.codes(m[0])  # noqa: E731
    cells = lambda item: len(item[1]) * len(partner(item[2]))  # noqa: E731
    for request, codes, m in _sample(novel_matches, rng, cells):
        if not rescore_ok(codes, partner(m), m[1], m[2], m[3]):
            verdicts[request] = False
    return verdicts


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with >= 10 samples beyond it, and its value
    (the median when there are fewer than 20 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def run_search(workload, args, expected) -> tuple[dict, int, int, dict]:
    db = database(workload)
    rng = np.random.default_rng([args.seed, 7])
    outs, failed, durations = [], 0, []
    start = time.perf_counter()
    index = 0
    while index < (1 if args.trace else MIN_SEARCHES) or (
        not args.trace
        and time.perf_counter() - start + statistics.median(durations) <= args.seconds
    ):
        t0 = time.perf_counter()
        spec = {"workload": workload.name, "seed": args.seed, "index": index, "trace": args.trace}
        index += 1
        try:
            out = spawn(spec)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(exc, file=sys.stderr)
            failed += 1
            continue
        finally:
            durations.append(time.perf_counter() - t0)
        if not check_search(out, workload, db, expected, rng):
            print(f"search {spec} failed its output check", file=sys.stderr)
            failed += 1
        outs.append(out)
    if not outs:
        raise SystemExit("every search failed")
    if args.trace:
        return outs[0]["layers"], index, failed, {"computed": COMPUTED}
    searches = [o["search_s"] for o in outs]
    pct, tail_s = tail(searches)
    metrics = {
        "search_s": statistics.median(searches),
        "request_p50_s": statistics.median(searches),
        "request_tail_s": tail_s,
        # an all-vs-all search answers every database sequence as a query
        "queries_per_s": workload.n_sequences / statistics.median(searches),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outs),
        "setup_s": statistics.median(o["setup_s"] for o in outs),
    }
    return metrics, index, failed, {"tail_percentile": pct, "requests": len(searches),
                                    "search_samples_s": searches}


def run_serve(workload, args, expected) -> tuple[dict, int, int, dict]:
    db = database(workload)
    rng = np.random.default_rng([args.seed, 7])
    streams = 1 if args.trace else SERVE_STREAMS
    outs, attempted, failed = [], 0, 0
    for stream in range(streams):
        spec = {"workload": workload.name, "seed": args.seed, "index": stream,
                "trace": args.trace, "seconds": args.seconds / streams}
        try:
            out = spawn(spec)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(exc, file=sys.stderr)
            attempted += 1
            failed += 1
            continue
        verdicts = check_serve(out, db, expected, rng)
        attempted += len(verdicts)
        failed += verdicts.count(False)
        outs.append(out)
    if not outs:
        raise SystemExit("every serving process failed")
    if args.trace:
        return outs[0]["layers"], attempted, failed, {"computed": COMPUTED}
    latencies = [x for o in outs for x in o["latencies"]]
    batch_walls = [x for o in outs for x in o["batch_walls"]]
    pct, tail_s = tail(latencies)
    metrics = {
        "search_s": statistics.median(batch_walls),
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": tail_s,
        "queries_per_s": len(latencies) / sum(o["loop_s"] for o in outs),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outs),
        "setup_s": statistics.median(o["setup_s"] for o in outs),
    }
    return metrics, attempted, failed, {"tail_percentile": pct, "requests": len(latencies),
                                        "search_samples_s": batch_walls}


def record() -> None:
    """Write ``expected.json``: the canonical edge set of each search workload."""
    expected = {}
    for workload in WORKLOADS.values():
        if workload.serve:
            continue
        out = spawn({"workload": workload.name, "seed": 0, "index": 0, "trace": 0})
        expected[workload.name] = {"digest": edges_digest(out["edges"]), "edges": out["edges"]}
    entries = []
    for name, entry in expected.items():
        edges = ",\n".join(json.dumps(edge) for edge in entry["edges"])
        entries.append(f'"{name}": {{"digest": "{entry["digest"]}", "edges": [\n{edges}\n]}}')
    EXPECTED.write_text("{\n" + ",\n".join(entries) + "\n}\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="regenerate expected.json")
    args = parser.parse_args()
    if args.record:
        record()
        return
    if args.workload is None:
        parser.error("--workload is required")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    expected = json.loads(EXPECTED.read_text())
    workload = WORKLOADS[args.workload]
    runner = run_serve if workload.serve else run_search
    values, attempted, failed, extra = runner(workload, args, expected)
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    meta = result_meta(f"perfbench-{args.workload}")
    meta.update(numpy=np.__version__, nproc=len(os.sched_getaffinity(0)))
    report = {
        "meta": meta,
        "args": vars(args),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        **extra,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(report, indent=1) + "\n")
    host = meta["host"]
    print(
        f"host {host['hostname']} nproc {meta['nproc']} numpy {meta['numpy']} "
        f"git {meta['git_revision']}; fail_ratio {report['fail_ratio']:.4f}"
        + (f"; request_tail_s is p{extra['tail_percentile']:.1f} of {extra['requests']} "
           "requests" if "requests" in extra else f"; computed counts: {', '.join(COMPUTED)}")
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))


if __name__ == "__main__":
    main()
