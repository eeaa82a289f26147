"""Per-event emission latency: batch ``run()`` vs streaming sessions.

The point of the push-based Session API is *when* matches surface: a
batch run holds every match until the whole stream has been consumed,
while an eager session emits each match on the push that validated it.
This benchmark quantifies that on a tumbling-window NYSE workload:

* **emission latency in events** — how many events arrive between the
  match's anchor (the event that completed the pattern) and its
  emission.  Batch: grows with the stream length (everything waits for
  end-of-stream).  Session: bounded by the window decomposition.
* **push latency** — wall-clock p50/p99 of one ``session.push`` call,
  i.e. the latency a live source would observe per event.
* **throughput** — events/s of the full batch run vs the full
  push-driven run (the streaming overhead).

Every session run is parity-checked against the batch output.  Results
go to ``BENCH_streaming_latency.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_streaming_latency.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets import generate_nyse, leading_symbols  # noqa: E402
from repro.queries import make_q1  # noqa: E402
from repro.streaming.builder import build_engine  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_streaming_latency.json"

ENGINE_OPTIONS = {
    "sequential": {},
    "spectre": {"k": 2},
}


def build_workload(quick: bool):
    """Tumbling-window Q1 over an NYSE stream: windows retire steadily,
    so sessions emit throughout the run."""
    n_events = 4000 if quick else 40000
    events = generate_nyse(n_events, n_symbols=150, n_leading=2, seed=13)
    query = make_q1(q=8, window_size=120,
                    leading_symbols=leading_symbols(2))
    return query, events, {
        "dataset": "nyse",
        "events": n_events,
        "n_symbols": 150,
        "n_leading": 2,
        "seed": 13,
        "query": "q1",
        "q": 8,
        "window_size": 120,
    }


def percentile(values, fraction):
    if not values:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))
    return ordered[index]


def latency_summary(values, scale=1.0, digits=4):
    if not values:
        return {"p50": None, "p99": None, "max": None}
    return {
        "p50": round(percentile(values, 0.50) * scale, digits),
        "p99": round(percentile(values, 0.99) * scale, digits),
        "max": round(max(values) * scale, digits),
    }


def bench_engine(name: str, query, events, quick: bool) -> dict:
    total = len(events)

    # -- batch: everything is emitted after the last event ---------------
    batch_engine = build_engine(query, name, **ENGINE_OPTIONS[name])
    started = time.perf_counter()
    batch = batch_engine.run(events)
    batch_wall = time.perf_counter() - started
    batch_latencies = [total - ce.constituents[-1].seq
                       for ce in batch.complex_events]

    # -- session: matches surface on the validating push ------------------
    session = build_engine(query, name, **ENGINE_OPTIONS[name]).open()
    push_seconds = []
    session_latencies = []
    matches = []
    session_started = time.perf_counter()
    for index, event in enumerate(events):
        push_started = time.perf_counter()
        out = session.push(event)
        push_seconds.append(time.perf_counter() - push_started)
        for ce in out:
            session_latencies.append(index - ce.constituents[-1].seq)
            matches.append(ce)
    for ce in session.flush():
        session_latencies.append(total - ce.constituents[-1].seq)
        matches.append(ce)
    session_wall = time.perf_counter() - session_started
    session.close()

    if [ce.identity() for ce in matches] != batch.identities():
        raise SystemExit(f"parity violation in {name} session run")

    return {
        "engine": name,
        "matches": len(matches),
        "batch": {
            "wall_seconds": round(batch_wall, 4),
            "events_per_second": round(total / batch_wall, 1),
            "emission_latency_events": latency_summary(batch_latencies,
                                                       digits=1),
        },
        "session": {
            "wall_seconds": round(session_wall, 4),
            "events_per_second": round(total / session_wall, 1),
            "emission_latency_events": latency_summary(session_latencies,
                                                       digits=1),
            "push_latency_ms": latency_summary(push_seconds, scale=1e3),
            "overhead_vs_batch": round(session_wall / batch_wall, 3),
        },
        "parity": "session output identical to batch",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small stream (CI smoke)")
    parser.add_argument("--engines", nargs="*",
                        default=list(ENGINE_OPTIONS),
                        choices=list(ENGINE_OPTIONS))
    parser.add_argument("--out", default=str(OUTPUT),
                        help="output JSON path")
    args = parser.parse_args(argv)

    query, events, workload = build_workload(args.quick)
    print(f"workload: {workload['events']} events, tumbling "
          f"window_size={workload['window_size']}")

    rows = []
    for name in args.engines:
        row = bench_engine(name, query, events, args.quick)
        rows.append(row)
        batch_p50 = row["batch"]["emission_latency_events"]["p50"]
        sess = row["session"]
        print(f"{name:10s} batch p50 latency {batch_p50:>8} events | "
              f"session p50 {sess['emission_latency_events']['p50']:>5} "
              f"events, push p99 {sess['push_latency_ms']['p99']:.3f} ms, "
              f"overhead x{sess['overhead_vs_batch']:.2f}")

    payload = {
        "benchmark": "streaming_latency",
        "generated_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "quick": args.quick,
        "workload": workload,
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.system(),
        },
        "engines": rows,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
