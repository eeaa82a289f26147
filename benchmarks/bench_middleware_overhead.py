"""Interception cost: bare hub vs no-op, passthrough, and metrics chains.

The middleware refactor routes every ``push``/``push_many``/``flush``
and every delivered match through composable chains.  Its acceptance
gate: a hub with **no middleware installed must not pay for the
feature** — ``MiddlewareStack.chain`` returns ``None`` when no
middleware overrides a hook, so the hot path is one ``is None`` test.
This benchmark measures the full ladder on a multi-query NYSE
workload, ingesting via chunked ``push_many`` (the throughput path):

* **bare** — ``StreamHub()`` with no middleware argument,
* **noop** — ``StreamHub(middleware=[Middleware()])``: the base class
  overrides nothing, so no chain is built.  Guarded at ≤5% of bare.
* **passthrough** — one middleware whose hooks do nothing but
  ``return call_next(context)``: the minimum price of a live chain,
* **metrics** — :class:`MetricsMiddleware` counting every hook.

Every leg is parity-checked against the bare output.  Results go to
``BENCH_middleware_overhead.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_middleware_overhead.py [--quick]
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
from repro.hub import StreamHub  # noqa: E402
from repro.middleware import MetricsMiddleware, Middleware  # noqa: E402
from repro.queries import make_q1  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_middleware_overhead.json"

NOOP_OVERHEAD_BUDGET_PCT = 5.0
CHUNK = 512


class PassthroughMiddleware(Middleware):
    """Overrides the ingestion hooks but only forwards — measures the
    floor cost of an *installed* chain, not of any policy."""

    def on_push_many(self, context, call_next):
        return call_next(context)

    def on_flush(self, context, call_next):
        return call_next(context)

    def on_match(self, context, call_next):
        return call_next(context)


LEGS = (
    ("bare", lambda: None),
    ("noop", lambda: [Middleware()]),
    ("passthrough", lambda: [PassthroughMiddleware()]),
    ("metrics", lambda: [MetricsMiddleware()]),
)


def build_workload(quick: bool):
    n_events = 6000 if quick else 40000
    n_queries = 3
    events = generate_nyse(n_events, n_symbols=150, n_leading=2, seed=13)
    queries = [make_q1(q=4 + 2 * i, window_size=120,
                       leading_symbols=leading_symbols(2))
               for i in range(n_queries)]
    return queries, events, {
        "dataset": "nyse",
        "events": n_events,
        "n_symbols": 150,
        "queries": n_queries,
        "query": "q1",
        "window_size": 120,
        "chunk": CHUNK,
        "seed": 13,
    }


def drive(queries, events, middleware):
    """One full hub run; returns (wall_seconds, per-query identities)."""
    collectors = [[] for _ in queries]
    hub = StreamHub(middleware=middleware)
    for index, (query, collector) in enumerate(zip(queries, collectors)):
        hub.attach(query, engine="sequential", name=f"q{index}",
                   sink=collector.append)
    started = time.perf_counter()
    for start in range(0, len(events), CHUNK):
        hub.push_many(events[start:start + CHUNK])
    hub.flush()
    wall = time.perf_counter() - started
    hub.close()
    outputs = [[ce.identity() for ce in collector]
               for collector in collectors]
    return wall, outputs


def bench_leg(name, factory, queries, events, repeats, baseline):
    best = None
    outputs = None
    for _ in range(repeats):
        wall, out = drive(queries, events, factory())
        if best is None or wall < best:
            best, outputs = wall, out
    if baseline is not None and outputs != baseline:
        raise SystemExit(f"parity violation in leg '{name}'")
    return {
        "leg": name,
        "wall_seconds": round(best, 4),
        "events_per_second": round(len(events) / best, 1),
        "matches": sum(len(out) for out in outputs),
    }, best, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small stream (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per leg (best-of)")
    parser.add_argument("--out", default=str(OUTPUT),
                        help="output JSON path")
    args = parser.parse_args(argv)
    repeats = args.repeats or (5 if args.quick else 3)

    queries, events, workload = build_workload(args.quick)
    print(f"workload: {workload['events']} NYSE events x "
          f"{workload['queries']} queries, push_many chunks of {CHUNK}, "
          f"best of {repeats}")

    rows = []
    bare_wall = None
    baseline = None
    for name, factory in LEGS:
        row, wall, outputs = bench_leg(name, factory, queries, events,
                                       repeats, baseline)
        if name == "bare":
            bare_wall, baseline = wall, outputs
        row["overhead_vs_bare"] = round(wall / bare_wall, 4)
        rows.append(row)
        print(f"{name:12s} {row['events_per_second']:>10.1f} ev/s  "
              f"x{row['overhead_vs_bare']:.3f} vs bare  "
              f"({row['matches']} matches)")

    noop_row = next(row for row in rows if row["leg"] == "noop")
    noop_overhead_pct = round(100.0 * (noop_row["overhead_vs_bare"] - 1.0),
                              2)
    guard_ok = noop_overhead_pct <= NOOP_OVERHEAD_BUDGET_PCT

    payload = {
        "benchmark": "middleware_overhead",
        "generated_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "quick": args.quick,
        "workload": workload,
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.system(),
        },
        "legs": rows,
        "noop_overhead_pct": noop_overhead_pct,
        "noop_overhead_budget_pct": NOOP_OVERHEAD_BUDGET_PCT,
        "noop_guard_ok": guard_ok,
        "parity": "all legs emit the bare hub's matches",
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    print(f"no-op overhead: {noop_overhead_pct:+.2f}% "
          f"(budget {NOOP_OVERHEAD_BUDGET_PCT:.0f}%)")
    if not guard_ok:
        raise SystemExit("no-op middleware overhead exceeds budget — "
                         "the uninstalled path must stay allocation-free")
    return 0


if __name__ == "__main__":
    sys.exit(main())
