"""``run.py --selftest``: the benchmark's own arithmetic on known
inputs — percentiles and time slices, rung deltas, span self times and
the span file round trip, the ``/proc`` readers, plan sizes, and that
``BENCHMARK.json`` lists exactly the metrics and workloads ``run.py``
prints.  Not collected by the repo's pytest run."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import measure
from spans import ROOT, Tracer, covered_ns

HERE = Path(__file__).resolve().parent


def check_percentiles() -> None:
    values = list(range(1, 102))                     # 1..101
    assert measure.percentile(values, 0.50) == 51
    assert measure.percentile(values, 0.90) == 91
    assert measure.percentile(values, 1.0) == 101
    assert measure.median([3, 1, 2]) == 2
    assert measure.quartiles([1, 2, 3, 4, 5, 6, 7]) == (2.0, 6.0)
    assert abs(measure.spread([90, 100, 110, 100, 100]) - 0.10) < 1e-9
    # 3 s of samples at 200/s, value = the second they fall in
    samples = [(i / 200.0, float(i // 200)) for i in range(600)]
    slices = measure.time_slices(samples, 1.0)
    assert [len(values) for _s, _e, values in slices] == [200, 200, 200]
    assert [measure.median(values) for _s, _e, values in slices] \
        == [0.0, 1.0, 2.0]
    assert slices[1][0] == 1.0 and slices[0][1] == 1.0
    # a thin tail merges into the slice before it
    thin = measure.time_slices(samples[:450], 1.0)
    assert [len(values) for _s, _e, values in thin] == [200, 250]
    on_time = [0.1] * 19
    kept, voided = measure.punctual(
        [([1.0], on_time + [9.0]), ([2.0], on_time + [9.0, 9.0]),
         ([3.0], [])])
    assert kept == [[1.0], [3.0]] and voided == 1
    assert measure.sequence_mismatches([1, 2, 3], [1, 9, 3, 4]) == 2


def check_rungs() -> None:
    deltas = measure.rung_deltas([("a", 10.0), ("b", 14.0), ("c", 12.5)])
    assert deltas == {"a": 10.0, "b": 4.0, "c": -1.5}


def check_spans() -> None:
    assert covered_ns(0, 100, [(10, 30), (20, 50), (90, 140)]) == 50
    tracer = Tracer()
    root = tracer.add("round", 0, 1000, ROOT, "w/r0")
    push = tracer.add("push", 100, 400, root, "w/r0/c0")
    tracer.add("match", 150, 250, push, "w/r0/c0")
    tracer.add("match", 200, 600, push, "w/r0/c0")   # outlives its parent
    with tracer.span("timed", root) as timed:
        pass
    assert tracer.ends[timed] >= tracer.starts[timed]
    times = tracer.self_times()
    assert times["push"] == {"count": 1, "total_ns": 300, "self_ns": 50}
    assert times["match"]["count"] == 2
    assert times["match"]["self_ns"] == 100 + 400
    with tempfile.TemporaryDirectory(dir=HERE) as directory:
        path = Path(directory) / "trace.json"
        tracer.write(path, workload="w")
        payload = json.loads(path.read_text())
    again = Tracer.from_dict(payload)
    assert payload["workload"] == "w"
    assert (again.names, again.starts, again.ends, again.parents,
            again.traces) == (tracer.names, tracer.starts, tracer.ends,
                              tracer.parents, tracer.traces)
    merged = Tracer()
    top = merged.add("top", 0, 1, ROOT)
    merged.extend(again, top)
    assert merged.parents[1] == top and merged.parents[2] == root + 1


def check_proc() -> None:
    line = "42 (a (b) c) S 1 42 42 0 -1 4194304 100 0 0 0 " \
           "7 5 0 0 20 0 1 0 100 1000 10 18446744073709551615"
    assert measure.parse_stat_cpu_ticks(line) == 12
    status = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\n"
    assert measure.parse_status_kb(status, "VmHWM") == 2048
    assert measure.parse_status_kb(status, "VmSwap") is None
    before = measure.proc_cpu_seconds(os.getpid())
    sum(i * i for i in range(400_000))
    assert measure.proc_cpu_seconds(os.getpid()) >= before
    assert measure.proc_status_mb(os.getpid(), "VmHWM") \
        >= measure.proc_status_mb(os.getpid(), "VmRSS") > 1.0


def check_plans() -> None:
    from workloads import WORKLOADS, displace, make_plan, typed_feed
    for workload in WORKLOADS.values():
        plan = make_plan(workload, 15.0)
        assert plan.chunks[-1][1] == plan.n_events
        assert all(a[1] == b[0] for a, b in zip(plan.chunks,
                                                plan.chunks[1:]))
        half = make_plan(workload, 7.5)
        if workload.kind == "serve":
            assert len(plan.sat) % 20 == 0
            assert plan.warm.stop == plan.sat.start
            assert plan.sat.stop == plan.open.start
            assert abs(len(half.open) * 2 - len(plan.open)) <= 1
    events = typed_feed(2000, 5)
    assert [e.seq for e in typed_feed(2000, 5)] == [e.seq for e in events]
    shuffled = displace(events, 5)
    assert sorted(e.seq for e in shuffled) == list(range(2000))
    moved = [abs(position - e.seq) for position, e in enumerate(shuffled)]
    assert 0 < sum(1 for m in moved if m) < 2000 and max(moved) <= 200


def check_contract() -> None:
    from run import END_TO_END, PER_LAYER
    from workloads import WORKLOADS
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", END_TO_END),
                       ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert listed == list(table), f"BENCHMARK.json {key} != run.py"
    assert spec["paths"] == ["benchmarks/ladder"]


def run() -> int:
    for check in (check_percentiles, check_rungs, check_spans, check_proc,
                  check_plans, check_contract):
        check()
        print(f"ok  {check.__name__}")
    return 0
