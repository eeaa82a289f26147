"""Streaming sessions: push events, get matches as they validate.

Three ways to run it:

1. No arguments — a self-contained demo: a simulated live NYSE feed is
   pushed event by event through a SPECTRE session; each match prints
   with its emission latency (events between the match's anchor and the
   push that emitted it) and the session's bounded buffer size.

2. ``--stdin`` — a live deployment: pipe CSV rows in and watch matches
   stream out::

       python -m repro generate --kind nyse --events 5000 --out q.csv
       tail -n +1 -f q.csv | python examples/streaming_session.py --stdin

3. The same thing via the CLI: ``python -m repro run --query q.sql
   --data - --follow``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import SpectreConfig, pipeline  # noqa: E402
from repro.datasets import generate_nyse, leading_symbols  # noqa: E402
from repro.queries import make_q1  # noqa: E402


def build_query():
    # Q1: a leading-symbol quote followed by 8 same-direction moves
    # inside a tumbling 120-event window
    return make_q1(q=8, window_size=120,
                   leading_symbols=leading_symbols(2))


def demo_simulated_feed() -> None:
    query = build_query()
    events = generate_nyse(6000, n_symbols=150, n_leading=2, seed=13)

    session = (pipeline(query)
               .engine("spectre", config=SpectreConfig(k=2))
               .open())
    print("pushing a simulated live feed of "
          f"{len(events)} quotes ...\n")
    shown = 0
    for index, event in enumerate(events):
        for ce in session.push(event):
            shown += 1
            anchor = ce.constituents[-1].seq
            retained = session.inner.splitter.stream.retained
            print(f"match {shown:>3}  emitted @event {index:>5}  "
                  f"latency {index - anchor:>3} events  "
                  f"buffer {retained:>4} events retained")
    trailing = session.close()
    print(f"\n{shown} matches streamed incrementally, "
          f"{len(trailing)} more at end-of-stream flush")
    result = session.result()
    print(f"engine stats: {result.stats.windows_emitted} windows "
          f"emitted, {result.input_events} events ingested")


def demo_stdin_feed() -> None:
    import csv

    from repro.datasets import event_from_row

    query = build_query()
    session = (pipeline(query)
               .engine("threaded", config=SpectreConfig(k=2))
               .out_of_order(slack=10)
               .sink(lambda ce: print(f"match: {ce!r}", flush=True))
               .open())
    with session:
        for row in csv.DictReader(sys.stdin):
            session.push(event_from_row(row))
        session.flush()
        print(f"done: {session.matches_emitted} matches from "
              f"{session.events_pushed} events "
              f"(late dropped: {session.late_events})")


if __name__ == "__main__":
    if "--stdin" in sys.argv[1:]:
        demo_stdin_feed()
    else:
        demo_simulated_feed()
