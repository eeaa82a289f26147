"""Command-line interface.

Mirrors the original deployment's workflow (Sec. 4.1: a client program
reads events from a source file and sends them to SPECTRE) from one
binary:

.. code-block:: console

    # generate a dataset
    python -m repro generate --kind nyse --events 10000 --out quotes.csv

    # run a query file against it on any engine/scheduler
    python -m repro run --query q.sql --data quotes.csv --engine spectre \\
        --k 8 --scheduler topk --param lowerLimit=40 --param upperLimit=60

    # compare engines / verify the equivalence contract
    python -m repro verify --query q.sql --data quotes.csv --k 8 \\
        --engine threaded --scheduler roundrobin

    # streaming: read events from stdin (or tail a growing CSV with
    # --poll), emit matches the moment they validate
    tail -n +1 -f quotes.csv | python -m repro run --query q.sql \\
        --data - --follow --engine threaded --k 4 --slack 10

    # run a multi-stage operator pipeline on the speculative runtime
    python -m repro graph --data quotes.csv --stage band=q.sql \\
        --stage meta=meta.sql --engine spectre --k 4

    # serve MANY queries over one shared ingestion pass (multi-query
    # StreamHub): one decode/reorder, N isolated engine sessions,
    # matches tagged by query name
    tail -n +1 -f quotes.csv | python -m repro serve \\
        --query band=q.sql --query osc=q2.sql --data - \\
        --engine threaded --k 4 --slack 10

``--query`` files use the paper's extended MATCH-RECOGNIZE notation
(Fig. 9; see ``repro.patterns.parser``).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.datasets import (
    event_from_row,
    generate_nyse,
    generate_price_walk,
    generate_rand,
    load_events_csv,
    save_events_csv,
)
from repro.durability.wal import FSYNC_POLICIES
from repro.graph import Operator, OperatorGraph
from repro.patterns.parser import parse_query
from repro.runtime.scheduler import SCHEDULER_NAMES
from repro.sequential.engine import SequentialEngine
from repro.server.core import SLOW_CONSUMER_POLICIES
from repro.spectre.config import SpectreConfig
from repro.streaming.builder import ENGINES, build_engine, pipeline


def _parse_params(pairs: Sequence[str]) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--param needs name=value, got {pair!r}")
        name, raw = pair.split("=", 1)
        try:
            params[name] = float(raw) if "." in raw else int(raw)
        except ValueError:
            params[name] = raw
    return params


def _load_query(path: str, params: Sequence[str], name: str | None = None):
    text = Path(path).read_text()
    return parse_query(text, name=name or Path(path).stem,
                       params=_parse_params(params))


def _make_config(args: argparse.Namespace) -> SpectreConfig:
    return SpectreConfig(k=args.k, scheduler=args.scheduler)


def _engine_options(args: argparse.Namespace) -> dict:
    """``hub.attach`` options for ``--engine``: an engine that takes no
    speculation config gets none — passing one would needlessly
    disqualify the attachment from the hub's cross-query optimizer
    (custom engine options opt out)."""
    return {"config": _make_config(args)} \
        if ENGINES[args.engine].takes_config else {}


def _make_sink(counts: dict, name: str, quiet: bool = False):
    """A sink printing ``[name] match #N`` lines (the CI smoke jobs grep
    them), counting into ``counts``."""
    def sink(ce) -> None:
        counts[name] = counts.get(name, 0) + 1
        if not quiet:
            print(f"[{name}] match #{counts[name]}: {ce!r}", flush=True)
    return sink


def _print_recovery(report, tail) -> None:
    """The recovery banner; ``tail(report)`` is its closing clause (what
    this serving mode restored)."""
    if report is not None and report.recovered:
        print(f"durability: recovered segment "
              f"{report.snapshot_segment}, replayed "
              f"{report.replayed_events} events in "
              f"{report.replay_seconds:.3f} s, {tail(report)}", flush=True)


def _print_trace(trace) -> None:
    if trace is not None:
        records = list(trace.records)
        print(f"trace: last {len(records)} interception records")
        for record in records:
            print(f"  {record}")


def _write_stats_json(target: str | None, stats) -> None:
    if target:
        payload = json.dumps(stats.to_dict(), indent=2, sort_keys=True)
        if target == "-":
            print(payload)
        else:
            Path(target).write_text(payload + "\n", encoding="utf-8")
            print(f"stats: wrote {target}")


def cmd_generate(args: argparse.Namespace) -> int:
    generators = {
        "nyse": lambda: generate_nyse(
            args.events, n_symbols=args.symbols, n_leading=args.leading,
            seed=args.seed, unchanged_probability=args.flat),
        "rand": lambda: generate_rand(args.events, n_symbols=args.symbols,
                                      seed=args.seed),
        "walk": lambda: generate_price_walk(args.events, seed=args.seed,
                                            reversion=args.reversion),
    }
    events = generators[args.kind]()
    save_events_csv(events, args.out)
    print(f"wrote {len(events)} events to {args.out}")
    return 0


def _tail_complete_lines(handle, poll: float):
    """Yield only newline-terminated lines, waiting ``poll`` seconds at
    end-of-file.  A producer appending rows non-atomically must never
    surface a half-written line as a (corrupt) CSV row, so partial
    reads are buffered until their terminator arrives."""
    buffer = ""
    while True:
        chunk = handle.readline()
        if not chunk:
            time.sleep(poll)
            continue
        buffer += chunk
        if buffer.endswith("\n"):
            yield buffer
            buffer = ""


def _iter_csv_events(args: argparse.Namespace):
    """Replay CSV rows from ``--data`` ('-' = stdin) as events.

    With ``--poll`` > 0 the file is *tailed*: at end-of-file the reader
    waits for appended rows instead of stopping — the original
    deployment's "client program sends events over a TCP connection"
    (Sec. 4.1), with a growing file standing in for the socket.
    """
    handle = sys.stdin if args.data == "-" else open(args.data, newline="")
    try:
        source = handle if args.data == "-" or args.poll <= 0 \
            else _tail_complete_lines(handle, args.poll)
        for row in csv.DictReader(source):
            yield event_from_row(row)
    finally:
        if handle is not sys.stdin:
            handle.close()


def cmd_run_follow(args: argparse.Namespace, query) -> int:
    """Streaming run: push events one at a time, print matches as their
    window version validates."""
    builder = pipeline(query).engine(args.engine,
                                     config=_make_config(args))
    if args.slack is not None:
        builder.out_of_order(args.slack)
    shown = 0
    with builder.open() as session:
        for event in _iter_csv_events(args):
            for ce in session.push(event):
                shown += 1
                print(f"match #{shown} @event {session.events_pushed - 1}: "
                      f"{ce!r}", flush=True)
        for ce in session.flush():
            shown += 1
            print(f"match #{shown} @flush: {ce!r}", flush=True)
        late = getattr(session, "late_events", 0)
        print(f"{query.name}: {shown} complex events from "
              f"{session.events_pushed} streamed events "
              f"({args.engine}, late_dropped={late})")
    return 0


def _run_summary(args: argparse.Namespace, result) -> str:
    """The parenthesised tail of ``run``'s summary line: whatever this
    engine's result type has to report."""
    stats = getattr(result, "stats", None)
    if stats is None:  # the two baselines carry no speculation stats
        if hasattr(result, "completion_probability"):
            return (f"ground-truth completion probability "
                    f"{result.completion_probability:.0%}")
        return (f"automaton baseline, "
                f"{result.events_per_second:,.0f} events/s")
    return (f"k={args.k} scheduler={args.scheduler} "
            f"versions={stats.versions_created} "
            f"dropped={stats.versions_dropped} "
            f"rollbacks={stats.rollbacks}")


def cmd_run(args: argparse.Namespace) -> int:
    query = _load_query(args.query, args.param)
    if args.follow:
        return cmd_run_follow(args, query)
    events = load_events_csv(args.data)
    started = time.perf_counter()
    result = build_engine(query, args.engine,
                          config=_make_config(args)).run(events)
    elapsed = time.perf_counter() - started
    complex_events = result.complex_events
    print(f"{query.name}: {len(complex_events)} complex events from "
          f"{len(events)} input events in {elapsed:.2f}s "
          f"({_run_summary(args, result)})")
    limit = args.show
    for ce in complex_events[:limit]:
        print(f"  {ce!r}")
    if len(complex_events) > limit:
        print(f"  ... and {len(complex_events) - limit} more")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    query = _load_query(args.query, args.param)
    events = load_events_csv(args.data)
    sequential = SequentialEngine(query).run(events)
    result = build_engine(query, args.engine,
                          config=_make_config(args)).run(events)
    label = (f"{args.engine.upper()}(k={args.k}, "
             f"scheduler={args.scheduler})")
    if result.identities() == sequential.identities():
        print(f"OK: {label} output identical to sequential "
              f"({len(result.complex_events)} complex events)")
        return 0
    print(f"MISMATCH: sequential={len(sequential.complex_events)} "
          f"{args.engine}={len(result.complex_events)} complex events")
    return 1


def _parse_query_specs(specs: Sequence[str]) -> list[tuple[str, str]]:
    """``--query FILE`` or ``--query NAME=FILE`` → [(name, path)]."""
    parsed: list[tuple[str, str]] = []
    for spec in specs:
        if "=" in spec:
            name, path = spec.split("=", 1)
        else:
            name, path = Path(spec).stem, spec
        parsed.append((name, path))
    return parsed


def _parse_hostport(spec: str, flag: str) -> tuple[str, int]:
    """``HOST:PORT`` (port 0 = ephemeral; empty host = 127.0.0.1)."""
    host, sep, port = spec.rpartition(":")
    if not sep:
        raise SystemExit(f"{flag} needs HOST:PORT, got {spec!r}")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise SystemExit(f"{flag}: bad port in {spec!r}") from None


_ATTR_TYPES = {"float": float, "int": int, "str": str, "bool": bool}


def _validation_from_args(args: argparse.Namespace):
    """Build a ValidationMiddleware from --require/--invalid-policy
    (``None`` when no --require was given)."""
    from repro.middleware import ValidationMiddleware

    if not args.require:
        return None
    required: list[str] = []
    types: dict[str, type] = {}
    for spec in args.require:
        attr, _, typename = spec.partition(":")
        if not attr:
            raise SystemExit(f"bad --require spec: {spec!r}")
        required.append(attr)
        if typename:
            if typename not in _ATTR_TYPES:
                raise SystemExit(
                    f"bad --require type {typename!r}; expected one "
                    f"of {sorted(_ATTR_TYPES)}")
            types[attr] = _ATTR_TYPES[typename]
    return ValidationMiddleware(required=required, types=types,
                                policy=args.invalid_policy)


def _serve_middleware(args: argparse.Namespace):
    """Translate serve flags into the hub's middleware chain.

    Order matters (first = outermost): validation rejects/nulls before
    the rate limiter spends tokens on malformed events; metrics and
    trace observe what actually got through."""
    from repro.middleware import (
        MetricsMiddleware,
        RateLimitMiddleware,
        TraceMiddleware,
    )

    middleware: list = []
    ratelimit = metrics = trace = None
    validation = _validation_from_args(args)
    if validation is not None:
        middleware.append(validation)
    if args.rate_limit is not None:
        ratelimit = RateLimitMiddleware(args.rate_limit,
                                        burst=args.rate_burst)
        middleware.append(ratelimit)
    if args.metrics:
        metrics = MetricsMiddleware()
        middleware.append(metrics)
    if args.trace is not None:
        trace = TraceMiddleware(capacity=args.trace)
        middleware.append(trace)
    return middleware, validation, ratelimit, metrics, trace


def cmd_serve_network(args: argparse.Namespace) -> int:
    """Network mode: listeners over an asyncio hub instead of a local
    CSV pipe.  Clients connect over TCP/WebSocket, authenticate, push
    events, and subscribe queries; ``--query`` files (if any) are
    pre-attached server-side and print their matches locally."""
    import asyncio

    from repro.middleware import TraceMiddleware
    from repro.server import ServerConfig
    from repro.server.runner import ServeRuntime

    if args.data:
        raise SystemExit(
            "--data is the local pipe mode; with --tcp/--ws the events "
            "arrive from connected clients")
    middleware: list = []
    validation = _validation_from_args(args)
    if validation is not None:
        middleware.append(validation)
    trace = None
    if args.trace is not None:
        trace = TraceMiddleware(capacity=args.trace)
        middleware.append(trace)
    chaos = None
    if (args.chaos_drop or args.chaos_dup or args.chaos_delay or
            args.chaos_sink_error or args.chaos_wal_fail or
            args.chaos_reset_after):
        from repro.resilience import ChaosConfig
        chaos = ChaosConfig(
            seed=args.chaos_seed,
            drop_rate=args.chaos_drop,
            dup_rate=args.chaos_dup,
            delay_rate=args.chaos_delay,
            sink_error_rate=args.chaos_sink_error,
            wal_fail_rate=args.chaos_wal_fail,
            reset_after=args.chaos_reset_after)
        print(f"chaos: enabled (seed={args.chaos_seed})", flush=True)
    config = ServerConfig(
        slack=args.slack if args.slack is not None else 0.0,
        engine=args.engine,
        auth_token=args.auth_token,
        max_clients=args.max_clients,
        client_rate=args.rate_limit,      # per-client buckets in network mode
        client_burst=args.rate_burst,
        share=not args.no_share,
        middleware=tuple(middleware),
        wal_dir=args.wal,
        checkpoint_every=args.checkpoint_every,
        wal_fsync=args.wal_fsync,
        keep_segments=args.wal_keep_segments,
        heartbeat_interval=args.heartbeat,
        idle_timeout=args.idle_timeout,
        slow_consumer=args.slow_consumer,
        chaos=chaos)
    listeners = {
        name: _parse_hostport(spec, f"--{name}") if spec else None
        for name, spec in (("tcp", args.tcp), ("ws", args.ws),
                           ("http", args.http))}
    specs = _parse_query_specs(args.query)
    counts: dict[str, int] = {}

    async def _run(runtime: ServeRuntime) -> None:
        for name, path in specs:
            query = _load_query(path, args.param, name=name)
            runtime.core.hub.attach(query, engine=args.engine, name=name,
                                    sink=_make_sink(counts, name))
        await runtime.run()

    try:
        runtime = ServeRuntime(config, tcp=listeners["tcp"],
                               ws=listeners["ws"], http=listeners["http"])
    except ValueError as error:
        raise SystemExit(str(error)) from None
    durability = runtime.core.durability
    if durability is not None:
        _print_recovery(
            durability.recovery_report,
            lambda report: f"restored {len(report.restored_attachments)} "
                           f"durable attachments")
    try:
        asyncio.run(_run(runtime))
    except KeyboardInterrupt:
        pass
    stats = runtime.core.hub.stats()
    core = runtime.core
    print(f"served {core.clients_total} clients "
          f"({core.clients_rejected} rejected), "
          f"{stats.events_pushed} events pushed, "
          f"late_dropped={stats.late_events}")
    if durability is not None:
        dstats = durability.stats_dict()
        print(f"durability: {dstats['checkpoints_total']} checkpoints, "
              f"segment {dstats['segment']}, "
              f"wal_bytes={dstats['wal_bytes']}")
    if core.chaos is not None:
        cstats = core.chaos.stats()
        print(f"chaos: dropped={cstats['events_dropped']} "
              f"duplicated={cstats['events_duplicated']} "
              f"delayed={cstats['events_delayed']} "
              f"sink_errors={cstats['sink_errors_injected']} "
              f"wal_failures={cstats['wal_failures_injected']} "
              f"resets={core.connections_reset_total}")
    if core.heartbeats_sent or core.clients_reaped or \
            core.slow_disconnects or core.frames_dropped_total:
        print(f"resilience: {core.heartbeats_sent} heartbeats, "
              f"{core.clients_reaped} idle clients reaped, "
              f"{core.slow_disconnects} slow consumers dropped, "
              f"{core.frames_dropped_total} frames shed")
    _print_trace(trace)
    _write_stats_json(args.stats_json, stats)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve many queries over one shared ingestion pass.

    One decode + one reorder stage feed every attached query; each
    attachment runs its own engine session (isolated ledger and stats)
    and prints its matches tagged by query name the moment they
    validate."""
    from repro.hub import StreamHub

    if args.tcp or args.ws or args.http:
        return cmd_serve_network(args)
    if not args.data:
        raise SystemExit(
            "serve needs --data in pipe mode (or a network listener "
            "via --tcp/--ws)")
    specs = _parse_query_specs(args.query)
    if not specs:
        raise SystemExit("need at least one --query [name=]file")
    middleware, validation, ratelimit, metrics, trace = \
        _serve_middleware(args)
    counts: dict[str, int] = {}
    dhub = None
    if args.wal:
        from repro.durability import DurableHub

        # restored attachments re-sink into the same tagged printer
        dhub = DurableHub(
            args.wal, checkpoint_every=args.checkpoint_every,
            fsync=args.wal_fsync,
            slack=args.slack if args.slack is not None else 0.0,
            share=not args.no_share, middleware=middleware,
            sink_provider=lambda record: _make_sink(counts,
                                                    record["name"]))
        hub = dhub.hub
        if hub.is_flushed:
            raise SystemExit(
                f"--wal {args.wal}: this WAL holds a completed (flushed) "
                f"run; point --wal at a fresh directory")
        _print_recovery(
            dhub.recovery_report,
            lambda report: f"suppressed {report.suppressed_matches} "
                           f"already-delivered matches")
    else:
        hub = StreamHub(
            slack=args.slack if args.slack is not None else 0.0,
            share=not args.no_share, middleware=middleware)

    try:
        restored = {attachment.name for attachment in hub.attachments}
        for name, path in specs:
            if name in restored:
                print(f"[{name}] restored from WAL", flush=True)
                continue
            query = _load_query(path, args.param, name=name)
            (hub if dhub is None else dhub).attach(
                query, engine=args.engine, name=name,
                sink=_make_sink(counts, name), **_engine_options(args))
    except ValueError as error:
        raise SystemExit(f"bad --query spec: {error}") from None

    if dhub is not None:
        try:
            for event in _iter_csv_events(args):
                dhub.push(event)
        finally:
            dhub.close()
    else:
        with hub:
            for event in _iter_csv_events(args):
                hub.push(event)
    stats = hub.stats()
    for attachment in stats.attachments:
        print(f"{attachment.name}: {attachment.matches_emitted} complex "
              f"events from {attachment.events_delivered} streamed events "
              f"({attachment.engine})")
    print(f"served {len(specs)} queries over {hub.events_pushed} events "
          f"in one ingestion pass (late_dropped={hub.late_events})")
    sharing = stats.sharing
    if sharing is not None:
        state = "on" if sharing.enabled else "off"
        print(f"sharing {state}: {sharing.shared_attachments} shared "
              f"attachments in {sharing.groups} groups, "
              f"{sharing.windows_shared} windows shared, "
              f"{sharing.prefix_events_saved} prefix events saved, "
              f"kernel memo {sharing.memo_hits}/"
              f"{sharing.memo_hits + sharing.memo_misses} hits")
    offered = sum(a.events_offered for a in stats.attachments)
    skipped = sum(a.events_skipped_by_index for a in stats.attachments)
    print(f"routing: {offered} events offered, "
          f"{skipped} skipped by type index")
    if dhub is not None:
        dstats = dhub.manager.stats_dict()
        print(f"durability: {dstats['checkpoints_total']} checkpoints, "
              f"segment {dstats['segment']}, "
              f"wal_bytes={dstats['wal_bytes']} "
              f"(fsync={dstats['fsync']})")
    if validation is not None:
        print(f"validation: {validation.events_rejected} events "
              f"rejected, {validation.events_nulled} nulled "
              f"({validation.attributes_nulled} attributes)")
    if ratelimit is not None:
        print(f"rate limit: {ratelimit.shed_total} events shed "
              f"(rate={ratelimit.rate:g}/s burst={ratelimit.burst:g})")
    _print_trace(trace)
    if metrics is not None:
        metrics.observe_stats(stats)
        if dhub is not None:
            metrics.observe_durability(dhub.manager.stats_dict())
        print(metrics.render(), end="")
    _write_stats_json(args.stats_json, stats)
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    """Connect to a serving runtime, subscribe queries from files, and
    tail their matches as JSON lines (one frame per line, so the output
    pipes straight into ``jq``/the CI smoke script)."""
    import asyncio

    from repro.resilience import Backoff
    from repro.server.client import ServerClient, ServerError

    host, port = _parse_hostport(args.connect, "--connect")
    specs = _parse_query_specs(args.query)
    if not specs:
        raise SystemExit("client needs at least one --query [name=]file")
    params = _parse_params(args.param)
    durable = args.durable or args.resume_from is not None
    if args.reconnect and not durable:
        raise SystemExit("--reconnect needs --durable: gapless resume "
                         "works off the durable match cursor")

    async def _run() -> int:
        client = await ServerClient.connect(
            host, port, transport=args.transport,
            reconnect=Backoff(initial=args.reconnect_delay,
                              max_delay=args.reconnect_max_delay,
                              max_retries=args.reconnect_max)
            if args.reconnect else None,
            on_reconnect=lambda c: print(
                f"client: reconnected (#{c.reconnects})",
                file=sys.stderr))
        matches = 0
        end_reason = None  # None = clean break (budget/finals/goodbye)
        try:
            await client.hello(token=args.token, client="repro-cli")
            subscribed: set[str] = set()
            for name, path in specs:
                subscribed.add(await client.subscribe(
                    Path(path).read_text(), name=name,
                    engine=args.engine, params=params or None,
                    watermarks=not durable, durable=durable,
                    resume_from=args.resume_from))
                if durable:
                    print(f"subscribed durable {name!r} at cursor "
                          f"{client.cursor(name)}", file=sys.stderr)
            if args.data:
                batch: list = []
                for event in _iter_csv_events(args):
                    batch.append(event)
                    if len(batch) >= args.push_batch:
                        await client.push_many(batch)
                        batch = []
                if batch:
                    await client.push_many(batch)
            if args.flush:
                await client.flush()
            finals: set[str] = set()
            while True:
                frame = await client.next_frame(timeout=args.timeout)
                if frame is None:
                    # a dead connection and an idle timeout both
                    # surface as None — `ended` tells them apart
                    end_reason = ("disconnect" if client.ended
                                  else "timeout")
                    break
                ftype = frame.get("type")
                if ftype == "match":
                    print(json.dumps(frame, separators=(",", ":")),
                          flush=True)
                    matches += 1
                    if args.max_matches is not None and \
                            matches >= args.max_matches:
                        break
                elif ftype == "watermark" and frame.get("final"):
                    finals.add(frame.get("subscription"))
                    if args.flush and finals >= subscribed:
                        break  # every subscription fully drained
                elif ftype == "goodbye":
                    end_reason = f"goodbye:{frame.get('reason', '?')}"
                    break
        except ServerError as error:
            print(f"server refused: {error}", file=sys.stderr)
            return 1
        finally:
            await client.close()
        print(f"client: {matches} matches from "
              f"{len(specs)} subscriptions", file=sys.stderr)
        if end_reason == "disconnect":
            if args.reconnect:
                print("client: gave up reconnecting", file=sys.stderr)
            else:
                print("client: connection ended unexpectedly "
                      "(use --reconnect to ride out server restarts)",
                      file=sys.stderr)
            return 1
        if end_reason == "timeout":
            print(f"client: no frame for {args.timeout:g}s, done",
                  file=sys.stderr)
        elif end_reason and end_reason.startswith("goodbye:"):
            print(f"client: server said goodbye "
                  f"({end_reason.split(':', 1)[1]})", file=sys.stderr)
        return 0

    return asyncio.run(_run())


def cmd_record(args: argparse.Namespace) -> int:
    """LIVE mode: run queries over a CSV stream exactly like pipe-mode
    serve, journaling hub config, attaches, ingests, and every emitted
    match (with its cursor) into one run log for later ``replay`` /
    ``verify-run``."""
    from repro.durability import recording_hub

    specs = _parse_query_specs(args.query)
    if not specs:
        raise SystemExit("need at least one --query [name=]file")
    hub, log = recording_hub(
        args.out, slack=args.slack if args.slack is not None else 0.0,
        share=not args.no_share)
    counts: dict[str, int] = {}
    try:
        for name, path in specs:
            query = _load_query(path, args.param, name=name)
            hub.attach(query, engine=args.engine, name=name,
                       sink=_make_sink(counts, name, quiet=args.quiet),
                       **_engine_options(args))
    except ValueError as error:
        raise SystemExit(f"bad --query spec: {error}") from None
    try:
        with hub:
            for event in _iter_csv_events(args):
                hub.push(event)
    finally:
        log.close()
    for name, _path in specs:
        print(f"{name}: {counts.get(name, 0)} matches")
    print(f"recorded {log.events_logged} events, "
          f"{log.matches_recorded} matches from {len(specs)} queries "
          f"to {args.out}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """REPLAY mode: rebuild the hub from a run log's configuration
    records and re-execute the operation stream deterministically."""
    from repro.durability import ReplayError, replay_run

    share = {"on": True, "off": False, "recorded": None}[args.share]
    try:
        emits = replay_run(args.run, share=share)
    except (ReplayError, OSError) as error:
        raise SystemExit(f"replay failed: {error}") from None
    total = 0
    for name in sorted(emits):
        total += len(emits[name])
        print(f"{name}: {len(emits[name])} matches")
        for cursor, wire in emits[name][:args.show]:
            print(f"  #{cursor}: "
                  f"{json.dumps(wire, separators=(',', ':'))}")
    print(f"replayed {total} matches from {args.run}")
    return 0


def cmd_verify_run(args: argparse.Namespace) -> int:
    """VERIFY mode: replay a run log and compare every emitted match
    against the recorded stream; exits non-zero on any divergence."""
    from repro.durability import ReplayError, verify_run

    try:
        report = verify_run(args.run)
    except (ReplayError, OSError) as error:
        raise SystemExit(f"verify-run failed: {error}") from None
    if report.ok:
        print(f"OK: replay identical to recording "
              f"({report.matches_recorded} matches across "
              f"{report.attachments} attachments)")
        return 0
    print(f"DIVERGED: {len(report.divergences)} divergences "
          f"(recorded={report.matches_recorded} "
          f"replayed={report.matches_replayed})")
    for divergence in report.divergences[:args.show]:
        print(f"  {json.dumps(divergence, separators=(',', ':'))}")
    if len(report.divergences) > args.show:
        print(f"  ... and {len(report.divergences) - args.show} more")
    return 1


def _parse_stages(pairs: Sequence[str]) -> list[tuple[str, str]]:
    stages = []
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--stage needs name=queryfile, got {pair!r}")
        name, path = pair.split("=", 1)
        stages.append((name, path))
    return stages


def cmd_graph(args: argparse.Namespace) -> int:
    """Run a linear operator pipeline: source → stage1 → stage2 → ..."""
    stages = _parse_stages(args.stage)
    if not stages:
        raise SystemExit("need at least one --stage name=queryfile")
    events = load_events_csv(args.data)
    config = _make_config(args)

    graph = OperatorGraph()
    graph.add_source("stream")
    upstream = "stream"
    for name, path in stages:
        query = _load_query(path, args.param, name=name)
        try:
            graph.add_operator(Operator(name, query, engine=args.engine,
                                        config=config),
                               upstream=[upstream])
        except ValueError as error:
            raise SystemExit(f"bad --stage {name!r}: {error}") from None
        upstream = name

    started = time.perf_counter()
    run = graph.run({"stream": events})
    elapsed = time.perf_counter() - started
    print(f"pipeline ({args.engine}, k={args.k}, "
          f"scheduler={args.scheduler}): {len(events)} source events "
          f"in {elapsed:.2f}s")
    for name, _path in stages:
        print(f"  {name}: {len(run.of(name))} events emitted")

    if args.verify:
        reference = graph.run({"stream": events}, engine="sequential")
        final = stages[-1][0]
        got = [e.attributes.get("constituent_seqs") for e in run.of(final)]
        want = [e.attributes.get("constituent_seqs")
                for e in reference.of(final)]
        if got == want:
            print(f"OK: pipeline output identical to sequential "
                  f"({len(got)} events at {final!r})")
            return 0
        print(f"MISMATCH: sequential={len(want)} {args.engine}={len(got)} "
              f"events at {final!r}")
        return 1
    return 0


def _add_speculative_flags(parser: argparse.ArgumentParser,
                           default_k: int = 4) -> None:
    parser.add_argument("--k", type=int, default=default_k,
                        help="operator instances (speculative engines)")
    parser.add_argument("--scheduler", choices=list(SCHEDULER_NAMES),
                        default="topk",
                        help="scheduling strategy (speculative engines)")
    parser.add_argument("--param", action="append", default=[],
                        help="query parameter name=value (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPECTRE reproduction: speculative parallel CEP with "
                    "consumption policies")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a dataset")
    generate.add_argument("--kind", choices=["nyse", "rand", "walk"],
                          default="nyse")
    generate.add_argument("--events", type=int, default=10_000)
    generate.add_argument("--symbols", type=int, default=300)
    generate.add_argument("--leading", type=int, default=16)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--flat", type=float, default=0.0,
                          help="probability of an unchanged quote (nyse)")
    generate.add_argument("--reversion", type=float, default=0.0,
                          help="mean reversion strength (walk)")
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=cmd_generate)

    run = commands.add_parser("run", help="run a query over a CSV stream")
    run.add_argument("--query", required=True,
                     help="file in extended MATCH-RECOGNIZE notation")
    run.add_argument("--data", required=True,
                     help="events CSV ('-' reads rows from stdin with "
                          "--follow)")
    run.add_argument("--engine", choices=list(ENGINES),
                     default="spectre")
    _add_speculative_flags(run)
    run.add_argument("--show", type=int, default=5,
                     help="complex events to print")
    run.add_argument("--follow", action="store_true",
                     help="streaming mode: push events one at a time "
                          "through a session and print matches as they "
                          "validate")
    run.add_argument("--poll", type=float, default=0.0,
                     help="with --follow on a file: seconds to wait for "
                          "appended rows at EOF (0 stops at EOF)")
    run.add_argument("--slack", type=float, default=None,
                     help="with --follow: out-of-order slack buffer "
                          "(time units) in front of the engine")
    run.set_defaults(func=cmd_run)

    verify = commands.add_parser(
        "verify",
        help="check a speculative engine's output equals the sequential "
             "engine")
    verify.add_argument("--query", required=True)
    verify.add_argument("--data", required=True)
    verify.add_argument("--engine", default="spectre",
                        choices=[name for name, spec in ENGINES.items()
                                 if spec.takes_config])
    _add_speculative_flags(verify)
    verify.set_defaults(func=cmd_verify)

    graph = commands.add_parser(
        "graph",
        help="run a linear operator pipeline (stage outputs feed the "
             "next stage) on any engine")
    graph.add_argument("--data", required=True, help="source events CSV")
    graph.add_argument("--stage", action="append", default=[],
                       help="pipeline stage name=queryfile (repeatable, "
                            "in order)")
    graph.add_argument("--engine", choices=list(ENGINES),
                       default="spectre")
    _add_speculative_flags(graph)
    graph.add_argument("--verify", action="store_true",
                       help="also run the pipeline sequentially and "
                            "compare final-stage outputs")
    graph.set_defaults(func=cmd_graph)

    serve = commands.add_parser(
        "serve",
        help="serve many queries concurrently over one shared "
             "ingestion pass (multi-query StreamHub)")
    serve.add_argument("--query", action="append", default=[],
                       help="query file, optionally name=file "
                            "(repeatable; one attachment each)")
    serve.add_argument("--data", default=None,
                       help="events CSV ('-' reads rows from stdin); "
                            "required in pipe mode, forbidden with "
                            "--tcp/--ws (clients push events instead)")
    serve.add_argument("--engine", choices=list(ENGINES),
                       default="spectre")
    serve.add_argument("--tcp", default=None, metavar="HOST:PORT",
                       help="serve the NDJSON wire protocol over TCP "
                            "(port 0 = ephemeral, printed on start)")
    serve.add_argument("--ws", default=None, metavar="HOST:PORT",
                       help="serve the wire protocol over WebSocket "
                            "(RFC 6455, one frame per message)")
    serve.add_argument("--http", default=None, metavar="HOST:PORT",
                       help="observability listener: GET /metrics "
                            "(Prometheus text) and GET /healthz")
    serve.add_argument("--auth-token", default=None, metavar="TOKEN",
                       help="require this token in every client's "
                            "hello frame (network mode)")
    serve.add_argument("--max-clients", type=int, default=64,
                       help="refuse connections beyond this many "
                            "concurrent clients (network mode)")
    _add_speculative_flags(serve)
    serve.add_argument("--poll", type=float, default=0.0,
                       help="on a file: seconds to wait for appended "
                            "rows at EOF (0 stops at EOF)")
    serve.add_argument("--no-share", action="store_true",
                       help="disable the cross-query optimizer (type-"
                            "indexed routing, kernel interning, shared "
                            "NFA prefixes)")
    serve.add_argument("--slack", type=float, default=None,
                       help="shared out-of-order slack buffer (time "
                            "units) in front of every query")
    serve.add_argument("--rate-limit", type=float, default=None,
                       metavar="EVENTS_PER_SEC",
                       help="token-bucket limit on the shared ingestion "
                            "path; excess events are shed and counted")
    serve.add_argument("--rate-burst", type=float, default=None,
                       metavar="N",
                       help="bucket capacity for --rate-limit "
                            "(default: the rate)")
    serve.add_argument("--require", action="append", default=[],
                       metavar="ATTR[:TYPE]",
                       help="validate events: ATTR must be present, "
                            "optionally typed (float|int|str|bool); "
                            "repeatable")
    serve.add_argument("--invalid-policy", choices=("null", "reject"),
                       default="null",
                       help="--require failures: null the attribute "
                            "(SQL NULL semantics) or reject the event")
    serve.add_argument("--metrics", action="store_true",
                       help="collect Prometheus-style metrics on the "
                            "interception chain and print the text "
                            "exposition at exit")
    serve.add_argument("--trace", type=int, nargs="?", const=16,
                       default=None, metavar="N",
                       help="ring-buffer the last N interception "
                            "records and print them at exit "
                            "(default 16)")
    serve.add_argument("--stats-json", default=None, metavar="FILE",
                       help="write the final hub stats snapshot as "
                            "JSON ('-' for stdout)")
    serve.add_argument("--wal", default=None, metavar="DIR",
                       help="durability: write-ahead log + snapshot "
                            "directory; restarting over the same "
                            "directory recovers state exactly-once "
                            "(both pipe and network mode)")
    serve.add_argument("--checkpoint-every", type=int, default=10_000,
                       metavar="N",
                       help="ingested events between snapshot "
                            "checkpoints (with --wal)")
    serve.add_argument("--wal-fsync", choices=FSYNC_POLICIES,
                       default="batch",
                       help="WAL fsync policy: always (fsync per "
                            "append), batch (fsync at checkpoints; "
                            "OS-buffered between), never")
    serve.add_argument("--wal-keep-segments", type=int, default=None,
                       metavar="K",
                       help="GC WAL segments superseded by a snapshot, "
                            "keeping K extra segments of durable-resume "
                            "history behind the checkpoint (default: "
                            "keep everything)")
    serve.add_argument("--heartbeat", type=float, default=None,
                       metavar="SECONDS",
                       help="send a ping to every idle client this "
                            "often (clients answer with pong)")
    serve.add_argument("--idle-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="disconnect clients silent for this long "
                            "(goodbye reason 'idle_timeout'; pongs "
                            "count as traffic)")
    serve.add_argument("--slow-consumer", choices=SLOW_CONSUMER_POLICIES,
                       default="block",
                       help="policy when a client's send queue fills: "
                            "block ingestion (default), shed its oldest "
                            "queued match, or disconnect it with a "
                            "goodbye")
    serve.add_argument("--chaos-seed", type=int, default=0,
                       help="seed for all fault injectors (chaos runs "
                            "are deterministic per seed)")
    serve.add_argument("--chaos-drop", type=float, default=0.0,
                       metavar="RATE",
                       help="chaos: drop this fraction of pushed events")
    serve.add_argument("--chaos-dup", type=float, default=0.0,
                       metavar="RATE",
                       help="chaos: duplicate this fraction of events")
    serve.add_argument("--chaos-delay", type=float, default=0.0,
                       metavar="RATE",
                       help="chaos: hold this fraction of events and "
                            "release them later (reorders the stream)")
    serve.add_argument("--chaos-sink-error", type=float, default=0.0,
                       metavar="RATE",
                       help="chaos: make this fraction of sink "
                            "deliveries raise")
    serve.add_argument("--chaos-wal-fail", type=float, default=0.0,
                       metavar="RATE",
                       help="chaos: fail this fraction of WAL appends "
                            "transiently (absorbed by write retries)")
    serve.add_argument("--chaos-reset-after", type=int, default=None,
                       metavar="N",
                       help="chaos: abruptly reset a connection every "
                            "N handled frames")
    serve.set_defaults(func=cmd_serve)

    client = commands.add_parser(
        "client",
        help="connect to a serving runtime, subscribe queries, and "
             "tail matches as JSON lines")
    client.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="server address (a --tcp or --ws listener)")
    client.add_argument("--transport", choices=("tcp", "ws"),
                        default="tcp")
    client.add_argument("--token", default=None,
                        help="auth token for the hello frame")
    client.add_argument("--query", action="append", default=[],
                        help="query file, optionally name=file "
                             "(repeatable; one subscription each)")
    client.add_argument("--param", action="append", default=[],
                        help="query parameter name=value (repeatable, "
                             "applies to every subscription)")
    client.add_argument("--engine", choices=list(ENGINES),
                        default=None,
                        help="engine for the subscriptions (default: "
                             "the server's)")
    client.add_argument("--data", default=None,
                        help="events CSV to push after subscribing "
                             "('-' reads rows from stdin)")
    client.add_argument("--poll", type=float, default=0.0,
                        help="with --data on a file: seconds to wait "
                             "for appended rows at EOF (0 stops)")
    client.add_argument("--push-batch", type=int, default=256,
                        metavar="N", help="events per push_many frame")
    client.add_argument("--flush", action="store_true",
                        help="send a flush after --data and exit once "
                             "every subscription's final watermark "
                             "arrives")
    client.add_argument("--max-matches", type=int, default=None,
                        metavar="N", help="exit after N match frames")
    client.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="exit when no frame arrives for this long")
    client.add_argument("--durable", action="store_true",
                        help="durable subscriptions: the server keeps "
                             "the attachment and its WAL cursor across "
                             "disconnects and restarts (needs serve "
                             "--wal; query names are the resume keys)")
    client.add_argument("--resume-from", type=int, default=None,
                        metavar="CURSOR",
                        help="resume a durable subscription: replay "
                             "WAL-logged matches with cursor > CURSOR, "
                             "then continue live (implies --durable)")
    client.add_argument("--reconnect", action="store_true",
                        help="auto-reconnect on unexpected disconnect "
                             "with exponential backoff, re-subscribing "
                             "durable queries from the last delivered "
                             "cursor (needs --durable)")
    client.add_argument("--reconnect-max", type=int, default=None,
                        metavar="N",
                        help="give up after N reconnect attempts "
                             "(default: retry forever)")
    client.add_argument("--reconnect-delay", type=float, default=0.2,
                        metavar="SECONDS",
                        help="initial reconnect backoff delay")
    client.add_argument("--reconnect-max-delay", type=float, default=5.0,
                        metavar="SECONDS",
                        help="backoff delay cap")
    client.set_defaults(func=cmd_client)

    record = commands.add_parser(
        "record",
        help="LIVE: run queries over a CSV stream while journaling "
             "everything into a replayable run log")
    record.add_argument("--out", required=True, metavar="RUNLOG",
                        help="run log file to write")
    record.add_argument("--query", action="append", default=[],
                        help="query file, optionally name=file "
                             "(repeatable; one attachment each)")
    record.add_argument("--data", required=True,
                        help="events CSV ('-' reads rows from stdin)")
    record.add_argument("--engine", choices=list(ENGINES),
                        default="sequential")
    _add_speculative_flags(record)
    record.add_argument("--poll", type=float, default=0.0,
                        help="on a file: seconds to wait for appended "
                             "rows at EOF (0 stops at EOF)")
    record.add_argument("--slack", type=float, default=None,
                        help="out-of-order slack buffer (time units)")
    record.add_argument("--no-share", action="store_true",
                        help="disable the cross-query optimizer")
    record.add_argument("--quiet", action="store_true",
                        help="suppress per-match printing")
    record.set_defaults(func=cmd_record)

    replay = commands.add_parser(
        "replay",
        help="REPLAY: re-execute a recorded run deterministically and "
             "print the reproduced match streams")
    replay.add_argument("--run", required=True, metavar="RUNLOG")
    replay.add_argument("--show", type=int, default=0, metavar="N",
                        help="print the first N matches per attachment")
    replay.add_argument("--share", choices=("recorded", "on", "off"),
                        default="recorded",
                        help="override the recorded sharing-optimizer "
                             "setting (identities must not change)")
    replay.set_defaults(func=cmd_replay)

    verify_run_parser = commands.add_parser(
        "verify-run",
        help="VERIFY: replay a recorded run and compare every match "
             "against the recording; non-zero exit on divergence")
    verify_run_parser.add_argument("--run", required=True,
                                   metavar="RUNLOG")
    verify_run_parser.add_argument("--show", type=int, default=5,
                                   metavar="N",
                                   help="divergences to print")
    verify_run_parser.set_defaults(func=cmd_verify_run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
