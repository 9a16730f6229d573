#!/usr/bin/env python3
"""Open-loop wire benchmark for ``repro serve``.

    python3 perfbench/run.py --workload auction-large --seed 1 \\
        --seconds 30 --trace 0

Starts a real ``repro serve`` subprocess for the workload, sends the
genesis joins (set-up), then drives the generated churn stream over
one connection from a single-threaded load generator: a paced phase
at the workload's fixed arrival rate, then a saturated phase with a
fixed number of requests in flight.  Every reply is checked against
the same stream run through an in-process ``OnlineAuctionService``;
journaled runs must also recover to the same final state.  The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  A run that fails its
correctness gate prints its verdict with no metrics and exits 1.

See ``perfbench/README.md`` for why each workload exists and which
layer metric should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from layers import load_spans, per_layer, span_table
from loadgen import (
    BenchError,
    Connection,
    ServerProcess,
    closed_loop,
    open_loop,
    steal_seconds,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    """A server configuration plus a churn stream."""

    method: str
    universe: int
    genesis: int
    slots: int
    keywords: int
    churn: float
    rate: float
    """Paced-phase arrival rate, events per second."""
    headroom: float
    """Events generated per second of ``--seconds`` for the saturated
    phase: about twice today's capacity.  A server fast enough to run
    the stream dry ends the phase early with a warning."""
    batch_window: int = 0
    journal: bool = False
    checkpoint_every: int = 0


BUDGETS = (50_000.0, 500_000.0)
"""Range of each join's initial budget: more than any advertiser
spends within a run.  With the generator's default 50-500,
``auction-large`` pauses its whole population within ~7000 events
(5.3 -> 0.5 ms per event in-process) and ``durable-churn`` most of
it, so the timed body measured a shrinking auction, and a faster run,
by getting further, measured a cheaper one."""

WORKLOADS = {
    # Auction bound at the paper's Section V shape (Fig. 13 scale):
    # evaluation and winner determination dominate; micro-batching
    # fills windows only in the saturated phase.
    "auction-large": Workload("rh", 16000, 8000, 15, 10, 0.03, rate=60,
                              headroom=700, batch_window=32),
    # Durable writes beside reads: half the events are fsync-journaled
    # controls spliced into RHTALU's lazy state, with checkpoints.
    "durable-churn": Workload("rhtalu", 2000, 1000, 15, 10, 0.5,
                              rate=100, headroom=1200, journal=True,
                              checkpoint_every=1000),
}

SETUPS = 3
"""Set-ups per e2e run; ``setup_s`` is their median."""
IN_FLIGHT = 64
"""Requests in flight during the saturated phase: twice the largest
batch window, so the server's queue never runs dry.  With 8, five
20 s runs of ``auction-large`` read 317-514 events/s (quartile spread
0.34 of the median); with 64, five read 324-399 (0.13)."""
GENESIS_IN_FLIGHT = 64
PACED_SHARE = 0.5
"""The paced phase's share of ``--seconds``; the saturated phase has
the rest."""
SEND_LAG_BOUND_MS = 2.0
"""A paced run whose send-lag p99 exceeds this measured the generator,
not the server; it is flagged in the output."""
STREAM_SEED_OFFSET = 17
"""Churn stream seed = seed + 17 (the ``repro loadgen`` convention);
the universe uses ``seed`` and the engine ``seed + 1``."""
TIMING_FIELDS = ("eval_seconds", "wd_seconds", "price_seconds",
                 "settle_seconds")


class Plan:
    """Everything derived from (workload, seed, seconds), built and
    encoded before any clock starts."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        from repro.serve.protocol import encode_frame, event_to_payload
        from repro.stream.events import QueryArrival
        from repro.workloads.churn import (
            ChurnStreamConfig,
            generate_stream,
        )
        from repro.workloads.paper_workload import (
            PaperWorkload,
            PaperWorkloadConfig,
        )

        work = WORKLOADS[name]
        self.work, self.seed = work, seed
        self.seconds = seconds
        self.config = PaperWorkloadConfig(
            num_advertisers=work.universe, num_slots=work.slots,
            num_keywords=work.keywords, seed=seed)
        self.paced = math.ceil(PACED_SHARE * seconds * work.rate)
        body = self.paced + math.ceil(work.headroom * seconds)
        events = list(generate_stream(
            PaperWorkload(self.config),
            ChurnStreamConfig(num_events=body, churn_rate=work.churn,
                              genesis=work.genesis,
                              budget_low=BUDGETS[0],
                              budget_high=BUDGETS[1],
                              seed=seed + STREAM_SEED_OFFSET)))
        self.genesis = events[:work.genesis]
        self.body = events[work.genesis:]
        self.is_query = [isinstance(event, QueryArrival)
                         for event in self.body]
        self.genesis_frames = [
            encode_frame(event_to_payload(event, tag=f"g{index}"))
            for index, event in enumerate(self.genesis)]
        self.frames = [encode_frame(event_to_payload(event, tag=index))
                       for index, event in enumerate(self.body)]

    def server_args(self, workdir: Path) -> list[str]:
        work = self.work
        args = ["serve", "--host", "127.0.0.1", "--port", "0",
                "--advertisers", str(work.universe),
                "--slots", str(work.slots),
                "--keywords", str(work.keywords),
                "--method", work.method, "--seed", str(self.seed)]
        if work.batch_window:
            args += ["--batch-window", str(work.batch_window)]
        if work.journal:
            args += ["--journal", str(workdir / "journal.jsonl")]
        if work.checkpoint_every:
            args += ["--checkpoint-every", str(work.checkpoint_every),
                     "--checkpoint-dir", str(workdir / "checkpoints")]
        return args


@dataclass
class Run:
    """One server's timed body, as the client saw it."""

    server: ServerProcess
    conn: Connection
    setup_s: float
    paced: tuple[float, float] = (0.0, 0.0)
    saturated: tuple[float, float] = (0.0, 0.0)
    due: list | None = None
    sent: list = field(default_factory=list)
    server_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    steal_frac: float = 0.0
    exhausted: bool = False


class Bench:
    """Owns the private work directory and every server it spawns."""

    def __init__(self, plan: Plan, workdir: Path) -> None:
        self.plan = plan
        self.workdir = workdir
        self.servers: list = []
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(
                os.pathsep) if p])
        self.env = env

    def setup(self, label: str, traced: bool = False) -> Run:
        """Spawn a server, wait for its port, send the genesis joins
        and wait for every ack: the set-up the ``setup_s`` metric
        times."""
        workdir = self.workdir / label
        args = self.plan.server_args(workdir)
        if traced:
            argv = [sys.executable, str(HERE / "traced_server.py"),
                    str(workdir / "spans.json")] + args
        else:
            argv = [sys.executable, "-m", "repro"] + args
        server = ServerProcess(argv, workdir, self.env, ROOT)
        self.servers.append(server)
        port = server.wait_port(timeout=120)
        conn = Connection.open(port, timeout=60)
        closed_loop(conn, self.plan.genesis_frames, GENESIS_IN_FLIGHT,
                    None, timeout=120)
        return Run(server, conn, perf_counter() - server.spawned)

    def timed_body(self, run: Run) -> None:
        plan, conn = self.plan, run.conn
        paced = plan.paced
        # A collection pass over the pre-encoded stream would stall the
        # sender; nothing the timed body allocates forms cycles.
        gc.collect()
        gc.freeze()
        gc.disable()
        cpu0, client0 = run.server.cpu_seconds(), time.process_time()
        steal0 = steal_seconds()
        start = perf_counter() + 0.01
        run.due = [start + index / plan.work.rate
                   for index in range(paced)]
        sent = open_loop(conn, plan.frames[:paced], run.due, timeout=60)
        run.paced = (start, perf_counter())
        sat_start = perf_counter()
        stop_at = max(start + plan.seconds, sat_start + 1.0)
        sent += closed_loop(conn, plan.frames[paced:], IN_FLIGHT,
                            stop_at, timeout=plan.seconds + 60)
        run.sent = sent
        run.exhausted = len(sent) == len(plan.frames)
        run.saturated = (sat_start, min(stop_at, conn.received_at[-1])
                         if run.exhausted else stop_at)
        run.server_cpu_s = run.server.cpu_seconds() - cpu0
        run.client_cpu_s = time.process_time() - client0
        run.steal_frac = (steal_seconds() - steal0) / (
            (run.saturated[1] - start) * (os.cpu_count() or 1))
        gc.enable()

    def finish(self, run: Run) -> None:
        """Close the connection, then SIGTERM the server: it drains,
        writes its final checkpoint and exits 0."""
        run.conn.close()
        code = run.server.stop(timeout=120)
        if code != 0:
            raise BenchError(f"server exited {code}:\n"
                             + run.server.tail())

    def close(self) -> None:
        for server in self.servers:
            server.kill()


# -- correctness ----------------------------------------------------------

def _strip(record: dict) -> dict:
    return {key: value for key, value in record.items()
            if key not in TIMING_FIELDS}


class Oracle:
    """The stream applied in-process, in the order the server got it.
    :meth:`advance` extends it, so runs of different lengths are each
    checked against the state at their own end."""

    def __init__(self, plan: Plan) -> None:
        from repro.stream.service import OnlineAuctionService

        self.events = plan.genesis + plan.body
        self.window = plan.work.batch_window
        self.service = OnlineAuctionService(
            plan.config, method=plan.work.method,
            engine_seed=plan.seed + 1)
        self.expected: list = []

    def advance(self, count: int) -> None:
        """Apply events until ``count`` have been applied in all.  On a
        batched workload runs of queries go through ``process_window``
        in windows of the server's size: it applies each query exactly
        as ``process`` does, and shares the per-dispatch work the way
        the server does, which keeps the gate's time in check."""
        from repro.auction.trace import record_to_dict
        from repro.stream.events import QueryArrival, event_kind

        def expect(record) -> None:
            self.expected.append(("result", json.loads(json.dumps(
                _strip(record_to_dict(record))))))

        def flush(window: list) -> None:
            for record in self.service.process_window(window):
                expect(record)
            window.clear()

        window: list = []
        for event in self.events[len(self.expected):count]:
            if self.window and isinstance(event, QueryArrival):
                window.append(event)
                if len(window) == self.window:
                    flush(window)
                continue
            flush(window)
            record = self.service.process(event)
            if record is None:
                self.expected.append(("ok", event_kind(event)))
            else:
                expect(record)
        flush(window)

    def check(self, plan: Plan, run: Run) -> tuple[int, list[str]]:
        """Returns (error + missing replies, mismatch descriptions)."""
        replies = run.conn.payloads()[1:]  # [0] is the welcome frame
        count = len(plan.genesis) + len(run.sent)
        failed = max(0, count - len(replies))
        problems = []
        if failed:
            problems.append(f"{failed} replies missing")
        for seq, reply in enumerate(replies[:count]):
            kind, want = self.expected[seq]
            if reply.get("type") == "error":
                failed += 1
                problems.append(f"seq {seq}: error reply {reply}")
                continue
            if reply.get("type") != kind or reply.get("seq") != seq:
                problems.append(f"seq {seq}: expected a {kind!r} reply "
                                f"at seq {seq}, got {reply}")
            elif (_strip(reply.get("record") or {}) if kind == "result"
                  else reply.get("kind")) != want:
                problems.append(f"seq {seq}: reply differs from the "
                                f"in-process run")
        return failed, problems

    def check_recovery(self, workdir: Path) -> list[str]:
        """``recover()`` of the run's journal must land on the
        in-process final state."""
        from repro.stream.recovery import recover
        from repro.stream.snapshot import accounts_to_jsonable

        result = recover(workdir / "journal.jsonl",
                         checkpoint_dir=workdir / "checkpoints")
        got, want = result.service, self.service
        problems = [
            f"recovered {label} differs"
            for label, a, b in (
                ("events_processed", got.events_processed,
                 want.events_processed),
                ("balances", got.registry.balances(),
                 want.registry.balances()),
                ("paused set", got.paused_advertisers(),
                 want.paused_advertisers()),
                ("accounts", accounts_to_jsonable(got.accounts),
                 accounts_to_jsonable(want.accounts)))
            if a != b]
        got.close()
        return problems


# -- metrics --------------------------------------------------------------

def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def latencies(plan: Plan, run: Run) -> tuple[list, list]:
    """Paced query and control latencies, each from its due time."""
    base = 1 + len(plan.genesis)
    queries, controls = [], []
    for index, due in enumerate(run.due):
        done = run.conn.received_at[base + index] - due
        (queries if plan.is_query[index] else controls).append(done)
    return queries, controls


def send_lag_p99_ms(run: Run) -> float:
    return 1e3 * _pct([sent - due for sent, due
                       in zip(run.sent, run.due)], 99)


def throughput(plan: Plan, run: Run) -> float:
    """Median of the per-second reply counts over the saturated phase:
    one slow second (a long collection pause, a noisy neighbour) moves
    it less than it moves the mean."""
    lo, hi = run.saturated
    slices = max(1, int(hi - lo))
    arrived = run.conn.received_at[1 + len(plan.genesis) + plan.paced:]
    counts, _ = np.histogram(arrived, bins=slices, range=(lo, hi))
    return float(np.median(counts)) * slices / (hi - lo)


def end_to_end(plan: Plan, run: Run, setups: list[float]) -> dict:
    queries, controls = latencies(plan, run)
    # The highest whole percentile with ten samples beyond it.
    tail = math.floor(100 * (1 - 10 / len(queries)))
    if tail > 50:
        print(f"query_p{tail}_ms (not gated) "
              f"{1e3 * _pct(queries, tail):.4f} over {len(queries)} "
              f"paced queries")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "query_p50_ms": (1e3 * _pct(queries, 50), "ms"),
        "control_p50_ms": (1e3 * _pct(controls, 50), "ms"),
        "throughput_eps": (throughput(plan, run), "events/s"),
        "server_cpu_ms_per_event": (
            1e3 * run.server_cpu_s / len(run.sent), "ms"),
        "server_rss_mb": (run.server.rusage.ru_maxrss / 1024, "MB"),
    }


def generator_health(run: Run) -> dict:
    """Print (and return) what says whether the generator, not the
    server, set the pace of this run."""
    lag = send_lag_p99_ms(run)
    health = {"send_lag_ms_p99": lag, "client_cpu_s": run.client_cpu_s,
              "steal_frac": run.steal_frac, "nproc": os.cpu_count(),
              "python": platform.python_version(),
              "numpy": np.__version__,
              "lag_bound_ms": SEND_LAG_BOUND_MS,
              "flagged": lag > SEND_LAG_BOUND_MS}
    print("generator: " + " ".join(f"{k}={v}" for k, v in health.items()))
    if health["flagged"]:
        print(f"generator: FLAGGED - send lag p99 {lag:.3f} ms exceeds "
              f"{SEND_LAG_BOUND_MS} ms; this run's latencies measure "
              f"the load generator, not the server")
    return health


# -- the two run shapes ---------------------------------------------------

def run_e2e(bench: Bench, plan: Plan) -> tuple[list, dict]:
    setups = []
    for index in range(SETUPS - 1):
        run = bench.setup(f"setup{index}")
        setups.append(run.setup_s)
        bench.finish(run)
    run = bench.setup("measured")
    setups.append(run.setup_s)
    bench.timed_body(run)
    bench.finish(run)
    print(f"setups: {', '.join(f'{s:.3f}s' for s in setups)}")
    generator_health(run)
    return [run], end_to_end(plan, run, setups)


def run_traced(bench: Bench, plan: Plan) -> tuple[list, dict]:
    """An untraced run for the overhead baseline, then a traced one."""
    plain = bench.setup("plain")
    bench.timed_body(plain)
    bench.finish(plain)
    traced = bench.setup("traced", traced=True)
    bench.timed_body(traced)
    bench.finish(traced)
    health = generator_health(traced)

    threads = load_spans(bench.workdir / "traced" / "spans.json")
    lo, hi = traced.paced[0], traced.saturated[1]
    print("spans over the timed body (calls, total ms, self ms):")
    for name, row in sorted(span_table(threads, lo, hi).items()):
        print(f"  {name:<32} {row['calls']:>8} "
              f"{1e3 * row['total_s']:>11.2f} "
              f"{1e3 * row['self_s']:>11.2f}")
    base = 1 + len(plan.genesis)
    paced_queries = [
        (len(plan.genesis) + index, traced.sent[index],
         traced.conn.received_at[base + index])
        for index in range(plan.paced) if plan.is_query[index]]
    metrics = per_layer(threads, traced.paced, traced.saturated,
                        paced_queries)
    metrics["loadgen.send_lag_ms_p99"] = (health["send_lag_ms_p99"],
                                          "ms")
    metrics["loadgen.cpu_s"] = (health["client_cpu_s"], "s")
    metrics["trace.overhead"] = (
        throughput(plan, traced) / throughput(plan, plain), "ratio")
    return [plain, traced], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "serve").is_dir():
        print(f"perfbench: no repro sources under {SRC}; run from the "
              f"root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # SIGTERM/SIGINT unwind through the finally below, so no server
    # or work directory outlives the benchmark.
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: sys.exit(130))
    clock = perf_counter()
    plan = Plan(args.workload, args.seed, args.seconds)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"paced={plan.paced} events at {plan.work.rate:g}/s, "
          f"then {IN_FLIGHT} in flight; plan built in "
          f"{perf_counter() - clock:.1f}s")
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    bench = Bench(plan, workdir)
    runs: list = []
    problems: list[str] = []
    failed = attempted = 0
    metrics: dict = {}
    try:
        runs, metrics = (run_traced if args.trace else run_e2e)(
            bench, plan)
        clock = perf_counter()
        oracle = Oracle(plan)
        for run in sorted(runs, key=lambda run: len(run.sent)):
            attempted += len(plan.genesis) + len(run.sent)
            oracle.advance(len(plan.genesis) + len(run.sent))
            missing, mismatches = oracle.check(plan, run)
            failed += missing
            problems += mismatches
            if plan.work.journal:
                problems += oracle.check_recovery(run.server.workdir)
            if run.exhausted:
                print("warning: the generated stream ran out during "
                      "the saturated phase; raise its headroom")
        print(f"gate: checked in {perf_counter() - clock:.1f}s")
    except BenchError as error:
        problems.append(str(error))
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no other run is using it
    correct = not problems and failed == 0
    print(f"verdict: {'correct' if correct else 'FAILED'}; "
          f"{attempted} events attempted, {failed} failed "
          f"(failed_frac {failed / max(attempted, 1):.6g})")
    for problem in problems[:10]:
        print(f"  {problem}")
    if correct:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<34} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}
        if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
