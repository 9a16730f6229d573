"""Run ``repro serve`` with timers around each layer's public calls.

Usage (``repro`` must be importable, e.g. ``PYTHONPATH=src``)::

    python perfbench/traced_server.py SPANS.json serve --port 0 ...

Everything after ``SPANS.json`` is a ``repro`` command line; it goes
through the CLI's own parser, so the traced server is built from the
same config as an untraced ``python -m repro serve`` with those flags.
The wrappers keep spans in per-thread lists in memory — name, start,
end, parent (the enclosing wrapped call on the same thread), and a
small per-call detail — and write them to ``SPANS.json`` once the
server has drained.  Nothing is written while the server runs.

The request id is the sequencer ``seq``: the detail of each ``take`` /
``try_take`` span (with the event's ``arrival`` stamp) and of each
reply payload span.  Every other span on the ``serve-apply`` thread
belongs to the request(s) taken just before it; ``decode`` spans on
the event-loop thread run before the sequencer assigns one.
"""

from __future__ import annotations

import json
import sys
import threading
from time import perf_counter

_lock = threading.Lock()
_local = threading.local()
_threads: list[tuple[str, list]] = []


def _thread_state() -> tuple[list, list]:
    try:
        return _local.spans, _local.stack
    except AttributeError:
        _local.spans, _local.stack = [], []
        with _lock:
            _threads.append((threading.current_thread().name,
                             _local.spans))
        return _local.spans, _local.stack


def timed(fn, name: str, detail=None):
    """Wrap ``fn`` so every call records one span.  ``detail(args,
    result)`` picks the span's detail field from a successful call."""

    def wrapper(*args, **kwargs):
        spans, stack = _thread_state()
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            spans[index] = (name, start, perf_counter(), parent, None)
            raise
        finally:
            stack.pop()
        spans[index] = (name, start, perf_counter(), parent,
                        detail(args, result) if detail else None)
        return result

    return wrapper


def _patch(owner, attr: str, name: str, detail=None) -> None:
    setattr(owner, attr, timed(getattr(owner, attr), name, detail))


def _taken(args, item):
    return None if item is None else [item.seq, item.arrival]


def install() -> None:
    """Wrap the public calls of every layer the benchmark splits."""
    from repro.auction.batch import PacerArrays
    from repro.auction.settlement import AuctionSettler
    from repro.core.winner_determination import SubsetWindowSolver
    from repro.evaluation.evaluator import RhtaluEvaluator
    from repro.serve import protocol
    from repro.serve.sequencer import IngressSequencer
    from repro.stream import service
    from repro.stream.events import event_kind
    from repro.stream.journal import EventJournal
    from repro.stream.snapshot import CheckpointPolicy

    # serve: the server calls these through the ``protocol`` module.
    _patch(protocol, "decode_body", "serve.decode_body")
    _patch(protocol, "event_from_payload", "serve.event_from_payload")
    _patch(protocol, "result_payload", "serve.result_payload",
           lambda args, _: args[1])
    _patch(protocol, "ok_payload", "serve.ok_payload",
           lambda args, _: args[1])
    _patch(protocol, "encode_frame", "serve.encode_frame")
    _patch(IngressSequencer, "take", "serve.take", _taken)
    _patch(IngressSequencer, "try_take", "serve.try_take", _taken)
    # stream
    _patch(service.OnlineAuctionService, "process", "stream.process",
           lambda args, _: event_kind(args[1]))
    _patch(service.OnlineAuctionService, "process_window",
           "stream.process_window", lambda args, _: len(args[1]))
    _patch(EventJournal, "append", "stream.journal_append")
    _patch(EventJournal, "append_batch", "stream.journal_append_batch",
           lambda args, _: len(args[1]))
    _patch(CheckpointPolicy, "write", "stream.checkpoint_write")
    # evaluation, core (looked up by name inside stream.service), auction
    _patch(PacerArrays, "evaluate", "evaluation.evaluate")
    _patch(service, "solve_on_subset", "core.solve_on_subset")
    _patch(SubsetWindowSolver, "solve", "core.window_solve")
    _patch(RhtaluEvaluator, "run_auction", "evaluation.rhtalu_auction")
    for op in ("join", "leave", "update", "pause", "resume"):
        _patch(RhtaluEvaluator, f"apply_{op}", "evaluation.maintain")
    _patch(AuctionSettler, "settle", "auction.settle")


def write_spans(path: str) -> int:
    """Dump every thread's spans as JSON; returns the span count."""
    with _lock:
        threads = [(name, [span for span in spans if span is not None])
                   for name, spans in _threads]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"threads": [{"name": name, "spans": spans}
                               for name, spans in threads]}, handle)
    return sum(len(spans) for _, spans in threads)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "serve":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, command = argv[0], argv[1:]
    install()
    from repro.cli import main as repro_main

    try:
        return repro_main(command)
    finally:
        count = write_spans(spans_path)
        print(f"traced_server: wrote {count} spans to {spans_path}",
              flush=True)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
