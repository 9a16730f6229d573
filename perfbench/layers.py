"""Per-layer figures from the spans ``traced_server.py`` writes.

Every figure covers the timed body only: spans that start inside the
``[paced start, saturated end]`` window (the client instants share the
server's ``CLOCK_MONOTONIC`` clock).  Means are per call unless the
name says otherwise; a layer the workload never calls reads 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

APPLY_THREAD = "serve-apply"


def load_spans(path: Path) -> list[tuple[str, list]]:
    data = json.loads(path.read_text(encoding="utf-8"))
    return [(thread["name"], thread["spans"])
            for thread in data["threads"]]


def span_table(threads, lo: float, hi: float) -> dict[str, dict]:
    """Calls, total and self seconds per span name.  Self time is the
    span's duration minus its direct children's durations."""
    table: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for _, spans in threads:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(spans):
            if lo <= start <= hi:
                row = table[name]
                row["calls"] += 1
                row["total_s"] += end - start
                row["self_s"] += end - start - child_time[index]
    return dict(table)


def _mean(total: float, count: int, scale: float) -> float:
    return scale * total / count if count else 0.0


def _p50(values, scale: float) -> float:
    return scale * float(np.percentile(values, 50)) if values else 0.0


def per_layer(threads, paced: tuple[float, float],
              saturated: tuple[float, float],
              paced_queries: list[tuple[int, float, float]]) -> dict:
    """The benchmark's per-layer metrics as ``name: (value, unit)``.
    ``paced_queries`` holds ``(seq, sent, received)`` client instants
    per paced query."""
    lo, hi = paced[0], saturated[1]
    body: dict[str, list] = defaultdict(list)
    for thread, spans in threads:
        for span in spans:
            if lo <= span[1] <= hi:
                body[span[0]].append((thread, span))

    def total(*names, thread=None) -> tuple[float, int]:
        spans = [span for name in names for owner, span in body[name]
                 if thread is None or owner == thread]
        return sum(s[2] - s[1] for s in spans), len(spans)

    decode_s, _ = total("serve.decode_body", "serve.event_from_payload")
    _, events = total("serve.event_from_payload")
    encode_s, _ = total("serve.result_payload", "serve.ok_payload",
                        "serve.encode_frame", thread=APPLY_THREAD)
    _, replies = total("serve.result_payload", "serve.ok_payload")

    # Sequencer: queue wait runs from the stamp to the take returning.
    arrival: dict[int, float] = {}
    waits = {"paced": [], "saturated": []}
    for name in ("serve.take", "serve.try_take"):
        for _, (_, _, end, _, taken) in body[name]:
            if taken is None:
                continue
            seq, stamped = taken
            arrival[seq] = stamped
            for phase, (start, stop) in (("paced", paced),
                                         ("saturated", saturated)):
                if start <= stamped <= stop:
                    waits[phase].append(end - stamped)
    blocked = 0.0
    for _, (_, start, end, _, _) in body["serve.take"]:
        blocked += max(0.0, min(end, saturated[1])
                       - max(start, saturated[0]))
    busy = 1.0 - blocked / (saturated[1] - saturated[0])

    # Encode end per seq: the encode_frame call that follows a reply
    # payload on the apply thread.
    encoded: dict[int, float] = {}
    for thread, spans in threads:
        if thread != APPLY_THREAD:
            continue
        pending = None
        for name, _, end, _, detail in spans:
            if name in ("serve.result_payload", "serve.ok_payload"):
                pending = detail
            elif name == "serve.encode_frame" and pending is not None:
                encoded[pending] = end
                pending = None
    wire = [(received - sent) - (encoded[seq] - arrival[seq])
            for seq, sent, received in paced_queries
            if seq in encoded and seq in arrival]

    query_apply, control_s, controls = [], 0.0, 0
    for _, (_, start, end, _, kind) in body["stream.process"]:
        if kind == "query":
            query_apply.append(end - start)
        else:
            control_s += end - start
            controls += 1
    windows = body["stream.process_window"]
    dispatches = len(query_apply) + len(windows)
    for _, (_, start, end, _, size) in windows:
        query_apply.extend([(end - start) / size] * size)

    journal_s, syncs = total("stream.journal_append",
                             "stream.journal_append_batch")
    entries = len(body["stream.journal_append"]) + sum(
        span[4] for _, span in body["stream.journal_append_batch"])
    checkpoint_s, checkpoints = total("stream.checkpoint_write")
    eval_s, evals = total("evaluation.evaluate")
    wd_s, wds = total("core.solve_on_subset", "core.window_solve")
    rhtalu_s, rhtalus = total("evaluation.rhtalu_auction")
    maintain_s, maintains = total("evaluation.maintain")
    settle_s, settles = total("auction.settle")

    return {
        "serve.decode_us": (_mean(decode_s, events, 1e6), "us"),
        "serve.encode_us": (_mean(encode_s, replies, 1e6), "us"),
        "serve.queue_wait_ms_p50": (_p50(waits["saturated"], 1e3), "ms"),
        "serve.queue_wait_ms_p50_paced": (_p50(waits["paced"], 1e3),
                                          "ms"),
        "serve.apply_busy_frac": (busy, "ratio"),
        "serve.wire_ms_p50": (_p50(wire, 1e3), "ms"),
        "stream.apply_ms_p50": (_p50(query_apply, 1e3), "ms"),
        "stream.control_apply_us": (_mean(control_s, controls, 1e6),
                                    "us"),
        "stream.journal_ms": (_mean(journal_s, syncs, 1e3), "ms"),
        "stream.journal_entries_per_sync": (_mean(entries, syncs, 1.0),
                                            "entries"),
        "stream.checkpoint_ms": (_mean(checkpoint_s, checkpoints, 1e3),
                                 "ms"),
        "stream.window_mean": (_mean(len(query_apply), dispatches, 1.0),
                               "queries"),
        "stream.windows": (len(windows), "count"),
        "evaluation.eval_ms": (_mean(eval_s, evals, 1e3), "ms"),
        "core.wd_ms": (_mean(wd_s, wds, 1e3), "ms"),
        "evaluation.rhtalu_auction_ms": (_mean(rhtalu_s, rhtalus, 1e3),
                                         "ms"),
        "evaluation.maintain_us": (_mean(maintain_s, maintains, 1e6),
                                   "us"),
        "auction.settle_ms": (_mean(settle_s, settles, 1e3), "ms"),
    }
