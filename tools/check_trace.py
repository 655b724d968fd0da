#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file produced by
SpanTracer::write_chrome_trace() (src/runtime/spantrace.cpp), the
repository's one trace exporter.

Checks, per docs/OBSERVABILITY.md "Tracing & post-mortems":
  - the file parses as JSON with a traceEvents array;
  - every event has a one-char `ph` from the phases we emit
    (X, i, b, e, M) and integer `pid`/`tid`;
  - non-metadata events carry a finite, non-negative `ts`;
    "X" slices carry a finite, non-negative `dur`;
  - per (pid, tid) track, `ts` is monotone non-decreasing in array
    order (the exporter sorts; Perfetto relies on stable ordering of
    equal timestamps for nesting);
  - "X" slices nest per track: at equal start, enclosing slices come
    first (duration non-increasing), and no slice starts inside a
    prior sibling while ending outside it;
  - nestable async "b"/"e" events balance per (cat, id): every begin
    has one end at ts >= begin, no end without a begin, none left
    open (a job span and its attempt children share one id and nest
    as a stack);
  - metadata events are well-formed process_name/thread_name records.

With --postmortem, FILE is instead a FaultReport JSON written by
write_fault_report_file() (src/runtime/postmortem.cpp) and the schema
of that document is checked.

Usage: check_trace.py FILE [--postmortem]
           [--require-cat CAT]... [--min-events N]
Exit status 0 on success; 1 with a diagnostic on the first failure.
"""

import argparse
import json
import math
import sys

PHASES = {'X', 'i', 'b', 'e', 'M'}


def fail(index, ev, why):
    brief = json.dumps(ev)[:200]
    sys.exit(f"check_trace: event {index}: {why}\n  {brief}")


def check_number(index, ev, key, value):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(index, ev, f'{key} is not a number')
    if not math.isfinite(value):
        fail(index, ev, f'{key} is not finite')
    if value < 0:
        fail(index, ev, f'{key} is negative')
    return value


def check_trace(events, require_cats, min_events):
    last_ts = {}        # (pid, tid) -> last seen ts
    open_slices = {}    # (pid, tid) -> stack of (start, end)
    open_async = {}     # (cat, id) -> stack of begin ts (nestable)
    cats = set()
    substantive = 0
    for index, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(index, ev, 'event is not an object')
        ph = ev.get('ph')
        if ph not in PHASES:
            fail(index, ev, f'unexpected ph {ph!r}')
        for key in ('pid', 'tid'):
            if not isinstance(ev.get(key), int):
                fail(index, ev, f'{key} missing or not an integer')
        if ph == 'M':
            if ev.get('name') not in ('process_name', 'thread_name'):
                fail(index, ev, 'metadata event with unknown name')
            name = ev.get('args', {}).get('name')
            if not isinstance(name, str) or not name:
                fail(index, ev, 'metadata event without args.name')
            continue

        substantive += 1
        if not isinstance(ev.get('name'), str):
            fail(index, ev, 'name missing or not a string')
        cats.add(ev.get('cat', ''))
        ts = check_number(index, ev, 'ts', ev.get('ts'))
        track = (ev['pid'], ev['tid'])
        if ts < last_ts.get(track, 0):
            fail(index, ev,
                 f'ts {ts} goes backwards on track pid={track[0]} '
                 f'tid={track[1]} (last was {last_ts[track]})')
        last_ts[track] = ts

        if ph == 'X':
            dur = check_number(index, ev, 'dur', ev.get('dur'))
            stack = open_slices.setdefault(track, [])
            # Pop siblings this slice starts after; whatever remains
            # open must fully enclose the new slice.  Timestamps are
            # cycles converted to float microseconds, so adjacent
            # 1-cycle slices differ by ~1e-15 — compare with slack far
            # below one cycle (0.001 us).
            eps = 1e-9
            while stack and stack[-1][1] <= ts + eps:
                stack.pop()
            if stack and ts + dur > stack[-1][1] + eps:
                fail(index, ev,
                     f'slice [{ts}, {ts + dur}] overlaps but does not '
                     f'nest inside open slice {stack[-1]}')
            stack.append((ts, ts + dur))
        elif ph in ('b', 'e'):
            key = (ev.get('cat', ''), ev.get('id'))
            if not isinstance(key[1], str):
                fail(index, ev, 'async event without a string id')
            if ph == 'b':
                open_async.setdefault(key, []).append(ts)
            else:
                stack = open_async.get(key)
                if not stack:
                    fail(index, ev, f'async end without begin for {key}')
                if ts < stack[-1]:
                    fail(index, ev,
                         f'async end before its begin for {key}')
                stack.pop()
                if not stack:
                    del open_async[key]
        else:  # 'i'
            if ev.get('s') not in ('t', 'g', 'p', None):
                fail(index, ev, f"instant scope {ev.get('s')!r} invalid")

    if open_async:
        sys.exit(f'check_trace: {len(open_async)} async span(s) never '
                 f'ended, e.g. {next(iter(open_async))}')
    for cat in require_cats:
        if cat not in cats:
            sys.exit(f'check_trace: required category {cat!r} missing '
                     f'(saw {sorted(c for c in cats if c)})')
    if substantive < min_events:
        sys.exit(f'check_trace: only {substantive} events '
                 f'(need >= {min_events})')
    return substantive, len(last_ts)


def check_string(doc, key, allow_empty=True):
    v = doc.get(key)
    if not isinstance(v, str) or (not allow_empty and not v):
        sys.exit(f'check_trace: postmortem field {key!r} missing or '
                 'not a usable string')
    return v


def check_count(doc, key):
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        sys.exit(f'check_trace: postmortem field {key!r} missing or '
                 'not a count')
    return v


def check_postmortem(doc):
    if not isinstance(doc, dict):
        sys.exit('check_trace: postmortem document is not an object')
    check_string(doc, 'job', allow_empty=False)
    for key in ('job_index', 'trace_id', 'wave', 'attempt',
                'max_attempts', 'lane', 'queue_wait_cycles',
                'service_cycles', 'dropped_events'):
        check_count(doc, key)
    check_string(doc, 'status', allow_empty=False)
    for key in ('quarantined', 'will_retry'):
        if not isinstance(doc.get(key), bool):
            sys.exit(f'check_trace: postmortem field {key!r} missing '
                     'or not a bool')
    fault = doc.get('fault')
    if not isinstance(fault, dict):
        sys.exit('check_trace: postmortem has no fault object')
    check_string(fault, 'code', allow_empty=False)
    check_string(fault, 'describe', allow_empty=False)
    check_count(fault, 'state_base')
    check_count(fault, 'cycle')
    history = doc.get('attempt_history')
    if not isinstance(history, list):
        sys.exit('check_trace: attempt_history missing or not a list')
    for entry in history:
        check_count(entry, 'wave')
        check_count(entry, 'attempt')
        check_string(entry, 'status', allow_empty=False)
    events = doc.get('recent_events')
    if not isinstance(events, list):
        sys.exit('check_trace: recent_events missing or not a list')
    last = -1
    for entry in events:
        cycle = check_count(entry, 'cycle')
        check_string(entry, 'kind', allow_empty=False)
        if cycle < last:
            sys.exit('check_trace: recent_events cycles not monotone')
        last = cycle
    check_string(doc, 'disassembly', allow_empty=False)
    return len(events), len(history)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument('file')
    ap.add_argument('--postmortem', action='store_true',
                    help='FILE is a FaultReport JSON, not a trace')
    ap.add_argument('--require-cat', action='append', default=[],
                    help='fail unless some event carries this category')
    ap.add_argument('--min-events', type=int, default=1,
                    help='minimum non-metadata event count (default 1)')
    args = ap.parse_args()

    try:
        with open(args.file, encoding='utf-8') as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f'check_trace: {args.file}: {e}')

    if args.postmortem:
        events, history = check_postmortem(doc)
        print(f'check_trace: OK (postmortem, {events} recent events, '
              f'{history} prior attempts)')
        return

    if not isinstance(doc, dict) or \
            not isinstance(doc.get('traceEvents'), list):
        sys.exit('check_trace: no traceEvents array')
    events, tracks = check_trace(doc['traceEvents'],
                                 args.require_cat, args.min_events)
    print(f'check_trace: OK ({events} events on {tracks} tracks)')


if __name__ == '__main__':
    main()
