#!/usr/bin/env python3
"""Schema check for the flight recorder's Chrome trace_event JSON.

Usage: validate_trace.py [--require-causal] TRACE.json

Validates that the file is well-formed JSON, uses the trace_event object
format ({"traceEvents": [...]}), and that every event satisfies the subset
of the spec the exporter emits:

  * metadata events (ph=M): process_name / thread_name with args.name
  * instant events (ph=i): scope s="t", numeric non-negative ts
  * complete events (ph=X): numeric non-negative ts and dur
  * every event carries integer pid/tid and an args object
  * non-metadata events are sorted by ts (Perfetto does not require this,
    but the exporter guarantees it)

With --require-causal the trace must also carry the causal annotations
(cz.* events). Their well-formedness rules live in one place, the C++
analyzer obs/causal.cpp, which `nowlb-inspect` applies to run files and
the obs tests apply to harness and fuzz runs.

Exit status 0 on success; 1 with a diagnostic on the first violation.
"""

import json
import sys


def fail(msg: str) -> None:
    print(f"validate_trace: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    args = sys.argv[1:]
    require_causal = "--require-causal" in args
    args = [a for a in args if a != "--require-causal"]
    if len(args) != 1:
        fail("usage: validate_trace.py [--require-causal] TRACE.json")
    try:
        with open(args[0], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {args[0]}: {e}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail('top level must be an object with a "traceEvents" array')
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail('"traceEvents" must be a non-empty array')

    last_ts = None
    counts = {"M": 0, "i": 0, "X": 0}
    causal = 0
    for i, e in enumerate(events):
        where = f"event {i}"
        if not isinstance(e, dict):
            fail(f"{where}: not an object")
        ph = e.get("ph")
        if ph not in counts:
            fail(f"{where}: unexpected ph={ph!r}")
        counts[ph] += 1
        for key in ("pid", "tid"):
            if not isinstance(e.get(key), int):
                fail(f"{where}: {key} must be an integer")
        if not isinstance(e.get("args"), dict):
            fail(f"{where}: missing args object")
        if ph == "M":
            if e.get("name") not in ("process_name", "thread_name"):
                fail(f"{where}: metadata name {e.get('name')!r}")
            if not isinstance(e["args"].get("name"), str):
                fail(f"{where}: metadata args.name must be a string")
            continue
        if not isinstance(e.get("name"), str) or not e["name"]:
            fail(f"{where}: missing event name")
        if not isinstance(e.get("cat"), str):
            fail(f"{where}: missing cat")
        if e["cat"] == "cz":
            causal += 1
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{where}: bad ts {ts!r}")
        if last_ts is not None and ts < last_ts:
            fail(f"{where}: ts {ts} goes backwards (prev {last_ts})")
        last_ts = ts
        if ph == "i":
            if e.get("s") != "t":
                fail(f"{where}: instant must have scope s=\"t\"")
        else:  # X
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"{where}: bad dur {dur!r}")
        for k, v in e["args"].items():
            if not isinstance(v, (int, float)):
                fail(f"{where}: arg {k!r} must be numeric, got {v!r}")

    if counts["i"] + counts["X"] == 0:
        fail("trace contains only metadata")
    if require_causal and causal == 0:
        fail("--require-causal: no cz.* events in the trace")
    print(
        f"validate_trace: ok — {counts['M']} metadata, {counts['i']} instant,"
        f" {counts['X']} complete event(s), {causal} causal"
    )


if __name__ == "__main__":
    main()
