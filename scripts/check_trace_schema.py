#!/usr/bin/env python3
"""Structured-trace validator for CI's trace-smoke job.

Checks a JSONL trace produced by `--trace-out` line by line: every line must
parse as a JSON object, carry a known `type`, provide that type's full key
set *in the fixed emission order*, and use a stage (or span kind) from the
documented vocabulary.  Sim-time stamps must be non-decreasing across the
file (records are emitted in event-execution order).  Span records get a
second pass: ids must be unique and nonzero, `start_ns + dur_ns == t_ns`,
and every nonzero `parent` must reference a span id that appears somewhere
in the file — spans are emitted when they *close*, so a parent legally
appears after its children.

Optionally also validates a `--perfetto` trace_event JSON (it must parse,
contain the metadata/slice/counter phases chrome://tracing needs, and carry
the registry's `kernel.events_executed` counter track), a `--series` CSV in
long format (`t_s,stat,value`: 3 cells per row, `t_s` non-decreasing, stat
names strictly ascending within one timestamp, finite values, and the
`SERIES_REQUIRED` stats at every timestamp), and a `--flight`
flight-recorder dump (one `type:flight` header line whose `retained` count
matches the record lines that follow, which are themselves schema-checked).

With the trace, `--perfetto` and `--series` all given, it also checks the
three sampled outputs against each other: one registry sampler writes them,
so the trace's `kernel` record `t_ns` (when the trace has any), the Perfetto
`kernel.events_executed` counter `ts` and the CSV's `t_s` must be the same
set of instants, and `events_executed` must equal the CSV's
`kernel.events_executed` at each.

Stdlib only.  Exit status 0 when every check passes, 1 otherwise.

Usage: check_trace_schema.py TRACE.jsonl [--perfetto FILE] [--series FILE]
                             [--flight FILE]
"""

import argparse
import json
import math
import sys

SCHEMAS = {
    "packet": {
        "keys": ["type", "stage", "t_ns", "flow", "seq", "node", "src",
                 "dst", "peer", "hops", "bytes", "detail"],
        "stages": {"generated", "enqueued", "tx_start", "tx_end", "tx_fail",
                   "forwarded", "delivered", "dropped"},
    },
    "route": {
        "keys": ["type", "stage", "t_ns", "node", "src", "dst", "bid",
                 "metric", "protocol", "msg", "bytes"],
        "stages": {"discovery_start", "discovery_retry", "discovery_failed",
                   "control_tx", "control_lost", "established",
                   "repair_start", "repaired", "link_break",
                   "topology_install"},
    },
    "kernel": {
        "keys": ["type", "t_ns", "events_executed", "pending"],
        "stages": None,
    },
    "span": {
        "keys": ["type", "kind", "t_ns", "span", "parent", "trace", "flow",
                 "seq", "node", "src", "dst", "start_ns", "dur_ns",
                 "detail"],
        "stages": None,
        "kinds": {"packet", "route_wait", "queue", "backoff", "retry",
                  "airtime", "discovery", "repair"},
    },
}

# Registry stats every series sample must carry (registered at network
# construction, so present from the first sample on).
SERIES_REQUIRED = ("kernel.events_executed", "net.delivered",
                   "stack.buffered_packets")

# Span kinds that are roots (parent == 0, span == trace).
ROOT_KINDS = {"packet", "discovery", "repair"}


def check_record(rec, where, spans, errors):
    """Validates one record dict; accumulates span ids/parents in `spans`."""
    rtype = rec.get("type")
    schema = SCHEMAS.get(rtype)
    if schema is None:
        errors.append(f"{where}: unknown record type {rtype!r}")
        return None
    keys = list(rec.keys())
    if keys != schema["keys"]:
        errors.append(f"{where}: {rtype} keys {keys} != {schema['keys']}")
    if schema["stages"] is not None:
        stage = rec.get("stage")
        if stage not in schema["stages"]:
            errors.append(f"{where}: unknown {rtype} stage {stage!r}")
    if rtype == "span":
        kind = rec.get("kind")
        if kind not in schema["kinds"]:
            errors.append(f"{where}: unknown span kind {kind!r}")
        sid, parent, trace = rec.get("span"), rec.get("parent"), \
            rec.get("trace")
        if not sid:
            errors.append(f"{where}: span id must be nonzero")
        elif sid in spans["ids"]:
            errors.append(f"{where}: duplicate span id {sid}")
        else:
            spans["ids"].add(sid)
        if kind in ROOT_KINDS:
            if parent != 0:
                errors.append(f"{where}: root kind {kind!r} with parent "
                              f"{parent}")
            if trace != sid:
                errors.append(f"{where}: root span {sid} with trace {trace}")
        elif parent:
            spans["parents"].append((where, parent))
        if rec.get("start_ns", 0) + rec.get("dur_ns", 0) != rec.get("t_ns"):
            errors.append(f"{where}: start_ns + dur_ns != t_ns")
    return rtype


def finish_spans(spans, errors):
    """Second pass: every parent reference must resolve (forward refs ok)."""
    for where, parent in spans["parents"]:
        if parent not in spans["ids"]:
            errors.append(f"{where}: parent span {parent} never emitted")


def check_jsonl(path):
    errors = []
    counts = {}
    spans = {"ids": set(), "parents": []}
    last_t = -1
    with open(path, "rb") as fh:
        for num, raw in enumerate(fh, 1):
            where = f"{path}:{num}"
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as e:
                errors.append(f"{where}: not valid JSON ({e})")
                continue
            rtype = check_record(rec, where, spans, errors)
            if rtype is None:
                continue
            counts[rtype] = counts.get(rtype, 0) + 1
            t = rec.get("t_ns")
            if not isinstance(t, int) or t < 0:
                errors.append(f"{where}: t_ns must be a non-negative integer")
            elif t < last_t:
                errors.append(
                    f"{where}: t_ns {t} went backwards (prev {last_t})")
            else:
                last_t = t
    finish_spans(spans, errors)
    total = sum(counts.values())
    if total == 0:
        errors.append(f"{path}: empty trace")
    print(f"{path}: {total} records "
          + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return errors


def check_flight(path):
    """A flight dump: one header line, then `retained` ordinary records.

    The ring holds the *newest* records of a longer run, so a retained
    child's parent may have rotated out — parent referential integrity is
    therefore NOT enforced here, only id uniqueness and per-record shape.
    """
    errors = []
    counts = {}
    spans = {"ids": set(), "parents": []}
    header = None
    records = 0
    last_t = -1
    with open(path, "rb") as fh:
        for num, raw in enumerate(fh, 1):
            where = f"{path}:{num}"
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as e:
                errors.append(f"{where}: not valid JSON ({e})")
                continue
            if num == 1:
                want = ["type", "t_ns", "capacity", "recorded", "retained",
                        "trigger"]
                if rec.get("type") != "flight":
                    errors.append(f"{where}: first line must be the flight "
                                  f"header, got type {rec.get('type')!r}")
                elif list(rec.keys()) != want:
                    errors.append(f"{where}: flight header keys "
                                  f"{list(rec.keys())} != {want}")
                else:
                    header = rec
                    if rec["retained"] > rec["capacity"]:
                        errors.append(f"{where}: retained > capacity")
                    if rec["retained"] > rec["recorded"]:
                        errors.append(f"{where}: retained > recorded")
                continue
            rtype = check_record(rec, where, spans, errors)
            if rtype is None:
                continue
            records += 1
            counts[rtype] = counts.get(rtype, 0) + 1
            t = rec.get("t_ns")
            if isinstance(t, int) and t >= last_t:
                last_t = t
            else:
                errors.append(
                    f"{where}: t_ns {t} went backwards (prev {last_t})")
    if header is None:
        errors.append(f"{path}: missing flight header line")
    elif header["retained"] != records:
        errors.append(f"{path}: header retained={header['retained']} but "
                      f"{records} record lines follow")
    trigger = header["trigger"] if header else "?"
    print(f"{path}: flight dump trigger={trigger} {records} records "
          + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return errors


def check_perfetto(path):
    errors = []
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        return [f"{path}: not valid JSON ({e})"]
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return [f"{path}: missing or empty traceEvents array"]
    phases = {e.get("ph") for e in events}
    for needed in ("M", "X", "C"):
        if needed not in phases:
            errors.append(f"{path}: no ph={needed!r} events")
    for e in events:
        if e.get("ph") in ("X", "C") and "ts" not in e:
            errors.append(f"{path}: event missing ts: {e}")
            break
    if not any(e.get("ph") == "C" and e.get("name") ==
               "kernel.events_executed" for e in events):
        errors.append(f"{path}: no ph='C' kernel.events_executed track")
    print(f"{path}: {len(events)} trace events, phases "
          + ",".join(sorted(p for p in phases if p)))
    return errors


def check_series(path):
    errors = []
    samples = {}  # t_s -> stat names, in file order
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        want = "t_s,stat,value"
        if header != want:
            errors.append(f"{path}: header {header!r} != {want!r}")
        last_t = None
        last_name = None
        for num, line in enumerate(fh, 2):
            where = f"{path}:{num}"
            cells = line.rstrip("\n").split(",")
            if len(cells) != 3:
                errors.append(f"{where}: {len(cells)} cells, expected 3")
                continue
            t_s, name, value = cells
            try:
                t = float(t_s)
                v = float(value)
            except ValueError:
                errors.append(f"{where}: non-numeric t_s or value")
                continue
            if not math.isfinite(v):
                errors.append(f"{where}: non-finite value {value!r}")
            if last_t is not None and t < last_t:
                errors.append(f"{where}: t_s {t_s} went backwards")
            elif t == last_t and name <= last_name:
                errors.append(f"{where}: {name!r} not after {last_name!r} "
                              f"within t_s {t_s}")
            last_t, last_name = t, name
            samples.setdefault(t_s, []).append(name)
    if not samples:
        errors.append(f"{path}: no sample rows")
    for t_s, names in samples.items():
        for needed in SERIES_REQUIRED:
            if needed not in names:
                errors.append(f"{path}: t_s {t_s} lacks {needed}")
    print(f"{path}: {len(samples)} samples, "
          f"{sum(len(n) for n in samples.values())} rows")
    return errors


def events_by_instant_jsonl(path):
    """Kernel records: t_ns -> events_executed."""
    out = {}
    with open(path, "rb") as fh:
        for raw in fh:
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError:
                continue  # reported by check_jsonl
            if rec.get("type") == "kernel":
                out[rec["t_ns"]] = rec["events_executed"]
    return out


def events_by_instant_perfetto(path):
    """kernel.events_executed counter samples: t_ns -> value."""
    try:
        with open(path, "rb") as fh:
            events = json.load(fh).get("traceEvents", [])
    except json.JSONDecodeError:
        return {}  # reported by check_perfetto
    return {round(e["ts"] * 1000): e["args"]["value"] for e in events
            if e.get("ph") == "C" and e.get("name") ==
            "kernel.events_executed"}


def events_by_instant_series(path):
    """CSV kernel.events_executed rows: t_ns -> value."""
    out = {}
    with open(path) as fh:
        fh.readline()
        for line in fh:
            cells = line.rstrip("\n").split(",")
            if len(cells) == 3 and cells[1] == "kernel.events_executed":
                try:
                    out[round(float(cells[0]) * 1e9)] = float(cells[2])
                except ValueError:
                    continue  # reported by check_series
    return out


def check_sampled_outputs(trace, perfetto, series):
    """The three outputs of the one registry sampler must agree."""
    errors = []
    csv = events_by_instant_series(series)
    for label, got in (("kernel records", events_by_instant_jsonl(trace)),
                       ("perfetto counters",
                        events_by_instant_perfetto(perfetto))):
        if label == "kernel records" and not got:
            continue  # a trace filter without `kernel` writes none
        if set(got) != set(csv):
            only_got = sorted(set(got) - set(csv))[:3]
            only_csv = sorted(set(csv) - set(got))[:3]
            errors.append(f"{label}: {len(got)} instants, series CSV "
                          f"{len(csv)}; only in {label} (ns): {only_got}, "
                          f"only in the CSV: {only_csv}")
            continue
        for t in sorted(csv):
            if got[t] != csv[t]:
                errors.append(f"{label}: events_executed {got[t]} != "
                              f"CSV {csv[t]:.15g} at t_ns {t}")
                break
    if not errors:
        print(f"sampled outputs: {len(csv)} instants agree across the "
              "trace, Perfetto and series files")
    return errors


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="JSONL trace from --trace-out")
    ap.add_argument("--perfetto", help="trace_event JSON from --perfetto-out")
    ap.add_argument("--series", help="time-series CSV from --series-out")
    ap.add_argument("--flight", help="flight-recorder dump from --flight-dump")
    args = ap.parse_args(argv[1:])

    errors = check_jsonl(args.trace)
    if args.perfetto:
        errors += check_perfetto(args.perfetto)
    if args.series:
        errors += check_series(args.series)
    if args.flight:
        errors += check_flight(args.flight)
    if args.perfetto and args.series:
        errors += check_sampled_outputs(args.trace, args.perfetto,
                                        args.series)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
