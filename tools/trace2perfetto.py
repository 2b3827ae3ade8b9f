#!/usr/bin/env python3
"""Convert a raw itbsim trace CSV (--trace-raw) to Chrome trace-event JSON.

Fallback path for workflows that saved the raw per-record dump instead of
asking itbsim for --trace directly; the output loads in Perfetto
(https://ui.perfetto.dev) or chrome://tracing and mirrors the C++ exporter
in src/obs/perfetto.cpp:

  pid 1 "channels": one thread per directed channel; every acquire/release
                    pair becomes a complete ("X") slice.
  pid 2 "packets":  async ("b"/"n"/"e") lifecycle events keyed by packet id.

Usage:
  itbsim --trace-raw trace.csv ...
  python3 tools/trace2perfetto.py trace.csv trace.json

Stdlib only; the raw CSV has no channel labels, so channel threads are
named "ch<N>" instead of the wiring labels the C++ exporter emits.
"""
import csv
import json
import sys


def ps_to_us(ps: int) -> float:
    return ps / 1e6


def convert(rows):
    events = [
        {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "channels"}},
        {"name": "process_name", "ph": "M", "pid": 2, "args": {"name": "packets"}},
    ]
    channels = sorted({int(r["channel"]) for r in rows if int(r["channel"]) >= 0})
    for ch in channels:
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": ch,
                       "args": {"name": f"ch{ch}"}})

    open_slices = {}  # channel -> acquire row
    t_last = int(rows[-1]["t_ps"]) if rows else 0

    def close(acq, t_end_ps):
        events.append({
            "name": f"pkt {acq['packet']}", "cat": "channel", "ph": "X",
            "pid": 1, "tid": int(acq["channel"]),
            "ts": ps_to_us(int(acq["t_ps"])),
            "dur": ps_to_us(t_end_ps - int(acq["t_ps"])),
            "args": {"packet": int(acq["packet"])},
        })

    for r in rows:
        kind = r["kind"]
        if kind == "chan_acquire":
            open_slices[int(r["channel"])] = r
            continue
        if kind == "chan_release":
            acq = open_slices.pop(int(r["channel"]), None)
            if acq is not None:  # acquire may have been dropped by ring wrap
                close(acq, int(r["t_ps"]))
            continue
        ph = {"inject": "b", "deliver": "e"}.get(kind, "n")
        ev = {"name": kind, "cat": "packet", "ph": ph, "id": int(r["packet"]),
              "pid": 2, "tid": 0,
              "ts": ps_to_us(int(r["t_ps"]))}
        if kind != "deliver":
            ev["args"] = {"sw": int(r["switch"]), "host": int(r["host"])}
        events.append(ev)

    for ch in sorted(open_slices):
        close(open_slices[ch], t_last)

    return {"displayTimeUnit": "ns", "traceEvents": events}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], newline="") as f:
        rows = list(csv.DictReader(f))
    with open(argv[2], "w") as f:
        json.dump(convert(rows), f)
    print(f"{len(rows)} records -> {argv[2]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
