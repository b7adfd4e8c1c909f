#!/usr/bin/env python3
"""Append one run's BENCH_throughput.json to the bench trajectory.

bench/BENCH_history.jsonl is the repo's long-term throughput record:
one JSON object per run, carrying the commit, every section's
ns/ref, and (when the bench ran with --profile) the per-stage
breakdown. check_bench_regression.py --history prints it as a
trajectory; no gate reads it.

The committed file grows by one record per change that moves code on
the measured path, appended in that change: a Release build (LTO on)
of microbench_throughput at its default 4M refs on an idle host, with
MEMORIES_GIT_SHA set to the parent's sha and a trailing "+" (the
change's own sha does not exist until the record is in it); the full
recipe is in docs/TESTING.md. CI appends its own run to a runner copy
and uploads that as an artifact, so a perf regression can be bisected
to the commit that introduced it without re-running old builds.

Absolute numbers in the history span hosts and runner generations, so
read it for *trends on comparable hosts*, not as a cross-machine
benchmark.

Usage:
    append_bench_history.py BENCH_throughput.json \
        [--history bench/BENCH_history.jsonl]
"""

import argparse
import json
import os
import sys


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise SystemExit(f"error: results file {path!r} not found — "
                         "did the bench run and write its JSON "
                         "artifact?")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: results file {path!r} is not valid "
                         f"JSON ({exc}) — truncated bench run?")
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path!r}: {exc}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("results")
    parser.add_argument("--history",
                        default="bench/BENCH_history.jsonl")
    args = parser.parse_args()

    doc = load_json(args.results)
    sections = doc.get("sections")
    if not isinstance(sections, list) or not sections:
        raise SystemExit(f"error: {args.results!r} has no sections — "
                         "malformed results file")

    entry = {
        "bench": doc.get("bench", "?"),
        "git_sha": doc.get("git_sha", "unknown"),
        "config": doc.get("config", ""),
        "ns_per_ref": {},
    }
    for section in sections:
        label = section.get("label")
        seconds = section.get("seconds", 0)
        events = section.get("events", 0)
        if not label or not events:
            continue
        entry["ns_per_ref"][label] = round(seconds / events * 1e9, 2)

    profile = doc.get("profile")
    if isinstance(profile, dict):
        entry["stage_ns_per_ref"] = {
            s["stage"]: s.get("ns_per_ref")
            for s in profile.get("stages", [])
        }

    # An absent or empty history is the normal first-run state, not an
    # error: create it (and its directory) and say so.
    first_run = (not os.path.exists(args.history) or
                 os.path.getsize(args.history) == 0)
    try:
        parent = os.path.dirname(args.history)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.history, "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
    except OSError as exc:
        raise SystemExit(f"error: cannot append to {args.history!r}: "
                         f"{exc}")
    if first_run:
        print(f"no history yet — started {args.history} with "
              f"{entry['git_sha'][:12]}")
    else:
        print(f"appended {entry['git_sha'][:12]} "
              f"({len(entry['ns_per_ref'])} sections) to "
              f"{args.history}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
