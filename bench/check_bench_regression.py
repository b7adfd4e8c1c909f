#!/usr/bin/env python3
"""Soft regression gate over BENCH_throughput.json.

Absolute ns/ref numbers are not comparable across runner generations,
so the gate checks *ratios within one run*: the checked-in baseline
(bench/BENCH_throughput.baseline.json) records how much faster the
batch feed path must be than the serial feed path on the same machine
in the same process. A regression in the batch hot path shows up as
that speedup collapsing, regardless of how fast the runner is.

The gate fails when a measured speedup falls more than --tolerance
(default 10%) below its baseline value. Speedups *above* baseline only
print a note — update the baseline deliberately, not from CI noise.

The baseline may also carry "overhead_gates": ratio *ceilings* between
two sections of the same run, each bounding the cost of an
observability layer (numerator = instrumented section, denominator =
its plain twin, max_ratio = the ceiling, checked without extra
tolerance since the ceiling already embeds the allowance). Two are
checked in: the IESPROF profiler on the batch feed path and the flight
recorder on the live bus + board path. An overhead gate whose sections
are absent (the profiled ones appear only when the bench ran with
--profile) is skipped with a note rather than failed.

When the results file carries a "profile" object (bench ran with
--profile), the per-stage attribution is sanity-checked: the direct
children of feed_batch must sum to within 10% of feed_batch itself —
wildly unattributed time means a hook site went missing — and no stage
may take longer than its parent, since a child is timed inside its
parent's clock pair. Each stage names its parent in the profile.

Several results files may be given, one per repeated run of the same
bench. Every within-run gate above is then checked on each file, except
the service gates, which read the runs together (check_service_gates).

With --history FILE, also prints the ns/ref trajectory of the "feed batch"
section from bench/BENCH_history.jsonl (one JSON object per line,
appended per CI run by append_bench_history.py).

Usage:
    check_bench_regression.py RESULTS.json [RESULTS.json ...]
                              [--baseline FILE] [--tolerance 0.10]
                              [--history FILE]
"""

import argparse
import json
import statistics
import sys


def load_json(path, what):
    """Load a JSON file, exiting with a clear message (not a
    traceback) when it is missing, unreadable, or malformed."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise SystemExit(f"error: {what} file {path!r} not found — "
                         "did the bench run and write its JSON "
                         "artifact?")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {what} file {path!r} is not valid "
                         f"JSON ({exc}) — truncated bench run?")
    except OSError as exc:
        raise SystemExit(f"error: cannot read {what} file {path!r}: "
                         f"{exc}")


def section_ns_per_ref(doc, label, required=True):
    for section in doc.get("sections", []):
        if section["label"] == label:
            if section["events"] <= 0:
                raise SystemExit(f"error: section {label!r} has zero "
                                 "events — malformed results file")
            return section["seconds"] / section["events"] * 1e9
    if required:
        raise SystemExit(f"section {label!r} missing from "
                         f"{doc.get('bench', '?')} results — did a "
                         "bench label change?")
    return None


def check_speedup_gates(results, baseline, tolerance):
    failures = []
    for gate in baseline.get("speedup_gates", []):
        slow = section_ns_per_ref(results, gate["numerator"])
        fast = section_ns_per_ref(results, gate["denominator"])
        measured = slow / fast
        floor = gate["min_speedup"] * (1.0 - tolerance)
        verdict = "OK" if measured >= floor else "FAIL"
        print(f"[{verdict}] {gate['name']}: {slow:.1f} ns/ref vs "
              f"{fast:.1f} ns/ref = {measured:.2f}x "
              f"(baseline {gate['min_speedup']:.2f}x, floor "
              f"{floor:.2f}x)")
        if measured < floor:
            failures.append(gate["name"])
        elif measured > gate["min_speedup"] * (1.0 + tolerance):
            print(f"  note: {gate['name']} beats baseline by >"
                  f"{tolerance:.0%} — consider raising it")
    return failures


def check_overhead_gates(results, baseline):
    failures = []
    for gate in baseline.get("overhead_gates", []):
        num = section_ns_per_ref(results, gate["numerator"],
                                 required=False)
        den = section_ns_per_ref(results, gate["denominator"],
                                 required=False)
        if num is None or den is None:
            print(f"[SKIP] {gate['name']}: sections absent (the "
                  "profiled ones need --profile)")
            continue
        measured = num / den
        verdict = "OK" if measured <= gate["max_ratio"] else "FAIL"
        print(f"[{verdict}] {gate['name']}: {num:.1f} ns/ref vs "
              f"{den:.1f} ns/ref = {measured:.3f}x "
              f"(ceiling {gate['max_ratio']:.2f}x)")
        if measured > gate["max_ratio"]:
            failures.append(gate["name"])
    return failures


def check_profile_attribution(results):
    """feed_batch's direct children must account for ~all of it, and
    no stage may outweigh its parent."""
    profile = results.get("profile")
    if not profile:
        return []
    stages = profile.get("stages", [])
    orphans = [s["stage"] for s in stages if "parent" not in s]
    if orphans:
        raise SystemExit(f"error: profile stages {orphans} name no "
                         "parent — results from an older bench?")
    ns = {s["stage"]: s["ns"] for s in stages}
    total = ns.get("feed_batch", 0)
    if total <= 0:
        print("[SKIP] profile attribution: no feed_batch time "
              "recorded")
        return []
    failures = []
    attributed = sum(s["ns"] for s in stages
                     if s["stage"] != "feed_batch"
                     and s["parent"] == "feed_batch")
    share = attributed / total
    verdict = "OK" if 0.90 <= share <= 1.10 else "FAIL"
    print(f"[{verdict}] profile attribution: stages cover "
          f"{share:.1%} of feed_batch "
          f"({attributed} of {total} ns)")
    if verdict != "OK":
        failures.append("profile attribution")

    heavier = [s for s in stages
               if s["stage"] != s["parent"]
               and s["ns"] > ns.get(s["parent"], 0)]
    for s in heavier:
        print(f"[FAIL] stage tree: {s['stage']} ({s['ns']} ns) "
              f"outweighs its parent {s['parent']} "
              f"({ns.get(s['parent'], 0)} ns)")
    if heavier:
        failures.append("stage tree")
    else:
        print(f"[OK] stage tree: no stage outweighs its parent "
              f"({len(stages)} stages)")
    return failures


def check_service_gates(runs, baseline):
    """Gates for the IESSERV load harness (BENCH_service.json).

    All within-run ratios, like the speedup gates: sessions sustained
    (the daemon must hold every requested tenant), p99-vs-p50 ingest
    latency (tail blowup = convoying/starvation in the daemon), and
    fleet-vs-solo aggregate throughput (concurrency must not collapse
    the ingest path below a single session's rate).

    `runs` holds one results object per repetition of the harness.
    Sessions sustained must hold in every run. The two ratios are gated
    on their median over the runs: one host stall can blow out a
    single run's p99, but not the median of three."""
    gates = baseline.get("service_gates")
    if not gates:
        return []
    services = [results.get("service") for results in runs]
    if not all(services):
        raise SystemExit("error: baseline has service_gates but a "
                         "results file carries no \"service\" object "
                         "— did loadtest write it?")
    failures = []

    def listed(values, fmt):
        return ", ".join(format(v, fmt) for v in values)

    sustained = [s.get("sessions_sustained", 0) for s in services]
    want = gates.get("min_sessions_sustained", 0)
    verdict = "OK" if min(sustained) >= want else "FAIL"
    print(f"[{verdict}] sessions sustained: {listed(sustained, 'd')} "
          f"(require >= {want} in every run)")
    if min(sustained) < want:
        failures.append("sessions sustained")

    ceiling = gates.get("max_p99_over_p50")
    if ceiling is not None:
        ratios = []
        for s in services:
            if s.get("p50_us", 0) <= 0:
                raise SystemExit("error: p50_us is zero — no feed "
                                 "requests were timed")
            ratios.append(s.get("p99_us", 0) / s["p50_us"])
        ratio = statistics.median(ratios)
        verdict = "OK" if ratio <= ceiling else "FAIL"
        print(f"[{verdict}] ingest latency tail: p99/p50 median "
              f"{ratio:.1f}x over {len(ratios)} run(s) "
              f"({listed(ratios, '.1f')}; ceiling {ceiling:.0f}x)")
        if ratio > ceiling:
            failures.append("ingest latency tail")

    floor = gates.get("min_fleet_over_solo_throughput")
    if floor is not None:
        scalings = [section_ns_per_ref(r, "ingest solo") /
                    section_ns_per_ref(r, "ingest fleet") for r in runs]
        scaling = statistics.median(scalings)
        verdict = "OK" if scaling >= floor else "FAIL"
        print(f"[{verdict}] fleet throughput: median {scaling:.2f}x the "
              f"solo session over {len(scalings)} run(s) "
              f"({listed(scalings, '.2f')}; floor {floor:.2f}x)")
        if scaling < floor:
            failures.append("fleet throughput")

    return failures


def print_history(path, label="feed batch"):
    try:
        with open(path) as f:
            lines = [line.strip() for line in f if line.strip()]
    except FileNotFoundError:
        print(f"\nbench trajectory: no history yet ({path!r} does "
              "not exist — append_bench_history.py creates it on "
              "the first recorded run)")
        return
    except OSError as exc:
        print(f"note: cannot read history {path!r}: {exc}")
        return
    if not lines:
        print(f"\nbench trajectory: no history yet ({path!r} is "
              "empty — append_bench_history.py adds one line per "
              "recorded run)")
        return
    print(f"\nbench trajectory ({label!r}, {len(lines)} runs):")
    for lineno, line in enumerate(lines, 1):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            print(f"  line {lineno}: <malformed, skipped>")
            continue
        ns = entry.get("ns_per_ref", {}).get(label)
        sha = entry.get("git_sha", "?")[:12]
        if ns is None:
            print(f"  {sha}  <section absent>")
        else:
            print(f"  {sha}  {ns:8.1f} ns/ref")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("results", nargs="+",
                        help="results file(s), one per repeated run")
    parser.add_argument("--baseline",
                        default="bench/BENCH_throughput.baseline.json")
    parser.add_argument("--tolerance", type=float, default=0.10)
    parser.add_argument("--history", default=None,
                        help="BENCH_history.jsonl to print the "
                        "ns/ref trajectory from")
    args = parser.parse_args()

    runs = [load_json(path, "results") for path in args.results]
    baseline = load_json(args.baseline, "baseline")

    failures = []
    for results in runs:
        failures += check_speedup_gates(results, baseline, args.tolerance)
        failures += check_overhead_gates(results, baseline)
        failures += check_profile_attribution(results)
    failures += check_service_gates(runs, baseline)

    if args.history:
        print_history(args.history)

    if failures:
        print(f"\nbench regression gate FAILED: {', '.join(failures)}")
        return 1
    print("\nbench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
