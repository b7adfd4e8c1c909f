#!/usr/bin/env python3
"""Tiny-length self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that BENCHMARK.json is well formed; that every workload, traced
and untraced, prints a correct result holding exactly the metrics
BENCHMARK.json names, each with its unit; and that a deliberately altered
stream or expectation (--corrupt) trips the output check, counting every
ref of the run as failed. Exits non-zero on the first failed check.
"""

import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    sys.stderr.write("selftest: FAIL: %s\n" % msg)
    sys.exit(1)


def check_spec(spec):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        fail("BENCHMARK.json keys %s" % sorted(spec))
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail("workload entry %s" % w)
    workload_names = [w["name"] for w in spec["workloads"]]
    if len(workload_names) != len(set(workload_names)):
        fail("duplicate workload names")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail("end_to_end entry %s" % m)
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail("per_layer entry %s" % m)
    for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        if not NAME.match(m["name"]):
            fail("bad name %s" % m["name"])
        if "unit" in m and not UNIT.match(m["unit"]):
            fail("bad unit %s" % m["unit"])
        if "better" in m and m["better"] not in ("higher", "lower"):
            fail("bad direction for %s" % m["name"])
    metric_names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(metric_names) != len(set(metric_names)):
        fail("duplicate metric names")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be an end-to-end metric in s, lower is better")
    if not isinstance(spec["run_seconds"], int) or not 1 <= spec["run_seconds"] <= 60:
        fail("run_seconds %s" % spec["run_seconds"])


def run(workload, trace, extra=()):
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace),
                             "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        fail("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode,
                                    proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result, expected, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (label, sorted(result)))
    if result["attempted"] < 1 or not isinstance(result["failed"], int):
        fail("%s: attempted/failed %s" % (label, result))
    got = result["metrics"]
    if list(got) != [m["name"] for m in expected]:
        fail("%s: metrics %s" % (label, list(got)))
    for m in expected:
        value = got[m["name"]]
        if value["unit"] != m["unit"]:
            fail("%s: %s unit %s, want %s" % (label, m["name"],
                                               value["unit"], m["unit"]))
        if not isinstance(value["value"], (int, float)) or not math.isfinite(value["value"]):
            fail("%s: %s value %s" % (label, m["name"], value["value"]))


with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    spec = json.load(f)
check_spec(spec)
print("BENCHMARK.json: ok")

for w in spec["workloads"]:
    name = w["name"]
    for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        result = run(name, trace)
        label = "%s --trace %d" % (name, trace)
        check_result(result, expected, label)
        if not result["correct"] or result["failed"] != 0:
            fail("%s: not correct (%s)" % (label, result["failed"]))
        if trace == 0 and any(result["metrics"][m["name"]]["value"] <= 0
                              for m in expected):
            fail("%s: an end-to-end metric read 0" % label)
        print("%s: ok (%d metrics)" % (label, len(expected)))
    for corrupt in ("stream", "expect"):
        result = run(name, 0, ["--corrupt", corrupt])
        if result["correct"] or result["failed"] != result["attempted"]:
            fail("%s --corrupt %s did not trip the output check" % (name, corrupt))
        print("%s --corrupt %s: check tripped, %d of %d refs failed"
              % (name, corrupt, result["failed"], result["attempted"]))
print("selftest: all checks passed")
