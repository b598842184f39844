#!/usr/bin/env python3
"""Checks over the benchmark's own output, for `run.sh --smoke` and
`run.sh --agree`. README.md says what each is evidence for."""

import json
import math
import re
import sys

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def load(path):
    with open(path) as f:
        return json.load(f)


def contract(spec_path, out_dir, *result_files):
    """Every metric BENCHMARK.json names is printed exactly once per
    workload as `workload metric value unit` and appears in the result
    object with that unit; names are well formed; no NaN or inf."""
    spec = load(spec_path)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    errors = []
    seen = set()
    for results in result_files:
        for entry in load(f"{out_dir}/{results}"):
            w, trace, result = entry["workload"], entry["trace"], entry["result"]
            seen.add((w, trace))
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{w} trace={trace}: result keys are {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                errors.append(f"{w} trace={trace}: correct={result.get('correct')} failed={result.get('failed')}")
            with open(f"{out_dir}/stdout-{w}-{trace}.txt") as f:
                lines = [l.split() for l in f if not l.startswith(("#", "{"))]
            printed = [l[1] for l in lines if len(l) == 4 and l[0] == w]
            if len(printed) != len(lines):
                errors.append(f"{w} trace={trace}: a metric line is not `workload metric value unit`")
            for m in wanted[trace]:
                name, unit = m["name"], m["unit"]
                if not NAME.match(name):
                    errors.append(f"metric name {name!r} is malformed")
                if printed.count(name) != 1:
                    errors.append(f"{w}: {name} printed {printed.count(name)} times")
                got = result["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    errors.append(f"{w}: {name} missing from the result or not in {unit}")
                elif not math.isfinite(got["value"]):
                    errors.append(f"{w}: {name} is {got['value']}")
            extra = set(result["metrics"]) - {m["name"] for m in wanted[trace]}
            if extra:
                errors.append(f"{w} trace={trace}: metrics not in BENCHMARK.json: {sorted(extra)}")
    for w in workloads:
        for trace in (0, 1):
            if (w, trace) not in seen:
                errors.append(f"{w} trace={trace}: no result")
    for e in errors:
        print("contract:", e)
    print(f"contract: {len(seen)} runs checked, {len(errors)} problems")
    return 1 if errors else 0


def agree(spec_path, a_path, b_path):
    """Two sets of runs of one commit: each end-to-end metric of each
    workload must not differ by more than the metric's own bound."""
    spec = load(spec_path)
    a = {e["workload"]: e["result"] for e in load(a_path)}
    b = {e["workload"]: e["result"] for e in load(b_path)}
    bad = 0
    print(f"{'workload':<16} {'metric':<14} {'first':>14} {'second':>14} {'diff':>8} {'bound':>6}")
    for w in (x["name"] for x in spec["workloads"]):
        for r in (a[w], b[w]):
            if r["correct"] is not True or r["failed"] != 0:
                print(f"{w}: correct={r['correct']} failed={r['failed']}")
                bad += 1
        for m in spec["end_to_end"]:
            x, y = (r[w]["metrics"][m["name"]]["value"] for r in (a, b))
            diff = abs(y - x) / x
            flag = "" if diff <= m["bound"] else "  EXCEEDS"
            bad += bool(flag)
            print(f"{w:<16} {m['name']:<14} {x:>14.4f} {y:>14.4f} {diff:>8.4f} {m['bound']:>6.2f}{flag}")
    print(f"agree: {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    sys.exit({"contract": contract, "agree": agree}[mode](*args))
