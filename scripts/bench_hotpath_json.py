#!/usr/bin/env python3
"""Fold bench_interp_hotpath output into a BENCH_hotpath.json baseline.

The bench prints machine-readable lines of the form

    BENCH_KV key=value [key=value ...]

alongside its human-readable report.  This script collects every such pair
into one flat JSON object so CI can upload a stable baseline artifact and
local runs can diff against it:

    ./build/bench_interp_hotpath | python3 scripts/bench_hotpath_json.py - BENCH_hotpath.json

Values parse as int, then float, then string.  Exits non-zero when the input
contains no BENCH_KV lines (e.g. the bench crashed before the report) or a
required key is missing, so a silently-empty baseline cannot pass CI.
"""

import json
import sys

REQUIRED_KEYS = (
    "reference_exec_per_s",
    "generic_exec_per_s",
    "specialized_exec_per_s",
    "specialization_speedup",
    "kernel_launches",
    "segment_launches",
    "flat_f64_batch_speedup",
    "flat_f32_batch_speedup",
    "flat_i64_batch_speedup",
    "tiled_speedup",
    "stencil_speedup",
    "nest_speedup",
    "nest_launches_per_run",
)


def parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def collect(lines) -> dict:
    data = {}
    for line in lines:
        if not line.startswith("BENCH_KV "):
            continue
        for pair in line[len("BENCH_KV "):].split():
            key, sep, value = pair.partition("=")
            if sep:
                data[key] = parse_value(value)
    return data


def main(argv) -> int:
    if len(argv) != 3:
        print(f"usage: {argv[0]} <bench-output.txt | -> <out.json>", file=sys.stderr)
        return 2
    source = sys.stdin if argv[1] == "-" else open(argv[1], encoding="utf-8")
    with source:
        data = collect(source)
    if not data:
        print("error: no BENCH_KV lines found in input", file=sys.stderr)
        return 1
    missing = [key for key in REQUIRED_KEYS if key not in data]
    if missing:
        print(f"error: missing keys in bench output: {', '.join(missing)}", file=sys.stderr)
        return 1
    with open(argv[2], "w", encoding="utf-8") as out:
        json.dump(data, out, indent=2, sort_keys=True)
        out.write("\n")
    print(f"wrote {argv[2]} ({len(data)} keys)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
