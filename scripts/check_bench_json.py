#!/usr/bin/env python3
"""Verify a figure harness's JSON sidecar against its printed tables.

Runs the given bench binary with --json <tmp>, captures stdout, and
checks that:
  - the sidecar parses as JSON with artifact/title/manifest/stats/tables
    keys,
  - the manifest carries the provenance schema (schema_version,
    config_hash as 0x + 16 hex digits, phases with a finite total),
  - every table cell in the sidecar also appears in the stdout text
    (the sidecar mirrors what was printed, not a second computation),
  - every numeric stat is finite,
  - every key named by --require is present in the sidecar's stats.

Usage: check_bench_json.py [--require k1,k2,...] <bench-binary> [args...]

A required key ending in ".*" is a prefix requirement: at least one
stat whose name starts with the prefix must exist (e.g.
"cpi_overhead.*" matches "cpi_overhead.csd_decoy").

Exit code 0 on success; nonzero with a diagnostic otherwise.
"""

import json
import math
import os
import subprocess
import sys
import tempfile


def fail(msg):
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    argv = sys.argv[1:]
    required = []
    if argv and argv[0] == "--require":
        if len(argv) < 2:
            fail("--require needs a comma-separated key list")
        required = [k for k in argv[1].split(",") if k]
        argv = argv[2:]
    if not argv:
        fail(
            "usage: check_bench_json.py [--require k1,k2,...] "
            "<bench-binary> [args...]"
        )
    bench = argv[0]
    argv = argv[1:]

    fd, path = tempfile.mkstemp(suffix=".json", prefix="bench_sidecar_")
    os.close(fd)
    try:
        proc = subprocess.run(
            [bench, "--json", path] + argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=600,
        )
        if proc.returncode != 0:
            fail(f"{bench} exited {proc.returncode}:\n{proc.stdout}")
        stdout = proc.stdout

        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(f"sidecar unreadable or invalid JSON: {e}")

        for key in ("artifact", "title", "manifest", "stats", "tables"):
            if key not in doc:
                fail(f"sidecar missing key '{key}'")
        if not doc["tables"]:
            fail("sidecar holds no tables")

        manifest = doc["manifest"]
        for key in ("schema_version", "config_hash", "phases"):
            if key not in manifest:
                fail(f"manifest missing key '{key}'")
        if manifest["schema_version"] != 1:
            fail(f"manifest schema_version {manifest['schema_version']} != 1")
        chash = manifest["config_hash"]
        if (
            not isinstance(chash, str)
            or len(chash) != 18
            or not chash.startswith("0x")
            or any(c not in "0123456789abcdef" for c in chash[2:])
        ):
            fail(f"manifest config_hash '{chash}' is not 0x + 16 hex digits")
        phases = manifest["phases"]
        if not isinstance(phases, dict) or "total" not in phases:
            fail("manifest phases missing 'total'")
        for key, value in phases.items():
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                fail(f"manifest phase '{key}' is not a finite number")

        cells = 0
        for table in doc["tables"]:
            for key in ("name", "headers", "rows"):
                if key not in table:
                    fail(f"table missing key '{key}'")
            width = len(table["headers"])
            for header in table["headers"]:
                if header not in stdout:
                    fail(f"header '{header}' not in stdout")
            for row in table["rows"]:
                if len(row) != width:
                    fail(f"row width {len(row)} != header width {width}")
                for cell in row:
                    if cell and cell not in stdout:
                        fail(f"cell '{cell}' not in stdout")
                    cells += 1

        for key, value in doc["stats"].items():
            if isinstance(value, (int, float)) and not math.isfinite(value):
                fail(f"stat '{key}' is not finite")

        for req in required:
            if req.endswith(".*"):
                prefix = req[:-1]
                if not any(k.startswith(prefix) for k in doc["stats"]):
                    fail(f"no stat matches required prefix '{req}'")
            elif req not in doc["stats"]:
                fail(f"required stat '{req}' missing from sidecar")

        print(
            f"check_bench_json: OK: {os.path.basename(bench)}: "
            f"{len(doc['tables'])} table(s), {cells} cells match stdout, "
            f"{len(doc['stats'])} stat(s) finite, "
            f"{len(required)} required key(s) present, "
            f"manifest {chash}"
        )
    finally:
        os.unlink(path)


if __name__ == "__main__":
    main()
