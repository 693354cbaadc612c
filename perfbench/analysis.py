"""Pure helpers of the benchmark: span self time, output digests, rates.

Kept free of I/O and process handling so test_analysis.py can pin the
arithmetic the reported metrics rest on.
"""

import hashlib
import json
import statistics

# Manifest members that describe the host or the build rather than the
# simulated run (obs/manifest.hh). They are dropped before hashing, so a
# digest changes only when simulated output does.
HOST_ONLY_MANIFEST_KEYS = (
    "phases", "host", "git_describe", "build_type", "compiler", "build_flags",
)


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval that its child spans cover.

    `spans` is a list of (name, start, end, parent, cell) with `parent`
    the index of the enclosing span or -1. Children are clipped to the
    parent's interval and overlapping children are counted once.
    """
    children = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        intervals = sorted(
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children.get(index, ()))
        covered = 0.0
        cur_start = cur_end = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        result.append((end - start) - covered)
    return result


def scrub(doc):
    """A copy of a stats dump or sidecar without its host-only manifest
    members (HOST_ONLY_MANIFEST_KEYS)."""
    doc = dict(doc)
    if isinstance(doc.get("manifest"), dict):
        doc["manifest"] = {k: v for k, v in doc["manifest"].items()
                           if k not in HOST_ONLY_MANIFEST_KEYS}
    return doc


def digest(items):
    """Hex SHA-256 over (label, document) pairs, each document scrubbed
    and serialised canonically."""
    h = hashlib.sha256()
    for label, doc in items:
        h.update(json.dumps([label, scrub(doc)], sort_keys=True,
                            separators=(",", ":")).encode())
    return h.hexdigest()[:16]


def error_rate(failed, attempted):
    """Share of attempted cells whose output checks failed. A cell is one
    figure datapoint (or one harness run in paper-suite), not one
    simulated invocation."""
    if attempted < 1:
        raise ValueError("error_rate needs at least one attempted cell")
    if not 0 <= failed <= attempted:
        raise ValueError("failed cells must lie in [0, attempted]")
    return failed / attempted


def flatten_stats(group, prefix=""):
    """{dotted path: value} of every counter, scalar and formula in a
    dumpStatsJson tree, paths relative to the root group."""
    flat = {}
    for kind in ("counters", "scalars", "formulas"):
        for name, stat in group.get(kind, {}).items():
            flat[prefix + name] = stat.get("value")
    for child in group.get("groups", []):
        flat.update(flatten_stats(child, prefix + child["name"] + "."))
    return flat


def sum_of_medians(samples):
    """Sum over columns of each column's median: per-cell medians across
    passes, added up to one noise-filtered pass."""
    return sum(statistics.median(column) for column in zip(*samples))


def sum_of_minimums(samples):
    """Sum over columns of each column's minimum: the fastest time each
    cell reached in any pass, added up to one undisturbed pass. Host
    interference only ever slows a cell down, so the minimum is the
    estimate least moved by it."""
    return sum(min(column) for column in zip(*samples))


def ratio(num, den):
    """num / den, or 0 when the base is empty."""
    return num / den if den else 0.0
