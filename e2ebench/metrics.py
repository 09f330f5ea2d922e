"""Pure metric and accounting helpers for run.py (no processes, no I/O beyond JSON).

Everything here works on the files one e2e_runner invocation leaves behind: result.json (status,
rounds with wall times and party RTTs, dropouts, role exit codes), params.bin and the
telemetry JSON of every role. test_metrics.py exercises it on canned outputs.
"""

import importlib.util
import json
import math
import statistics
import struct
from pathlib import Path

# Candidate tail percentiles, highest first (see tail_percentile).
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def percentile(values, p):
    """Linear-interpolated percentile p (0..100) of |values|."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    rank = p / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n):
    """Highest candidate percentile with at least ten of |n| samples beyond it."""
    for p in TAIL_CANDIDATES:
        if math.floor(n * (1.0 - p / 100.0) + 1e-9) >= 10:
            return p
    return None


def summarize(values):
    """Median, sample count, and the highest percentile backed by >= 10 tail samples."""
    summary = {"n": len(values), "p50": median(values)}
    p = tail_percentile(len(values))
    if p is not None:
        summary["tail_pct"] = p
        summary["tail"] = percentile(values, p)
    return summary


def setup_seconds(job_wall_s, round_walls):
    """Set-up time seen from outside: the job's wall time minus every round's wall.

    Never JobResult::setup_seconds, which covers attestation only and leaves out every
    party handshake (that figure is reported separately, as cc.attest_s).
    """
    if job_wall_s <= 0:
        raise ValueError("job wall time must be positive")
    setup = job_wall_s - sum(round_walls)
    if setup <= 0:
        raise ValueError("rounds account for more than the job's wall time")
    return setup


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def load_params(path):
    data = Path(path).read_bytes()
    return struct.unpack(f"<{len(data) // 4}f", data)


def params_match(got, want, tolerance):
    """Bitwise equality when |tolerance| is 0, else max |got - want| < tolerance."""
    if len(got) != len(want) or not got:
        return False
    if tolerance == 0:
        return all(struct.pack("<f", a) == struct.pack("<f", b) for a, b in zip(got, want))
    return max(abs(a - b) for a, b in zip(got, want)) < tolerance


def sum_counters(snapshots):
    """Sums counters across telemetry snapshots (one per role for a TCP cluster)."""
    total = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            total[name] = total.get(name, 0) + value
    return total


def load_gate(repo_root):
    """The repo's must-be-zero counter gate (scripts/bench_gate.py)."""
    path = Path(repo_root) / "scripts" / "bench_gate.py"
    if not path.is_file():
        raise FileNotFoundError(f"{path} not found")
    spec = importlib.util.spec_from_file_location("bench_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def forbidden_hits(snapshot, gate):
    """(counter, value) pairs the gate's fault-free contract forbids in one snapshot."""
    hits = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        if value and any(gate.matches(prefix, name) for prefix in gate.DEFAULT_FORBIDDEN):
            hits.append((name, value))
    return hits


def job_operations(parties, rounds):
    """Operations one job attempts: party joins plus party-round uploads."""
    return parties + parties * rounds


def job_failures(result, exit_code, hits, params_ok, parties, rounds):
    """Failed operations of one job, with the reason for each kind.

    A missing result or a crashed runner fails every operation of the job. Otherwise a
    non-ok status, each dropout, each role that exited uncleanly, each forbidden counter
    and a parameter mismatch each count as one failed operation.
    """
    attempted = job_operations(parties, rounds)
    if result is None or exit_code != 0:
        return attempted, [f"runner exit code {exit_code}, no usable result"]
    reasons = []
    if result.get("status") != "ok":
        reasons.append(f"status {result.get('status')}: {result.get('error', '')}")
    reasons += [f"dropout #{i + 1}" for i in range(int(result.get("dropouts", 0)))]
    reasons += [f"role {r['role']} exit code {r['exit_code']}"
                for r in result.get("roles", []) if r.get("exit_code") != 0]
    reasons += [f"forbidden counter {name}={value} ({where})" for where, name, value in hits]
    if not params_ok:
        reasons.append("final parameters differ from the FflJob reference")
    if len(result.get("rounds", [])) != rounds:
        reasons.append(f"{len(result.get('rounds', []))} of {rounds} rounds reported")
    return min(len(reasons), attempted), reasons


def self_times(spans, root_name):
    """Mean self time per span name (seconds) under the spans named |root_name|.

    A span's self time is its duration minus the part its direct children cover. The
    mean is over the number of |root_name| spans, so the values add up to the mean
    root duration.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    roots = [s for s in spans if s["name"] == root_name]
    if not roots:
        raise ValueError(f"no {root_name} spans")
    totals = {}

    def visit(span):
        kids = children.get(span["id"], [])
        covered = sum(k["end_ns"] - k["start_ns"] for k in kids)
        own = (span["end_ns"] - span["start_ns"] - covered) / 1e9
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
        for k in kids:
            visit(k)

    for root in roots:
        visit(root)
    return {name: t / len(roots) for name, t in totals.items()}


def per_op_ms(spans, name):
    """Median duration per unit op (ms) of every span called |name|."""
    values = [(s["end_ns"] - s["start_ns"]) / 1e6 / s["ops"] for s in spans
              if s["name"] == name and s["ops"] > 0]
    return median(values)


def root_seconds(spans, name):
    """Median duration (s) of the spans called |name|, less their direct children named
    bench.* (work the replay does only to fabricate another role's frames)."""
    durations = []
    for root in (s for s in spans if s["name"] == name):
        standin = sum(s["end_ns"] - s["start_ns"] for s in spans
                      if s["parent"] == root["id"] and s["name"].startswith("bench."))
        durations.append((root["end_ns"] - root["start_ns"] - standin) / 1e9)
    return median(durations)
