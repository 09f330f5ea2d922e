#!/usr/bin/env python3
"""End-to-end benchmark of the DeTA system: three workloads, one command.

  python3 e2ebench/run.py --workload join|bulk_tcp|paillier --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds e2e_runner in
Release under .bench_build/ (from e2ebench/CMakeLists.txt and the sources in src/).

Each workload is a core::ClusterSpec with 4 parties and 3 aggregators; the runner gets
only the generated spec. With --trace 0 the benchmark launches complete jobs back to
back for --seconds seconds and times each from outside (wall, CPU and peak RSS of the
job's processes, from wait4). With --trace 1 it runs one job for its counters and then
the runner's trace mode, which replays one party's and one aggregator's critical path
through each layer's public functions. Every job is checked against fl::FflJob on the
same spec and against scripts/bench_gate.py's must-be-zero counters, outside the timed
region. The last line of stdout is one JSON object: correct, attempted, failed, metrics.
See e2ebench/README.md for why each workload exists and what each metric predicts.
"""

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

PARTIES = 4
AGGREGATORS = 3
JOB_TIMEOUT_S = 120.0
# Every run sets up at least this many times, so setup_s is a median of several.
MIN_JOBS = 3
# Stop launching jobs once this much of the run has passed, whatever --seconds says,
# so a run always ends well inside its 180-second budget.
RUN_CAP_S = 110.0

WORKLOADS = {
    # Back-to-back in-proc jobs, each with a fresh seed: attestation plus the EC
    # handshakes of 4 parties against 3 aggregators and the key broker, then 10 rounds
    # of a 131k-parameter MLP (image_size=128). Rounds of the 1.7k-parameter default
    # model last a millisecond and time thread wake-ups, not work; these are ~12% of a
    # job and steady enough to gate.
    "join": {"mode": "job", "rounds": 10, "extra": {"image-size": 128},
             "fresh_seed_per_job": True, "tolerance": 0.0, "trace_reps": 3},
    # 8 role processes over TCP (4 parties, 3 aggregators, the key broker) and a
    # 524k-parameter MLP (image_size=256) on a few examples per party: round time is
    # Trans, codec, SecureChannel seal/open, TCP frames and aggregation.
    "bulk_tcp": {"mode": "cluster", "rounds": 12,
                 "extra": {"image-size": 256, "examples-per-party": 8},
                 "fresh_seed_per_job": False, "tolerance": 0.0, "trace_reps": 3},
    # In-proc, an 8.3k-parameter MLP (image_size=32) with Paillier fusion: round time is
    # BigUint/Montgomery encrypt/add/decrypt over many small ciphertext payloads.
    "paillier": {"mode": "job", "rounds": 6, "extra": {"image-size": 32, "paillier": 1},
                 "fresh_seed_per_job": False,
                 # tests/core_deta_job_test.cc PaillierFusionMatchesBaselineApproximately
                 "tolerance": 1e-4, "trace_reps": 2},
}


def log(msg):
    print(msg, flush=True)


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)
    sys.exit(2)


def build(build_root):
    """Configures (once) and builds the runner; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources under {ROOT / 'src'}")
    cmake_dir = build_root / "cmake"
    build_log = build_root / "build.log"
    build_root.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "e2e_runner",
                  "-j", jobs])
    with open(build_log, "w", encoding="utf-8") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT) != 0:
                tail = build_log.read_text(encoding="utf-8", errors="replace")[-3000:]
                fail(f"build failed ({' '.join(step)}):\n{tail}")
    runner = cmake_dir / "e2e_runner"
    if not runner.is_file():
        fail(f"build produced no {runner}")
    return runner


def spec_flags(workload, seed, out_dir):
    w = WORKLOADS[workload]
    spec = {"parties": PARTIES, "aggregators": AGGREGATORS, "rounds": w["rounds"],
            "seed": seed, **w["extra"]}
    if w["mode"] == "cluster":
        spec["telemetry-dir"] = str(out_dir / "telemetry")
    return [f"--{k}={v}" for k, v in spec.items()]


def run_process(args, timeout_s, log_path):
    """Runs |args| in a new process group; returns (exit code, wall s, CPU s, peak RSS MB).

    CPU and RSS come from wait4 and so cover every descendant the process reaped: for a
    TCP cluster, all role processes. A process still running at |timeout_s| is killed
    with its whole process group. Its stderr goes to |log_path|.
    """
    start = time.monotonic()
    with open(log_path, "wb") as err:
        proc = subprocess.Popen(args, stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
    deadline = start + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Stop any role the runner left behind and wait until its process group is gone.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        for _ in range(500):
            time.sleep(0.01)
            os.killpg(proc.pid, 0)
    except ProcessLookupError:
        pass
    if proc.returncode != 0:
        tail = Path(log_path).read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"{args[1]} exited with {proc.returncode}:\n{tail}", file=sys.stderr, flush=True)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_job(runner, workload, seed, out_dir):
    """One complete job, timed from outside."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    mode = WORKLOADS[workload]["mode"]
    args = [str(runner), f"--mode={mode}", f"--out={out_dir}"] + spec_flags(
        workload, seed, out_dir)
    code, wall, cpu, rss = run_process(args, JOB_TIMEOUT_S, out_dir / "stderr.log")
    result = None
    if (out_dir / "result.json").is_file():
        result = metrics.load_json(out_dir / "result.json")
    return {"seed": seed, "exit_code": code, "wall_s": wall, "cpu_s": cpu,
            "rss_mb": rss, "result": result, "dir": out_dir}


def reference_params(runner, workload, seed, out_dir, cache):
    """fl::FflJob's final parameters for the same spec (computed once per seed)."""
    if seed not in cache:
        ref_dir = out_dir / f"reference-{seed}"
        shutil.rmtree(ref_dir, ignore_errors=True)
        ref_dir.mkdir(parents=True)
        # FflJob's results do not depend on the thread count, so the oracle may use
        # every core (the timed jobs keep the spec's default of one per process).
        args = [str(runner), "--mode=reference", f"--out={ref_dir}"] + spec_flags(
            workload, seed, ref_dir) + [f"--threads={os.cpu_count() or 1}"]
        code, _, _, _ = run_process(args, JOB_TIMEOUT_S, ref_dir / "stderr.log")
        cache[seed] = metrics.load_params(ref_dir / "params.bin") if code == 0 else None
    return cache[seed]


def check_job(record, workload, gate, reference):
    """Counts the job's attempted and failed operations; keeps its telemetry."""
    w = WORKLOADS[workload]
    result = record["result"]
    params_ok = False
    hits = []
    record["counters"] = {}
    if result is not None:
        params_file = record["dir"] / "params.bin"
        if reference is not None and params_file.is_file():
            params_ok = metrics.params_match(metrics.load_params(params_file), reference,
                                             w["tolerance"])
        tele_files = sorted((record["dir"] / "telemetry").glob("*.json"))
        expected = 1 if w["mode"] == "job" else PARTIES + AGGREGATORS + 2
        if len(tele_files) != expected:
            hits.append(("telemetry", "role snapshots", f"{len(tele_files)}/{expected}"))
        snapshots = [metrics.load_json(p) for p in tele_files]
        for path, snapshot in zip(tele_files, snapshots):
            hits += [(path.stem, name, value)
                     for name, value in metrics.forbidden_hits(snapshot, gate)]
        record["counters"] = metrics.sum_counters(snapshots)
    failed, reasons = metrics.job_failures(result, record["exit_code"], hits, params_ok,
                                           PARTIES, w["rounds"])
    record["attempted"] = metrics.job_operations(PARTIES, w["rounds"])
    record["failed"] = failed
    for reason in reasons:
        log(f"  FAILED seed={record['seed']}: {reason}")


def job_seeds(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    fixed = rng.randrange(1, 2**31)
    while True:
        yield rng.randrange(1, 2**31) if WORKLOADS[workload]["fresh_seed_per_job"] else fixed


def run_jobs(runner, workload, seed, seconds, out_root):
    """Launches jobs back to back until |seconds| have passed (at least MIN_JOBS)."""
    records = []
    seeds = job_seeds(workload, seed)
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(records) >= MIN_JOBS and (
                elapsed >= seconds or elapsed >= RUN_CAP_S):
            break
        records.append(run_job(runner, workload, next(seeds),
                               out_root / f"job{len(records)}"))
    return records


def e2e_metrics(records):
    """End-to-end metrics over the run's jobs (see README.md for definitions)."""
    good = [r for r in records if r["failed"] == 0]
    if not good:
        return {}, {}
    round_walls = [rnd["wall_s"] for r in good for rnd in r["result"]["rounds"]]
    rtts = [x for r in good for rnd in r["result"]["rounds"] for x in rnd["rtts_s"]]
    setups = [metrics.setup_seconds(r["wall_s"], [rnd["wall_s"] for rnd in r["result"]["rounds"]])
              for r in good]
    values = {
        "setup_s": (metrics.median(setups), "s"),
        "job_wall_s": (metrics.median([r["wall_s"] for r in good]), "s"),
        "job_cpu_s": (metrics.median([r["cpu_s"] for r in good]), "s"),
        "peak_rss_mb": (metrics.median([r["rss_mb"] for r in good]), "MB"),
        "round_p50_s": (metrics.median(round_walls), "s"),
        "uploads_per_s": (len(rtts) / sum(round_walls), "1/s"),
        "upload_rtt_p50_ms": (metrics.median(rtts) * 1e3, "ms"),
    }
    samples = {"round_p50_s": metrics.summarize(round_walls),
               "upload_rtt_p50_ms": metrics.summarize([x * 1e3 for x in rtts]),
               "setup_s": metrics.summarize(setups)}
    return values, samples


def trace_metrics(record, spans, rounds):
    """Per-layer metrics from one job's counters and the runner's replayed spans."""
    c = record["counters"]
    result = record["result"]
    round_walls = [rnd["wall_s"] for rnd in result["rounds"]]
    setup = metrics.setup_seconds(record["wall_s"], round_walls)
    attest = result["setup_seconds"]
    attempts = c.get("net.retry.attempts", 0)
    timeouts = c.get("net.retry.timeouts", 0)
    ms = lambda name: (metrics.per_op_ms(spans, name), "ms")  # noqa: E731
    us = lambda name: (metrics.per_op_ms(spans, name) * 1e3, "us")  # noqa: E731
    per_round = lambda name: (c.get(name, 0) / rounds, "count")  # noqa: E731
    return {
        "cc.attest_s": (attest, "s"),
        "crypto.ec.keygen_ms": ms("crypto.ec.keygen"),
        "crypto.ecdsa.sign_ms": ms("crypto.ecdsa.sign"),
        "crypto.ecdsa.verify_ms": ms("crypto.ecdsa.verify"),
        "crypto.ecdh.agree_ms": ms("crypto.ecdh.agree"),
        "core.auth.verify_ms": ms("core.auth.verify"),
        "core.auth.register_ms": ms("core.auth.register"),
        "core.auth.handshakes": (c.get("core.auth.verify_ok", 0)
                                 + c.get("core.auth.register_ok", 0), "count"),
        "core.kb.fetches": (c.get("core.kb.fetch_ok", 0), "count"),
        "net.retry.timeouts": (timeouts, "count"),
        "net.retry.attempts": (attempts, "count"),
        "net.retry.useful_ratio": (1.0 - timeouts / attempts if attempts else 1.0, "ratio"),
        "fl.party.train_ms": ms("fl.party.train"),
        "core.transform.apply_ms": ms("core.transform.apply"),
        "core.transform.invert_ms": ms("core.transform.invert"),
        "fl.update.encode_ms": ms("fl.update.encode"),
        "fl.update.decode_ms": ms("fl.update.decode"),
        "net.channel.seal_ms": ms("net.channel.seal"),
        "net.channel.open_ms": ms("net.channel.open"),
        "net.channel.seals_per_round": per_round("net.channel.seal"),
        "net.bytes_per_round": (c.get("net.bus.sent_bytes", 0) / rounds, "B"),
        "net.frames_per_round": per_round("net.bus.sent"),
        "net.tcp.rtt_ms": ms("net.tcp.rtt"),
        "net.inproc.rtt_ms": ms("net.inproc.rtt"),
        "fl.aggregation.ms": ms("fl.aggregation"),
        "crypto.paillier.encrypt_us": us("crypto.paillier.encrypt"),
        "crypto.paillier.decrypt_us": us("crypto.paillier.decrypt"),
        "crypto.paillier.add_us": us("crypto.paillier.add"),
        "crypto.paillier.encrypt_per_round": per_round("crypto.paillier.encrypt_ops"),
        "crypto.paillier.decrypt_per_round": per_round("crypto.paillier.decrypt_ops"),
        "crypto.paillier.add_per_round": per_round("crypto.paillier.add_ops"),
        "round.accounted_share": (metrics.root_seconds(spans, "replay.round")
                                  / metrics.median(round_walls), "ratio"),
        "setup.accounted_share": ((attest + metrics.root_seconds(spans, "replay.setup"))
                                  / setup, "ratio"),
    }


def print_self_times(spans, root):
    total = metrics.root_seconds(spans, root)
    log(f"  {root}: median {total * 1e3:.3f} ms; mean self time per layer:")
    layers = metrics.self_times(spans, root)
    for name, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        log(f"    {name:28s} {t * 1e3:10.3f} ms")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        gate = metrics.load_gate(ROOT)
    except (OSError, SyntaxError) as e:
        fail(f"cannot load the counter gate: {e}")
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    runner = build(build_root)
    out_root = build_root / "runs" / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    w = WORKLOADS[args.workload]
    spec = [f for f in spec_flags(args.workload, 0, out_root)
            if not f.startswith(("--seed=", "--telemetry-dir="))]
    log(f"e2ebench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} spec={' '.join(spec)}")

    if args.trace:
        seed = next(job_seeds(args.workload, args.seed))
        records = [run_job(runner, args.workload, seed, out_root / "job0")]
    else:
        records = run_jobs(runner, args.workload, args.seed, args.seconds, out_root)
    # Correctness, outside the timed region.
    references = {}
    for r in records:
        check_job(r, args.workload, gate,
                  reference_params(runner, args.workload, r["seed"], out_root, references))
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)

    if args.trace:
        trace_dir = out_root / "trace"
        trace_args = [str(runner), "--mode=trace", f"--out={trace_dir}",
                      f"--reps={w['trace_reps']}",
                      f"--wire={'tcp' if w['mode'] == 'cluster' else 'inproc'}"]
        code, wall, _, _ = run_process(
            trace_args + spec_flags(args.workload, records[0]["seed"], trace_dir),
            JOB_TIMEOUT_S, out_root / "trace.stderr.log")
        if code != 0 or failed:
            values = {}
            failed += 1 if code != 0 else 0
        else:
            spans = metrics.load_json(trace_dir / "trace.json")["spans"]
            values = trace_metrics(records[0], spans, w["rounds"])
            log(f"  traced replay took {wall:.2f} s")
            print_self_times(spans, "replay.setup")
            print_self_times(spans, "replay.round")
    else:
        values, samples = e2e_metrics(records)
        log(f"  jobs={len(records)} seeds={[r['seed'] for r in records]}")
        for name, s in samples.items():
            tail = (f" p{s['tail_pct']:g}={s['tail']:.6g}" if "tail_pct" in s
                    else " (fewer than 10 samples beyond p50)")
            log(f"  {name}: n={s['n']} p50={s['p50']:.6g}{tail}")

    for name, (value, unit) in values.items():
        log(f"  {name:34s} {value:14.6f} {unit}")
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "jobs": [{k: v for k, v in r.items() if k not in ("dir", "counters")}
                        for r in records]}
    (out_root / "summary.json").write_text(json.dumps(summary, indent=1))
    correct = failed == 0 and bool(values)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}))


if __name__ == "__main__":
    main()
