#!/usr/bin/env python3
"""CATS serving benchmark: builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 catsbench/run.py --workload e1-latency --seed 1 --seconds 10 --trace 0
    python3 catsbench/run.py --workload all --seconds 15 --trace 0   # every workload
    python3 catsbench/run.py --smoke        # the benchmark's own checks

The benchmark binary's output is passed through: one JSON object per line (provenance,
set-up parts, every metric with unit and sample count, the oracle summary),
and as the last line the result object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; span files go to .bench_out/. A failed build, a failed
run or an oracle violation exits non-zero.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 170
# Workloads the binary runs that BENCHMARK.json does not list (their tails
# are not steady enough to gate on; catsbench/NOTES.md says why). The smoke
# run still covers them.
DIAGNOSTIC_WORKLOADS = ["read-heavy"]


def log(msg):
    print(f"catsbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures and builds the benchmark binary (both quick when up to date)."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "--target", "catsbench", "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries results only.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out, "catsbench")


def source_rev():
    """The git revision when run from a clone, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "catsbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_binary(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"benchmark binary timed out after {BINARY_TIMEOUT_S} s")
        return 124, []
    return proc.returncode, out.splitlines()


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke(binary, rev):
    """Runs every workload briefly, traced and untraced, and checks the output."""
    spec = benchmark_spec()
    problems = []
    out_dir = os.path.join(".bench_out", "smoke")
    for wl in spec["workloads"] + [{"name": n} for n in DIAGNOSTIC_WORKLOADS]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            tag = f"{wl['name']} --trace {trace}"
            code, lines = run_binary(binary, [
                "--workload", wl["name"], "--seed", "7", "--seconds", "1", "--trace", str(trace),
                "--smoke", "--git-rev", rev, "--out-dir", out_dir])
            objs = []
            for line in lines:
                try:
                    objs.append(json.loads(line))
                except ValueError:
                    problems.append(f"{tag}: non-JSON line {line[:80]!r}")
            if code != 0 or not objs:
                problems.append(f"{tag}: exit {code}")
                continue
            result = objs[-1]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} attempted={result['attempted']}")
            metric_lines = [o for o in objs if "metric" in o]
            counts = {}
            for m in metric_lines:
                counts[m["metric"]] = counts.get(m["metric"], 0) + 1
                if not m.get("unit") or not isinstance(m.get("samples"), int):
                    problems.append(f"{tag}: {m['metric']} lacks unit or sample count")
            for name, n in counts.items():
                if n != 1:
                    problems.append(f"{tag}: {name} printed {n} times")
            for m in listed:
                line = next((o for o in metric_lines if o["metric"] == m["name"]), None)
                if line is None:
                    problems.append(f"{tag}: {m['name']} not printed")
                elif line["unit"] != m["unit"]:
                    problems.append(f"{tag}: {m['name']} unit {line['unit']} != {m['unit']}")
            if sorted(result["metrics"]) != sorted(m["name"] for m in listed):
                problems.append(f"{tag}: result metrics differ from BENCHMARK.json")
            oracles = [o["oracle"] for o in objs if "oracle" in o]
            if not oracles or any(o["ops"] < 1 or o["violations"] != 0 or o["inconclusive"] != 0
                                  for o in oracles):
                problems.append(f"{tag}: oracle did not run cleanly: {oracles}")
            if trace == 1:
                spans = [o["spans"] for o in objs if "spans" in o]
                if len(spans) != 1:
                    problems.append(f"{tag}: no span file reported")
                    continue
                ids, parents = set(), []
                with open(os.path.join(ROOT, spans[0]["file"])) as f:
                    for line in f:
                        s = json.loads(line)
                        ids.add(s["id"])
                        parents.append(s["parent"])
                orphans = [p for p in parents if p != 0 and p not in ids]
                if not ids or orphans:
                    problems.append(f"{tag}: {len(ids)} spans, {len(orphans)} with unknown parents")
            log(f"smoke {tag}: checked")
    for p in problems:
        log("SMOKE FAIL " + p)
    log("smoke: " + ("FAILED" if problems else "all workloads passed"))
    return 1 if problems else 0


def run_all(binary, rev, args):
    """Runs every workload (gated and diagnostic) in turn, passing all lines through."""
    names = [w["name"] for w in benchmark_spec()["workloads"]] + DIAGNOSTIC_WORKLOADS
    worst = 0
    for name in names:
        code, lines = run_binary(binary, [
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--git-rev", rev, "--out-dir", ".bench_out"])
        for line in lines:
            print(line)
        sys.stdout.flush()
        if code != 0:
            log(f"{name}: exited {code}")
            worst = code if code > 0 else 1
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's own checks")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    try:
        binary = build()
    except (OSError, RuntimeError) as e:
        log(str(e))
        return 1
    rev = source_rev()
    if args.smoke:
        return smoke(binary, rev)
    if args.workload == "all":
        return run_all(binary, rev, args)
    code, lines = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--git-rev", rev, "--out-dir", ".bench_out"])
    for line in lines:
        print(line)
    sys.stdout.flush()
    if code != 0:
        log(f"benchmark exited {code}")
        return code if code > 0 else 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log("no result line printed")
        return 1
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
