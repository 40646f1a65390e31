"""Layered benchmark for rdpinv.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One workload per invocation:

  pipeline-cold  E6/E7/E8 pipelines, the E6 split-parameter pair and the
                 fifteen key constants, from an empty rule cache
  rerun-warm     verify appendix0/1/2, congruence --all and the E6 split
                 pair through a cache filled during set-up
  weyl-e6        literal Weyl invariance of E6 eps2..eps9 and of the
                 closed-form D4, D5, E4, E5 coordinates
  classify       a seeded battery of moved normal forms, plus the fifteen
                 section bounds

Set-up and every pass run in a fresh interpreter (bench/worker.py), one
at a time.  Passes repeat whole until the next one would end after
``--seconds``; at least one pass runs.  With ``--trace 1`` the passes run
with spans installed and the result carries the per-layer metrics of
BENCHMARK.json instead of the end-to-end ones.  The last line of standard
output is the JSON result.  Exit status 2 means the checkout is incomplete,
1 that a set-up or pass process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: set-ups per run; rerun-warm's set-up fills the whole cache (~11 s), so once
SETUPS = {"pipeline-cold": 3, "rerun-warm": 1, "weyl-e6": 3, "classify": 3}
CHILD_TIMEOUT_S = 170


def _child_env(work: Path) -> dict:
    """The worker's environment: rdpinv from this checkout, and no cache
    directory or home inherited from the caller."""
    env = {k: v for k, v in os.environ.items() if k not in ("CACHE_DIR", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["CACHE_DIR"] = str(work / "cache")
    env["HOME"] = str(work / "home")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: argparse.Namespace, role: str, work: Path, trace: str = "") -> dict:
    """Run one worker process; returns its JSON result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--role", role, "--work", str(work), "--seed", str(args.seed)]
    if trace:
        cmd += ["--trace", trace]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(work),
                          cwd=work, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{role} process for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _dir_kb(path: Path) -> float:
    if not path.exists():
        return 0.0
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1024


def _quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def measure(args: argparse.Namespace, work: Path) -> dict:
    cache = work / "cache"
    setups = []
    for _ in range(SETUPS[args.workload]):
        shutil.rmtree(cache, ignore_errors=True)
        setups.append(_worker(args, "setup", work))
        broken = [f"{name}: {err}" for name, _, err in setups[-1]["ops"] if err]
        if broken:
            raise RuntimeError(f"set-up of {args.workload} failed: {'; '.join(broken)}")
    cache_kb = _dir_kb(cache)

    passes = []
    traces = []
    start = time.perf_counter()
    while True:
        if args.workload == "pipeline-cold":
            shutil.rmtree(cache, ignore_errors=True)
        trace = str(work / f"trace-{len(traces)}.jsonl") if args.trace else ""
        passes.append(_worker(args, "pass", work, trace))
        if trace:
            traces.append(tracing.read_spans(Path(trace)))
        wall = statistics.median(r["raw_pass_s"] for r in passes)
        if time.perf_counter() - start + wall > args.seconds:
            break
    if args.workload == "pipeline-cold":
        cache_kb = _dir_kb(cache)

    ops = [op for r in passes for op in r["ops"]]
    # each operation's median over the passes, so that the quantiles do not
    # jump between operations of different size from one run to the next
    by_op: dict[str, list[float]] = {}
    for name, seconds, _ in ops:
        by_op.setdefault(name, []).append(seconds)
    times = [statistics.median(v) for v in by_op.values()]
    failed = [op for op in ops if op[2] is not None]
    checks = [c for r in setups + passes for c in r["checks"]]
    controls = [c for r in setups + passes for c in r["controls"]]
    for label, ok in checks:
        if not ok:
            print(f"check failed: {label}")
    for label, tripped in controls[:1] + [c for c in controls[1:] if not c[1]]:
        print(f"negative control {'tripped' if tripped else 'DID NOT TRIP'}: {label}")
    for name, _, err in failed:
        print(f"operation failed: {name}: {err}")
    metrics = {
        "setup_s": statistics.median(r["pass_s"] for r in setups),
        "pass_s": statistics.median(r["pass_s"] for r in passes),
        "op_p50_ms": 1000 * statistics.median(times),
        "op_p95_ms": 1000 * _quantile(times, 0.95),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in passes),
        "cache_kb": cache_kb,
    }
    sys.stderr.write(
        f"{args.workload}: {len(passes)} passes, pass_s {metrics['pass_s']:.4f}, "
        f"wall {statistics.median(r['raw_pass_s'] for r in passes):.4f}, host speed "
        f"{statistics.median(r['speed'] for r in passes):.3f}, setup_s {metrics['setup_s']:.4f}"
        f"{' (traced: raw wall time)' if args.trace else ''}\n")
    if args.trace:
        metrics.update(tracing.layer_metrics(traces))
    return {
        "correct": bool(checks) and all(ok for _, ok in checks)
        and bool(controls) and all(tripped for _, tripped in controls),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rdpinv benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "rdpinv" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not an rdpinv checkout (src/rdpinv, BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    (work / "home").mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with_others = work.parent
        if with_others.exists() and not any(with_others.iterdir()):
            with_others.rmdir()

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["metrics"]
    result["metrics"] = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
                         for m in chosen}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
