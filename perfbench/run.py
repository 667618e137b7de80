"""gbei benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; gbei is imported from `src/`.
Each workload runs in fresh worker processes (worker.py), each pinned to
one core, where gbei runs single-threaded next to a speed probe thread.
The first SETUPS - 1 workers only set up, the last one sets up and then
measures, and set-up time is the median over all of them.  Times are
scaled to a reference host speed (speed.py).  Human-readable
lines come first; the last stdout line is the JSON result.  A failed run
prints nothing on stdout and exits 1.  See README.md
for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, monotonic_ns

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle", "groebner", "census", "sweep")
SETUPS = 9
DEADLINE_S = 170.0
P90_MIN_CALLS = 100


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _spawn(args, setup_only: bool, deadline: float) -> tuple[float, float, str]:
    """Start one worker; return its set-up seconds, wall and at the
    reference speed, and its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = monotonic_ns()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise RuntimeError(f"worker exited {proc.returncode} before finishing")
    _, ready_ns, host_speed = lines[0].split()
    wall_s = (int(ready_ns) - start) / 1e9
    return wall_s, wall_s * float(host_speed), out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gbei benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + DEADLINE_S
    loadavg = _loadavg()
    try:
        setups, wall_setups = [], []
        for i in range(SETUPS):
            wall_s, setup_s, out = _spawn(args, setup_only=i < SETUPS - 1, deadline=deadline)
            wall_setups.append(wall_s)
            setups.append(setup_s)
        raw = json.loads(out.splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()} "
          f"loadavg_at_start={loadavg!r}")
    attempted, failed = raw["attempted"], raw["failed"]
    if args.trace:
        metrics = raw["layers"]
    else:
        times_ms = [t * 1000 for t in raw["call_s"]]
        rates = [g / s for g, s in zip(raw["pass_graphs"], raw["pass_s"])]
        metrics = {
            "graphs_per_s": {"value": sum(raw["pass_graphs"]) / sum(raw["pass_s"]), "unit": "graphs/s"},
            "report_ms_p50": {"value": statistics.median(times_ms), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": raw["peak_rss_kib"] / 1024, "unit": "MiB"},
        }
        if len(times_ms) >= P90_MIN_CALLS:
            p90 = f"{statistics.quantiles(times_ms, n=10)[8]:.3f} ms"
        else:
            p90 = f"n/a ({len(times_ms)} calls < {P90_MIN_CALLS})"
        print(f"passes {len(rates)}; calls {len(times_ms)}; graphs {sum(raw['pass_graphs'])}; "
              f"pass_graphs_per_s {' '.join(f'{r:.4g}' for r in rates)}; "
              f"setups_s {' '.join(f'{s:.4f}' for s in setups)}")
        print(f"report_ms_p90 {p90}")
        wall_ms = statistics.median(raw["wall_call_s"]) * 1000
        print(f"wall time, not speed-adjusted: graphs_per_s "
              f"{sum(raw['pass_graphs']) / sum(raw['wall_pass_s']):.6g} graphs/s; report_ms_p50 {wall_ms:.6g} ms; "
              f"setup_s {statistics.median(wall_setups):.6g} s; speed kernel median "
              f"{statistics.median(raw['kernel_s']) * 1000:.4g} ms over {len(raw['kernel_s'])} samples "
              f"(reference {speed.KERNEL_REF_S * 1000:g} ms)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} calls)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
