"""One workload in one fresh process: set up, signal `ready`, measure.

Started by run.py with PYTHONPATH pointing at the checkout's `src`.  The
first line written to stdout is `ready <monotonic ns> <speed>` once
imports, reference loading, input generation and warm-up are done.
run.py times process start to that line as set-up and scales it by the
host speed that the speed probe (speed.py) measured during set-up.
With --setup-only the process exits there.  Otherwise the last stdout
line is one JSON object with the raw measurements.

Every call drives `gbei.cli.main([..., "--json"])` in-process with stdout
captured.  Its wall time is scaled to the reference speed by the speed
probe (speed.py) that runs while the worker measures.  A call fails when
it raises, returns an exit code other than 0, or its label-invariant
projection differs from the committed reference.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import monotonic_ns, perf_counter
from typing import NamedTuple

import gen
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs.json"
WORK = ROOT / ".bench_work"

WORKLOADS = ("oracle", "groebner", "census", "sweep")
COMMANDS = {"oracle": "verify", "groebner": "verify", "census": "invariants", "sweep": "corpus"}
CENSUS_ROWS = (2, 3)
SWEEP_ROWS = (2, 3, 4)
# the corpus call of every sweep pass; the seed draws its rows
SWEEP_CALL = (6, "gblock")


class Call(NamedTuple):
    """One cli.main invocation and the reference key of its result."""

    argv: list[str]
    key: str


def ref_key(command: str, rows: int, shape: str) -> str:
    return f"{command} rows={rows} {shape}"


def corpus_call(n: int, filt: str, rows: int) -> Call:
    argv = ["corpus", "--enumerate", str(n), "--rows", str(rows), "--filter", filt, "--json"]
    return Call(argv, ref_key("corpus", rows, f"n={n} filter={filt}"))


def write_graph(path: Path, n: int, edges) -> str:
    path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")
    return str(path)


def cycle(workload: str, catalogue: dict) -> int:
    """Passes that make up one full round of the workload's inputs."""
    return 1 if workload == "sweep" else len(catalogue[workload][0][3])


def build_pass(workload: str, catalogue: dict, seed: int, index: int, folder: Path) -> list[Call]:
    """The calls of pass `index`, in an order drawn from (seed, index).

    oracle, groebner and census run every catalogue shape in each pass,
    under one of its recorded relabelings, taking turns, so that each cycle
    of passes runs the same labeled pool.  The cost of a call moves with
    the labeling, tenfold for verify and by a quarter for invariants, and
    with a fresh draw per seed the seed, not the code, would set the
    figures.  The seed draws census rows, which cost nothing, and the call
    order.  sweep: the corpus call, with rows drawn once per seed, since
    the sequence of rows moves peak memory by 6%.
    """
    rng = random.Random(f"{workload}/{seed}/{index}")
    folder.mkdir(parents=True, exist_ok=True)
    if workload == "sweep":
        return [corpus_call(*SWEEP_CALL, random.Random(f"sweep/{seed}").choice(SWEEP_ROWS))]
    calls = []
    for n, rows, shape, labelings in catalogue[workload]:
        labeled = labelings[(seed + index) % len(labelings)]
        if rows is None:
            rows = rng.choice(CENSUS_ROWS)
        path = write_graph(folder / f"{len(calls)}.txt", n, labeled)
        argv = [COMMANDS[workload], "--graph", path, "--rows", str(rows), "--json"]
        calls.append(Call(argv, ref_key(COMMANDS[workload], rows, gen.shape_key(n, shape))))
    rng.shuffle(calls)
    return calls


def project(report: dict) -> dict:
    """The label-invariant part of a report, which the references pin."""
    if report["command"] == "corpus":
        pairs: Counter = Counter()
        for row in report["rows"]:
            form = row["formulas"]
            if form["status"] == "ok":
                rel = "=" if form["regularity"]["kind"] == "exact" else "<="
                pairs[f"depth={form['depth']['value']} reg{rel}{form['regularity']['value']}"] += 1
            else:
                pairs["skipped"] += 1
        return {"summary": report["summary"], "depthReg": dict(sorted(pairs.items()))}
    census = report["census"]
    out = {
        "classification": report["classification"],
        "census": {"a": census["a"], "cutPointSets": len(census["cutPointSets"])},
    }
    form = report.get("formulas")
    if form is not None:
        out["formulas"] = {k: form[k] for k in ("dimension", "unmixed", "status")}
        for k in ("depth", "regularity"):
            if k in form:
                out["formulas"][k] = {"value": form[k]["value"], "kind": form[k]["kind"]}
    ver = report.get("verification")
    if ver is not None:
        out["checks"] = [[c["name"], c["status"]] for c in ver["checks"]]
        if "oracle" in ver:
            out["oracle"] = {k: ver["oracle"][k] for k in ("depth", "regularity", "projectiveDimension")}
    return out


def invoke(main, argv: list[str]) -> tuple[float, float, int | None, str]:
    """Time one cli.main call with stdout captured: its start, its wall
    time, its exit code and its output.  An exception is reported on
    stderr and gives exit code None."""
    buf = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except Exception:  # a crash is a failed call; the run goes on
        traceback.print_exc()
        code = None
    return start, perf_counter() - start, code, buf.getvalue()


def check(call: Call, code: int | None, text: str, expect: dict) -> int | None:
    """Graphs the call reported, or None when the call failed."""
    try:
        report = json.loads(text)
        if code == 0 and project(report) == expect[call.key]:
            return report["summary"]["graphs"] if report["command"] == "corpus" else 1
    except (ValueError, KeyError, TypeError):
        pass
    print(f"perfbench: call failed: {' '.join(call.argv)} (exit {code})", file=sys.stderr)
    return None


class Tally:
    """Per-pass and per-call figures of a run."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.pass_graphs: list[int] = []
        self.call_s: list[float] = []
        self.call_span: list[tuple[float, float, int]] = []
        self.attempted = 0
        self.failed = 0

    def run_pass(self, main, calls: list[Call], expect: dict) -> None:
        """Time each call, then check it outside the timed region.  The
        pass time is the sum of its call times."""
        pass_s = 0.0
        graphs = 0
        for call in calls:
            start, dt, code, text = invoke(main, call.argv)
            pass_s += dt
            self.call_s.append(dt)
            self.call_span.append((start, start + dt, len(self.pass_s)))
            self.attempted += 1
            got = check(call, code, text, expect)
            if got is None:
                self.failed += 1
            else:
                graphs += got
        self.pass_s.append(pass_s)
        self.pass_graphs.append(graphs)

    def adjusted(self, probe: speed.SpeedProbe) -> tuple[list[float], list[float]]:
        """Call times and pass times at the probe's reference speed."""
        call_s = [probe.adjust(end - start, start, end) for start, end, _ in self.call_span]
        pass_s = [0.0] * len(self.pass_s)
        for (_, _, index), dt in zip(self.call_span, call_s):
            pass_s[index] += dt
        return call_s, pass_s


def warm_up(main, workload: str, folder: Path) -> None:
    """One tiny call of the workload's command, so that lazy work the first
    call pays is not timed."""
    if workload == "sweep":
        argv = corpus_call(3, "gblock", 2).argv
    else:
        path = write_graph(folder / "warm.txt", 3, [(1, 2), (2, 3)])
        argv = [COMMANDS[workload], "--graph", path, "--rows", "2", "--json"]
    _, _, code, _ = invoke(main, argv)
    if code != 0:
        raise RuntimeError(f"warm-up call {argv} exited {code}")


def measure(args, main, refs: dict, folder: Path, first: list[Call]) -> dict:
    """Whole cycles of passes, as many as bring the call time nearest to
    --seconds, and at least one, with the speed probe running."""
    tally = Tally()
    per_cycle = cycle(args.workload, refs["catalogue"])
    calls = first
    index = 0
    cycle_start = 0.0
    with speed.SpeedProbe() as probe:
        while True:
            tally.run_pass(main, calls, refs["expect"])
            index += 1
            if index % per_cycle == 0:
                total = sum(tally.pass_s)
                if total + (total - cycle_start) / 2 >= args.seconds:
                    break
                cycle_start = total
            shutil.rmtree(folder / f"pass{index - 1}", ignore_errors=True)
            calls = build_pass(args.workload, refs["catalogue"], args.seed, index, folder / f"pass{index}")
    call_s, pass_s = tally.adjusted(probe)
    return {
        "pass_s": pass_s,
        "pass_graphs": tally.pass_graphs,
        "call_s": call_s,
        "wall_pass_s": tally.pass_s,
        "wall_call_s": tally.call_s,
        "kernel_s": probe.took,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def measure_traced(args, main, refs: dict, calls: list[Call]) -> dict:
    """One plain pass, then the same pass traced: per-layer counts and
    times from the traced pass, overhead from the ratio of pass times."""
    import tracing

    tally = Tally()
    tally.run_pass(main, calls, refs["expect"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import gbei.cli  # main as rebound by the tracer

        tally.run_pass(gbei.cli.main, calls, refs["expect"])
    finally:
        tracer.restore()
    WORK.mkdir(exist_ok=True)
    tracer.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.bin")
    plain_s, traced_s = tally.pass_s
    return {
        "layers": per_layer_metrics(tracer, tally.pass_graphs[1], plain_s, traced_s),
        "attempted": tally.attempted,
        "failed": tally.failed,
    }


FORMULAS = ("ideals.depth_formula", "ideals.regularity_formula", "ideals.krull_dimension", "ideals.is_unmixed")
REPORTS = ("report.classify_report", "report.invariants_report", "report.verify_report", "report.corpus_report")


def per_layer_metrics(tracer, graphs: int, plain_s: float, traced_s: float) -> dict:
    """Every per_layer metric of BENCHMARK.json, with its unit."""
    out = {}

    def put(name: str, value, unit: str):
        out[name] = {"value": value, "unit": unit}

    def seconds(ns: int) -> float:
        return ns / 1e9

    for name in ("homology.hochster_betti", "poly.buchberger", "poly.normal_form", "ideals.rauh_basis",
                 "graphs.cut_set_census", "graphs.classify"):
        st = tracer.stat(name)
        put(f"{name}.calls", st.calls, "count")
        put(f"{name}.self_s", seconds(st.self_ns), "s")
    for name in ("poly.buchberger", "poly.intersect", "poly.is_groebner_basis", "poly.is_reduced_basis",
                 "ideals.admissible_paths", "ideals.minimal_primes", "graphs.enumerate_connected_graphs",
                 "graphs.parse_graph", "report.to_json"):
        put(f"{name}.total_s", seconds(tracer.stat(name).total_ns), "s")
    for name in ("ideals.rauh_basis", "graphs.cut_set_census", "graphs.classify"):
        put(f"{name}.per_report", tracer.stat(name).calls / graphs if graphs else 0.0, "1/report")
    nf = tracer.stat("poly.normal_form")
    put("poly.normal_form.nonzero_ratio", nf.nonzero / nf.calls if nf.calls else 0.0, "ratio")
    put("poly.s_polynomial.calls", tracer.stat("poly.s_polynomial").calls, "count")
    put("ideals.formulas.self_s", seconds(sum(tracer.stat(n).self_ns for n in FORMULAS)), "s")
    put("graphs.enumerate_connected_graphs.yielded", tracer.stat("graphs.enumerate_connected_graphs").yielded, "count")
    put("report.build.self_s", seconds(sum(tracer.stat(n).self_ns for n in REPORTS)), "s")
    put("cli.main.self_s", seconds(tracer.stat("cli.main").self_ns), "s")
    for layer in ("cli", "report", "graphs", "ideals", "poly", "homology"):
        put(f"layer.{layer}.self_s", seconds(tracer.layer_self_ns(layer)), "s")
    put("trace.spans", len(tracer.spans) // 4, "count")
    put("trace.overhead_ratio", traced_s / plain_s, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    speed.pin_to_current_cpu()
    with contextlib.ExitStack() as stack:
        with speed.SpeedProbe() as probe:
            import gbei
            from gbei.cli import main as gbei_main

            if Path(gbei.__file__).resolve().parent != ROOT / "src" / "gbei":
                raise SystemExit(f"perfbench: gbei was imported from {gbei.__file__}, not from the checkout's src/")
            refs = json.loads(REFS.read_text(encoding="utf-8"))
            WORK.mkdir(exist_ok=True)
            folder = Path(stack.enter_context(
                tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=WORK, ignore_cleanup_errors=True)))
            first = build_pass(args.workload, refs["catalogue"], args.seed, 0, folder / "pass0")
            warm_up(gbei_main, args.workload, folder)
            ready_ns = monotonic_ns()
        print(f"ready {ready_ns} {probe.speed(0.0, perf_counter())!r}", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = measure_traced(args, gbei_main, refs, first)
        else:
            result = measure(args, gbei_main, refs, folder, first)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
