"""Rebuild refs.json: the shape catalogue of every workload and the
reference projection of every call a pass can make.

    PYTHONPATH=src python3 perfbench/record_refs.py

Run it only on a commit whose reports are trusted: every reference is
recorded with exit code 0, so every two-route check passed, and is
recomputed under every recorded relabeling of its shape to confirm that
the projection does not depend on labels.  A benchmark run then checks any seed against these
values.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

import gen
import worker
from gbei.cli import main as gbei_main

CATALOGUE_SEED = 0


def catalogue() -> dict:
    """Shapes per workload, fixed by CATALOGUE_SEED.  Graph workloads list
    [n, rows, shape, labelings] entries: the shape under random
    relabelings drawn here, one per pass of a cycle.  rows is null for
    census, whose rows the run's seed draws."""
    rng = random.Random(f"labelings/{CATALOGUE_SEED}")

    def pool(rows, shapes, labelings=4):
        return [[n, rows, edges, [gen.relabel(rng, n, edges) for _ in range(labelings)]] for n, edges in shapes]

    oracle = pool(2, gen.gblock_shapes(6, 24, 6, CATALOGUE_SEED)) + pool(3, gen.gblock_shapes(4, 5, 4, CATALOGUE_SEED))
    groebner = pool(2, gen.connected_shapes(4))
    for n, rows, count in ((5, 3, 4), (7, 2, 8), (8, 2, 8), (9, 2, 6)):
        groebner += pool(rows, gen.gblock_shapes(n, count, 3, CATALOGUE_SEED))
    # more shapes where calls are cheap, so that many calls lie near the median
    census = []
    for n, count in ((12, 6), (13, 5), (14, 4), (15, 3), (16, 2)):
        census += pool(None, gen.gblock_shapes(n, count, 5, CATALOGUE_SEED), 2)
    return {"oracle": oracle, "groebner": groebner, "census": census}


def calls(cat: dict, folder) -> list[tuple[worker.Call, bool]]:
    """Every distinct call a pass can make, each flagged with whether it
    sets the reference (an unrelabeled shape or a corpus) or must agree
    with it (a relabeling)."""
    out = []

    def graph_call(command, n, rows, shape, edges, sets):
        path = worker.write_graph(folder / f"{len(out)}.txt", n, edges)
        argv = [command, "--graph", path, "--rows", str(rows), "--json"]
        out.append((worker.Call(argv, worker.ref_key(command, rows, gen.shape_key(n, shape))), sets))

    for workload in ("oracle", "groebner", "census"):
        for n, rows, shape, labelings in cat[workload]:
            command = worker.COMMANDS[workload]
            for r in worker.CENSUS_ROWS if rows is None else (rows,):
                graph_call(command, n, r, shape, shape, True)
                for labeled in labelings:
                    graph_call(command, n, r, shape, labeled, False)
    for rows in worker.SWEEP_ROWS:
        out.append((worker.corpus_call(*worker.SWEEP_CALL, rows), True))
    return out


def record(call: worker.Call) -> dict:
    _, _, code, text = worker.invoke(gbei_main, call.argv)
    if code != 0:
        raise SystemExit(f"reference call exited {code}: {' '.join(call.argv)}")
    return worker.project(json.loads(text))


def main() -> int:
    cat = catalogue()
    expect = {}
    worker.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.WORK) as tmp:
        for call, sets in calls(cat, Path(tmp)):
            got = record(call)
            if sets:
                expect[call.key] = got
            elif got != expect[call.key]:
                raise SystemExit(f"projection depends on labels: {call.key}")
            print(call.key, file=sys.stderr)
    worker.REFS.write_text(json.dumps({"catalogue": cat, "expect": expect}, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
