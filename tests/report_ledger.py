"""The report ledger: a fixed list of CLI calls and one sha256 per call.

Each hash covers the call's exit code and its stdout, with the run
metrics removed (the JSON `timings` key, the text `timings:` line), so it
pins every printed result: provenance and detail strings, Betti tables,
cut-set lists, corpus rows and the text rendering.  A call that writes to
stderr, an input error (exit 2), has its stderr in the hash as well; the
input errors the ledger calls print no path and no argparse usage text,
so their stderr is the same on every machine.  `parts` keeps a short
digest of each part of a report, in order (a JSON key two levels down, a
corpus row, a text line, then stderr when there is any), so that a replay
that differs can name the first part that moved.

The graphs are the first labeling of each shape of the benchmark's
catalogue (`perfbench/refs.json`), read once when the ledger is recorded
and stored in the ledger, so a replay reads nothing outside `tests/`.

    PYTHONPATH=src python3 tests/report_ledger.py

rewrites `tests/report_ledger.json` from the code in `src/`.  A change
that alters a report on purpose reruns it and lists each changed call;
`tests/test_report_ledger.py` replays the file.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gbei.cli import main

HERE = Path(__file__).resolve().parent
LEDGER = HERE / "report_ledger.json"
REFS = HERE.parent / "perfbench" / "refs.json"
GRAPH = "{graph}"  # stands for the graph file's path in a stored argv
TIMINGS_JSON = re.compile(r',"timings":\{[^{}]*\}')
TIMINGS_TEXT = re.compile(r"^timings:.*\n", re.MULTILINE)


def graph_text(n: int, edges) -> str:
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def calls(catalogue: dict) -> list[dict]:
    """Every call of the ledger, each {"key", "argv", "graph"}: the graph
    is the text of the file that "{graph}" in argv names, or None."""
    out = []

    def add(key, argv, graph=None):
        out.append({"key": key, "argv": argv, "graph": graph})

    def graph_calls(command, name, n, rows, labelings, extra=()):
        argv = [command, "--graph", GRAPH, *(["--rows", str(rows)] if rows else []), *extra]
        label = f"{command}/{name}-n{n}" + (f"-r{rows}" if rows else "") + "".join(extra)
        add(f"{label}/text", argv, graph_text(n, labelings[0]))
        add(f"{label}/json", argv + ["--json"], graph_text(n, labelings[0]))

    for i, (n, rows, _, labelings) in enumerate(catalogue["oracle"]):
        graph_calls("verify", f"oracle{i}", n, rows, labelings)
        if i % 4 == 0:
            graph_calls("classify", f"oracle{i}", n, None, labelings)
    for i, (n, rows, _, labelings) in enumerate(catalogue["groebner"]):
        # the prime intersection is cheap on 4 vertices
        graph_calls("verify", f"groebner{i}", n, rows, labelings, ("--with-primes",) if n == 4 else ())
    for i, (n, _, _, labelings) in enumerate(catalogue["census"]):
        for rows in (2, 3):
            graph_calls("invariants", f"census{i}", n, rows, labelings)
    # a path past the census cap: the census, the formulas and every check
    # skip on their own caps, and --strict exits 3
    path = [(v, v + 1) for v in range(1, 21)]
    for command, rows in (("classify", None), ("invariants", 2), ("verify", 2)):
        graph_calls(command, "path", 21, rows, [path])
        graph_calls(command, "path", 21, rows, [path], ("--strict",))
    # nothing skipped: --strict exits 0
    n, _, _, labelings = catalogue["oracle"][0]
    graph_calls("classify", "oracle0", n, None, labelings, ("--strict",))
    # input errors (exit 2), each message with its line number or its value
    for name, text in (
        ("count-not-an-integer", "# a comment line\nfive\n1 2\n"),
        ("edge-outside", "3\n1 2\n\n2 4\n"),
        ("loop", "3\n1 2 # an edge\n2 2\n"),
    ):
        add(f"input-error/{name}/text", ["classify", "--graph", GRAPH], text)
    add("input-error/rows-1/text", ["invariants", "--graph", GRAPH, "--rows", "1"], graph_text(2, [(1, 2)]))
    add("input-error/max-vars--1/text", ["verify", "--graph", GRAPH, "--rows", "2", "--max-vars", "-1"],
        graph_text(2, [(1, 2)]))
    for n in (8, 0):
        add(f"input-error/corpus-n{n}/text", ["corpus", "--enumerate", str(n), "--rows", "2"])
    for n in range(1, 6):
        for rows in (2, 3):
            for fmt in ("text", "json"):
                tail = ["--json"] if fmt == "json" else []
                base = ["corpus", "--enumerate", str(n), "--rows", str(rows)]
                add(f"corpus/n{n}-r{rows}-gblock/{fmt}", base + tail)
                add(f"corpus/n{n}-r{rows}-all/{fmt}", base + ["--filter", "all"] + tail)
                if n <= 4 or rows == 2:
                    add(f"corpus/n{n}-r{rows}-gblock-verify/{fmt}", base + ["--verify"] + tail)
        if n <= 3:
            add(f"corpus/n{n}-r2-block-verify-primes/json", ["corpus", "--enumerate", str(n), "--rows", "2",
                "--filter", "block", "--verify", "--with-primes", "--json"])
    return out


def run(call: dict, folder: Path) -> tuple[int, str, str]:
    """Exit code, stdout with the run metrics removed, and stderr of one
    call."""
    argv = list(call["argv"])
    if call["graph"] is not None:
        path = folder / "graph.txt"
        path.write_text(call["graph"], encoding="utf-8")
        argv[argv.index(GRAPH)] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    return code, TIMINGS_JSON.sub("", text) if "--json" in argv else TIMINGS_TEXT.sub("", text), err.getvalue()


def digest(code: int, stdout: str, stderr: str) -> str:
    """The call's hash; stderr is folded in only when there is any, so a
    call that writes none hashes its exit code and stdout alone."""
    text = f"{code}\n{stdout}" + (f"\0stderr\n{stderr}" if stderr else "")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parts(stdout: str, is_json: bool, stderr: str) -> list[tuple[str, str]]:
    """(name, short digest) of each part of a report, in order: each JSON
    key two levels down (each corpus row for `rows`), or each text line;
    then stderr, when there is any."""
    if is_json:
        named = []
        for key, value in (json.loads(stdout) if stdout else {}).items():
            if isinstance(value, dict):
                named += [(f"{key}.{k}", json.dumps(v, sort_keys=True)) for k, v in value.items()]
            elif isinstance(value, list):
                named += [(f"{key}[{i}]", json.dumps(v, sort_keys=True)) for i, v in enumerate(value)]
            else:
                named.append((key, json.dumps(value)))
    else:
        named = [(f"line {i + 1}", line) for i, line in enumerate(stdout.splitlines())]
    if stderr:
        named.append(("stderr", stderr))
    return [(name, hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]) for name, text in named]


def entry(call: dict, folder: Path) -> dict:
    code, stdout, stderr = run(call, folder)
    return {
        **call,
        "sha256": digest(code, stdout, stderr),
        "parts": [d for _, d in parts(stdout, "--json" in call["argv"], stderr)],
    }


def record(folder: Path) -> list[dict]:
    catalogue = json.loads(REFS.read_text(encoding="utf-8"))["catalogue"]
    return [entry(call, folder) for call in calls(catalogue)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        ledger = record(Path(tmp))
    lines = ",\n".join(json.dumps(e, sort_keys=True) for e in ledger)  # one call a line
    LEDGER.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(ledger)} calls to {LEDGER}", file=sys.stderr)
