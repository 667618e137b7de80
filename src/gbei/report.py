"""Report construction for the command-line front end.

A report is a plain dict with stable field names (schemaVersion 1): input
echo, classification, cut-set census, closed-form invariants, and an
optional verification block with one pass/fail/skipped verdict per check.
The same dict drives both renderings; the text view contains exactly the
numbers of the structured view.  JSON serialization is canonical (sorted
keys, fixed separators) so that parse + re-render is byte-identical.
A corpus report can also be written one row at a time (`write_corpus`),
from rows that are built as they are read (`corpus_stream`), so that its
memory does not grow with the row count.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import contextmanager
from itertools import chain, islice

from .graphs import (
    Classification,
    Graph,
    SizeCap,
    classify,
    cut_set_census,
    enumerate_connected_graphs,
)
from .homology import hochster_betti
from .ideals import Analysis, BasisValidationError
from .poly import VarGrid, ideal_equal, intersect

SCHEMA_VERSION = 1

PRIME_CHECK_DEFAULT_LIMIT = 8

# the default largest grid (rows x vertices) the homology oracle attempts
DEFAULT_MAX_VARS = 12


@contextmanager
def _lap(laps: dict[str, float], stage: str):
    """Add the milliseconds spent in the block, to the microsecond, to
    laps[stage]."""
    start = time.perf_counter_ns()
    yield
    laps[stage] = round(laps.get(stage, 0) + (time.perf_counter_ns() - start) / 1e6, 3)


def _input_block(g: Graph, rows: int | None) -> dict:
    block = {"vertices": g.n, "edges": [list(e) for e in g.sorted_edges()]}
    if rows is not None:
        block["rows"] = rows
    return block


def _classification_block(c: Classification) -> dict:
    return {
        "chordal": c.chordal,
        "blockGraph": c.block_graph,
        "generalizedBlockGraph": c.generalized_block_graph,
        "cliqueNumber": c.clique_number,
    }


def _census_block(census_of) -> dict:
    """The census block from `census_of()`, or a skipped block with the
    reason when the graph is past the census size cap."""
    try:
        census = census_of()
    except SizeCap as err:  # valid input, no census
        return {"status": "skipped", "reason": str(err)}
    return {
        "cliqueNumber": census.clique_number,
        "a": {str(i): k for i, k in census.counts.items()},
        "minimalCutSets": {
            str(i): [sorted(s) for s in sets]
            for i, sets in sorted(census.minimal_cut_sets.items())
        },
        "cutPointSets": [
            {"set": sorted(t), "components": census.component_counts[t]}
            for t in census.cut_point_sets
        ],
    }


def _formula_block(analysis: Analysis) -> dict:
    try:
        block = {
            "dimension": analysis.dimension,
            "unmixed": analysis.unmixed,
        }
    except SizeCap as err:  # the census cap: every formula reads the census
        return {"status": "skipped", "reason": str(err)}
    if analysis.classification.generalized_block_graph:
        d = analysis.depth
        r = analysis.regularity
        block["status"] = "ok"
        block["depth"] = {"value": d.value, "kind": d.kind, "provenance": d.provenance}
        block["regularity"] = {"value": r.value, "kind": r.kind, "provenance": r.provenance}
    else:
        block["status"] = "skipped"
        block["reason"] = "not a generalized block graph: closed forms do not apply"
    return block


def _check(name: str, status: str, detail: str) -> dict:
    return {"name": name, "status": status, "detail": detail}


def _verification_block(analysis: Analysis, max_vars: int, with_primes: bool, laps: dict[str, float]) -> dict:
    g, rows = analysis.graph, analysis.rows
    nvars = rows * g.n

    # the closed form, checked equal to the engine's reduced basis, and its
    # squarefree initial ideal, which feeds the oracle; a failure after the
    # passing cross-check was built is the initial ideal's.  Both checks
    # read the packed basis: the leads are decoded only if the oracle runs
    cross = no_basis = None
    with _lap(laps, "basis"):
        try:
            size = len(analysis.basis.groebner())
            detail = f"closed form equals the engine's reduced basis: {size} vs {size} elements"
            cross = _check("groebner-cross-check", "pass", detail)
            analysis.require_squarefree_leads()
            square = _check("squarefree-initial", "pass", "all engine lead monomials squarefree")
        except BasisValidationError as err:
            if cross is None:
                no_basis = "skipped: basis construction failed"
                cross = _check("groebner-cross-check", "fail", str(err))
                square = _check("squarefree-initial", "fail", "basis construction failed")
            else:
                no_basis = "skipped: initial ideal not squarefree"
                square = _check("squarefree-initial", "fail", str(err))
        except SizeCap as err:  # the admissible-path or exponent cap: valid input, no basis
            no_basis = f"skipped: {err}"
            cross = _check("groebner-cross-check", "skipped", no_basis)
            square = _check("squarefree-initial", "skipped", no_basis)

    # the oracle runs whenever it can; its checks name the first reason they
    # are skipped: formulas undefined, --max-vars, no basis, the oracle cap
    oracle_table = why = None
    if nvars > max_vars:
        why = f"skipped: {nvars} variables exceeds --max-vars {max_vars}"
    elif no_basis is not None:
        why = no_basis
    else:
        try:  # a capped oracle raises before its lap is recorded
            with _lap(laps, "oracle"):
                oracle_table = hochster_betti(analysis.initial_ideal, VarGrid(rows, g.n))
        except SizeCap as err:
            why = f"skipped: {err}"
    if not analysis.classification.generalized_block_graph:
        why = "skipped: formulas undefined off generalized block graphs"
    if why is not None:
        depth = _check("depth-vs-oracle", "skipped", why)
        regularity = _check("regularity-vs-oracle", "skipped", why)
    else:
        d, got = analysis.depth.value, oracle_table.depth()
        depth = _check("depth-vs-oracle", "pass" if got == d else "fail", f"oracle {got}, formula {d}")
        r, got = analysis.regularity, oracle_table.regularity()
        if r.kind == "exact":
            ok, detail = got == r.value, f"oracle {got}, formula {r.value} (exact)"
        else:
            ok, detail = got <= r.value, f"oracle {got} <= bound {r.value}"
        regularity = _check("regularity-vs-oracle", "pass" if ok else "fail", detail)

    if with_primes or nvars <= PRIME_CHECK_DEFAULT_LIMIT:
        with _lap(laps, "primes"):
            primes = _prime_intersection_check(analysis)
    else:
        cap = f"skipped: {nvars} variables > {PRIME_CHECK_DEFAULT_LIMIT} (pass --with-primes to force)"
        primes = _check("prime-intersection", "skipped", cap)

    block = {"checks": [depth, regularity, cross, square, primes]}
    if oracle_table is not None:
        block["oracle"] = {
            "betti": {f"{i},{j}": b for (i, j), b in sorted(oracle_table.entries.items())},
            "depth": oracle_table.depth(),
            "projectiveDimension": oracle_table.projective_dimension(),
            "regularity": oracle_table.regularity(),
        }
    return block


def _prime_intersection_check(analysis: Analysis) -> dict:
    try:
        primes = analysis.minimal_primes
        acc = primes[0].ideal
        for p in primes[1:]:
            acc = intersect(acc, p.ideal)
        same = ideal_equal(acc, analysis.ideal)
    except SizeCap as err:  # valid input past the prime or exponent cap
        return _check("prime-intersection", "skipped", f"skipped: {err}")
    detail = f"intersection of {len(primes)} primes"
    return _check("prime-intersection", "pass" if same else "fail", detail)


def _graph_report(g: Graph, rows: int | None, command: str, classification_of, census_of) -> dict:
    """What every single-graph report shares: the input echo and the
    classification and census blocks, each read from its thunk inside its
    lap, so that a report built on an `Analysis` classifies and takes the
    census once, through the analysis."""
    laps: dict[str, float] = {}
    with _lap(laps, "classify"):
        cls = _classification_block(classification_of())
    with _lap(laps, "census"):
        cen = _census_block(census_of)
    return {
        "schemaVersion": SCHEMA_VERSION,
        "command": command,
        "input": _input_block(g, rows),
        "classification": cls,
        "census": cen,
        "timings": laps,
    }


def classify_report(g: Graph) -> dict:
    return _graph_report(g, None, "classify", lambda: classify(g), lambda: cut_set_census(g))


def _invariants(analysis: Analysis, command: str) -> dict:
    """The report shared by `invariants` and `verify`, timings included."""
    report = _graph_report(analysis.graph, analysis.rows, command, lambda: analysis.classification, lambda: analysis.census)
    with _lap(report["timings"], "formulas"):
        report["formulas"] = _formula_block(analysis)
    return report


def invariants_report(g: Graph, rows: int) -> dict:
    return _invariants(Analysis(g, rows), "invariants")


def verify_report(g: Graph, rows: int, max_vars: int = DEFAULT_MAX_VARS, with_primes: bool = False) -> dict:
    analysis = Analysis(g, rows)
    report = _invariants(analysis, "verify")
    report["verification"] = _verification_block(analysis, max_vars, with_primes, report["timings"])
    return report


def _corpus_row(g: Graph, rows: int, verify: bool, max_vars: int, with_primes: bool) -> dict:
    """One corpus entry; its analysis is dropped when the entry is built."""
    analysis = Analysis(g, rows)
    entry = {
        "edges": [list(e) for e in g.sorted_edges()],
        "classification": _classification_block(analysis.classification),
        "formulas": _formula_block(analysis),
    }
    if verify:
        ver = _verification_block(analysis, max_vars, with_primes, {})
        entry["verification"] = ver
        entry["verdict"] = verdict_of(ver["checks"])
    else:
        entry["verdict"] = "pass"
    return entry


def corpus_stream(n: int, rows: int, filter_name: str, verify: bool, max_vars: int = DEFAULT_MAX_VARS, with_primes: bool = False) -> dict:
    """The corpus report without its summary, with `rows` an iterator that
    builds each entry when it is read.  The enumeration's caps raise here,
    before any entry is built or written."""
    graphs = enumerate_connected_graphs(n, None if filter_name == "all" else filter_name)
    first = list(islice(graphs, 1))
    return {
        "schemaVersion": SCHEMA_VERSION,
        "command": "corpus",
        "input": {"vertices": n, "rows": rows, "filter": filter_name},
        "rows": (_corpus_row(g, rows, verify, max_vars, with_primes) for g in chain(first, graphs)),
    }


class CorpusTally:
    """The corpus summary, and whether a verdict or a formula block was
    skipped (what --strict reads), counted one entry at a time."""

    def __init__(self):
        self.summary = {"graphs": 0, "pass": 0, "fail": 0, "skipped": 0}
        self.skipped = False

    def add(self, entry: dict) -> dict:
        self.summary["graphs"] += 1
        self.summary[entry["verdict"]] += 1
        self.skipped |= entry["verdict"] == "skipped" or entry["formulas"]["status"] == "skipped"
        return entry


def corpus_report(n: int, rows: int, filter_name: str, verify: bool, max_vars: int = DEFAULT_MAX_VARS, with_primes: bool = False) -> dict:
    report = corpus_stream(n, rows, filter_name, verify, max_vars, with_primes)
    tally = CorpusTally()
    report["rows"] = [tally.add(entry) for entry in report["rows"]]
    report["summary"] = tally.summary
    return report


def verdict_of(checks) -> str:
    statuses = {c["status"] for c in checks}
    if "fail" in statuses:
        return "fail"
    if statuses == {"skipped"}:
        return "skipped"
    return "pass"


def has_failure(report: dict) -> bool:
    if report["command"] == "corpus":
        return report["summary"]["fail"] > 0
    ver = report.get("verification")
    return bool(ver) and verdict_of(ver["checks"]) == "fail"


def has_skip(report: dict) -> bool:
    skipped_census = report.get("census", {}).get("status") == "skipped"
    skipped_formula = report.get("formulas", {}).get("status") == "skipped"
    ver = report.get("verification")
    skipped_check = bool(ver) and any(c["status"] == "skipped" for c in ver["checks"])
    if report["command"] == "corpus":
        return report["summary"]["skipped"] > 0 or any(
            r["formulas"]["status"] == "skipped" for r in report["rows"]
        )
    return skipped_census or skipped_formula or skipped_check


# a report is a tree of fresh dicts and lists, so the per-container cycle
# check, which costs most on the small per-row calls of write_corpus, is off
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def to_json(report: dict) -> str:
    return _ENCODER.encode(report) + "\n"


def write_corpus(out, report: dict, as_json: bool) -> CorpusTally:
    """Write a corpus report to `out` one entry at a time, as canonical JSON
    (byte for byte `to_json` of the whole report) or as text, and return
    the tally of what was written.  `report["rows"]` may be an iterator;
    the summary is counted from the rows, not read from the report.  In
    canonical key order the rows come before the summary, so no entry is
    held once it is written."""
    tally = CorpusTally()
    if as_json:
        enc = _ENCODER.encode
        out.write('{"command":' + enc(report["command"]) + ',"input":' + enc(report["input"]) + ',"rows":[')
        sep = ""
        for entry in report["rows"]:
            out.write(sep + enc(tally.add(entry)))
            sep = ","
        out.write('],"schemaVersion":' + enc(report["schemaVersion"]) + ',"summary":' + enc(tally.summary) + "}\n")
        return tally
    inp = report["input"]
    out.write(f"corpus: connected graphs on {inp['vertices']} vertices, rows={inp['rows']}, filter={inp['filter']}\n")
    for idx, entry in enumerate(report["rows"], start=1):
        out.write(_corpus_line(idx, tally.add(entry)))
    s = tally.summary
    out.write(f"summary: {s['graphs']} graphs, {s['pass']} pass, {s['fail']} fail, {s['skipped']} skipped\n")
    return tally


def _corpus_line(idx: int, row: dict) -> str:
    edges = " ".join(f"{u}-{v}" for u, v in row["edges"])
    tags = ["gblock"] if row["classification"]["generalizedBlockGraph"] else []
    form = row["formulas"]
    if form["status"] == "ok":
        tags.append(f"depth={form['depth']['value']}")
        rel = "=" if form["regularity"]["kind"] == "exact" else "<="
        tags.append(f"reg{rel}{form['regularity']['value']}")
    return f"  #{idx} [{row['verdict']}] {edges or '(no edges)'} {' '.join(tags)}".rstrip() + "\n"


def _fmt_set(s) -> str:
    return "{" + ",".join(str(v) for v in s) + "}"


def render_text(report: dict) -> str:
    if report["command"] == "corpus":
        buf = io.StringIO()
        write_corpus(buf, report, as_json=False)
        return buf.getvalue()

    inp = report["input"]
    edges = " ".join(f"{u}-{v}" for u, v in inp["edges"])
    lines = [f"graph: {inp['vertices']} vertices; edges: {edges or '(none)'}"]
    if "rows" in inp:
        lines.append(f"rows: {inp['rows']}")
    c = report["classification"]
    lines.append(
        "classification: chordal={} blockGraph={} generalizedBlockGraph={} cliqueNumber={}".format(
            *(str(c[k]).lower() for k in ("chordal", "blockGraph", "generalizedBlockGraph")),
            c["cliqueNumber"],
        )
    )
    cen = report["census"]
    if cen.get("status") == "skipped":
        lines.append(f"census: skipped ({cen['reason']})")
    else:
        a_txt = " ".join(f"a_{i}={cen['a'][i]}" for i in sorted(cen["a"], key=int)) or "none"
        lines.append(f"census: cliqueNumber={cen['cliqueNumber']}; minimal cut set counts: {a_txt}")
        for i in sorted(cen["minimalCutSets"], key=int):
            sets = " ".join(_fmt_set(s) for s in cen["minimalCutSets"][i])
            lines.append(f"  minimal cut sets of size {i}: {sets}")
        cps = " ".join(
            f"{_fmt_set(t['set'])}(c={t['components']})" for t in cen["cutPointSets"]
        )
        lines.append(f"  cut-point sets: {cps}")
    form = report.get("formulas")
    if form:
        if "dimension" in form:
            lines.append(f"dimension: {form['dimension']}; unmixed: {str(form['unmixed']).lower()}")
        if form["status"] == "ok":
            d, r = form["depth"], form["regularity"]
            lines.append(f"depth: {d['value']} ({d['kind']}; {d['provenance']})")
            lines.append(f"regularity: {r['value']} ({r['kind']}; {r['provenance']})")
        else:
            lines.append(f"formulas: skipped ({form['reason']})")
    ver = report.get("verification")
    if ver:
        lines.append("verification:")
        for chk in ver["checks"]:
            lines.append(f"  {chk['name']}: {chk['status']} ({chk['detail']})")
        oracle = ver.get("oracle")
        if oracle:
            betti = " ".join(f"b[{key}]={val}" for key, val in oracle["betti"].items())
            lines.append(
                f"oracle: depth={oracle['depth']} projdim={oracle['projectiveDimension']} "
                f"regularity={oracle['regularity']}"
            )
            lines.append(f"  betti: {betti}")
    timings = report.get("timings")
    if timings:
        stage_txt = " ".join(f"{k}={v:.3f}ms" for k, v in sorted(timings.items()))
        lines.append(f"timings: {stage_txt}")
    return "\n".join(lines) + "\n"
