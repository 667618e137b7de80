"""Every report of the ledger's calls is byte-identical to the one recorded
(timings excluded), and every input error's stderr to the one recorded.
A change that alters a report on purpose rewrites the
ledger with `PYTHONPATH=src python3 tests/report_ledger.py` and lists each
changed call."""

from __future__ import annotations

import json

from report_ledger import LEDGER, digest, parts, run

LEDGER_CALLS = json.loads(LEDGER.read_text(encoding="utf-8"))


def _first_moved_part(call: dict, code: int, stdout: str, stderr: str) -> str:
    now = parts(stdout, "--json" in call["argv"], stderr)
    for (name, d), old in zip(now, call["parts"]):
        if d != old:
            return name
    if len(now) != len(call["parts"]):
        return f"part count {len(call['parts'])} -> {len(now)}"
    return f"exit code or bytes outside the parts (exit {code})"


def test_the_ledger_covers_every_command_and_the_oracle():
    commands = {call["argv"][0] for call in LEDGER_CALLS}
    assert commands == {"classify", "invariants", "verify", "corpus"}
    assert len({call["key"] for call in LEDGER_CALLS}) == len(LEDGER_CALLS)
    # the verify calls at the oracle's 12 variables pin its Betti tables
    assert sum(call["key"].startswith("verify/oracle") for call in LEDGER_CALLS) >= 50
    # the census past its cap, and --strict with a skip (exit 3) and without
    strict = {call["key"].split("/")[1] for call in LEDGER_CALLS if "--strict" in call["argv"]}
    assert {"path-n21--strict", "path-n21-r2--strict", "oracle0-n6--strict"} <= strict
    # input errors: a malformed file, each bad count, and the enumeration cap
    errors = {call["key"].split("/")[1] for call in LEDGER_CALLS if call["key"].startswith("input-error/")}
    assert {"edge-outside", "rows-1", "max-vars--1", "corpus-n8", "corpus-n0"} <= errors


def test_every_report_replays_byte_identically(tmp_path):
    moved = []
    for call in LEDGER_CALLS:
        code, stdout, stderr = run(call, tmp_path)
        if digest(code, stdout, stderr) != call["sha256"]:
            moved.append(f"{call['key']}: {_first_moved_part(call, code, stdout, stderr)}")
    assert not moved, f"{len(moved)} of {len(LEDGER_CALLS)} calls differ from the ledger:\n" + "\n".join(moved)
