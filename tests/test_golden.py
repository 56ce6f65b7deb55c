"""The CLI's committed outputs, byte for byte: every case of
tests/golden/cli.json rerun in process (see regenerate_golden.py)."""

import json
import math

from regenerate_golden import GOLDEN, run


def _cells(lines: list[str]) -> dict:
    """(line, column) -> text of every CSV cell; '#' lines are one cell."""
    cells, header = {}, None
    for number, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if line.startswith("#"):
            key, _, value = line.partition(": ")
            cells[number, key] = value
            continue
        fields = line.split(",")
        if header is None:
            header = fields
        for i, field in enumerate(fields):
            cells[number, header[i] if i < len(header) else str(i)] = field
    return cells


def _relative(old: str, new: str) -> str:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return "text"
    if a == b:
        return "0"
    scale = max(abs(a), abs(b))
    return f"{abs(a - b) / scale:.3g}" if math.isfinite(scale) and scale else "inf"


def _differences(case: dict, rc: int, stdout: str, stderr: str) -> list[str]:
    found = []
    if rc != case["rc"]:
        found.append(f"exit code {case['rc']} -> {rc}")
    if stderr != "".join(case["stderr"]):
        found.append(f"stderr {''.join(case['stderr'])!r} -> {stderr!r}")
    old, new = _cells(case["stdout"]), _cells(stdout.splitlines(keepends=True))
    for key in sorted(old.keys() | new.keys(), key=str):
        a, b = old.get(key, "<missing>"), new.get(key, "<missing>")
        if a != b:
            found.append(f"line {key[0]} {key[1]}: {a} -> {b} (relative {_relative(a, b)})")
    if not found and stdout != "".join(case["stdout"]):
        found.append("stdout differs in separators or line ends")
    return found


def test_every_golden_case_prints_its_committed_output():
    cases = json.loads(GOLDEN.read_text())["cases"]
    assert cases
    failures = []
    for case in cases:
        for line in _differences(case, *run(case["argv"], case["config"])):
            failures.append(f"{case['id']}: {line}")
    assert not failures, "\n".join(failures)
