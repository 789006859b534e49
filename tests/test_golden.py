"""Golden CLI output: the --json document of a fixed command set, on both
backends, must match the recorded file byte for byte.

Each line of ``golden/cli_json.jsonl`` holds one command's argv (ring files
named by key of ``RINGS``), its exit code and its exact stdout.  A change
that must alter an output regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --regenerate

which prints the index and the moved JSON fields (old -> new) of every
record it rewrites, and says in CHANGES.md why the output moved.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ringbox.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli_json.jsonl"

RINGS = {
    "z12.ring": "ring.kind = modular\nring.n = 12\n",
    "f4.ring": "ring.kind = polyquot\nring.p = 2\nring.f = 1, 1, 1\n",
    "z6.ring": "ring.kind = modular\nring.n = 6\n",
}

# the criterion-9 commands plus a matrix query-scaling table
COMMANDS = [
    ["basis", "--ring", "z12.ring", "--ideal", "4,6"],
    ["order", "--ring", "z12.ring", "--ideal", "3"],
    ["ring-order", "--ring", "f4.ring"],
    ["equal", "--ring", "z12.ring", "--ideal", "2", "--ideal2", "10"],
    ["member", "--ring", "z12.ring", "--ideal", "4", "--element", "8"],
    ["witness", "--ring", "z12.ring", "--ideal", "4", "--element", "8"],
    ["intersect", "--ring", "z12.ring", "--ideal", "2", "--ideal2", "3"],
    ["colon", "--ring", "z12.ring", "--ideal", "4", "--ideal2", "2"],
    ["annihilate", "--ring", "z12.ring", "--elements", "4"],
    ["unit", "--ring", "f4.ring", "--element", "[0, 1]"],
    ["inverse", "--ring", "f4.ring", "--element", "[0, 1]"],
    ["one", "--ring", "z12.ring"],
    ["zero", "--ring", "z12.ring"],
    ["neg", "--ring", "z12.ring", "--element", "5"],
    ["solve", "--ring", "z12.ring", "--a", "4", "--b", "8"],
    ["prime", "--ring", "z12.ring", "--ideal", "3"],
    ["prime", "--ring", "z12.ring", "--ideal", "3", "--prime-period-finding"],
    ["hom-kernel", "--ring", "z12.ring", "--ring2", "z6.ring", "--hom", "mod"],
    ["hom-injective", "--ring", "z12.ring", "--ring2", "z6.ring", "--hom", "mod"],
    ["hom-surjective", "--ring", "z12.ring", "--ring2", "z6.ring", "--hom", "mod"],
    ["bench-queries", "--family", "modular", "--k-min", "4", "--k-max", "6"],
    ["bench-queries", "--family", "matrix2", "--k-min", "1", "--k-max", "2"],
]

CASES = [
    cmd + ["--json", "--backend", backend, "--seed", "31337"]
    for backend in ("exact", "sampled")
    for cmd in COMMANDS
]


def _run(argv, ring_dir: Path):
    full = [str(ring_dir / a) if a in RINGS else a for a in argv]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(full)
    return code, buf.getvalue()


def _write_rings(ring_dir: Path):
    for name, text in RINGS.items():
        (ring_dir / name).write_text(text)


def _load():
    return [json.loads(line) for line in GOLDEN.read_text().splitlines()]


def test_golden_file_covers_cases():
    assert [rec["argv"] for rec in _load()] == CASES


@pytest.mark.parametrize("index", range(len(CASES)))
def test_golden_cli_json(index, tmp_path):
    rec = _load()[index]
    _write_rings(tmp_path)
    code, out = _run(rec["argv"], tmp_path)
    assert code == rec["exit"]
    assert out.encode() == rec["stdout"].encode()


def _moved(old, new, path="stdout"):
    """(path, old, new) for each JSON leaf that differs between two values."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _moved(old.get(key), new.get(key), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _moved(a, b, f"{path}[{i}]")
    elif old != new:
        yield path, old, new


def _regenerate():
    """Rewrite the golden file; print each rewritten record's index and the
    JSON fields that moved, old -> new."""
    before = {tuple(rec["argv"]): rec for rec in _load()} if GOLDEN.exists() else {}
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        _write_rings(Path(tmp))
        for index, argv in enumerate(CASES):
            code, out = _run(argv, Path(tmp))
            rec = {"argv": argv, "exit": code, "stdout": out}
            lines.append(json.dumps(rec, separators=(",", ":")))
            old = before.get(tuple(argv))
            if old is None:
                print(f"record {index}: new")
            elif old != rec:
                print(f"record {index}: {' '.join(argv)}")
                if old["exit"] != code:
                    print(f"  exit {old['exit']} -> {code}")
                for path, a, b in _moved(json.loads(old["stdout"]), json.loads(out)):
                    print(f"  {path}: {json.dumps(a)} -> {json.dumps(b)}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} records to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden.py --regenerate")
    _regenerate()
