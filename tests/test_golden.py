"""Golden CLI outputs: every data/ file through every command, text and --json.

Each case records the exit code, stdout and stderr of one in-process run of
`blca.cli.main`.  Text output and exit codes must match exactly; --json
stdout is compared as parsed JSON, with floats matching to a relative 1e-9
(the oracles use numpy, whose builds may differ in the last ulp, and the
gaussian ascent's logarithms and square roots come from the platform's C
library).

Regenerate, only when an output change is intended, with

    PYTHONPATH=src python3 tests/test_golden.py --write

which keeps every recorded entry that a fresh run still matches, so only the
outputs that changed are rewritten.
"""
import contextlib
import io
import json
import math
import os
import sys

from blca.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "cli_outputs.json")
COMMANDS = ("analyze", "constant", "dual", "reduce", "verify")


def cases():
    for name in sorted(os.listdir(os.path.join(ROOT, "data"))):
        for command in COMMANDS:
            for as_json in (False, True):
                yield [command, f"data/{name}"] + (["--json"] if as_json else [])


def run_cli(argv):
    """Exit code, stdout and stderr of one run, from the repository root so
    that file names in messages are relative."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def same_json(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return got == want or math.isclose(got, want, rel_tol=1e-9)
    if isinstance(want, dict) and isinstance(got, dict):
        return list(got) == list(want) and all(same_json(got[k], want[k]) for k in want)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(same_json(g, w) for g, w in zip(got, want))
    return type(got) is type(want) and got == want


def matches(argv, got, want) -> bool:
    """The same exit code and stderr, and the same stdout: as text, or as
    parsed JSON under --json."""
    if (got["exit"], got["stderr"]) != (want["exit"], want["stderr"]):
        return False
    if "--json" in argv and want["stdout"] and got["stdout"]:
        return same_json(json.loads(got["stdout"]), json.loads(want["stdout"]))
    return got["stdout"] == want["stdout"]


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_cli_outputs_match_golden():
    golden = load_golden()
    keys = [" ".join(argv) for argv in cases()]
    assert sorted(keys) == sorted(golden)
    for argv, key in zip(cases(), keys):
        assert matches(argv, run_cli(argv), golden[key]), key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    recorded = load_golden() if os.path.exists(GOLDEN) else {}
    fresh = {}
    for argv in cases():
        key, got = " ".join(argv), run_cli(argv)
        want = recorded.get(key)
        fresh[key] = want if want is not None and matches(argv, got, want) else got
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(fresh, fh, indent=1)
        fh.write("\n")
