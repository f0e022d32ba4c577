"""Correctness checks for one CLI job's outcome.

The expected values are the paper's closed forms, not outputs recorded
from the program:

* Tor_q(R/I, R/I^s) has rank 1 for q = 0 and
  C(n+s-1, s+q-1) * C(s+q-2, q-1) for 1 <= q <= n
  (Eagon-Northcott; Buchsbaum-Eisenbud);
* the resolution module in homological degree q has rank
  C(n, q) * C(n+s-1, s-1).
"""

from __future__ import annotations

import json
from math import comb


def tor_ranks(n: int, s: int) -> list[int]:
    return [1] + [comb(n + s - 1, s + q - 1) * comb(s + q - 2, q - 1)
                  for q in range(1, n + 1)]


def module_ranks(n: int, s: int) -> list[int]:
    return [comb(n, q) * comb(n + s - 1, s - 1) for q in range(n + 1)]


def expected_for(argv: list[str]) -> dict:
    """Closed-form expectations for a CLI argument list, keyed by the report
    field they pin ("ranks", "collapse.tor_ranks", "dims", "identical")."""
    command = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    n, s = int(opts["--n"]), int(opts["--s"])
    if command == "tor":
        return {"ranks": tor_ranks(n, s)}
    if command == "spectral":
        return {"collapse.tor_ranks": tor_ranks(n, s)}
    if command == "build":
        return {"dims": module_ranks(n, s)}
    if command == "splice":
        return {"identical": True}
    return {}


def _field(report: dict, dotted: str):
    node = report
    for key in dotted.split("."):
        node = node[key]
    return node


def check_job(exit_code: int, stdout: bytes, stderr: bytes,
              expected: dict, first_stdout: bytes | None) -> str | None:
    """Return None when the job passed, else a one-line reason.

    first_stdout is the report the same job printed in an earlier pass of
    the run (None on the first pass); the bytes must repeat exactly.  Never
    raises on a malformed report: that is a failure like any other.
    """
    if b"Traceback (most recent call last)" in stderr:
        return "python traceback"
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        doc = json.loads(stdout)
    except ValueError as e:
        return f"report is not JSON: {e}"
    if not isinstance(doc, dict) or doc.get("ok") is not True:
        return '"ok" is not true'
    report = doc.get("report")
    for key, want in expected.items():
        try:
            got = _field(report, key)
        except (KeyError, TypeError):
            return f"report has no {key}"
        if got != want:
            return f"{key} = {got}, closed form gives {want}"
    if first_stdout is not None and stdout != first_stdout:
        return "report bytes differ from an earlier pass"
    return None
