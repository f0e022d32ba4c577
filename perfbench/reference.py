"""Host-speed reference: a fixed pure-Python job that does not depend on
koszulpow.

The benchmark runs it in a fresh interpreter between the CLI jobs and
divides the jobs' times by its time (see run.measure).  It does the same
kinds of work as a CLI job, at a similar size: interpreter start-up, about
0.1 s of imports (a CLI job spends that importing koszulpow), then
elimination over Fraction and over a prime field, and a JSON report.
Changing this file changes the unit every end-to-end job time is given in,
so keep it as it is.
"""

import argparse  # noqa: F401  (module loading, as a CLI job does)
import ast  # noqa: F401
import calendar  # noqa: F401
import concurrent.futures  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import difflib  # noqa: F401
import email.parser  # noqa: F401
import http.client  # noqa: F401
import inspect  # noqa: F401
import itertools
import json
import logging  # noqa: F401
import pathlib  # noqa: F401
import pprint  # noqa: F401
import random
import statistics  # noqa: F401
import sys
import tarfile  # noqa: F401
import tempfile  # noqa: F401
import textwrap  # noqa: F401
import typing  # noqa: F401
import uuid  # noqa: F401
import xml.dom.minidom  # noqa: F401
import zipfile  # noqa: F401
from fractions import Fraction

P = 30011


def rank(rows: list[list], inverse, norm) -> int:
    """Row-reduce rows in place; inverse(x) gives 1/x in the field and
    norm(x) the canonical form of x."""
    r = 0
    n_cols = len(rows[0])
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = inverse(rows[r][c])
        rows[r] = [norm(x * inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [norm(a - f * b) for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def main() -> int:
    rng = random.Random(20130508)
    q_rows = [[Fraction(rng.randint(-2, 2)) for _ in range(16)]
              for _ in range(16)]
    p_rows = [[rng.randrange(P) for _ in range(70)] for _ in range(70)]
    ranks = {
        "q": rank(q_rows, lambda x: 1 / x, lambda x: x),
        "p": rank(p_rows, lambda x: pow(x, P - 2, P), lambda x: x % P),
        "pairs": sum(1 for _ in itertools.combinations(range(300), 2)),
    }
    json.dump(ranks, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
