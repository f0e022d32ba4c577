"""Property test of the CLI exit-code contract over random configurations.

Whatever the subcommand, field, sequence or bounds, a run ends with exit
0 (checks passed), 1 (a mathematical check failed) or 2 (bad
configuration); it never ends in a traceback, and exit 2 comes exactly
with an ``error:`` line on stderr.
"""

import contextlib
import io
import json
import traceback

from hypothesis import HealthCheck, example, given, settings, \
    strategies as st

from koszulpow.cli import run

SEQUENCE_FILES = {
    "linear": ["x1+2*x2-x3", "x2-x3", "x3"],
    "torsion": ["2*x1", "x2", "x3"],
    "non-regular": ["x1*x2", "x1*x2"],
    "constant": ["3", "x2"],
    "unparsable": ["x1+*"],
    "fraction": ["1/2*x1", "x2", "x3"],
}


def _sequence(kind: str, n: int, tmp) -> str:
    if kind == "vars":
        return "vars"
    if kind == "powers":
        return "powers:" + ",".join(str(1 + i % 2) for i in range(n))
    if kind == "bad-powers":
        return "powers:0" + ",1" * (n - 1)
    if kind == "missing-file":
        return f"file:{tmp / 'missing.json'}"
    if kind == "explicit-bad":                       # not JSON
        return "explicit:[x1"
    if kind == "explicit-nonstring":                 # a list of numbers
        return "explicit:" + json.dumps(list(range(1, n + 1)))
    path = tmp / f"{kind}.json"
    path.write_text(json.dumps(SEQUENCE_FILES[kind][:n]))
    return f"file:{path}"


def run_captured(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as e:          # argparse rejects before run() does
            code = e.code
        except Exception:                # reported as a failed property
            traceback.print_exc()
            code = None
    return code, err.getvalue()


OPTIONAL_INT = st.one_of(st.none(), st.integers(-1, 4))


@settings(max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["build", "verify", "tor", "spectral",
                                "splice"]),
       n=st.integers(1, 3), s=st.integers(1, 3),
       field=st.sampled_from(["Q", "Z", "Fp:2", "Fp:5", "Fp:4"]),
       kind=st.sampled_from(["vars", "powers", "bad-powers", "missing-file",
                             "explicit-bad", "explicit-nonstring",
                             *SEQUENCE_FILES]),
       max_internal=OPTIONAL_INT, max_degree=OPTIONAL_INT,
       workers=st.one_of(st.none(), st.integers(0, 3)))
@example(command="tor", n=2, s=1, field="Q", kind="explicit-bad",
         max_internal=None, max_degree=None, workers=None)
@example(command="tor", n=2, s=1, field="Q", kind="explicit-nonstring",
         max_internal=None, max_degree=None, workers=None)
@example(command="tor", n=2, s=1, field="Fp:2", kind="fraction",
         max_internal=None, max_degree=None, workers=None)
def test_exit_code_contract(tmp_path, command, n, s, field, kind,
                            max_internal, max_degree, workers):
    argv = [command, "--n", str(n), "--s", str(s), "--field", field,
            "--sequence", _sequence(kind, n, tmp_path)]
    for flag, value in (("--max-internal", max_internal),
                        ("--max-degree", max_degree),
                        ("--workers", workers)):
        if value is not None:
            argv += [flag, str(value)]
    code, err = run_captured(argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err, (argv, err)
    assert (code == 2) == err.startswith("error:"), (argv, err)
