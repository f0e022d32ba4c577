"""Command-line driver: build, verify, and report on the whole pipeline.

Five subcommands share one configuration shape and one JSON report
format.  Reports carry a schema version and are rendered with sorted
keys, so identical configurations produce byte-identical output; that
determinism is part of the contract and is tested.

Exit codes: 0 when every check in the run passed, 1 when a mathematical
check failed, 2 for configuration or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, asdict

from .poly import Domain, RegularSequenceSpec, parse_domain, parse_poly
from .chain import verify_complex
from .koszul import koszul_complex, verify_identities
from .resolution import build_k_ris, verify_exactness
from .homology import tor, freeness_check, koszul_regularity_probe
from .spectral import e1_page, e2_page, off_support_cells, collapse_check, \
    support_blocks
from .extensions import power_ses, split_power_ses, iterated_splice, \
    theta_representative

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    n_vars: int
    field: str                           # "Q" | "Z" | "Fp:p"
    sequence: str                        # "vars" | "powers:a1,.." | "file:PATH"
    s: int
    max_degree: int | None               # cap on reported homological degrees
    max_internal: int | None             # internal-degree bound D
    workers: int
    out: str | None

    def domain(self) -> Domain:
        return parse_field(self.field)

    def spec(self) -> RegularSequenceSpec:
        return parse_sequence(self.sequence, self.n_vars, self.domain())


def parse_field(text: str) -> Domain:
    try:
        return parse_domain(text)
    except ValueError as e:
        raise ConfigError(f"bad field {text!r}: {e}") from None


def _read_sequence_file(path: str) -> list[str]:
    try:
        with open(path) as fh:
            body = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read sequence file: {e}") from None
    body = body.strip()
    if body.startswith("["):
        try:
            items = json.loads(body)
        except json.JSONDecodeError as e:
            raise ConfigError(f"bad sequence file {path}: {e}") from None
        if not isinstance(items, list) or \
                not all(isinstance(x, str) for x in items):
            raise ConfigError(f"sequence file {path} must hold a list of "
                              f"polynomial strings")
        return items
    return [ln for ln in body.splitlines() if ln.strip()]


def parse_sequence(text: str, n_vars: int, domain: Domain) -> RegularSequenceSpec:
    if text == "vars":
        if n_vars < 1:
            raise ConfigError("--sequence vars needs --n >= 1")
        return RegularSequenceSpec.variables(n_vars, domain)
    if text.startswith("powers:"):
        try:
            expo = tuple(int(a) for a in text[len("powers:"):].split(","))
        except ValueError:
            raise ConfigError(f"bad exponent list in {text!r}") from None
        if n_vars and n_vars != len(expo):
            raise ConfigError(f"--n {n_vars} disagrees with {len(expo)} "
                              f"exponents")
        try:
            return RegularSequenceSpec.variable_powers(expo, domain)
        except ValueError as e:
            raise ConfigError(str(e)) from None
    if text.startswith("file:"):
        strings = _read_sequence_file(text[len("file:"):])
        return explicit_spec(strings, n_vars, domain)
    raise ConfigError(f"unknown sequence source {text!r}")


def explicit_spec(strings: list[str], n_vars: int,
                  domain: Domain) -> RegularSequenceSpec:
    if n_vars < 1:
        raise ConfigError("explicit sequences need --n >= 1")
    if not strings:
        raise ConfigError("explicit sequence is empty")
    polys = []
    for text in strings:
        try:
            p = parse_poly(text, n_vars, domain)
        except ValueError as e:
            raise ConfigError(f"cannot parse {text!r}: {e}") from None
        polys.append(p)
    try:
        return RegularSequenceSpec.explicit(polys)
    except ValueError as e:
        raise ConfigError(f"bad sequence: {e}") from None


# ---------------------------------------------------------------------------
# Configuration assembly.

_DEFAULTS = {"n_vars": 2, "field": "Q", "sequence": "vars", "s": 1,
             "max_degree": None, "max_internal": None, "workers": 1,
             "out": None}

_CONFIG_KEYS = {"n_vars": "n", "field": "field", "sequence": "sequence",
                "s": "s", "max_degree": "max_degree",
                "max_internal": "max_internal", "workers": "workers",
                "out": "out"}


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    known = set(_CONFIG_KEYS) | set(_CONFIG_KEYS.values())
    for k in data:
        if k not in known:
            raise ConfigError(f"unknown config key {k!r}")
    return data


def _check_config_type(attr: str, val) -> None:
    """A config-file value must have its flag's type: an int (not a bool)
    for the numeric keys, a string otherwise; the sequence may also be an
    inline list of polynomial strings."""
    if attr in ("n_vars", "s", "max_degree", "max_internal", "workers"):
        ok, want = type(val) is int, "an integer"
    elif attr == "sequence":
        ok = isinstance(val, str) or (isinstance(val, list) and
                                      all(isinstance(x, str) for x in val))
        want = "a string or a list of strings"
    else:
        ok, want = isinstance(val, str), "a string"
    if not ok:
        raise ConfigError(f"config key {_CONFIG_KEYS[attr]!r} must be "
                          f"{want}, got {val!r}")


def build_config(args: argparse.Namespace) -> RunConfig:
    file_vals: dict = {}
    if args.config:
        raw = _load_config_file(args.config)
        for attr, key in _CONFIG_KEYS.items():
            if key in raw:
                file_vals[attr] = raw[key]
            elif attr in raw:
                file_vals[attr] = raw[attr]
            if attr in file_vals:
                _check_config_type(attr, file_vals[attr])

    def pick(attr, flag_val):
        if flag_val is not None:
            return flag_val
        if attr in file_vals:
            return file_vals[attr]
        return _DEFAULTS[attr]

    seq = pick("sequence", args.sequence)
    if isinstance(seq, list):             # config may inline the polynomials
        seq = "explicit:" + json.dumps(seq)
    cfg = RunConfig(
        command=args.command,
        n_vars=pick("n_vars", args.n),
        field=pick("field", args.field),
        sequence=seq,
        s=pick("s", args.s),
        max_degree=pick("max_degree", args.max_degree),
        max_internal=pick("max_internal", args.max_internal),
        workers=pick("workers", args.workers),
        out=pick("out", args.out),
    )
    if cfg.s < 1:
        raise ConfigError("s must be >= 1")
    if cfg.n_vars < 1:
        raise ConfigError("n must be >= 1")
    if cfg.max_degree is not None and cfg.max_degree < 0:
        raise ConfigError("max-degree must be >= 0")
    if cfg.max_internal is not None and cfg.max_internal < 1:
        raise ConfigError("max-internal must be >= 1")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    if cfg.out is not None:
        _check_out(cfg.out)
    return cfg


def _check_out(path: str) -> None:
    """Reject an --out path the report could not be written to (a
    directory, or a file in a missing directory) before any computation."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write report: {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write report: no directory {parent!r}")


def _resolve_spec(cfg: RunConfig) -> RegularSequenceSpec:
    if cfg.sequence.startswith("explicit:"):
        strings = json.loads(cfg.sequence[len("explicit:"):])
        return explicit_spec(strings, cfg.n_vars, cfg.domain())
    return cfg.spec()


# ---------------------------------------------------------------------------
# JSON helpers.

def _pair_keys(d: dict) -> dict:
    return {f"{a},{b}": v for (a, b), v in sorted(d.items())}


def _int_keys(d: dict) -> dict:
    return {str(k): v for k, v in sorted(d.items())}


def _str_matrix(m: list[list]) -> list[list[str]]:
    return [[str(x) for x in row] for row in m]


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (payload, ok).

def cmd_build(cfg: RunConfig):
    spec = _resolve_spec(cfg)
    c = build_k_ris(spec, cfg.s)
    squared = verify_complex(c)
    ids = verify_identities(spec, cfg.s)
    probe = koszul_regularity_probe(spec)
    top = c.max_degree if cfg.max_degree is None \
        else min(c.max_degree, cfg.max_degree)
    payload = {
        "dims": list(c.dims()),
        "d_squared": {"ok": squared.ok, "detail": squared.detail},
        "identities": {"ok": ids.ok, "checked": ids.checked,
                       "summary": ids.summary()},
        "regularity_probe": {"ok": probe.ok, "summary": probe.summary()},
        "warning": not probe.ok,
        "differentials": {str(n): c.differential(n).entry_lines()
                          for n in range(1, top + 1)},
    }
    return payload, squared.ok and ids.ok


def cmd_verify(cfg: RunConfig):
    spec = _resolve_spec(cfg)
    exact = verify_exactness(spec, cfg.s, cfg.max_internal)
    ids = verify_identities(spec, cfg.s)
    payload = {
        "exactness": {
            "ok": exact.ok,
            "max_internal": exact.max_internal,
            "fields_checked": exact.fields_checked,
            "homology": _pair_keys(exact.homology),
            "hilbert": _int_keys(exact.hilbert),
            "mismatches": exact.mismatches,
            "grid": exact.grid_lines(),
        },
        "identities": {"ok": ids.ok, "checked": ids.checked,
                       "summary": ids.summary()},
    }
    ok = exact.ok and ids.ok
    if spec.domain.kind == "Fp":
        payload["freeness"] = {"skipped":
                               "divisor certificate needs a char-0 domain"}
    else:
        free = freeness_check(spec, cfg.s)
        payload["freeness"] = {
            "ok": free.ok,
            "divisors": _int_keys(free.divisors),
            "rank_by_field": {k: _int_keys(v)
                              for k, v in sorted(free.rank_by_field.items())},
            "offending": free.offending,
            "summary": free.summary(),
        }
        ok = ok and free.ok
    return payload, ok


def cmd_tor(cfg: RunConfig):
    spec = _resolve_spec(cfg)
    rep = tor(spec, cfg.s)
    payload = {
        "ranks": list(rep.ranks),
        "torsion": [list(t) for t in rep.torsion],
        "routes": {k: list(v) for k, v in sorted(rep.routes.items())},
        "routes_agree": rep.routes_agree,
        "generators": rep.generator_strings(),
        "products": {"all_zero": rep.products.all_zero,
                     "lines": rep.products.lines()},
    }
    ok = rep.routes_agree and all(not t for t in rep.torsion)
    if cfg.s >= 2:
        ok = ok and rep.products.all_zero
    if rep.induced_reduction is not None:
        dom = spec.domain
        zero, one = dom.zero(), dom.one()
        red_ok = True
        for n, m in rep.induced_reduction.items():
            if n == 0:
                red_ok &= all(m[i][j] == (one if i == j else zero)
                              for i in range(len(m))
                              for j in range(len(m[i])))
            else:
                red_ok &= all(x == zero for row in m for x in row)
        payload["induced_reduction"] = {
            "zero_in_positive_degrees": red_ok,
            "matrices": {str(n): _str_matrix(m)
                         for n, m in sorted(rep.induced_reduction.items())},
        }
        ok = ok and red_ok
    return payload, ok


def cmd_spectral(cfg: RunConfig):
    spec = _resolve_spec(cfg)
    p1 = e1_page(spec, cfg.s)
    p2 = e2_page(spec, cfg.s, p1)
    collapse = collapse_check(spec, cfg.s, p2)
    payload = {
        "page1": {"ranks": _pair_keys(p1.cells),
                  "grid": p1.grid_lines()},
        "page2": {"ranks": _pair_keys(p2.cells),
                  "grid": p2.grid_lines(),
                  "off_support": [list(c) for c in off_support_cells(p2)]},
        "collapse": {"ok": collapse.ok,
                     "page_ranks": list(collapse.page_ranks),
                     "tor_ranks": list(collapse.tor_ranks),
                     "lines": collapse.lines()},
    }
    ok = collapse.ok
    if spec.domain.kind == "Fp":
        payload["blocks"] = {"skipped":
                             "block divisors need a char-0 domain"}
    else:
        blocks = {}
        for (p, q), f in sorted((p1.d1 or {}).items()):
            rep = support_blocks(f)
            blocks[f"{p},{q}"] = {
                "ok": rep.ok,
                "count": len(rep.blocks),
                "shapes": [list(b.shape) for b in rep.blocks],
                "global_divisors": list(rep.global_divisors),
                "merged_divisors": list(rep.merged_divisors),
            }
            ok = ok and rep.ok
        payload["blocks"] = blocks
    return payload, ok


def cmd_splice(cfg: RunConfig):
    spec = _resolve_spec(cfg)
    rebuilt = iterated_splice(spec, cfg.s)
    direct = build_k_ris(spec, cfg.s)
    identical = rebuilt.same_shape_as(direct) and rebuilt.equal_maps(direct)
    payload = {
        "steps": cfg.s - 1,
        "dims": list(rebuilt.dims()),
        "identical": identical,
    }
    ok = identical
    if cfg.s == 2:
        th = theta_representative(koszul_complex(spec), power_ses(spec, 2))
        th_split = theta_representative(koszul_complex(spec),
                                        split_power_ses(spec, 2))
        payload["theta"] = {
            "verdict": "trivial" if th.trivial else "nontrivial",
            "cocycle_ok": th.cocycle_ok,
            "lines": th.lines(),
        }
        payload["theta_split_control"] = {
            "verdict": "trivial" if th_split.trivial else "nontrivial",
            "cocycle_ok": th_split.cocycle_ok,
            "lines": th_split.lines(),
        }
        ok = ok and th.cocycle_ok and th_split.cocycle_ok and th_split.trivial
    return payload, ok


_COMMANDS = {"build": cmd_build, "verify": cmd_verify, "tor": cmd_tor,
             "spectral": cmd_spectral, "splice": cmd_splice}


# ---------------------------------------------------------------------------
# Driver.

def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override")
    common.add_argument("--n", type=int, help="number of variables")
    common.add_argument("--s", type=int, help="power of the ideal")
    common.add_argument("--field", help="coefficient domain: Q, Z, or Fp:p")
    common.add_argument("--sequence",
                        help="vars | powers:a1,a2,.. | file:PATH")
    common.add_argument("--max-degree", type=int, dest="max_degree",
                        help="cap reported homological degrees")
    common.add_argument("--max-internal", type=int, dest="max_internal",
                        help="internal-degree bound for slice checks")
    common.add_argument("--workers", type=int,
                        help="accepted for compatibility (must be >= 1); "
                             "slices are ranked sequentially")
    common.add_argument("--out", help="write the report here, not stdout")
    parser = argparse.ArgumentParser(
        prog="koszulpow",
        description="Build and machine-verify resolutions of ideal powers.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "build": "construct the resolution and check its identities",
        "verify": "exactness grid, Hilbert comparison, divisor certificate",
        "tor": "Tor ranks, generators, product table, reduction map",
        "spectral": "page grids, collapse verdict, block decomposition",
        "splice": "iterated splice reconstruction and extension class",
    }
    for name, txt in helps.items():
        sub.add_parser(name, parents=[common], help=txt)
    return parser


def render_report(cfg: RunConfig, payload: dict, ok: bool) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": cfg.command,
        "config": asdict(cfg),
        "ok": ok,
        "report": payload,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        payload, ok = _COMMANDS[cfg.command](cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    text = render_report(cfg, payload, ok)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write report: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
