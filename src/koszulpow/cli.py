"""Command-line driver: build, verify, and report on the whole pipeline.

Five subcommands share one configuration shape and one JSON report
format.  Reports carry a schema version and are rendered with sorted
keys, so identical configurations produce byte-identical output; that
determinism is part of the contract and is tested.

Exit codes: 0 when every check in the run passed, 1 when a mathematical
check failed, 2 for configuration or parse errors.
"""

from __future__ import annotations

import json
import os
import sys
from collections import namedtuple
from types import SimpleNamespace

from .poly import Domain, RegularSequenceSpec, parse_domain
from .chain import verify_complex
from .koszul import koszul_complex, verify_identities
from .homology import (tor, freeness_check, koszul_regularity_probe,
                       regularity_defect)
from . import extensions, parse, resolution, spectral

SCHEMA_VERSION = 2


class ConfigError(Exception):
    pass


# One row per run setting: its RunConfig attribute; its flag without the
# "--" and with "_" for "-", which is also its config-file key (so is the
# attribute); its type; default; least allowed value; help text.
Setting = namedtuple("Setting", "attr flag type default least help")

SETTINGS = (
    Setting("n_vars", "n", int, 2, 1, "number of variables"),
    Setting("s", "s", int, 1, 1, "power of the ideal"),
    Setting("field", "field", str, "Q", None,
            "coefficient domain: Q, Z, or Fp:p"),
    Setting("sequence", "sequence", str, "vars", None,
            "vars | powers:a1,a2,.. | file:PATH"),
    Setting("max_degree", "max_degree", int, None, 0,
            "build only: cap reported homological degrees"),
    Setting("max_internal", "max_internal", int, None, 1,
            "verify only: internal-degree bound for slice checks"),
    Setting("workers", "workers", int, 1, 1,
            "read by no command; accepted for compatibility (must be "
            ">= 1); slices are ranked sequentially"),
    Setting("out", "out", str, None, None,
            "write the report here, not stdout"),
)


class RunConfig:
    """A subcommand and its value of each setting in SETTINGS."""

    __slots__ = ("command",) + tuple(s.attr for s in SETTINGS)

    def __init__(self, command: str, **values):
        self.command = command
        for s in SETTINGS:
            setattr(self, s.attr, values[s.attr])

    def spec(self) -> RegularSequenceSpec:
        return parse_sequence(self.sequence, self.n_vars,
                              parse_field(self.field))


def parse_field(text: str) -> Domain:
    try:
        return parse_domain(text)
    except ValueError as e:
        raise ConfigError(f"bad field {text!r}: {e}") from None


def parse_sequence(text: str, n_vars: int, domain: Domain) -> RegularSequenceSpec:
    """The sequence text names: "vars", "powers:a1,a2,..", "file:PATH" (a
    JSON list of polynomial strings, or one per line) or
    "explicit:<JSON list>", which a config file's inline list becomes."""
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
    if not text.startswith(("file:", "explicit:")):
        raise ConfigError(f"unknown sequence source {text!r}")
    source, _, body = text.partition(":")
    try:
        strings = (parse.read_sequence_file(body) if source == "file"
                   else parse.string_list(body, "explicit sequence"))
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return explicit_spec(strings, n_vars, domain)


def explicit_spec(strings: list[str], n_vars: int,
                  domain: Domain) -> RegularSequenceSpec:
    if n_vars < 1:
        raise ConfigError("explicit sequences need --n >= 1")
    if not strings:
        raise ConfigError("explicit sequence is empty")
    polys = []
    for text in strings:
        try:
            polys.append(parse.parse_poly(text, n_vars, domain))
        except ValueError as e:
            raise ConfigError(f"cannot parse {text!r}: {e}") from None
    try:
        return RegularSequenceSpec.explicit(polys)
    except ValueError as e:
        raise ConfigError(f"bad sequence: {e}") from None


# ---------------------------------------------------------------------------
# Configuration assembly.

def _load_config_file(path: str) -> dict:
    try:
        data = parse.read_config(path)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    known = {s.flag for s in SETTINGS} | {s.attr for s in SETTINGS}
    for k in data:
        if k not in known:
            raise ConfigError(f"unknown config key {k!r}")
    return data


def _config_value(s: Setting, val):
    """A config-file value of the setting's type (an int is not a bool);
    the sequence may also be an inline list of polynomial strings."""
    if s.attr == "sequence" and isinstance(val, list) and \
            all(isinstance(x, str) for x in val):
        return "explicit:" + json.dumps(val)
    if type(val) is not s.type:
        want = "an integer" if s.type is int else "a string"
        if s.attr == "sequence":
            want += " or a list of strings"
        raise ConfigError(f"config key {s.flag!r} must be {want}, "
                          f"got {val!r}")
    return val


def build_config(args) -> RunConfig:
    """Each setting from its flag, else the config file, else its default."""
    raw = _load_config_file(args.config) if args.config else {}
    values = {}
    for s in SETTINGS:
        key = s.flag if s.flag in raw else s.attr
        val = _config_value(s, raw[key]) if key in raw else s.default
        flag_val = getattr(args, s.flag)
        values[s.attr] = val if flag_val is None else flag_val
    for s in SETTINGS:
        val = values[s.attr]
        if s.least is not None and val is not None and val < s.least:
            raise ConfigError(f"{s.flag.replace('_', '-')} must be "
                              f">= {s.least}")
    if values["out"] is not None:
        _check_out(values["out"])
    return RunConfig(command=args.command, **values)


def _check_out(path: str) -> None:
    """Reject an --out path the report could not be written to (empty, a
    directory, or a file in a missing directory) before any computation."""
    if not path:
        raise ConfigError("cannot write report: the out path is empty")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write report: {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write report: no directory {parent!r}")


# ---------------------------------------------------------------------------
# JSON helpers.

def _pair_keys(d: dict) -> dict:
    return {f"{a},{b}": v for (a, b), v in sorted(d.items())}


def _int_keys(d: dict) -> dict:
    return {str(k): v for k, v in sorted(d.items())}


# ---------------------------------------------------------------------------
# Subcommands.  Each takes the configuration and the sequence it names,
# parsed once per run, and returns (payload, ok); its docstring is its help.

def cmd_build(cfg: RunConfig, spec: RegularSequenceSpec):
    """construct the resolution and check its identities"""
    c = resolution.build_k_ris(spec, cfg.s)
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
    defect = regularity_defect(spec, probe)
    if defect:
        payload["regularity"] = defect
    # probe homology proves non-regularity (over Z too: Z-regular => Q-regular)
    return payload, squared.ok and ids.ok and probe.ok and not defect


def cmd_verify(cfg: RunConfig, spec: RegularSequenceSpec):
    """exactness grid, Hilbert comparison, divisor certificate"""
    try:
        exact = resolution.verify_exactness(spec, cfg.s, cfg.max_internal)
    except ValueError as e:              # a coefficient it cannot factor
        raise ConfigError(str(e)) from None
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


def cmd_tor(cfg: RunConfig, spec: RegularSequenceSpec):
    """Tor ranks, generators, product table, reduction map"""
    rep = tor(spec, cfg.s)
    payload = {
        "ranks": list(rep.ranks),
        "torsion": [list(t) for t in rep.torsion],
        "routes": {k: list(v) for k, v in sorted(rep.routes.items())},
        "routes_agree": rep.routes_agree,
        "generators": rep.generator_strings(),
        "products": {"all_zero": rep.products.all_zero,
                     "certificate": rep.products.certificate,
                     "nonzero": rep.products.nonzero_lines(),
                     "pairs": len(rep.products.gens) ** 2},
    }
    ok = rep.routes_agree
    if rep.failure:
        payload["matching"] = rep.failure
        ok = False
    if cfg.s >= 2:
        ok = ok and rep.products.all_zero
    if rep.induced_reduction is not None:
        matrices = {str(n): {"shape": list(shape),
                             "nonzero": [[i, j, str(x)] for i, j, x in nz]}
                    for n, (shape, nz) in sorted(rep.induced_reduction.items())}
        # the 1 x 1 identity in degree 0, zero in every positive degree
        red_ok = all(m["nonzero"] == ([[0, 0, "1"]] if n == "0" else [])
                     for n, m in matrices.items())
        payload["induced_reduction"] = {"zero_in_positive_degrees": red_ok,
                                        "matrices": matrices}
        ok = ok and red_ok
    return payload, ok


def cmd_spectral(cfg: RunConfig, spec: RegularSequenceSpec):
    """page grids, collapse verdict, block decomposition"""
    p1 = spectral.e1_page(spec, cfg.s)
    p2 = spectral.e2_page(spec, cfg.s, p1)
    collapse = spectral.collapse_check(spec, cfg.s, p2)
    payload = {
        "page1": {"ranks": _pair_keys(p1.cells),
                  "grid": p1.grid_lines()},
        "page2": {"ranks": _pair_keys(p2.cells),
                  "grid": p2.grid_lines(),
                  "off_support": [list(c) for c in
                                  spectral.off_support_cells(p2)]},
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
        for (p, q), d1 in sorted(p1.d1.items()):
            rep = spectral.support_blocks(*d1)
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


def cmd_splice(cfg: RunConfig, spec: RegularSequenceSpec):
    """iterated splice reconstruction and extension class"""
    rebuilt = extensions.iterated_splice(spec, cfg.s)
    direct = resolution.build_k_ris(spec, cfg.s)
    identical = rebuilt.equal_maps(direct)
    payload = {
        "steps": cfg.s - 1,
        "dims": list(rebuilt.dims()),
        "identical": identical,
    }
    ok = identical
    if cfg.s == 2:
        k = koszul_complex(spec)
        th, th_split = (extensions.theta_representative(k, ses(spec, 2)) for ses
                        in (extensions.power_ses, extensions.split_power_ses))
        for key, t in (("theta", th), ("theta_split_control", th_split)):
            payload[key] = {
                "verdict": "trivial" if t.trivial else "nontrivial",
                "cocycle_ok": t.cocycle_ok,
                "lines": t.lines(),
            }
        ok = ok and th.cocycle_ok and th_split.cocycle_ok and th_split.trivial
    return payload, ok


_COMMANDS = {"build": cmd_build, "verify": cmd_verify, "tor": cmd_tor,
             "spectral": cmd_spectral, "splice": cmd_splice}


# ---------------------------------------------------------------------------
# Driver.

def make_parser():
    import argparse
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override")
    for s in SETTINGS:
        common.add_argument("--" + s.flag.replace("_", "-"), type=s.type,
                            help=s.help)
    parser = argparse.ArgumentParser(
        prog="koszulpow",
        description="Build and machine-verify resolutions of ideal powers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=cmd.__doc__)
    return parser


def parse_args(argv: list[str] | None = None):
    """make_parser().parse_args(argv), read off SETTINGS if argv is plain:
    COMMAND (--flag VALUE)..., no flag twice, no value starting with "-";
    any other argv goes to argparse, the one author of help and errors."""
    argv = sys.argv[1:] if argv is None else argv
    kinds = {"--" + s.flag.replace("_", "-"): (s.flag, s.type)
             for s in SETTINGS} | {"--config": ("config", str)}
    args = dict.fromkeys(name for name, _ in kinds.values())
    try:
        for flag, text in zip(argv[1::2], argv[2::2]):
            name, kind = kinds[flag]
            if args[name] is not None or text.startswith("-"):
                raise ValueError
            args[name] = kind(text)
        if len(argv) % 2 and argv[0] in _COMMANDS:
            return SimpleNamespace(command=argv[0], **args)
    except (KeyError, ValueError):
        pass
    return make_parser().parse_args(argv)


def render_report(cfg: RunConfig, payload: dict, ok: bool) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": cfg.command,
        "config": {"command": cfg.command,
                   **{s.attr: getattr(cfg, s.attr) for s in SETTINGS}},
        "ok": ok,
        "report": payload,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        cfg = build_config(args)
        spec = cfg.spec()
        payload, ok = _COMMANDS[cfg.command](cfg, spec)
        # build reports the verdict of the probe it runs for its payload
        defect = None if cfg.command == "build" else regularity_defect(spec)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if defect:
        payload["regularity"] = defect
        ok = False
    text = render_report(cfg, payload, ok)
    try:
        if cfg.out:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as e:
        print(f"error: cannot write report: {e}", file=sys.stderr)
        if not cfg.out:
            # the unwritten text stays buffered; let shutdown flush it nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
