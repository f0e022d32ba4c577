"""The report bytes are a contract: SHA-256 of the stdout of cli.run.

Each digest pins one whole JSON report (and its exit code).  A change
that alters any byte of these reports fails here; a deliberate change of
the report format must update the digests and say so in CHANGES.md.
File-based sequences are left out because their paths are echoed in the
report's config; a ``--config`` file's path is not echoed, so config-file
runs are pinned too.  The ``--help`` texts are pinned verbatim at a fixed
terminal width.
"""

import hashlib
import json

import pytest

from koszulpow.cli import run

CONTRACT = [
    (["tor", "--n", "2", "--s", "1"], 0,
     "c2374c010d2519f3c422b0c53d08b971c4f6033d5e2645101e16471cd689ebb9"),
    (["tor", "--n", "2", "--s", "2"], 0,
     "84093b0122e99527ef8dbd0646f95b62bbde0fdeb6742e103e4c50c82ba097cd"),
    (["tor", "--n", "3", "--s", "3", "--field", "Z"], 0,
     "652ed27404aa796f71db88a8f25fe14f2791edf46c8d91b7d1c7db92d9e52f60"),
    (["tor", "--n", "3", "--s", "2", "--field", "Fp:5"], 0,
     "b8e86c3633a83eb4709942f226aa1d201eb32f7f0989a78a0fa253d6751d71d6"),
    (["spectral", "--n", "3", "--s", "3", "--field", "Z"], 0,
     "8e3d9f1ccd84d9a9c7acd5cf98da707aa7e88ca740acca4f8a647fd081dab51f"),
    (["spectral", "--n", "4", "--s", "3", "--field", "Z"], 0,
     "9db6c51145d829a157744249485012aed4c6f8316813fe7995deab71aacd9ab2"),
    (["verify", "--n", "2", "--s", "2", "--field", "Z"], 0,
     "ad9296f7a171d43a8ac9a0c1cccf982cba3050e3f47dbc101711e7f19c35632e"),
    (["verify", "--n", "3", "--s", "3", "--field", "Z"], 0,
     "6035bbce2715deff2e79414f4df3c9a8f0a1e6c240ecfab5cdad4f0f8658f764"),
    (["verify", "--n", "4", "--s", "3"], 0,
     "8f562bd35ced9728a2291c1b9aa3f6cb238ab57d81d6ff5715c77ccd0d251c6a"),
    (["tor", "--n", "4", "--s", "3", "--field", "Z"], 0,
     "8b7d9ebe51c0060ef864471c8154b3e0d4f1861ea3efce2f3bd8c9d8bf0e9622"),
    (["build", "--n", "3", "--s", "2"], 0,
     "0cfd59b032288a5ef257d7926e3818277a8bcb0c4eb9adce78547477012360aa"),
    (["splice", "--n", "2", "--s", "2"], 0,
     "beb79ea61d892409597dfd135bf9110c4c411c700667f627e8886537e3bf811c"),
    (["build", "--n", "4", "--s", "3", "--field", "Z"], 0,
     "50f4af21d54a1a5d4bc74203d3874205f379a2faaeb5f815a4e6759b0ff56854"),
    (["splice", "--n", "3", "--s", "3"], 0,
     "83adc5e921443d19a38a1f8f19574c8c83977ba7c58ae5ea737d4dec28a168a8"),
    (["splice", "--n", "3", "--s", "2", "--field", "Z"], 0,
     "062f646d072042762420e8501d2ec97209c70b20378a0180eb0a9ca1bf190c6d"),
    (["verify", "--n", "3", "--s", "2", "--field", "Z", "--sequence",
      "powers:1,2,2"], 0,
     "d25b23914ef22db581482be36f372a0c4c2e07d8b7f68937b2a2a1ff2c6115e0"),
]


@pytest.mark.parametrize("argv,code,digest", CONTRACT,
                         ids=[" ".join(a) for a, _, _ in CONTRACT])
def test_report_bytes(capsys, argv, code, digest):
    got_code = run(argv)
    out = capsys.readouterr().out
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


CONFIG_CONTRACT = [
    # an inline list of polynomials as the sequence
    ({"n": 2, "s": 2, "field": "Z", "sequence": ["x1+2*x2", "x2"]},
     ["tor"], 0,
     "0de88c9b24b0143c74ecc45787927d76d971bb5e39a7beb2834a08859b6d84af"),
    # flags override the file
    ({"n": 3, "s": 3, "field": "Z"}, ["spectral", "--s", "2", "--field", "Q"],
     0, "1a5d69ec648665f6d51eddd75500e9099cd71e89fb756e0ef304914ee5fab86a"),
    # keys spelled by attribute name
    ({"n_vars": 3, "s": 2, "max_degree": 1}, ["build"], 0,
     "d59108068d70ea30f66055bc800245d00d7a06e28b9488f5a505ec29056c7b2b"),
    # a sequence that is no monomial: boundary entries are linear forms
    ({"n": 3, "s": 2, "field": "Z",
      "sequence": ["x1+2*x2-x3", "x2-x3", "x3"]}, ["spectral"], 0,
     "524281bb14d56568d367d50a2c7aa8dfc565403755bed689b33e6b5901204a37"),
    ({"n": 3, "s": 2, "field": "Z",
      "sequence": ["x1+2*x2-x3", "x2-x3", "x3"]}, ["verify"], 0,
     "394875255e154d9e08aa5c04dd510ddaa580303245858475605a926d61119726"),
    # F_p runs of an integral sequence with coefficient primes 2 and 3
    ({"n": 2, "s": 2, "field": "Z", "sequence": ["x1+3*x2", "x1-4*x2"]},
     ["verify"], 0,
     "de4350e5017138e105808b04fc5d507d279b60103fe0a6524ed83d192ef9a62f"),
    # not regular over Z: the F7 run reports its mismatches
    ({"n": 2, "s": 2, "field": "Z", "sequence": ["7*x1", "7*x2"]},
     ["verify"], 1,
     "9a0f2d1e8798f287e56726a9fbcfde502ded0ead5c194fcd7e20ae85d75c9f4f"),
    # regular over Z with 2-torsion in R/I^s
    ({"n": 2, "s": 3, "field": "Z", "sequence": ["2*x1", "x2"]},
     ["verify"], 0,
     "68271519492db448ba411847fd06e9def65aef0b3689965825c60d7cc7d3d070"),
]


@pytest.mark.parametrize("body,argv,code,digest", CONFIG_CONTRACT,
                         ids=[" ".join(a) + " " + json.dumps(b)
                              for b, a, _, _ in CONFIG_CONTRACT])
def test_config_file_report_bytes(tmp_path, capsys, body, argv, code, digest):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(body))
    got_code = run([*argv, "--config", str(cfg)])
    out = capsys.readouterr().out
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


MAIN_HELP = """\
usage: koszulpow [-h] {build,verify,tor,spectral,splice} ...

Build and machine-verify resolutions of ideal powers.

positional arguments:
  {build,verify,tor,spectral,splice}
    build               construct the resolution and check its identities
    verify              exactness grid, Hilbert comparison, divisor
                        certificate
    tor                 Tor ranks, generators, product table, reduction map
    spectral            page grids, collapse verdict, block decomposition
    splice              iterated splice reconstruction and extension class

options:
  -h, --help            show this help message and exit
"""

TOR_HELP = """\
usage: koszulpow tor [-h] [--config CONFIG] [--n N] [--s S] [--field FIELD]
                     [--sequence SEQUENCE] [--max-degree MAX_DEGREE]
                     [--max-internal MAX_INTERNAL] [--workers WORKERS]
                     [--out OUT]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON config file; flags override
  --n N                 number of variables
  --s S                 power of the ideal
  --field FIELD         coefficient domain: Q, Z, or Fp:p
  --sequence SEQUENCE   vars | powers:a1,a2,.. | file:PATH
  --max-degree MAX_DEGREE
                        cap reported homological degrees
  --max-internal MAX_INTERNAL
                        internal-degree bound for slice checks
  --workers WORKERS     accepted for compatibility (must be >= 1); slices are
                        ranked sequentially
  --out OUT             write the report here, not stdout
"""


@pytest.mark.parametrize("argv,text", [(["--help"], MAIN_HELP),
                                       (["tor", "--help"], TOR_HELP)],
                         ids=["main", "tor"])
def test_help_text(monkeypatch, capsys, argv, text):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        run(argv)
    assert stop.value.code == 0
    assert capsys.readouterr().out == text
