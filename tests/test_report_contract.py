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
     "3bd9394e3ad77758defca2a138fecaf854930fb13f3ea25f439223d3913d28e3"),
    (["tor", "--n", "2", "--s", "2"], 0,
     "86e219db9f9b40ea183589f87931a9b920afa70f46b604207a402641a168315d"),
    (["tor", "--n", "3", "--s", "3", "--field", "Z"], 0,
     "6b2893f3158b08ad6cf51a4d1cf94ac7b7841cc8e1fb936accf3d28a6a3b93a5"),
    (["tor", "--n", "3", "--s", "2", "--field", "Fp:5"], 0,
     "941a40729fe7b0b101162811c4f4f1b2b5354d8c1b247df2a726999073db631d"),
    (["spectral", "--n", "3", "--s", "3", "--field", "Z"], 0,
     "2a1efe382a1b76e4560b10b56aa575fdf7738394511caccf36c9b801b7388f9c"),
    (["spectral", "--n", "4", "--s", "3", "--field", "Z"], 0,
     "e381d94fdd2f8a0be16f08474cd0ec2979bd8670c147aa782f772bf2be858ec3"),
    (["spectral", "--n", "5", "--s", "4", "--field", "Z"], 0,
     "688a7692e345d8b12b02fe7c0df4e55f6e4d598b3d5bfe559801c92d87dc3da0"),
    (["verify", "--n", "2", "--s", "2", "--field", "Z"], 0,
     "274b5c02ff9d19f0b2cbb57764dcd0256427c0cd46c946761409e428807e659e"),
    (["verify", "--n", "3", "--s", "3", "--field", "Z"], 0,
     "ea9eb8dbbac11cc8727eac92dbdfd79dfee9c52628984abaf555d39843e377d0"),
    (["verify", "--n", "4", "--s", "3"], 0,
     "24cf7fc46d4a8877681d5d34b17f53ecab1c6cf02608998432100372860dc611"),
    (["tor", "--n", "4", "--s", "3", "--field", "Z"], 0,
     "0ba95dc561906ae6e8b5ccf65f05b52c9a77fa5f652ab532e5f6ace9de551868"),
    (["build", "--n", "3", "--s", "2"], 0,
     "658b809b5de49569e95d2899a5f3a4a0243599b046168b74cf91142a286a3db2"),
    (["splice", "--n", "2", "--s", "2"], 0,
     "a0c29d21f1414a4866a9c2a90c4a469cf0cfb9655b846fc15a3763697e74b32e"),
    (["build", "--n", "4", "--s", "3", "--field", "Z"], 0,
     "84d4d6141cd41f3fbd2d588477bf3edfa9abdc995f9c25aeadefaec39cb4c4bb"),
    (["splice", "--n", "3", "--s", "3"], 0,
     "b887c01d86ece4cb692962a4e40a595b24a7fefbd0101fda0a30b0d83db0545e"),
    (["splice", "--n", "3", "--s", "2", "--field", "Z"], 0,
     "58c91a05e811f7ea28d225b49bcf604b6645e68e8ac73de65dad6d0866e55be5"),
    (["verify", "--n", "3", "--s", "2", "--field", "Z", "--sequence",
      "powers:1,2,2"], 0,
     "a990cde736665b08bcd013d92397fbef5aab578abf2bf1b16c809d36f6c8ff6b"),
    # s = 1: nonzero product tables, residues in the tensored complex's ring
    (["tor", "--n", "3", "--s", "1", "--field", "Z"], 0,
     "ec482da9dbf40a612788229956c75dc6c1a54e2138dcd6175f553142c67a44f3"),
    (["tor", "--n", "2", "--s", "1", "--field", "Fp:5"], 0,
     "d6767b17c1ab362105970004c65160314e1c69f7b596bf3a1a3da3d0878457b4"),
    # s = 4, and a sequence of variable powers
    (["tor", "--n", "3", "--s", "4", "--field", "Fp:7"], 0,
     "640dc2c69837f67664585294e22b2c0be1a8691306ef0e80d7937a428305c15d"),
    (["tor", "--n", "3", "--s", "3", "--sequence", "powers:2,1,3"], 0,
     "21538ee93f7a8b9d5092427d60d28657b80e9a3ac2a972a2e75f1d3a16f95ebe"),
    # the largest reduction shapes pinned, up to 126 x 280 in degree 3
    (["tor", "--n", "5", "--s", "4", "--field", "Fp:7"], 0,
     "43112f65f9426682ee5cf5e49f9bbfa6a92987079999e7e6077550368ceb2928"),
    # F_p: the spectral pages, and exactness of M with no freeness certificate
    (["spectral", "--n", "3", "--s", "2", "--field", "Fp:7"], 0,
     "1827ba06d3f09e475694e275d96a0e38fbb9d2e973be48a2dfe7dc9e05402d3c"),
    (["verify", "--n", "3", "--s", "2", "--field", "Fp:7", "--sequence",
      "powers:1,2,2"], 0,
     "3165d29bb6772ffaf1fa65693378a6b031fbaa6bbe31257c1909add81e619bb4"),
    # a proper fraction over Q
    (["tor", "--n", "2", "--s", "2", "--sequence",
      'explicit:["1/2*x1+x2","x2"]'], 0,
     "864fae50b91765637f45efedd8d516be890dcd70fd5945d5fe1bc15d638315ab"),
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
     "986c0e79e1183d684a1c85099f403e5796a8fc88bd75a2b4922933e830de2ae4"),
    # flags override the file
    ({"n": 3, "s": 3, "field": "Z"}, ["spectral", "--s", "2", "--field", "Q"],
     0, "c20a788d0c5473deeb32708ca641c379a89f8b62f34b950f58b05857353fb89c"),
    # keys spelled by attribute name
    ({"n_vars": 3, "s": 2, "max_degree": 1}, ["build"], 0,
     "d2bb59e1e949cf2fbaeba57bc7689c6ca833ff3791b5344907ba5dda3dd56d5c"),
    # a sequence that is no monomial: boundary entries are linear forms
    ({"n": 3, "s": 2, "field": "Z",
      "sequence": ["x1+2*x2-x3", "x2-x3", "x3"]}, ["spectral"], 0,
     "c7e10755101a8feafe9b705840f9f28dcaca551059b96d37a8f874d3d84529d0"),
    ({"n": 3, "s": 2, "field": "Z",
      "sequence": ["x1+2*x2-x3", "x2-x3", "x3"]}, ["verify"], 0,
     "dcd1a6646dee1ae2cb22e66dea88bfd5619d12e73efaf2bc5fbfad19372f6bdc"),
    # F_p runs of an integral sequence with coefficient primes 2 and 3
    ({"n": 2, "s": 2, "field": "Z", "sequence": ["x1+3*x2", "x1-4*x2"]},
     ["verify"], 0,
     "5026b63c73d0db971c2b1d2299f220d0266a0bcd45db5ada02e81df00a1825e3"),
    # not regular over Z: the F7 run reports its mismatches
    ({"n": 2, "s": 2, "field": "Z", "sequence": ["7*x1", "7*x2"]},
     ["verify"], 1,
     "e7ff9dd15ad0ca48301ab77a575c893d74345e6112660e312d401e0c475a1750"),
    # regular over Z with 2-torsion in R/I^s
    ({"n": 2, "s": 3, "field": "Z", "sequence": ["2*x1", "x2"]},
     ["verify"], 0,
     "50dda189f26dcd569c95b71d1809982d8fc996da7262e0cfae4ad6958c1265bb"),
    # quadrics: entries in entry_lines order, and theta through the
    # general-regime subquotients
    ({"n": 3, "s": 3, "sequence": ["x1^2+x2*x3", "x2^2-2*x1*x3", "x3^2"]},
     ["build"], 0,
     "6009d36aa1aec7ad7b33c21e5c321404235bd1beb87203c8bfd64cc204f1024f"),
    ({"n": 3, "s": 2, "sequence": ["x1^2+x2*x3", "x2^2-2*x1*x3", "x3^2"]},
     ["splice"], 0,
     "1cc3b001e5913da481cb5eebc4f75ebabe20b911ad2b9727e69ba271dd4945e1"),
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
                        build only: cap reported homological degrees
  --max-internal MAX_INTERNAL
                        verify only: internal-degree bound for slice checks
  --workers WORKERS     read by no command; accepted for compatibility (must
                        be >= 1); slices are ranked sequentially
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
