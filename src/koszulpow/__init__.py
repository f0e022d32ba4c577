"""koszulpow: exact free resolutions of powers of regular ideals.

Builds the Koszul resolution of R/I for a regular sequence, extends it to
a free resolution of R/I^s, computes Tor with explicit generators, and
verifies every structural identity (d^2 = 0, exactness, spectral collapse,
splice compatibility) in exact arithmetic.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# submodule -> the public names it defines, re-exported here
_EXPORTS = {
    "poly": "Domain QQ ZZ GF parse_domain Polynomial RegularSequenceSpec",
    "parse": "parse_poly ParseError",
    "linalg": "rank_dense kernel_basis solve sparse_rank SmithForm "
              "smith_normal_form",
    "ideals": "hilbert_function tags_of_length tag_product",
    "quotients": "PowerReducer SubquotientModule",
    "chain": "Label FreeModule SparseMap ChainComplex ChainMap make_label "
             "verify_complex tensor_mod_I element_str",
    "koszul": "koszul_complex q_complex q_module del_map verify_identities",
    "morse": "tensor_mod_I_complex",
    "resolution": "build_k_ris verify_exactness dga_multiply "
                  "reduction_chain_map homology_slice_dims",
    "homology": "tor TorReport tor_products homology_ranks freeness_check "
                "divisor_report induced_tor_map koszul_regularity_probe",
    "spectral": "e1_page e2_page collapse_check support_blocks",
    "extensions": "GradedSES power_ses split_power_ses ConnectingMap "
                  "verify_connecting splice power_connecting iterated_splice "
                  "theta_representative",
}
__all__ = [*_EXPORTS, *" ".join(_EXPORTS.values()).split()]
__version__ = "0.1.0"

# Each submodule compiles on its first attribute access; cli is left to runpy.
# The package starts no threads, so LazyLoader's lock-free load is safe.
for _name in _EXPORTS:
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names.split():
            return getattr(globals()[module], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
