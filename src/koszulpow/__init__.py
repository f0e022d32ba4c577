"""koszulpow: exact free resolutions of powers of regular ideals.

Builds the Koszul resolution of R/I for a regular sequence, extends it to
a free resolution of R/I^s, computes Tor with explicit generators, and
verifies every structural identity (d^2 = 0, exactness, spectral collapse,
splice compatibility) in exact arithmetic.
"""

from .poly import (Domain, QQ, ZZ, GF, parse_domain, Polynomial, parse_poly,
                   ParseError, RegularSequenceSpec)
from .linalg import (rank_dense, kernel_basis, solve, sparse_rank,
                     SmithForm, smith_normal_form)
from .ideals import (hilbert_function, PowerReducer, SubquotientModule,
                     tags_of_length, tag_product)
from .chain import (Label, FreeModule, SparseMap, ChainComplex, ChainMap,
                    make_label, verify_complex, tensor_mod_I, element_str)
from .koszul import (koszul_complex, q_complex, q_module, del_map,
                     verify_identities)
from .resolution import (build_k_ris, tensor_mod_I_complex, augment,
                         verify_exactness, dga_multiply, dga_differential,
                         reduction_chain_map, homology_slice_dims)
from .homology import (tor, TorReport, tor_products, homology_ranks,
                       freeness_check, divisor_report, induced_tor_map,
                       koszul_regularity_probe)
from .spectral import e1_page, e2_page, collapse_check, support_blocks
from .extensions import (GradedSES, power_ses, split_power_ses,
                         ConnectingMap, verify_connecting, splice,
                         power_connecting, iterated_splice,
                         theta_representative)

__version__ = "0.1.0"
