"""The column-filtration spectral sequence of the tag-level double complex.

Cell (p, q) of the resolution of R/I^s is the free module on generators
with tag length p and exterior degree q; koszul builds the double complex
(q_module, q_complex, del_map) and checks its identities
(verify_identities).  Page 1 splits the tensored resolution K (x) R/I by
tag length: every entry that keeps the tag length is +-u_i, which R/I
kills, so page 1 is the full cell grid and d1 is the +-1 transfer, in
integer rows.  Page 2 is the homology of those transfer chains; it is
supported only at the unit cell (0,0) and in the last column p = s-1, and
the column sums at fixed q reproduce the Tor ranks of the same tensored
complex, which is the collapse statement checked here by exact rank
accounting.  No later differential can move between the surviving cells,
so no page-2 differential is built.
"""

from __future__ import annotations

from .poly import RegularSequenceSpec
from .linalg import sparse_rank, smith_normal_form, block_smith_form
from .chain import Label, constant_rows
from .resolution import KRIsComplex, MorseMatching, tensor_mod_I_complex


# ---------------------------------------------------------------------------
# Pages.

class SpectralPage:
    """One page of the column-filtration spectral sequence.

    cells holds the rank at every (tag level p, exterior degree q) in
    range, zeros included.  Both carry the tensored resolution they are
    read from, page 1 also d1: the transfer out of each cell (p, q) with
    an entry, as the labels of cells (p+1, q-1) and (p, q) and the rows.
    """

    __slots__ = ("r", "s", "n_gens", "cells", "tensored", "d1")

    def __init__(self, r: int, s: int, n_gens: int, cells: dict,
                 tensored: KRIsComplex, d1: dict | None = None):
        self.r = r
        self.s = s
        self.n_gens = n_gens
        self.cells = cells              # (p, q) -> rank
        self.tensored = tensored        # K (x) R/I
        self.d1 = d1                    # page 1: (p, q) -> (tgts, srcs, rows)

    def rank(self, p: int, q: int) -> int:
        return self.cells.get((p, q), 0)

    def total_ranks(self) -> tuple[int, ...]:
        """Column sums at each exterior degree: the ranks the page predicts
        for the total homology once it collapses."""
        return tuple(sum(self.rank(p, q) for p in range(self.s))
                     for q in range(self.n_gens + 1))

    def grid_lines(self) -> list[str]:
        head = "      " + "".join(f"p={p}".rjust(6) for p in range(self.s))
        out = [f"page {self.r}, s={self.s}, {self.n_gens} generators", head]
        for q in range(self.n_gens, -1, -1):
            row = f"q={q}".ljust(6) + "".join(
                str(self.rank(p, q)).rjust(6) for p in range(self.s))
            out.append(row)
        return out


def e1_page(spec: RegularSequenceSpec, s: int) -> SpectralPage:
    """Page 1 of the tensored resolution of R/I^s."""
    return _page_one(tensor_mod_I_complex(spec, s))


def _page_one(t: KRIsComplex) -> SpectralPage:
    """Page 1 read off t, the tensored resolution of R/I^s: cell (p, q)
    holds t's degree-q labels of tag length p, in module order, and d1 out
    of it is t's entries that raise the tag length, cut from the integer
    rows of t's differentials.  Tensoring with R/I kills every entry that
    keeps it (checked first), so the page is the full cell grid."""
    cells = {}
    for q, m in t.modules.items():
        for g in m:
            cells.setdefault((len(g.tag), q), []).append(g)
    at = {g: i for cell in cells.values() for i, g in enumerate(cell)}
    parts = {}
    for q, f in t.diffs.items():
        for (tgt, src), poly in f.entries.items():
            if len(tgt.tag) == len(src.tag):
                raise ValueError(
                    f"vertical entry {tgt} <- {src} : {poly} survives mod I")
        cols = f.source.labels
        for g, row in zip(f.target, constant_rows(f)):
            parts.setdefault((len(g.tag) - 1, q), []).append(
                {at[cols[j]]: v for j, v in row.items()})
    d1 = {(p, q): (tuple(cells[p + 1, q - 1]), tuple(cells[p, q]), rows)
          for (p, q), rows in parts.items() if any(rows)}
    dims = {(p, q): len(cells.get((p, q), ()))
            for p in range(t.s) for q in range(t.spec.n_gens + 1)}
    return SpectralPage(1, t.s, t.spec.n_gens, dims, t, d1)


def e2_page(spec: RegularSequenceSpec, s: int,
            page1: SpectralPage | None = None) -> SpectralPage:
    """Page 2: homology of the transfer chains on page 1, cell by cell.
    page1, if given, must be e1_page(spec, s); it is then not rebuilt."""
    page1 = e1_page(spec, s) if page1 is None else page1
    fd = spec.domain.rank_field
    # each d1 map leaves one cell and enters another; rank it once
    d1_rank = {k: sparse_rank(r, fd) for k, (_, _, r) in page1.d1.items()}
    cells = {(p, q): page1.rank(p, q) - d1_rank.get((p, q), 0)
             - d1_rank.get((p - 1, q + 1), 0)
             for p in range(s) for q in range(spec.n_gens + 1)}
    return SpectralPage(2, s, spec.n_gens, cells, page1.tensored)


def off_support_cells(page: SpectralPage) -> list[tuple[int, int]]:
    """Nonzero cells outside the predicted support: the unit cell (0,0)
    and the last column p = s-1."""
    return [(p, q) for (p, q), r in sorted(page.cells.items())
            if r != 0 and (p, q) != (0, 0) and p != page.s - 1]


# ---------------------------------------------------------------------------
# Collapse.

class CollapseReport:
    __slots__ = ("ok", "s", "page_ranks", "tor_ranks", "off_support")

    def __init__(self, ok: bool, s: int, page_ranks: tuple[int, ...],
                 tor_ranks: tuple[int, ...], off_support: list):
        self.ok = ok
        self.s = s
        self.page_ranks = page_ranks    # column sums of page 2 per q
        self.tor_ranks = tor_ranks
        self.off_support = off_support

    def lines(self) -> list[str]:
        out = [f"page 2 column sums: {self.page_ranks}",
               f"direct Tor ranks:   {self.tor_ranks}",
               f"collapse: {'ok' if self.ok else 'FAIL'}"]
        if self.off_support:
            out.append(f"unexpected nonzero cells: {self.off_support}")
        return out


def collapse_check(spec: RegularSequenceSpec, s: int,
                   page2: SpectralPage | None = None) -> CollapseReport:
    """The page-2 column sums must equal the Tor ranks computed directly
    from the tensored resolution, the critical-cell counts of its
    certified Morse matching, and nothing may survive off the predicted
    support.  Exact integer equality, no tolerance.  page2, if given, must
    be e2_page(spec, s); it is then not rebuilt."""
    page = e2_page(spec, s) if page2 is None else page2
    m = MorseMatching(page.tensored, s)
    tor_ranks = tuple(len(cells) for cells in m.critical)
    page_ranks = page.total_ranks()
    off = off_support_cells(page)
    ok = page_ranks == tor_ranks and not off and m.failure is None
    return CollapseReport(ok, s, page_ranks, tor_ranks, off)


# ---------------------------------------------------------------------------
# Support-set block decomposition of the transfer matrices.

def label_support(g: Label) -> tuple[int, ...]:
    return tuple(sorted(set(g.exterior) | set(g.tag)))


class SupportBlock:
    __slots__ = ("support", "row_labels", "col_labels", "matrix")

    def __init__(self, support: tuple[int, ...], row_labels: list,
                 col_labels: list, matrix: list):
        self.support = support
        self.row_labels = row_labels
        self.col_labels = col_labels
        self.matrix = matrix            # sparse integer rows

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))


class SupportBlockReport:
    __slots__ = ("blocks", "global_divisors", "merged_divisors")

    def __init__(self, blocks: list, global_divisors: tuple[int, ...],
                 merged_divisors: tuple[int, ...]):
        self.blocks = blocks
        self.global_divisors = global_divisors
        self.merged_divisors = merged_divisors

    @property
    def ok(self) -> bool:
        return self.global_divisors == self.merged_divisors


def support_blocks(targets, sources, rows) -> SupportBlockReport:
    """Split a page-1 d1 map into independent blocks by generator support.

    Moving a wedge index into the tag keeps the union of exterior and tag
    indices fixed, so rows and columns partition by that support set and
    the matrix is block diagonal up to permutation (verified: any entry
    crossing blocks raises).  The Smith normal forms of the blocks merge
    to the Smith normal form of the whole map, computed both ways.
    """
    row_sup = [label_support(g) for g in targets]
    col_sup = [label_support(g) for g in sources]
    blocks = {sup: SupportBlock(sup, [], [], [])
              for sup in sorted(set(row_sup) | set(col_sup))}
    col_at = []                          # column position inside its block
    for g, sup in zip(sources, col_sup):
        col_at.append(len(blocks[sup].col_labels))
        blocks[sup].col_labels.append(g)
    for g, sup, row in zip(targets, row_sup, rows):
        b = blocks[sup]
        b.row_labels.append(g)
        for j in row:
            if col_sup[j] != sup:
                raise ValueError(f"entry {g} <- {sources[j]} "
                                 f"crosses support blocks")
        b.matrix.append({col_at[j]: v for j, v in row.items()})
    return SupportBlockReport(
        list(blocks.values()), smith_normal_form(rows).diagonal,
        block_smith_form([b.matrix for b in blocks.values()]).diagonal)
