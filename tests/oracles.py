"""Oracles and helpers that more than one test module reads.

Each is an independent, slower construction or a small test utility; the
test modules import them from here, never from each other.
"""

import importlib.util
import pathlib
from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence

from youngquiver.exactlinalg import IntMatrix, Scalar, rank, rref
from youngquiver.partitions import contains, skew_classify
from youngquiver.qdual import QuadraticPresentation, RelationSpace


def kernel_basis(rows, n_cols):
    """Basis of the right kernel of ``rows``, one vector per free column of
    the reduced echelon form."""
    reduced, pivots = rref(rows)
    basis = []
    for free in (col for col in range(n_cols) if col not in pivots):
        vector = [Fraction(0)] * n_cols
        vector[free] = Fraction(1)
        for row, pivot in zip(reduced, pivots):
            vector[pivot] = -row[free]
        basis.append(tuple(vector))
    return basis


def _exact_ratio(num: Scalar, den: Scalar) -> Scalar:
    quotient, remainder = divmod(num, den)
    return Fraction(num, den) if remainder else quotient


def two_term_corank(n_cols: int, rows: Iterable[Sequence[tuple[int, Scalar]]]) -> int:
    """``n_cols - rank`` of the matrix whose rows are given sparsely as
    ``(column, coefficient)`` pairs, each row with at most two nonzero
    coefficients; a row with more raises ``ArithmeticError``.

    Kernel vectors x are counted by a weighted union-find over columns: the
    row ``a x_i + b x_j`` ties x_i to x_j, and each column stores the exact
    ratio x_col / x_parent.  Every component has one free parameter unless
    it is dead: a one-term row touches it, or a row closes a cycle whose
    ratios disagree.  The corank is the number of live components.

    The fast chain oracle for ``dual_hom_dim``; ``TestTwoTermCorank`` checks
    it against Bareiss rank.
    """
    parent = list(range(n_cols))
    ratio: list[Scalar] = [1] * n_cols
    size = [1] * n_cols
    dead = [False] * n_cols

    def find(col: int) -> tuple[int, Scalar]:
        """Root of ``col`` and x_col / x_root, compressing the path."""
        path = []
        while parent[col] != col:
            path.append(col)
            col = parent[col]
        to_root: Scalar = 1
        for node in reversed(path):
            to_root = ratio[node] * to_root
            parent[node] = col
            ratio[node] = to_root
        return col, to_root

    for row in rows:
        terms = [(col, coeff) for col, coeff in row if coeff]
        if not terms:
            continue
        if len(terms) > 2:
            raise ArithmeticError(
                f"two-term engine given a row with {len(terms)} nonzero entries"
            )
        root_i, to_i = find(terms[0][0])
        if len(terms) == 1:
            dead[root_i] = True
            continue
        root_j, to_j = find(terms[1][0])
        # the row reads p x_root_i + q x_root_j = 0
        p = terms[0][1] * to_i
        q = terms[1][1] * to_j
        if root_i == root_j:
            if p + q:
                dead[root_i] = True
            continue
        if size[root_i] < size[root_j]:
            root_i, root_j, p, q = root_j, root_i, q, p
        parent[root_j] = root_i
        ratio[root_j] = _exact_ratio(-p, q)
        size[root_i] += size[root_j]
        dead[root_i] = dead[root_i] or dead[root_j]
    return sum(1 for col in range(n_cols) if parent[col] == col and not dead[col])


def hook_length_dimension(lam):
    """The dimension of the Specht module of the row tuple ``lam`` by the
    hook length formula, n! over the product of the hook lengths: the
    oracle for the character at the identity class."""
    cols = [sum(1 for length in lam if length > j) for j in range(lam[0] if lam else 0)]
    denominator = 1
    for i, row_len in enumerate(lam):
        for j in range(row_len):
            denominator *= (row_len - j) + (cols[j] - 1 - i)
    return factorial(sum(lam)) // denominator


def path_count_relation_dimension(mu, lam):
    """The dimension of the dual's three-case relation table by counting
    the paths from mu to lam (row tuples two nodes apart): 0 for a column
    pair, every path (the single one) for a row pair, and one less than the
    paths across a diamond, whose anticommutativity line is left.  The
    oracle for the number of rows of ``qdual._expected_relations``."""
    sk = skew_classify(mu, lam)
    if sk.has_column_pair:
        return 0
    n_paths = len(saturated_chains(mu, lam))
    return n_paths if sk.has_row_pair else n_paths - 1


def saturated_chains(mu, lam):
    """Every maximal chain from the row tuple mu up to lam, each diagram as
    its row tuple; at each step the node in the topmost row comes first."""
    if not contains(lam, mu):
        return []
    top = lam + (0,)
    chains = [(mu,)]
    for _ in range(sum(lam) - sum(mu)):
        grown = []
        for chain in chains:
            rows = chain[-1]
            for r, length in enumerate(rows + (0,)):
                if length < top[r] and (r == 0 or rows[r - 1] > length):
                    grown.append(chain + (rows[:r] + (length + 1,) + rows[r + 1 :],))
        chains = grown
    return chains


def chain_rows(mu, lam, presentation):
    """The path count from mu to lam and every prefix x relation vector x
    suffix as a sparse row over the path basis (a repeated path keeps one
    entry per term, so a consumer must add them up)."""
    paths = saturated_chains(mu, lam)
    path_index = {path: idx for idx, path in enumerate(paths)}
    rows = []
    for path in paths:
        for j in range(len(path) - 2):
            rel = presentation.relations[(path[j], path[j + 2])]
            for vector in rel.vectors:
                rows.append(
                    [
                        (path_index[path[: j + 1] + (mid,) + path[j + 2 :]], coeff)
                        for mid, coeff in zip(rel.mids, vector)
                    ]
                )
    return len(paths), rows


def chain_dim_bareiss(mu, lam, presentation):
    """The chain oracle for any relation vectors, ranked by Bareiss."""
    n_paths, rows = chain_rows(mu, lam, presentation)
    entries = {}
    for r, row in enumerate(rows):
        for col, coeff in row:
            entries[(r, col)] = entries.get((r, col), 0) + coeff
    return n_paths - rank(IntMatrix(len(rows), n_paths, entries))


def with_relation_spaces(presentation, relations):
    """The presentation with all its relation spaces replaced."""
    return QuadraticPresentation(presentation.max_size, presentation.objects, relations)


def widened(presentation, vectors=((3, 5, -1),)):
    """Every diamond relation rewritten over the mids (left, right, left)
    with the given vectors.  The default has three nonzero terms and spans
    the line 2 left + 5 right instead of the sum."""
    relations = dict(presentation.relations)
    for pair, rel in presentation.relations.items():
        if len(rel.mids) == 2 and rel.vectors:
            relations[pair] = RelationSpace(rel.mids + rel.mids[:1], vectors)
    return with_relation_spaces(presentation, relations)


def load_bench_workloads():
    """``perfbench/workloads.py``, loaded read-only from its file: the gate's
    closed forms and its recorded diamond counts."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
