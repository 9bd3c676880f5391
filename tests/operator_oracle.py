"""Dense Kronecker route to the operator lifts and the braid and QYBE
mismatches, kept as a test oracle.

R12 and R23 are the Kronecker paddings R (x) I and I (x) R, R13 is the
twist conjugation (I (x) tau)(R (x) I)(I (x) tau), and every product is
the dense `linalg.mat_mul`, which `tests/test_linalg.py` checks against
the field-scalar product of `tests/linalg_oracle.py`.  It shares no code
with the slot rule or the sparse integer products of `ujla.yang_baxter`.
"""

from __future__ import annotations

import itertools

from ujla.linalg import Matrix, kron, mat_mul
from ujla.yang_baxter import twist


def lift13_via_composition(r):
    """The 13-lift as (I (x) tau)(R (x) I)(I (x) tau)."""
    d = r.dim
    field = r.field
    i_tau = kron(Matrix.identity(field, d), twist(field, d).matrix)
    r_i = kron(r.matrix, Matrix.identity(field, d))
    return mat_mul(i_tau, mat_mul(r_i, i_tau))


def oracle_lifts(r):
    """The lifts by position: Kronecker paddings and twist conjugation."""
    ident = Matrix.identity(r.field, r.dim)
    return {12: kron(r.matrix, ident), 23: kron(ident, r.matrix), 13: lift13_via_composition(r)}


def dense_oracle(r):
    """Lifts as Kronecker paddings and twist conjugation, and the first
    row-major mismatch of the braid and QYBE products formed from them."""
    lifts = oracle_lifts(r)

    def first_mismatch(lhs_word, rhs_word):
        lhs, rhs = (mat_mul(lifts[a], mat_mul(lifts[b], lifts[c])) for a, b, c in (lhs_word, rhs_word))
        for row, col in itertools.product(range(lhs.nrows), range(lhs.ncols)):
            if lhs[row, col] != rhs[row, col]:
                return (row, col, lhs[row, col], rhs[row, col])
        return None

    return (lifts, first_mismatch((12, 23, 12), (23, 12, 23)),
            first_mismatch((12, 13, 23), (23, 13, 12)))
