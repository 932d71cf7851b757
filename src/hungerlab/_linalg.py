"""Small dense Gauss-Jordan elimination, shared by the stationary solve, the
hitting-probability systems, and lattice membership.

Exact mode takes rational entries (Fractions or ints) and eliminates
fraction-free on Python ints: each row is scaled to integers by the lcm of
its denominators, and rows are combined by Bareiss's update, whose division
by the previous pivot is exact (E. H. Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968).
The pivot is the first nonzero entry, and the reduced row echelon form is
unique, so every result equals the one plain Fraction elimination gives;
Fractions are built only for the entries returned. Float mode uses partial
pivoting and a tolerance. Matrices here have at most a few hundred rows, so
plain row lists beat any dependency.
"""

import math
import operator
from fractions import Fraction


def _rref(M, tol, ncols):
    """Reduce M in place to reduced row echelon form, up to row scaling.

    Args:
        M: list of row lists (Fractions or ints, or floats when tol is not
            None).
        tol: None for exact arithmetic, else the pivot magnitude threshold.
        ncols: pivot only in the first ncols columns.

    Returns:
        List of pivot column indices, one per pivot row. Pivot row r is the
        reduced row times its pivot entry M[r][pivots[r]]: 1.0 in float
        mode, a nonzero int in exact mode, where every entry becomes an int.
        The rows after the pivot rows are zero in the first ncols columns;
        in exact mode they are nonzero multiples of the reduced rows, so
        they are zero exactly where those are.
    """
    nrows = len(M)
    exact = tol is None
    if exact:
        for i, row in enumerate(M):
            d = math.lcm(*(x.denominator for x in row))
            M[i] = [x.numerator * (d // x.denominator) for x in row]
        # Bareiss's step k updates every row i to (p_k M_i - f M_r) / p_(k-1),
        # with p_k the k-th pivot and f = M_ic; a row with f = 0 is only
        # scaled by p_k / p_(k-1). Such rows are left as they are, with the
        # pivot of their last update in last[i]: the scalings telescope, so
        # the next update divides by last[i] instead, and a row about to
        # become the pivot row catches up by prev / last[i].
        last = [1] * nrows
        prev = 1
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        if exact:
            pr = next((i for i in range(r, nrows) if M[i][c]), None)
        else:
            pr = max(range(r, nrows), key=lambda i: abs(M[i][c]))
            if abs(M[pr][c]) <= tol:
                pr = None
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        if exact:
            last[r], last[pr] = last[pr], last[r]
            if last[r] != prev:
                M[r] = [x * prev // last[r] for x in M[r]]
            pivot_row = M[r]
            p = pivot_row[c]
            for i in range(nrows):
                f = M[i][c]
                if f and i != r:
                    li = last[i]
                    M[i] = [(p * a - f * b) // li for a, b in zip(M[i], pivot_row)]
                    last[i] = p
            last[r] = prev = p
        else:
            piv = M[r][c]
            M[r] = [x / piv for x in M[r]]
            for i in range(nrows):
                if i != r and M[i][c] != 0:
                    f = M[i][c]
                    M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return pivots


def _reduce(A, bs, tol):
    """One elimination of [A | b for b in bs], pivoting in A's columns.

    Returns (basis, solutions): a basis of {x : A x = 0}, one tuple per free
    column, and for each b one solution of A x = b with the free variables
    set to zero, or None if that system is inconsistent. Each result is bit
    for bit the one an elimination of A, or of [A | b] alone, would give.
    """
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    M = [list(row) + [b[i] for b in bs] for i, row in enumerate(A)]
    pivots = _rref(M, tol, ncols)
    if tol is None:
        zero, one, div = Fraction(0), Fraction(1), Fraction
    else:
        zero, one, div = 0.0, 1.0, operator.truediv
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [zero] * ncols
        x[f] = one
        for r, c in enumerate(pivots):
            x[c] = div(-M[r][f], M[r][c])
        basis.append(tuple(x))
    out = []
    for k in range(ncols, ncols + len(bs)):
        residual = [M[i][k] for i in range(len(pivots), nrows)]
        if any(x != 0 if tol is None else abs(x) > tol for x in residual):
            out.append(None)  # inconsistent
            continue
        x = [zero] * ncols
        for r, c in enumerate(pivots):
            x[c] = div(M[r][k], M[r][c])
        out.append(tuple(x))
    return basis, out

