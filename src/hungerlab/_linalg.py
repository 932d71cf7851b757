"""Small dense Gaussian elimination, shared by the stationary solve, the
hitting-probability systems, and lattice membership.

Rational mode works on fractions.Fraction entries with exact pivoting (first
nonzero pivot). Float mode uses partial pivoting and a tolerance. Matrices
here are tiny (n up to a few dozen), so plain row lists beat any dependency.
"""

from fractions import Fraction


def _rref(M, tol, ncols):
    """Reduce M in place to reduced row echelon form.

    Args:
        M: list of row lists (Fractions, or floats when tol is not None).
        tol: None for exact arithmetic, else the pivot magnitude threshold.
        ncols: pivot only in the first ncols columns.

    Returns:
        List of pivot column indices, one per pivot row.
    """
    nrows = len(M)
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        if tol is None:
            pr = next((i for i in range(r, nrows) if M[i][c] != 0), None)
        else:
            pr = max(range(r, nrows), key=lambda i: abs(M[i][c]))
            if abs(M[pr][c]) <= tol:
                pr = None
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        piv = M[r][c]
        M[r] = [x / piv for x in M[r]]
        for i in range(nrows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return pivots


def nullspace(A, tol=None):
    """Basis of {x : A x = 0} for a square or rectangular A.

    Returns a list of solution vectors (tuples), one per free column.
    """
    if not A:
        return []
    M = [list(row) for row in A]
    ncols = len(M[0])
    pivots = _rref(M, tol, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    zero = Fraction(0) if tol is None else 0.0
    one = Fraction(1) if tol is None else 1.0
    basis = []
    for f in free:
        x = [zero] * ncols
        x[f] = one
        for r, c in enumerate(pivots):
            x[c] = -M[r][f]
        basis.append(tuple(x))
    return basis


def solve(A, bs, tol=None):
    """For each right-hand side b in bs, one solution x of A x = b, or None
    if that system is inconsistent.

    Free variables, if any, are set to zero, so the caller gets a particular
    solution of an underdetermined system. One elimination serves every b;
    pivots are chosen in A's columns only, so each solution is bit for bit
    the one a system with b alone would give.
    """
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    M = [list(row) + [b[i] for b in bs] for i, row in enumerate(A)]
    pivots = _rref(M, tol, ncols)
    zero = Fraction(0) if tol is None else 0.0
    out = []
    for k in range(ncols, ncols + len(bs)):
        residual = [M[i][k] for i in range(len(pivots), nrows)]
        if any(x != 0 if tol is None else abs(x) > tol for x in residual):
            out.append(None)  # inconsistent
            continue
        x = [zero] * ncols
        for r, c in enumerate(pivots):
            x[c] = M[r][k]
        out.append(tuple(x))
    return out
