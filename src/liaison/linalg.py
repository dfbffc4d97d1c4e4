"""Small exact linear algebra over a coefficient field (lists of field values)."""


def rref(rows, field):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][col] != field.zero:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != field.zero:
                factor = rows[i][col]
                rows[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(rows, field):
    reduced, pivots = rref(rows, field)
    return len(pivots)


def kernel_basis(rows, ncols, field):
    """Basis of the right kernel of the matrix (rows of length ncols)."""
    reduced, pivots = rref(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [field.zero] * ncols
        vec[f] = field.one
        for r, p in enumerate(pivots):
            vec[p] = field.neg(reduced[r][f])
        basis.append(vec)
    return basis


def solve(rows, rhs, field):
    """One solution of rows * x = rhs (at least one row), or None if
    inconsistent."""
    ncols = len(rows[0])
    augmented = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(augmented, field)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, p in enumerate(pivots):
        x[p] = reduced[r][ncols]
    return x
