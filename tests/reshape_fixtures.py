"""Constraint evaluators shared by the test fixtures.

Several fixtures use G(x) = the column-major reshape of x into (M, N), plus
an optional constant offset: entry (m, n) is x[n*M + m], so its gradient is
a unit vector and its Hessian is zero, and constructed points can realize
any target constraint matrix exactly.  Others use a constant G.
"""
import numpy as np


def reshape_constraints(M, N, offset=None):
    """The ``ProblemInstance`` constraint fields of the reshape family."""
    K = M * N
    if offset is not None:
        offset = np.asarray(offset, dtype=float).reshape(M, N)

    def G(x):
        Z = np.reshape(np.asarray(x, dtype=float), (M, N), order="F")
        return Z if offset is None else Z + offset

    def G_batch(X):
        Z = np.asarray(X, dtype=float).reshape(-1, N, M).transpose(0, 2, 1)
        return Z if offset is None else Z + offset

    def grad_G_cols(x, rows, cols):
        out = np.zeros((K, len(rows)))
        out[np.asarray(cols) * M + np.asarray(rows), np.arange(len(rows))] = 1.0
        return out

    return dict(G=G, G_batch=G_batch, grad_G_cols=grad_G_cols,
                weighted_hess_G=lambda x, rows, cols, w: np.zeros((K, K)))


def constant_constraints(K, Z):
    """Constraint fields of a G that is Z everywhere."""
    Z = np.asarray(Z, dtype=float)
    return dict(
        G=lambda x: Z.copy(),
        G_batch=lambda X: np.broadcast_to(Z, (len(X),) + Z.shape).copy(),
        grad_G_cols=lambda x, rows, cols: np.zeros((K, len(rows))),
        weighted_hess_G=lambda x, rows, cols, w: np.zeros((K, K)),
    )
