"""Naive Bayes over mixed features, driven by additive sufficient statistics.

Naive Bayes is an exponential family: its statistics are sums over
instances of the per-class feature row

    Phi(x) = [1 | onehot(code) per discrete feature | (x, x^2) per continuous feature]

(each group in schema order) placed in the instance's class row, so
labelled data and posterior weighted data both give the (r, w) matrix
P^T Phi(X), with P the (m, r) one-hot labels or posteriors.  That
matrix is the statistics table: each class row holds the class mass,
the joint counts of every discrete cell and the sums of x and x^2 of
every continuous feature; its class mass is the s0 of those moments.
Counts and moments each fill one run of columns.

One cached map per schema fixes the columns of Phi and their names.
Statistics compose by plain addition and scalar multiplication, which
is what lets local statistics be averaged across a network.  Parameters
are the closed-form maximum likelihood mapping from statistics:
categorical tables by row normalization, Gaussians by moment matching

    mu = s1 / s0,    var = s2 / s0 - mu^2.

A model is one array theta (r, w) or (n, r, w) in the statistics'
columns: per class row, the class probability in the constant column,
each one-hot cell's conditional probability and each continuous pair's
(mu, var).

The log joint has one code path.  log p(x, y) is linear in the
statistics' own feature rows Phi(x - c), whose continuous pairs hold
(x - c, (x - c)^2), so K models over m rows take one product
L = W(theta) Phi(x - c)^T, class-major (..., r, m), with W theta
transformed in place: per class, the constant column holds
log p(y) - 1/2 sum((mu - c)^2 / var + log var + log 2 pi), each one-hot
cell log theta, and each continuous pair ((mu - c) / var, -1 / (2 var)).
L does not depend on c but its rounding does, by about eps times the
terms' magnitudes, (x - c)^2 / var for a row x.  So each node's rows are
shifted by their own mean (Chan, Golub & LeVeque's shifted sums), a
``Scorer``'s by the mean of all its rows, and a (model, row) whose terms
still cancel or overflow is formed again with the row itself as c.  A
zero probability, or a class constant that overflows, is a -inf weight:
every row that meets one gets L = -inf.  Every product over class rows
(L, P^T Phi, param_map's cell totals) is ``_by_class``: a class whose row
equals a lower class's bitwise takes that class's product, so equal
classes tie exactly, to the lowest class, on any BLAS kernel and thread
count.  Posteriors are the softmax over the r class rows, P^T itself,
ready for P^T Phi; zero probabilities yield exact 0/1 posteriors.  The
log joint keeps its own error state, so no caller sees it round or
overflow, and refuses a row impossible under every class, naming it as
a row of the caller's table and, in a stack, its model.

Every mapping also takes a leading node axis (statistics and parameters
(n, r, w), datasets X (n, m, d)), so one node and n same-size nodes share
one code path; ``data._nodes`` refuses the other form where one is
needed.  One row or one model is the matrix call on [x] or the stacked
call on [params], and item 0 of the result.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf, log, pi, prod

import numpy as np

from .data import DataError, Dataset, Discrete, FeatureSchema, _nodes, _real, _same_schema, validate_instances

# Smallest admissible count (class mass or cell count) after projection.
COUNT_FLOOR = 1e-9
# Smallest admissible Gaussian variance.
VAR_FLOOR = 1e-6
_NOT_FINITE = "statistics are not all finite; feature sums overflowed or a value is nan"

_LOG_2PI = log(2.0 * pi)


class _FeatureMap:
    """The columns of Phi for one schema and their names.

    Column 0 is the constant (class) column, then come the one-hot cells
    of the discrete features and from column ``moments`` on the (x, x^2)
    pairs of the continuous features, each group in schema order;
    feature i owns the columns ``blocks[i]``.  ``cont`` lists the
    continuous features; ``cell_feature`` and ``cell_code`` hold one
    entry per one-hot cell.
    """

    def __init__(self, schema: FeatureSchema) -> None:
        features = schema.features
        ys = range(1, schema.class_cardinality + 1)
        self.blocks = [None] * len(features)  # column slice of each feature
        cols, base, cont, cell_feature, cell_code = ["class[{y}]"], [1.0], [], [], []
        # Discrete features first, then continuous ones; a stable sort keeps schema order.
        for i in sorted(range(len(features)), key=lambda i: not isinstance(features[i], Discrete)):
            w = len(base)
            if isinstance(features[i], Discrete):
                c = features[i].cardinality
                cell_feature += [i] * c
                cell_code += range(1, c + 1)
                base += [1.0 / c] * c
                cols += [f"feature[{i}].count[{{y}}][{k}]" for k in range(1, c + 1)]
            else:
                cont.append(i)
                base += [0.0, 1.0]
                cols += [f"feature[{i}].moment[{{y}}][{j}]" for j in (1, 2)]
            self.blocks[i] = slice(w, len(base))
        param_names = [f"class_prob[{y}]" for y in ys]
        for i, spec in enumerate(features):
            if isinstance(spec, Discrete):
                param_names += [f"feature[{i}].prob[{y}][{k}]" for y in ys for k in range(1, spec.cardinality + 1)]
            else:
                param_names += [f"feature[{i}].{p}[{y}]" for y in ys for p in ("mean", "var")]

        self.width = len(base)
        self.moments = 1 + len(cell_code)  # first (x, x^2) column
        self.names = tuple(col.format(y=y) for y in ys for col in cols)  # StatsVector components
        self.param_names = tuple(param_names)  # NBParams components, block order
        self.base = np.array(base)  # uniform_init row per unit of class mass
        self.cont = np.array(cont, dtype=np.int64)
        self.cell_feature = np.array(cell_feature, dtype=np.int64)
        self.cell_code = np.array(cell_code, dtype=np.float64)
        # same_feature[k, j]: one-hot cells k and j belong to one feature
        self.same_feature = (self.cell_feature[:, None] == self.cell_feature).astype(np.float64)

    def pairs(self, A: np.ndarray) -> np.ndarray:
        """(..., q, 2) view of the (x, x^2) columns of (..., w) rows A, q continuous features."""
        return A[..., self.moments :].reshape(A.shape[:-1] + (len(self.cont), 2))

    def phi(self, X: np.ndarray, shift: np.ndarray | None = None) -> np.ndarray:
        """Feature rows Phi(x) of a validated (..., m, d) array; shape (..., m, w).

        With ``shift`` c, broadcast against the rows, the continuous pairs
        hold (x - c, (x - c)^2) instead; X itself is never written.
        """
        out = np.zeros(X.shape[:-1] + (self.width,))
        out[..., 0] = 1.0
        out[..., 1 : self.moments] = (X[..., self.cell_feature] == self.cell_code).view(np.uint8)  # faster than bool
        xc, pairs = X[..., self.cont], self.pairs(out)  # xc is a gathered copy
        if shift is not None:
            xc -= shift
        pairs[..., 0] = xc
        pairs[..., 1] = xc * xc
        return out


_feature_map = lru_cache(maxsize=None)(_FeatureMap)


# numpy reduces fewer terms than this in order, as a chain of elementwise calls does: it sums 8 or more pairwise.
_CHAIN = 8


def _reduce(ufunc: np.ufunc, A: np.ndarray, axis: int, keepdims: bool = False, initial=None) -> np.ndarray:
    """``ufunc.reduce(A, axis)``, from ``initial`` if given, as a fresh array, in the same bits.

    numpy reduces a short axis in short inner loops, slowly; fewer than
    _CHAIN terms are folded instead one elementwise call at a time, from
    ``initial``, else the ufunc's identity (add's 0.0 + the first term),
    else the first term, as numpy folds them.  A longer or empty axis is
    left to ``ufunc.reduce``.  The bits are numpy's but for nan payloads
    and, along a contiguous last axis, the sign of a zero maximum or
    minimum, which numpy may take from SIMD lanes.
    """
    axis %= A.ndim
    if not 0 < (n := A.shape[axis]) < _CHAIN:
        return ufunc.reduce(A, axis=axis, keepdims=keepdims, **({} if initial is None else {"initial": initial}))
    at, start = (slice(None),) * axis, ufunc.identity if initial is None else initial
    acc = np.array(A[at + (0,)]) if start is None else np.asarray(ufunc(start, A[at + (0,)]))
    for i in range(1, n):
        ufunc(acc, A[at + (i,)], out=acc)
    return acc.reshape(A.shape[:axis] + (1,) + A.shape[axis + 1 :]) if keepdims else acc


def _table(schema: FeatureSchema, A, what: str) -> np.ndarray:
    """A as a float64 table in the columns of Phi, one node (r, w) or a stack (n, r, w), or refused."""
    A = np.asarray(A, dtype=np.float64)
    r, w = schema.class_cardinality, _feature_map(schema).width
    if A.ndim not in (2, 3) or A.shape[-2:] != (r, w):
        raise ValueError(f"expected {what} of shape ({r}, {w}) or (n, {r}, {w}), got {A.shape}")
    return A


@dataclass
class StatsVector:
    """Additive statistics P^T Phi for one schema.

    ``values`` is the float64 (r, w) matrix P^T Phi itself: one row per
    class, in the columns of Phi.  An optional leading node axis,
    ``values`` of shape (n, r, w), holds one table per node.  The block
    accessors return writable views into it.
    """

    schema: FeatureSchema
    values: np.ndarray
    __array_ufunc__ = None  # a numpy scalar times statistics is __rmul__, not an object array's ufunc

    def __post_init__(self) -> None:
        self.values = _table(self.schema, self.values, "statistics")

    @property
    def class_block(self) -> np.ndarray:
        """Class masses (..., r), the constant column; the s0 of every moment."""
        return self.values[..., 0]

    def feature_block(self, i: int) -> np.ndarray:
        """Feature i's (..., r, c) cell counts, or (..., r, 2) sums of x and x^2."""
        return self.values[..., _feature_map(self.schema).blocks[i]]

    @property
    def ess(self) -> float:
        """Equivalent sample size: total mass in the class block, of all nodes when stacked."""
        return float(self.class_block.sum())

    def __getitem__(self, key) -> "StatsVector":
        """Node v + 1's statistics (``S[v]``) or a stacked slice, as views."""
        return StatsVector(self.schema, _nodes("S[v]", self.values, True, "; one node has no node axis")[key])

    def __add__(self, other: "StatsVector") -> "StatsVector":
        _same_schema("statistics", self.schema, other.schema)
        return StatsVector(self.schema, self.values + other.values)

    def __sub__(self, other: "StatsVector") -> "StatsVector":
        _same_schema("statistics", self.schema, other.schema)
        return StatsVector(self.schema, self.values - other.values)

    def __mul__(self, scalar: float) -> "StatsVector":
        with np.errstate(over="ignore", invalid="ignore"):  # a product that overflows is refused by name
            return _finite(StatsVector(self.schema, self.values * _real("scalar", scalar, -inf)))

    __rmul__ = __mul__

    def to_text(self) -> str:
        """Full-precision key/value dump, one component per line, in storage order."""
        _nodes("StatsVector.to_text", self.values, False, "; index one node first: S[v]")
        names = _feature_map(self.schema).names
        lines = [f"ess = {self.ess!r}"]
        lines += [f"{name} = {float(v)!r}" for name, v in zip(names, self.values.ravel())]
        return "\n".join(lines) + "\n"


def zero_stats(schema: FeatureSchema) -> StatsVector:
    return StatsVector(schema, np.zeros((schema.class_cardinality, _feature_map(schema).width)))


@dataclass
class NBParams:
    """Classifier parameters theta (r, w) or (n, r, w), in the columns of the statistics they map from.

    Per class row: the class probability in the constant column 0, each
    one-hot cell's conditional probability, and each continuous
    feature's (mean, variance) pair, an optional node axis in front.
    Stacked along that axis, the parameters act as a sequence of models:
    ``len(P)`` is the node count, ``P[v]`` node v + 1's model and
    ``P[lo:hi]`` a stacked slice, all views.  ``class_probs`` and
    ``feature_params`` are views of theta, for reading it by blocks.
    """

    schema: FeatureSchema
    theta: np.ndarray

    def __post_init__(self) -> None:
        self.theta = _table(self.schema, self.theta, "parameters")

    @property
    def class_probs(self) -> np.ndarray:
        """Class probabilities (..., r)."""
        return self.theta[..., 0]

    @property
    def feature_params(self) -> tuple[np.ndarray, ...]:
        """Feature i's (..., r, c) conditional table, or (..., r, 2) (mean, variance) pairs, per feature."""
        return tuple(self.theta[..., sl] for sl in _feature_map(self.schema).blocks)

    def __len__(self) -> int:
        return len(_nodes("len(P)", self.theta, True, "; one node has no node axis"))

    def __getitem__(self, key) -> "NBParams":
        return NBParams(self.schema, _nodes("P[v]", self.theta, True, "; one node has no node axis")[key])

    def to_text(self) -> str:
        _nodes("NBParams.to_text", self.theta, False, "; index one node first: P[v]")
        names = _feature_map(self.schema).param_names
        values = np.concatenate([self.class_probs, *(b.ravel() for b in self.feature_params)])
        return "".join(f"{name} = {float(v)!r}\n" for name, v in zip(names, values))


def _by_class(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A @ B (..., r, m) of class rows A (..., r, k), B batched (..., k, m) or shared (k, m), one GEMM over all rows.

    ``out`` takes the product, (rows, m) for a shared B.  A GEMM may round
    equal rows apart, by kernel or thread count, so a row of A bitwise
    equal to a lower class's takes that class's product.
    """
    r, k = A.shape[-2:]
    if B.ndim == 2:
        P = np.matmul(A.reshape(prod(A.shape[:-1]), k), B, out=out).reshape(A.shape[:-1] + B.shape[-1:])
    else:
        P = np.matmul(A, B, out=out)
    n = prod(A.shape[:-2])
    A3, P3 = A.reshape(n, r, k), P.reshape(n, r, P.shape[-1])  # P3 is a view: P is contiguous
    c0 = A3[..., :1]  # equal rows have equal first columns
    for j in range(1, r):  # each lower class i already holds its lowest equal class's product
        for i in range(j):
            if (at := np.flatnonzero(c0[:, j] == c0[:, i])).size:
                at = at[(A3[at, j] == A3[at, i]).all(axis=-1)]
                P3[at, j] = P3[at, i]
    return P


def _finite(stats: StatsVector) -> StatsVector:
    """``stats``, refused unless every value is finite."""
    if not np.isfinite(stats.values).all():
        raise ValueError(_NOT_FINITE)
    return stats


def _accumulate(schema: FeatureSchema, PT: np.ndarray, phi: np.ndarray) -> StatsVector:
    """Statistics P^T Phi of weighted instances with rows ``phi``: column k of P^T spreads instance k over classes."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(StatsVector(schema, _by_class(PT, phi)))


def _labelled(dataset: Dataset, phi: np.ndarray) -> StatsVector:
    """Statistics P^T Phi of labelled rows with feature rows ``phi``, P their one-hot labels; empty data is refused."""
    if dataset.m == 0:
        raise ValueError("empty dataset has no statistics")
    onehot = np.eye(dataset.schema.class_cardinality)[dataset.y - 1]
    return _accumulate(dataset.schema, np.swapaxes(onehot, -1, -2), phi)


def stat_map_dataset(dataset: Dataset) -> StatsVector:
    """Statistics P^T Phi(X) of labelled rows, P their (m, r) one-hot labels; ess equals the row count."""
    return _labelled(dataset, _feature_map(dataset.schema).phi(dataset.X))


def prob_stat_map(X, params: NBParams) -> StatsVector:
    """Expected statistics of unlabelled instances under a model.

    Each instance x adds Phi(x) to every class row y, weighted by its
    posterior p(y | x): the result is P^T Phi(X), P the (m, r) posteriors
    in place of one-hot labels.  The ess equals the number of instances
    because posteriors sum to one.
    """
    X = validate_instances(params.schema, X)
    phi = _feature_map(params.schema).phi(X)
    return _accumulate(params.schema, _posterior(params, _Rows(params.schema, X, phi=phi)), phi)


def _posterior(params: NBParams, rows: _Rows) -> np.ndarray:
    """Class-major posteriors P^T (..., r, m) of ``params`` over ``rows``, in the memory of their log joint."""
    logj = rows.log_joint(params)[0]
    logj -= _reduce(np.maximum, logj, -2, keepdims=True)  # finite: log_joint refuses a row impossible under every class
    z = np.exp(logj, out=logj)
    z /= _reduce(np.add, z, -2, keepdims=True)
    return z


def posterior_matrix(params: NBParams, X) -> np.ndarray:
    """Posterior p(y | x) for each row of X; shape (..., m, r), rows sum to 1.

    The result is a transposed view of the class-major posteriors.
    """
    X = validate_instances(params.schema, X)
    return np.swapaxes(_posterior(params, _Rows(params.schema, X)), -1, -2)


def predict_matrix(params: NBParams, X) -> np.ndarray:
    """Most probable class per row, ties resolved to the lowest index."""
    X = validate_instances(params.schema, X)
    return _Rows(params.schema, X).log_joint(params)[0].argmax(axis=-2) + 1


def param_map(stats: StatsVector) -> NBParams:
    """Closed-form maximum likelihood parameters from statistics.

    Requires finite, projected statistics: every count, class masses
    included, at least COUNT_FLOOR.  Variances are floored at VAR_FLOOR.
    """
    fm = _feature_map(stats.schema)
    S = _finite(stats).values
    if S[..., : fm.moments].min() < COUNT_FLOOR:
        raise ValueError("statistics below the count floor; project before mapping to parameters")
    # Parameters take the columns of the statistics they come from.
    theta = np.empty_like(S)
    cls = S[..., 0]
    np.divide(cls, _reduce(np.add, cls, -1, keepdims=True), out=theta[..., 0])
    cells = S[..., 1 : fm.moments]
    theta[..., 1 : fm.moments] = cells / _by_class(cells, fm.same_feature)
    s0, s, t = S[..., :1], fm.pairs(S), fm.pairs(theta)  # t holds (mu, var) pairs
    mu = np.divide(s[..., 0], s0, out=t[..., 0])
    np.maximum(s[..., 1] / s0 - mu * mu, VAR_FLOOR, out=t[..., 1])
    return NBParams(stats.schema, theta)


def uniform_init(schema: FeatureSchema, m0: float) -> StatsVector:
    """Statistics of total mass m0 whose model is maximally uninformative.

    Class mass m0/r per class; discrete cells m0/(r * cardinality), so
    every conditional table is uniform; continuous sums (0, m0/r) of x
    and x^2, giving mean 0 and variance 1 for every class.  The
    resulting posterior is uniform for every instance, and the
    construction is homogeneous: uniform_init(c * m0) equals
    c * uniform_init(m0) componentwise.
    """
    m0, r = _real("m0", m0, 0), schema.class_cardinality
    return StatsVector(schema, np.tile((m0 / r) * _feature_map(schema).base, (r, 1)))


# The product is trusted where the magnitudes of its terms sum to at most this many times 1 + |L|.
_CANCEL = 2.0**10


def _weights(models: NBParams, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights W(theta) (..., r, w) over rows Phi(x - c), models and c (..., 1, q) broadcast, and their -inf mask.

    A -inf weight is returned as 0 (OpenBLAS's dgemm, 0.3.31, Haswell
    kernels, raised the invalid flag on -inf even where its result was
    right), so classes whose weights differ only there share a product,
    and the mask tells them apart.
    """
    fm = _feature_map(models.schema)
    W = np.empty(np.broadcast_shapes(models.theta.shape[:-2], np.shape(c)[:-2]) + models.theta.shape[-2:])
    W[...] = models.theta  # theta is laid out in W's columns
    t = fm.pairs(W)  # (mu, var) pairs
    a, inv = t[..., 0] - c, 1.0 / t[..., 1]
    with np.errstate(divide="ignore", over="ignore"):
        np.log(W[..., : fm.moments], out=W[..., : fm.moments])  # log p(y) and every log theta
        W[..., 0] -= 0.5 * _reduce(np.add, a * a * inv + np.log(t[..., 1]) + _LOG_2PI, -1)
    t[..., 0] = a * inv
    t[..., 1] = -0.5 * inv
    zero = W == -inf
    W[zero] = 0.0
    return W, zero


class _Rows:
    """Validated rows X (..., m, d) as Phi(X - c)^T (..., w, m), c each leading slice's mean (..., 1, q).

    With ``order``, a permutation of pooled rows X (m, d), column j holds row order[j].  Without
    it, ``phi`` may be Phi(X), formed by the caller: only the continuous pairs are formed again, shifted.
    """

    def __init__(self, schema: FeatureSchema, X: np.ndarray, order: np.ndarray | None = None,
                 phi: np.ndarray | None = None) -> None:
        fm = self.fm = _feature_map(schema)
        self.order, X = order, X if order is None else X[order]
        self.xc = X[..., fm.cont]
        self.c = _reduce(np.add, self.xc, -2, keepdims=True) / max(X.shape[-2], 1)  # 0 over no rows
        with np.errstate(over="ignore"):  # log_joint forms the rows of an infinite (x - c)^2 again
            phi = fm.phi(X) if phi is None else phi
            x = self.xc - self.c
            x2 = x * x
        # Phi(x - c) is Phi(x) with the continuous pairs shifted; its constant and one-hot cells are 0 or 1.
        self.phiT = np.swapaxes(phi, -1, -2).copy()
        self.phiT[..., fm.moments :: 2, :] = np.swapaxes(x, -1, -2)
        self.phiT[..., fm.moments + 1 :: 2, :] = np.swapaxes(x2, -1, -2)
        self.phi_max = _reduce(np.maximum, phi, -2, initial=0.0)  # max |Phi(x - c)| over the rows
        self.phi_max[..., fm.moments :: 2] = _reduce(np.maximum, np.abs(x), -2, initial=0.0)
        self.phi_max[..., fm.moments + 1 :: 2] = _reduce(np.maximum, x2, -2, initial=0.0)

    @np.errstate(over="ignore", invalid="ignore")  # a bound that overflows only sends its rows to be formed again
    def weigh(self, models: NBParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_weights`` of ``models`` over these rows, and each model's bound max_c sum |W| phi_max.

        A caller scoring a stack in slices weighs it once and hands each
        slice of the three to ``log_joint``.
        """
        W, zero = _weights(models, self.c)
        bound = (np.abs(W) @ self.phi_max[..., None])[..., 0]  # sum |W| |Phi| <= |W| phi_max
        return W, zero, _reduce(np.maximum, bound, -1)

    @np.errstate(over="ignore", invalid="ignore")  # an overflowing or nan L is formed again, not warned of
    def log_joint(self, models: NBParams, out: np.ndarray | None = None, weighed: tuple | None = None, first: int = 0):
        """Log joint L (..., r, m) of ``models`` over the rows, leading axes broadcast, and its -inf mask or None.

        ``out``, over shared rows, is a (K r, m) buffer; ``weighed`` is
        ``weigh(models)`` if already formed.  A (model, row) whose terms
        overflow or cancel, sum |W| |Phi| > _CANCEL (1 + |L|), is formed again
        with the row itself as c, which leaves no continuous terms; only a
        call whose bound exceeds _CANCEL looks for them.  With no mask, every
        L is finite.  A row -inf under every class is refused by the lowest
        such model, numbered from ``first`` in a stack, and its lowest row of X.
        """
        W, zero, bound = self.weigh(models) if weighed is None else weighed
        mask = None
        logj = _by_class(W, self.phiT, out)
        sound = bound.max(initial=0.0) <= _CANCEL
        if not sound or zero.any():
            n = self.fm.moments  # only constant and one-hot weights are ever -inf
            mask = zero[..., :n].astype(np.float64) @ self.phiT[..., :n, :] > 0
            if not sound:
                terms = np.abs(W) @ np.abs(self.phiT)
                loose = ~((terms <= _CANCEL * (1.0 + np.abs(logj))) & (terms < inf))
                self._reform(models, logj, mask, loose.any(axis=-2))
            if (impossible := _reduce(np.logical_and, mask, -2)).any():
                if self.order is not None:  # in the caller's row order
                    impossible = impossible[..., np.argsort(self.order)]
                *model, row = np.unravel_index(np.argmax(impossible), impossible.shape)
                of = f" of model {first + model[-1]}" if model else ""
                raise ValueError(f"row {row} has probability zero under every class{of}; its posterior is undefined")
            logj[mask] = -inf
        return logj, mask

    def _reform(self, models: NBParams, logj: np.ndarray, mask: np.ndarray, loose: np.ndarray) -> None:
        """Write the log joint and -inf mask of each ``loose`` (model, row), shifting the row by itself."""
        at, n = np.nonzero(loose), self.fm.moments

        def pick(A: np.ndarray, idx: tuple) -> np.ndarray:  # A's last two axes at idx, broadcast over models
            return np.broadcast_to(A, loose.shape[:-1] + A.shape[-2:])[idx]

        W, zero = _weights(NBParams(models.schema, pick(models.theta, at[:-1])), pick(self.xc, at)[:, None, :])
        phi = pick(np.swapaxes(self.phiT[..., :n, :], -1, -2), at)[..., None]  # (B, n, 1): Phi(x - x)
        np.swapaxes(logj, -1, -2)[at] = (W[..., :n] @ phi)[..., 0]
        np.swapaxes(mask, -1, -2)[at] = (zero[..., :n].astype(np.float64) @ phi)[..., 0] > 0


# Log joint cells (model, class, row) per pass, or one model's if more; a Scorer's work buffers hold one pass.
_EVAL_CELLS = 2**17


def _stacked(models, schema: FeatureSchema) -> NBParams:
    """Models to score as one stacked NBParams: stacked already, or a list of single models."""
    if isinstance(models, NBParams):
        _nodes("Scorer", models.theta, True, "; pass [params] or stacked parameters")
        _same_schema("model and dataset", schema, models.schema)
        return models
    models = list(models)
    _same_schema("model and dataset", schema, *(p.schema for p in models))
    r, w = schema.class_cardinality, _feature_map(schema).width
    thetas = [p.theta for p in models]  # each (r, w) or (n, r, w): the one of most axes is a stack if any is
    _nodes("Scorer", max(thetas, key=lambda t: t.ndim, default=np.empty((r, w))), False, "; pass a stack by itself")
    return NBParams(schema, np.reshape(thetas, (-1, r, w)))


class Scorer:
    """Mean 0-1 errors of stacked models on fixed datasets, and mean soft errors on the first one.

    Built once from the datasets, a Scorer holds what every call shares: the
    rows Phi(x - c)^T of all datasets, stably sorted by (dataset, class) so
    that each segment of one dataset's class y is a run of columns, each
    segment's tests, and work buffers for one pass of ``_EVAL_CELLS`` log
    joint cells.  A call weighs its whole stack once (``_Rows.weigh``); each
    pass of it judges its own soundness and is one GEMM into the log joint
    buffer L.  A row is wrong iff some class c beats its true class y,
    L_c >= L_y with c < y or L_c > L_y with c > y: the argmax, ties to the
    lowest class.  Every dataset, in every pass, applies this one test to
    its log joints, -inf included: a -inf L_y loses to the finite L_c that
    a possible row has, and a -inf L_c beats no finite L_y.  Only the first
    dataset forms differences, for its soft error: d_c = L_c - L_y, c != y,
    in one (k, r - 1, n) buffer, a -inf L_c against a -inf L_y giving
    d_c = -inf; the true-class posterior is 1 / (1 + sum_c exp(d_c)) (0
    when exp overflows).  So a call allocates little besides its results
    and weights, unless an L is -inf or its terms may cancel.  Error
    messages number the rows as one table, in dataset order, and the
    models in the whole stack.  Every dataset must be pooled, X (m, d): a
    stacked one is refused.
    """

    def __init__(self, datasets: list[Dataset]) -> None:
        if not datasets:
            raise ValueError("need at least one dataset to score")
        self.schema = schema = datasets[0].schema
        _same_schema("the datasets to score", *(ds.schema for ds in datasets))
        for ds in datasets:
            if _nodes("Scorer", ds, False, "; score its pooled rows, global_sample(dataset, plan)", DataError).m == 0:
                raise ValueError("cannot evaluate on an empty dataset")
        X = np.concatenate([ds.X for ds in datasets])
        r = schema.class_cardinality
        self.m = np.array([ds.m for ds in datasets])
        group = np.repeat(np.arange(len(datasets)) * r, self.m) + np.concatenate([ds.y for ds in datasets]) - 1
        self.rows = _Rows(schema, X, np.argsort(group, kind="stable"))  # columns grouped by (dataset, class)
        sizes = np.bincount(group, minlength=len(datasets) * r)
        # One entry per nonempty segment, dataset d's rows of true class y (columns a:b): whether its soft error
        # counts, and per other class c, in class order, the test by which L_c beats L_y, paired with c.
        self.segments = []
        for s, (n, e) in enumerate(zip(sizes, np.cumsum(sizes))):
            if n:
                d, y = divmod(s, r)
                others = [c for c in range(r) if c != y]
                beats = [np.greater_equal if c < y else np.greater for c in others]  # a lower class wins a tie
                self.segments.append((y, e - n, e, d == 0, [*zip(beats, others)]))
        k = self.pass_width = max(1, _EVAL_CELLS // (r * len(X)))  # models per pass
        self._logj = np.empty(k * r * len(X))  # flat, so that a short pass is a contiguous prefix
        self._diff = np.empty(k * (r - 1) * sizes[:r].max())  # the first dataset's; a segment is a contiguous prefix
        self._wrong = np.empty(k * len(X), dtype=bool)  # a pass's wrong rows, (k, M) like its log joint
        self._tie_or_win = np.empty(k * sizes.max(), dtype=bool)
        self._starts = np.cumsum(self.m) - self.m  # each dataset's first column
        self._count_type = np.int32 if len(X) < 2**31 else np.int64  # a pass counts at most M rows; int32 sums faster

    def __call__(self, models) -> tuple[np.ndarray, np.ndarray]:
        """(D, K) 0-1 errors, row d on dataset d, and (K,) soft errors of ``models``, fresh arrays.

        ``models`` is one stacked NBParams or a list of single models.
        """
        models = _stacked(models, self.schema)
        (K, r), M = models.theta.shape[:2], len(self.rows.order)
        wrong = np.zeros((len(self.m), K), dtype=np.int64)
        post = np.zeros(K)  # sums of the first dataset's true-class posteriors
        with np.errstate(over="ignore", invalid="ignore"):  # -inf - -inf is nan and exp(d_c) may overflow
            weighed = self.rows.weigh(models)
            for lo in range(0, K, self.pass_width):
                k = min(self.pass_width, K - lo)
                hi, out = lo + k, self._logj[: k * r * M].reshape(k * r, M)
                logj, mask = self.rows.log_joint(models[lo:hi], out, tuple(a[lo:hi] for a in weighed), lo)
                wrong_rows = self._wrong[: k * M].reshape(k, M)
                for y, a, b, soft, tests in self.segments:
                    n = b - a
                    L, wrong_row = logj[..., a:b], wrong_rows[:, a:b]
                    (beats, c), *rest = tests
                    beats(L[:, c], L[:, y], out=wrong_row)
                    for beats, c in rest:
                        wrong_row |= beats(L[:, c], L[:, y], out=self._tie_or_win[: k * n].reshape(k, n))
                    if soft:  # differences d_c = L_c - L_y, c != y
                        diff = self._diff[: k * (r - 1) * n].reshape(k, r - 1, n)
                        if y > 0:
                            np.subtract(L[:, :y], L[:, y, None], out=diff[:, :y])
                        if y < r - 1:
                            np.subtract(L[:, y + 1 :], L[:, y, None], out=diff[:, y:])
                        if mask is not None:  # -inf - -inf: a -inf L_c loses to a -inf L_y too
                            np.copyto(diff, -inf, where=np.isnan(diff))
                        total = np.exp(diff, out=diff)[:, 0]
                        for j in range(1, r - 1):
                            total += diff[:, j]
                        total += 1.0
                        post[lo:hi] += np.divide(1.0, total, out=total).sum(axis=1)
                wrong[:, lo:hi] += np.add.reduceat(wrong_rows, self._starts, axis=1, dtype=self._count_type).T
        return wrong / self.m[:, None], 1.0 - post / self.m[0]


def evaluate_many(models, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate many models on one dataset, as many per vectorized pass as fit ``_EVAL_CELLS`` log joint cells.

    ``models`` is one stacked NBParams, such as a network's batched
    ``param_map``, or a list of single models, which is stacked once.
    Returns two arrays of length len(models): mean 0-1 errors and mean
    soft errors (1 - posterior of the true class); one model is
    ``[params]``.  To score many stacks on one dataset, build one
    ``Scorer([dataset])`` and call it.
    """
    (err01,), soft = Scorer([dataset])(models)
    return err01, soft
