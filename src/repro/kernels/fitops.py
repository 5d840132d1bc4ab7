"""Numerically constructed box-to-box translation operators.

Every FMM translation (M->M, M->L, L->L, M->I, I->L) is a linear map
between expansion coefficient spaces.  Rather than deriving each map
analytically per kernel (which would defeat DASHMM's kernel-generic
design), the maps are *fitted by least squares from the analytic
particle-side operators*: random unit sources are placed in the
relevant geometry, both the input and the output expansion of each
sample are computed analytically, and the dense matrix relating them is
recovered as the minimum-norm least-squares solution.

The left-hand side of a fit depends only on the *input expansion space*,
never on the operator, so each of the three spaces draws one sample set
and is factored once per level key (:class:`SpaceFactor`, a truncated
SVD); every operator is then two matrix products against that factor:

* ``"multipole-box"`` - sources inside the unit box, rows
  ``p2m_matrix``: M->M, M->L, M->I and ``m2l_coarse``;
* ``"local-far"`` - sources outside the near zone, rows ``p2l_matrix``:
  L->L;
* ``"plane-wave-cone"`` - sources in the incoming cone of a direction,
  rows ``p2w_matrix``: I->L.  In the frame of its own direction the
  cone is the same point set for all six directions, so the six I->L
  operators share one left-hand side and are fitted together.

Because the input expansions of the samples span the realizable
coefficient manifold, the fitted operator agrees with the exact
translation up to the FMM truncation error - which is the accuracy
floor anyway.  Operators are cached per (operator, geometry, level
key); scale-invariant kernels (Laplace) share one operator set across
all levels, scale-variant kernels (Yukawa) get per-level sets, exactly
the distinction the paper draws.

Geometry conventions (everything in units of the box edge at the
relevant level):

* ``m2m(octant)``  - child multipole -> parent multipole; the child
  center sits at ``(+-1/4, +-1/4, +-1/4)`` in parent units.
* ``m2l(delta)``   - source multipole -> target local for same-level
  boxes with integer center offset ``delta`` (list 2).
* ``l2l(octant)``  - parent local -> child local.
* ``m2i(dir)``     - source multipole -> outgoing plane-wave amplitudes.
* ``i2l(dir)``     - incoming plane-wave amplitudes -> target local.
* ``m2l_coarse(delta, ratio)`` - multipole of a (possibly coarser)
  source box -> local of a target box, used for list 4-style geometry.
"""

from __future__ import annotations

import ast
import json
import zlib
from pathlib import Path

import numpy as np
from scipy.linalg import svd

from repro.kernels.base import Kernel
from repro.kernels.expo import DIRECTIONS, frame, i2i_factor, p2w_matrix
from repro.kernels.quadrature import build_quadrature
from repro.kernels.sphharm import idx

#: bump when the fitting procedure or the on-disk layout changes; caches
#: written with a different version are rejected on load
CACHE_FORMAT_VERSION = 4
#: the name prefix of an operator in a saved cache (see OperatorFactory.operators)
_OP = "op::"

_OCTANTS = [
    np.array([(0.5 if b else -0.5) / 2.0 for b in ((o >> 0) & 1, (o >> 1) & 1, (o >> 2) & 1)])
    for o in range(8)
]


def octant_offset(octant: int) -> np.ndarray:
    """Child-center offset from parent center, in parent box units."""
    return _OCTANTS[octant]


class SpaceFactor:
    """Truncated SVD of one input space's sample matrix (rows = samples).

    Singular values at or below ``rcond`` times the largest are dropped,
    so :meth:`fit` returns the minimum-norm least-squares solution that
    ``np.linalg.lstsq(inputs, outputs, rcond=rcond)`` returns - for any
    number of right-hand sides, at the cost of two matrix products each.

    ``inputs`` is consumed: the transpose is what gets factored,
    ``inputs.T = W S Zh``, because a C-ordered sample matrix is
    Fortran-ordered once transposed and LAPACK can then work in the
    caller's buffer (left holding garbage) instead of a copy - 8 MB for
    the plane-wave cone.  Pass a copy to keep the matrix.
    """

    def __init__(self, inputs: np.ndarray, rcond: float = 1e-10):
        w, s, zh = svd(inputs.T, full_matrices=False, overwrite_a=True, check_finite=False)
        rank = int(np.count_nonzero(s > rcond * s[0]))
        # pinv(inputs) = conj(W) S^-1 conj(Zh), kept as its two thin factors
        self._right = zh[:rank].conj()  # (rank, samples)
        self._left_t = (w[:, :rank] / s[:rank]).conj().T  # (rank, dim)

    def fit(self, outputs: np.ndarray) -> np.ndarray:
        """Least-squares T with ``outputs ~ inputs @ T.T``."""
        return (self._right @ outputs).T @ self._left_t


class OperatorFactory:
    """Builds and caches all fitted translation operators for a kernel.

    Parameters
    ----------
    kernel:
        The interaction kernel (supplies analytic particle-side ops).
    eps:
        Accuracy target of the exponential quadratures.
    n_extra:
        Extra samples beyond the coefficient-space dimension used in
        each fit (more samples -> better conditioning, slower fits).
    seed:
        Seed of the sample generator; fits are deterministic given it.

    Fitting costs one factorization per (input space, level key), so
    the cache can be shared process-wide (:meth:`shared`) and persisted
    to disk (:meth:`save`/:meth:`load`) as a versioned ``.npz`` keyed by
    the full fit signature (kernel name + parameters, ``p``, ``eps``,
    ``n_extra``, ``seed``).
    """

    #: process-wide registry used by :meth:`shared`
    _shared_instances: dict = {}

    def __init__(self, kernel: Kernel, eps: float = 1e-4, n_extra: int = 96, seed: int = 1234):
        self.kernel = kernel
        self.eps = eps
        self.n_extra = n_extra
        self.seed = seed
        self.hits = 0
        self.misses = 0
        self.factorizations = 0
        self._cache: dict = {}
        self._quads: dict = {}
        #: (space, level key) -> (samples, SpaceFactor); never persisted
        self._spaces: dict = {}

    # -- sharing & persistence ------------------------------------------------
    @classmethod
    def shared(
        cls, kernel: Kernel, eps: float = 1e-4, n_extra: int = 96, seed: int = 1234
    ) -> "OperatorFactory":
        """Process-wide factory for this fit signature.

        Evaluators with equivalent kernels (same name, order and
        parameters) get the same factory, so translation operators are
        fitted at most once per process instead of once per evaluator.
        """
        key = (kernel.name, kernel.p, tuple(kernel.param_key()), eps, n_extra, seed)
        fac = cls._shared_instances.get(key)
        if fac is None:
            fac = cls(kernel, eps=eps, n_extra=n_extra, seed=seed)
            cls._shared_instances[key] = fac
        return fac

    def signature(self) -> dict:
        """Everything the fitted operators depend on (cache identity)."""
        return {
            "format": CACHE_FORMAT_VERSION,
            "kernel": self.kernel.name,
            "p": self.kernel.p,
            "params": [float(v) for v in self.kernel.param_key()],
            "eps": float(self.eps),
            "n_extra": int(self.n_extra),
            "seed": int(self.seed),
        }

    def default_cache_path(self, directory) -> Path:
        """Canonical ``.npz`` path for this signature under ``directory``."""
        sig = self.signature()
        params = "".join(f"_{v:g}" for v in sig["params"])
        name = (
            f"ops_{sig['kernel']}{params}_p{sig['p']}_eps{sig['eps']:g}"
            f"_x{sig['n_extra']}_s{sig['seed']}_v{sig['format']}.npz"
        )
        return Path(directory) / name

    def operators(self) -> dict[str, np.ndarray]:
        """Every fitted operator by name (``op::`` and the repr of its
        cache key): what :meth:`save` writes and :meth:`adopt` takes."""
        return {f"{_OP}{key!r}": np.asarray(val) for key, val in self._cache.items()}

    def adopt(self, named: dict) -> None:
        """Take fitted operators by :meth:`operators` name, as given -
        no copy (a parallel worker's are views of the parent's shared
        memory); entries under other names are ignored.  The caller
        vouches that they were fitted under this factory's
        :meth:`signature`."""
        for name, op in named.items():
            if name.startswith(_OP):
                self._cache[ast.literal_eval(name[len(_OP) :])] = op

    def save(self, path=None, directory=None) -> Path:
        """Persist every fitted operator to a versioned ``.npz``."""
        if path is None:
            path = self.default_cache_path(directory or ".")
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, __signature__=np.array(json.dumps(self.signature())), **self.operators()
        )
        return path

    def load(self, path=None, directory=None, strict: bool = True) -> bool:
        """Load a cache written by :meth:`save`; returns True on success.

        A cache whose signature (kernel, ``p``, ``eps``, ``n_extra``,
        ``seed`` or format version) differs from this factory's is never
        reused: ``strict=True`` raises, ``strict=False`` returns False.
        """
        if path is None:
            path = self.default_cache_path(directory or ".")
        path = Path(path)
        if not path.exists():
            if strict:
                raise FileNotFoundError(path)
            return False
        with np.load(path, allow_pickle=False) as data:
            sig = json.loads(str(data["__signature__"]))
            if sig != self.signature():
                if strict:
                    raise ValueError(
                        f"operator cache signature mismatch: file {sig}, "
                        f"factory {self.signature()}"
                    )
                return False
            self.adopt({name: data[name] for name in data.files})
        return True

    # -- input spaces -----------------------------------------------------------
    def _rng(self, space: str) -> np.random.Generator:
        # Seeded by the name of the input space, never by an operator's
        # geometry: every operator on a space regresses on the same samples.
        # crc32, not hash(): string hashing is randomized per process, which
        # would make fitted operators (and persisted caches) irreproducible
        # across runs
        return np.random.default_rng((self.seed, zlib.crc32(space.encode())))

    def _factor(self, rows: np.ndarray) -> SpaceFactor:
        self.factorizations += 1
        return SpaceFactor(rows)

    def _multipole_space(self, scale: float) -> tuple[np.ndarray, SpaceFactor]:
        """Unit-box samples and the factor of their multipole rows."""
        key = ("multipole-box", self.kernel.level_key(scale))
        if key not in self._spaces:
            n = self.kernel.size + self.n_extra
            u = self._rng(key[0]).uniform(-0.5, 0.5, size=(n, 3))
            self._spaces[key] = (u, self._factor(self.kernel.p2m_matrix(u, scale)))
        return self._spaces[key]

    def _local_space(self, scale: float) -> tuple[np.ndarray, SpaceFactor]:
        """Samples outside the near zone (``1.6 < |x|_inf < 5``) and the
        factor of their local rows."""
        key = ("local-far", self.kernel.level_key(scale))
        if key not in self._spaces:
            n = self.kernel.size + self.n_extra
            rng = self._rng(key[0])
            x = np.empty((0, 3))
            while len(x) < n:
                cand = rng.uniform(-5.0, 5.0, size=(2 * n, 3))
                x = np.vstack([x, cand[np.abs(cand).max(axis=1) > 1.6]])
            x = x[:n]
            self._spaces[key] = (x, self._factor(self.kernel.p2l_matrix(x, scale)))
        return self._spaces[key]

    # -- quadratures ----------------------------------------------------------
    def quadrature(self, scale: float):
        key = self.kernel.level_key(scale)
        if key not in self._quads:
            self._quads[key] = build_quadrature(self.kernel, scale, eps=self.eps)
        return self._quads[key]

    # -- fitted operators ------------------------------------------------------
    def _lookup(self, key):
        """Cache probe with hit/miss accounting (operators are never None)."""
        op = self._cache.get(key)
        if op is None:
            self.misses += 1
        else:
            self.hits += 1
        return op

    def m2m(self, octant: int, child_scale: float) -> np.ndarray:
        """Child multipole (scale h) -> parent multipole (scale 2h)."""
        k = self.kernel
        key = ("m2m", octant, k.level_key(child_scale))
        op = self._lookup(key)
        if op is None:
            u, factor = self._multipole_space(child_scale)
            mo = k.p2m_matrix(octant_offset(octant) + u / 2.0, 2.0 * child_scale)
            self._cache[key] = op = factor.fit(mo)
        return op

    def l2l(self, octant: int, parent_scale: float) -> np.ndarray:
        """Parent local (scale 2h) -> child local (scale h)."""
        k = self.kernel
        key = ("l2l", octant, k.level_key(parent_scale))
        op = self._lookup(key)
        if op is None:
            x, factor = self._local_space(parent_scale)
            lo = k.p2l_matrix((x - octant_offset(octant)) * 2.0, parent_scale / 2.0)
            self._cache[key] = op = factor.fit(lo)
        return op

    def m2l(self, delta: tuple[int, int, int], scale: float) -> np.ndarray:
        """Same-level source multipole -> target local, offset ``delta``."""
        k = self.kernel
        key = ("m2l", tuple(int(v) for v in delta), k.level_key(scale))
        op = self._lookup(key)
        if op is None:
            u, factor = self._multipole_space(scale)
            lo = k.p2l_matrix(u - np.asarray(delta, dtype=float), scale)
            self._cache[key] = op = factor.fit(lo)
        return op

    def m2i(self, direction: str, scale: float) -> np.ndarray:
        """Source multipole -> outgoing plane-wave amplitudes (M->I)."""
        key = ("m2i", direction, self.kernel.level_key(scale))
        op = self._lookup(key)
        if op is None:
            u, factor = self._multipole_space(scale)
            wo = p2w_matrix(self.quadrature(scale), direction, u, scale)
            self._cache[key] = op = factor.fit(wo)
        return op

    def m2i_stack(self, directions: tuple, scale: float) -> np.ndarray:
        """Row-stacked M->I operators for several directions.

        One ``(len(directions) * nterms, size)`` matrix so a node's
        outgoing plane-wave amplitudes for all directions come from a
        single matvec; rows split back per direction in caller order.
        """
        key = ("m2i_stack", tuple(directions), self.kernel.level_key(scale))
        op = self._lookup(key)
        if op is None:
            self._cache[key] = op = np.vstack([self.m2i(d, scale) for d in directions])
        return op

    def _fit_i2l_family(self, scale: float) -> None:
        """Fit I->L for all six directions from one cone factorization.

        Samples are unit sources in the incoming cone, drawn once in the
        *local* frame ``(e1, e2, d)`` of a direction: separation along d
        between 1.5 and 3.5 box units (list-2 centres sit 2-3 boxes away,
        sources within half a box of the centre, so the quadrature's
        design window z in [1, 4] covers every sample-target separation),
        lateral offset up to 3.5.  ``p2w_matrix`` only ever sees the
        local coordinates, so its rows - the left-hand side - are the
        same for every direction (``frame("+z")`` is the identity); only
        the right-hand sides see the cone rotated to ``local @ frame(d)``.

        The quadrature carries half of each node's azimuths; the term at
        ``a + pi`` has the conjugate amplitude (real charges).  A local
        expansion needs both, ``L = A V + B conj(V)``, which is linear in
        ``(Re V, Im V)``: the left-hand side is the *real* design
        ``[Re H, Im H]`` of the carried rows ``H`` (it spans what the
        full-circle rows span), and the fitted ``L ~ Ya Re V + Yb Im V``
        gives ``A = (Ya - i Yb)/2``, ``B = (Ya + i Yb)/2``.  What is
        stored is the complex-linear ``X = A + P conj(B[flip])``
        (``flip`` sends coefficient (n, m) to (n, -m), ``P = (-1)^m``).
        L->T evaluates ``Re(E L)`` with ``conj(E_nm) = (-1)^m E_n,-m``,
        so ``Re(E B conj(V)) = Re(conj(E) conj(B) V) = Re(E X_B V)`` with
        ``X_B = P conj(B[flip])``: ``X V`` and ``L`` give the same
        potentials, to roundoff.  That survives L->L, whose operators
        are fitted on real-charge locals and so commute with the
        symmetry ``c_nm -> (-1)^m conj(c_n,-m)`` that ``X V - L`` is odd
        under.  Like the amplitudes, ``X V`` is meaningful only under
        the real part.

        The factor is the one large one (about 7 MB at p=6) and is
        dropped on return; directions a loaded cache already holds keep
        their loaded operators.
        """
        k = self.kernel
        quad = self.quadrature(scale)
        nt = quad.nterms
        n = 2 * (nt + self.n_extra)
        rng = self._rng("plane-wave-cone")
        uz = rng.uniform(-3.5, -1.5, size=n)
        ux = rng.uniform(-3.5, 3.5, size=n)
        uy = rng.uniform(-3.5, 3.5, size=n)
        local = np.stack([ux, uy, uz], axis=1)
        # incoming amplitudes of each sample: outgoing from the source
        # position, translated to the target center.  Using p2w around
        # the target center directly encodes both steps.
        waves = p2w_matrix(quad, "+z", local, scale)
        factor = self._factor(np.hstack([waves.real, waves.imag]))
        lo = np.hstack([k.p2l_matrix(local @ frame(d), scale) for d in DIRECTIONS])
        y = factor.fit(lo).reshape(len(DIRECTIONS), k.size, 2 * nt)
        a = (y[..., :nt] - 1j * y[..., nt:]) / 2.0
        b = (y[..., :nt] + 1j * y[..., nt:]) / 2.0
        flip = idx(k.harm.ns, -k.harm.ms)
        parity = ((-1.0) ** k.harm.ms)[:, None]
        level = k.level_key(scale)
        for d, op in zip(DIRECTIONS, a + parity * b[:, flip].conj()):
            self._cache.setdefault(("i2l", d, level), op)

    def i2l(self, direction: str, scale: float) -> np.ndarray:
        """Incoming plane-wave amplitudes -> target local (I->L).

        The first miss fits the whole six-direction family in one
        multi-right-hand-side solve (:meth:`_fit_i2l_family`), always in
        that one shape, so an operator's bits do not depend on which
        direction was asked for first.
        """
        key = ("i2l", direction, self.kernel.level_key(scale))
        op = self._lookup(key)
        if op is None:
            self._fit_i2l_family(scale)
            op = self._cache[key]
        return op

    def i2l_stack(self, directions: tuple, scale: float) -> np.ndarray:
        """Column-stacked I->L operators for several directions.

        One ``(size, len(directions) * nterms)`` matrix so a node's
        incoming plane-wave amplitudes for all directions collapse to a
        local expansion in a single matvec (columns in caller order).
        """
        key = ("i2l_stack", tuple(directions), self.kernel.level_key(scale))
        op = self._lookup(key)
        if op is None:
            self._cache[key] = op = np.hstack([self.i2l(d, scale) for d in directions])
        return op

    def m2l_coarse(
        self, delta: np.ndarray, source_scale: float, target_scale: float
    ) -> np.ndarray:
        """Multipole of a source box -> local of a (finer) target box.

        ``delta`` is the target center minus source center in *source*
        box units.  Used for cross-level translations when a pruned
        target sub-tree collects contributions above leaf level.
        """
        k = self.kernel
        ratio = target_scale / source_scale
        # pure-Python floats keep the key repr()/literal_eval round-trippable
        key = (
            "m2lc",
            tuple(round(float(v), 9) for v in np.asarray(delta, dtype=float)),
            round(ratio, 9),
            k.level_key(source_scale),
        )
        op = self._lookup(key)
        if op is None:
            u, factor = self._multipole_space(source_scale)
            d = np.asarray(delta, dtype=float)
            lo = k.p2l_matrix((u - d) / ratio, target_scale)
            self._cache[key] = op = factor.fit(lo)
        return op

    def i2i(self, direction: str, delta, scale: float) -> np.ndarray:
        """Diagonal I->I translation factors for integer offset ``delta``."""
        key = ("i2i", direction, tuple(int(v) for v in delta), self.kernel.level_key(scale))
        op = self._lookup(key)
        if op is None:
            quad = self.quadrature(scale)
            self._cache[key] = op = i2i_factor(quad, direction, np.asarray(delta, dtype=float))
        return op

    def cache_stats(self) -> dict[str, int]:
        """Cached-operator counts per type, cache-probe hit/miss counters
        and the number of input-space factorizations performed."""
        out: dict[str, int] = {
            "hits": self.hits,
            "misses": self.misses,
            "factorizations": self.factorizations,
        }
        for key in self._cache:
            out[key[0]] = out.get(key[0], 0) + 1
        return out
