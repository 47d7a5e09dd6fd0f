"""Flat torus discretization: Fourier mode sets, spinor fields, transforms.

The torus is T^m = R^m / (2 pi Z)^m with volume (2 pi)^m.  A spinor field is
represented canonically by Fourier coefficients on the cube of modes
|k_j| <= K,

    psi(x) = sum_k  c_k e^{i k.x},        c_k in C^N,

stored as a complex array of shape (N, n_modes): the spinor axis first, so
component i is the row ``coeffs[i]``.  Collocation values live on the uniform
n x ... x n grid x_j = 2 pi j / n, in arrays shaped (N, n, ..., n): the
spinor axis first again, so component i is the whole plane ``values[i]``.
Every pointwise weight (|psi|, g(|psi|), a cutoff) is such a plane and
multiplies the values without a broadcast along a short inner axis.  With
n >= 2K + 2 the synthesis/analysis round trip is exact; pointwise
nonlinearities of degree d are integrated exactly by the trapezoidal rule
when n > d*K (the default solver grid, ``make_grid``, is the smallest even
n >= 4K + 2 with no prime factor above 13, for quartic terms).

Both transforms are band-pruned ``numpy.fft`` passes.  They transform one
grid axis at a time (axes 1..m of the values), from the last axis to the
first, and every axis not yet in grid space is only 2K + 1 mode slabs wide:
synthesis zero-pads each axis from the (2K + 1)^m mode box just before its
inverse FFT, and analysis keeps the 2K + 1 mode slabs of each axis right
after its FFT.  The modes go in and come out by one gather each, over
indices the grid builds once: synthesis builds its first FFT's input, per
spinor component the mode box with the last axis already n wide, and
analysis reads them off its last FFT's output.  In m = 2 a transform then
runs n + 2K + 1 one-dimensional FFTs of length n per spinor component
instead of 2n (3/4 of them at n = 4K + 2).  The per-axis FFTs
are those of ``numpy.fft.ifftn``/``fftn`` on the full cube with
``norm="forward"``, which puts the whole 1/n^m on analysis: synthesis is the
plain sum over modes, and neither transform makes a separate scaling pass.

Analysis also takes values given only on a box of grid points (``support``:
one index array per grid axis), for fields that vanish off a compact support.
Before each axis's FFT it zero-fills that axis from its support to n, so the
zero cube outside the box is never built; the lines it transforms are those
of the full cube, so the output is the same.  The spread and cropped arrays
of that path come from a ``Workspace``: a caller that transforms one box
again and again (the concentration sweep) passes its own and reuses them,
so no call after the first touches a fresh page for them.

Every FFT runs in place (``out=`` its input) when its input is an array
the transform made itself: the synthesis gather, a padded, spread or cropped
axis, an earlier FFT's output, or a copy ``analyze`` made to convert real
values.  On large grids the page faults of a fresh output array cost more
than the transform itself.  The caller's array is never written unless the
caller hands it over (``analyze``'s ``overwrite``, for the temporaries of an
evaluation and a Hessian-vector product): otherwise complex values reach the
first FFT uncopied, and that FFT writes a new array.

Mode ordering is lexicographic in (|k|^2, k), which makes every table built
on top of the grid reproducible across runs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np


class GridError(ValueError):
    """Invalid grid parameters or mismatched grids."""


def _build_modes(m, K):
    axes = [np.arange(-K, K + 1)] * m
    mesh = np.meshgrid(*axes, indexing="ij")
    modes = np.stack([ax.ravel() for ax in mesh], axis=1)
    ksq = (modes**2).sum(axis=1)
    order = np.lexsort(tuple(modes[:, j] for j in range(m - 1, -1, -1)) + (ksq,))
    return np.ascontiguousarray(modes[order])


@dataclass(frozen=True)
class TorusGrid:
    """Fourier cutoff K per axis and collocation resolution n_grid per axis."""

    m: int
    K: int
    n_grid: int
    modes: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    # per-axis positions of ``modes`` in the (2K+1)^m box, FFT order [0..K, -K..-1]
    box_index: tuple = field(init=False, repr=False, compare=False, default=None)
    # positions of ``modes`` on the n-point grid of every axis (the full FFT cube)
    cube_index: tuple = field(init=False, repr=False, compare=False, default=None)
    # the index into ``modes`` (n_modes: none) at each point of one spinor component's mode
    # box with its last axis n wide, in C order: the array synthesis's first inverse FFT runs on
    synth_rows: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    # each mode's position in one component's C-order mode box with its first axis n wide,
    # the output of analysis's last FFT
    analyze_rows: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.m < 1:
            raise GridError(f"dimension must be >= 1, got {self.m}")
        if self.K < 1:
            raise GridError(f"cutoff must be >= 1, got {self.K}")
        if self.n_grid % 2 != 0 or self.n_grid < 2 * self.K + 2:
            raise GridError(
                f"n_grid must be even and >= 2K+2 = {2 * self.K + 2}, got {self.n_grid}"
            )
        object.__setattr__(self, "modes", _build_modes(self.m, self.K))
        self.modes.setflags(write=False)
        box, n = 2 * self.K + 1, self.n_grid
        box_index = tuple(self.modes[:, j] % box for j in range(self.m))
        cube_index = tuple(self.modes[:, j] % n for j in range(self.m))
        synth_shape = (box,) * (self.m - 1) + (n,)
        synth_rows = np.full(int(np.prod(synth_shape)), self.n_modes)
        synth_rows[np.ravel_multi_index(box_index[:-1] + cube_index[-1:], synth_shape)] = np.arange(self.n_modes)
        analyze_rows = np.ravel_multi_index(cube_index[:1] + box_index[1:], (n,) + (box,) * (self.m - 1))
        for idx in box_index + cube_index + (synth_rows, analyze_rows):
            idx.setflags(write=False)
        for name, value in (("box_index", box_index), ("cube_index", cube_index),
                            ("synth_rows", synth_rows), ("analyze_rows", analyze_rows)):
            object.__setattr__(self, name, value)

    @property
    def n_modes(self):
        return self.modes.shape[0]

    @property
    def volume(self):
        return (2.0 * np.pi) ** self.m

    @property
    def cell(self):
        """Quadrature weight of one collocation cell."""
        return self.volume / self.n_grid**self.m

    def points_1d(self):
        return 2.0 * np.pi * np.arange(self.n_grid) / self.n_grid

    def mode_index(self):
        """Dict mapping mode tuples to row positions in ``modes``."""
        return {tuple(k): i for i, k in enumerate(self.modes)}


def make_grid(m, K, n_grid=None):
    """Grid with the quartic-dealiased default resolution: the smallest even n >= 4K + 2 whose prime factors are <= 13.

    An FFT of a length with a large prime factor is several times slower than
    one of a nearby smooth length (n = 194 = 2 * 97 against 196 = 2^2 7^2 at
    K = 48); 13 keeps criterion 6's K = 32 grid at 130 = 2 * 5 * 13.
    """
    if n_grid is None:
        n_grid = 4 * K + 2
        while not _smooth(n_grid):
            n_grid += 2
    return TorusGrid(m=m, K=K, n_grid=n_grid)


def _smooth(n):
    """Whether every prime factor of n is at most 13."""
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            n //= p
    return n == 1


@dataclass
class SpinorField:
    """Fourier-coefficient spinor field on a TorusGrid.

    ``coeffs`` has shape (N, n_modes).  Collocation values are synthesized on
    demand and cached; fields are treated as immutable once built.
    """

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 2 or self.coeffs.shape[1] != self.grid.n_modes:
            raise GridError(
                f"coeffs must have shape (N, {self.grid.n_modes}), got {self.coeffs.shape}"
            )
        if not np.all(np.isfinite(self.coeffs)):
            raise GridError("coeffs contain non-finite entries")
        self._values = None

    @property
    def N(self):
        return self.coeffs.shape[0]

    def values(self):
        """Collocation values, shape (N, n, ..., n): the spinor axis first, then the m grid axes."""
        if self._values is None:
            self._values = synthesize(self.grid, self.coeffs)
        return self._values

    def __add__(self, other):
        _same_grid(self, other)
        return SpinorField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _same_grid(self, other)
        return SpinorField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpinorField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def _same_grid(a, b):
    if a.grid is not b.grid and (a.grid.m, a.grid.K, a.grid.n_grid) != (
        b.grid.m,
        b.grid.K,
        b.grid.n_grid,
    ):
        raise GridError("fields live on different grids")


def zero_field(grid, N):
    return SpinorField(grid, np.zeros((N, grid.n_modes), dtype=complex))


class Workspace(threading.local):
    """Scratch arrays kept by name for reuse from one call to the next; each thread sees its own.

    ``get`` hands back the array last made under a name when its shape and
    dtype still match, and makes a new one otherwise.  Its contents are
    whatever its last user left there.  A function that takes a workspace
    writes its arrays before reading them, returns none of them and builds
    no result on them.
    """

    def __init__(self):
        self.arrays = {}

    def get(self, name, shape, dtype=float):
        arr = self.arrays.get(name)
        if arr is None or arr.shape != tuple(shape) or arr.dtype != dtype:
            arr = self.arrays[name] = np.empty(shape, dtype=dtype)
        return arr


def _runs(index):
    """(first position in ``index``, first grid index, length) of each run of consecutive grid indices."""
    cuts = (0, *(np.flatnonzero(np.diff(index) != 1) + 1), len(index))
    return [(lo, int(index[lo]), hi - lo) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]


def _pad_axis(box, axis, n, K):
    """Zero-pad one FFT-ordered axis of a mode box from 2K + 1 to n entries."""
    shape = list(box.shape)
    shape[axis] = n
    out = np.zeros(shape, dtype=complex)
    head = (slice(None),) * axis
    out[head + (slice(0, K + 1),)] = box[head + (slice(0, K + 1),)]
    out[head + (slice(n - K, n),)] = box[head + (slice(K + 1, None),)]
    return out


def _crop_axis(cube, axis, n, K, workspace=None):
    """Keep the 2K + 1 mode slabs [0..K, n-K..n-1] of one transformed axis, in an array of ``workspace`` if given."""
    head = (slice(None),) * axis
    shape = cube.shape[:axis] + (2 * K + 1,) + cube.shape[axis + 1:]
    out = None if workspace is None else workspace.get(("crop", axis), shape, complex)
    return np.concatenate(
        (cube[head + (slice(0, K + 1),)], cube[head + (slice(n - K, n),)]), axis=axis, out=out
    )


def _spread_axis(vals, axis, n, index, workspace):
    """Zero-fill one axis from the grid indices ``index`` to all n grid points, in an array of ``workspace``.

    Copies each run of consecutive indices as one slice, and zeroes each run
    between them; a fancy-indexed scatter along an inner axis is about three
    times slower.  The array is the workspace's, reused from the last call
    with the same shape, so every point of it is written here.
    """
    out = workspace.get(("spread", axis), vals.shape[:axis] + (n,) + vals.shape[axis + 1:], complex)
    head = (slice(None),) * axis
    gaps = np.ones(n, dtype=bool)
    gaps[index] = False
    for _, start, length in _runs(np.flatnonzero(gaps)):
        out[head + (slice(start, start + length),)] = 0.0
    for lo, start, length in _runs(index):
        out[head + (slice(start, start + length),)] = vals[head + (slice(lo, lo + length),)]
    return out


def synthesize(grid, coeffs):
    """Evaluate sum_k c_k e^{i k.x} on the collocation grid, shape (N, n, ..., n).

    Builds the array the first inverse FFT runs on in one gather
    (``grid.synth_rows``): per spinor component, the (2K+1)^m mode box with
    its last axis already n wide.  Then for each grid axis, last to first, it
    runs an unscaled inverse FFT along that axis (``norm="forward"``),
    zero-padding the next axis to n before its turn.
    """
    n, K, m = grid.n_grid, grid.K, grid.m
    rows = np.zeros((len(coeffs), grid.n_modes + 1), dtype=complex)  # the last column stands for no mode
    rows[:, :-1] = coeffs
    vals = np.take(rows, grid.synth_rows, axis=1).reshape((len(rows),) + (2 * K + 1,) * (m - 1) + (n,))
    for axis in range(m, 0, -1):
        if axis < m:
            vals = _pad_axis(vals, axis, n, K)
        vals = np.fft.ifft(vals, axis=axis, norm="forward", out=vals)
    return vals


def analyze(grid, values, support=None, overwrite=False, workspace=None):
    """Project collocation values, shape (N, n, ..., n), onto the |k_j| <= K mode cube.

    Exact inverse of ``synthesize`` for band-limited data; otherwise it is the
    aliased trigonometric interpolation restricted to the cube.  Runs an FFT
    along each grid axis, last to first, each scaled by 1/n
    (``norm="forward"``), and keeps only that axis's 2K + 1 mode slabs before
    moving on; the (N, n_modes) modes are gathered straight from the last
    FFT's output (``grid.analyze_rows``).

    With ``support`` (one array of distinct grid indices per grid axis),
    ``values`` holds only the box ``cube[(slice(None),) + np.ix_(*support)]``
    of a field cube that vanishes elsewhere; each axis is zero-filled from its
    support to n just before its FFT.  The result equals ``analyze`` of the
    scattered full cube.  The spread and cropped arrays of this path are those
    of ``workspace`` (a ``Workspace``, fresh when not given), and every FFT
    runs in place on them: a caller that passes the same workspace again
    allocates only the returned coefficients.  ``values`` is only read.

    With ``overwrite`` the caller hands over ``values`` to be consumed: its
    first FFT runs in place on them, and they hold no field afterwards.
    Without it the caller's array is never written.
    """
    n, K = grid.n_grid, grid.K
    if support is not None:
        # each axis is spread into the workspace before its FFT, so every FFT runs in place there
        vals, own = np.asarray(values), True
        workspace = Workspace() if workspace is None else workspace
    else:
        vals = np.asarray(values, dtype=complex)
        # handed over or a converted copy is the transform's own; the caller's array is not
        own = overwrite or (vals is not values and vals.base is None)
        workspace = None  # the solver path's crops are its own temporaries
    for axis in range(grid.m, 0, -1):
        if support is not None:
            vals = _spread_axis(vals, axis, n, support[axis - 1], workspace)
        vals = np.fft.fft(vals, axis=axis, norm="forward", out=vals if own else None)
        own = True
        if axis > 1:
            vals = _crop_axis(vals, axis, n, K, workspace)
    return np.take(vals.reshape(len(vals), -1), grid.analyze_rows, axis=1)


def cube_coefficients(grid, values):
    """All n^m Fourier coefficients of collocation values, FFT order on every grid axis.

    The unpruned counterpart of ``analyze``, with the same 1/n^m scaling and
    the values' (N, n, ..., n) shape: the modes of ``grid.modes`` sit at
    ``(slice(None),) + grid.cube_index``, the rest is spill above the cutoff.
    A new array; ``values`` is left alone.  The FFTs run from the first grid
    axis to the last, and the whole 1/n^m multiplies the first one's output
    in place: the order and the one scaling of ``scipy.fft.fftn``, so complex
    values get that transform's coefficients, rounding included.  The later
    FFTs run in place on that output, where ``numpy.fft.fftn`` would allocate
    a new array per axis.
    """
    vals = np.fft.fft(values, axis=1)
    vals *= 1.0 / grid.n_grid**grid.m
    for axis in range(2, grid.m + 1):
        np.fft.fft(vals, axis=axis, out=vals)
    return vals


def l2_inner(a, b):
    """Hermitian L^2 pairing int_M (a, b) dvol via Parseval."""
    _same_grid(a, b)
    return a.grid.volume * complex(np.vdot(b.coeffs, a.coeffs))


def l2_norm(a):
    return float(np.sqrt(a.grid.volume) * np.linalg.norm(a.coeffs))


def pointwise_real_inner(a, b, out=None, work=None):
    """Re <a(x), b(x)> over the spinor axis: the first axis of ``a``, the same axis counted from the end of ``b``.

    ``b`` may stack several fields on leading axes, and the result stacks
    their planes.  The sum runs per spinor component on whole planes, in the
    order re_0, im_0, re_1, im_1, ...: as fast at n = 66, and a fifth
    faster at n = 130, as one product of real views followed by a sum over
    their interleaved (re, im) columns, and its plane needs no broadcast.
    Complex or real, contiguous or not.  ``out`` receives the result and
    ``work``, an array of the same shape, each later product; both are
    allocated when not given.
    """
    a, b = np.asarray(a), np.asarray(b)
    if np.iscomplexobj(a) != np.iscomplexobj(b):  # a real factor pairs with the other's real part only
        a, b = a.real, b.real
    parts = ((a.real, b.real), (a.imag, b.imag)) if np.iscomplexobj(a) else ((a, b),)
    lead = (slice(None),) * (b.ndim - a.ndim)  # the fields b stacks, before its spinor axis
    terms = [(x[i], y[lead + (i,)]) for i in range(len(a)) for x, y in parts]
    out = np.multiply(*terms[0], out=out)
    for x, y in terms[1:]:
        out += np.multiply(x, y, out=work)
    return out


def pointwise_modulus(values):
    """Spinor modulus |psi(x)| over the spinor axis, the first, of complex or real values."""
    return np.sqrt(pointwise_real_inner(values, values))


def lp_norm(psi, p):
    """Quadrature L^p norm (int |psi|^p dvol)^(1/p) on the collocation grid.

    Exact for even integer p inside the dealiased band; otherwise accurate to
    the trapezoidal error of the smooth integrand.
    """
    if p < 1:
        raise GridError(f"p must be >= 1, got {p}")
    s = pointwise_modulus(psi.values())
    return float((psi.grid.cell * (s**p).sum()) ** (1.0 / p))


def resample_field(psi, new_grid):
    """Transfer Fourier coefficients to another grid (truncate or zero-pad)."""
    if new_grid.m != psi.grid.m:
        raise GridError("resample requires matching dimensions")
    keep = np.abs(psi.grid.modes).max(axis=1) <= new_grid.K
    box = np.zeros((psi.N,) + (2 * new_grid.K + 1,) * new_grid.m, dtype=complex)
    box[(slice(None),) + tuple((psi.grid.modes[keep] % (2 * new_grid.K + 1)).T)] = psi.coeffs[:, keep]
    return SpinorField(new_grid, box[(slice(None),) + new_grid.box_index])


def random_field(grid, N, rng, scale=1.0, decay=1.0):
    """Random band-limited field with |k|-decaying coefficients (test helper).

    The normals are drawn mode-major, one mode's N entries after another:
    the pinned seeded fields of the tests and of acceptance criteria 9 and
    11 depend on that order.
    """
    ksq = (grid.modes**2).sum(axis=1).astype(float)
    amp = scale / (1.0 + ksq) ** decay
    size = grid.n_modes * N
    draw = (rng.standard_normal(size) + 1j * rng.standard_normal(size)).reshape(-1, N)
    return SpinorField(grid, amp * draw.T)
