"""Uniform grids on loops, tori, and interval-extended domains, with the
quadrature and differentiation rules used everywhere in the library.

Periodic directions use the periodic trapezoid rule (spectrally accurate on
smooth data) and FFT differentiation; interval directions use composite
Simpson and 4th-order finite-difference stencils.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Axis:
    """One grid direction. Periodic axes store n points over [start, start+length),
    interval axes store n+1 points including both endpoints."""
    name: str
    start: float
    length: float
    n: int
    periodic: bool = True

    @property
    def points(self):
        if self.periodic:
            return self.start + self.length * np.arange(self.n) / self.n
        return self.start + self.length * np.arange(self.n + 1) / self.n

    @property
    def step(self):
        return self.length / self.n


def loop_axis(n, name="k"):
    """The momentum loop [-pi, pi) with the symmetric points 0, +-pi on grid."""
    if n % 2 != 0:
        raise ValueError("loop grids must have an even number of points")
    return Axis(name, -np.pi, 2 * np.pi, n, periodic=True)


def unit_circle_axis(n, name="t"):
    """The unit-period circle R/Z."""
    return Axis(name, 0.0, 1.0, n, periodic=True)


def interval_axis(n, start, stop, name="s"):
    """Closed interval with n panels (n+1 points); Simpson needs n even."""
    if n % 2 != 0:
        raise ValueError("interval axes need an even panel count for Simpson")
    return Axis(name, start, stop - start, n, periodic=False)


def ebz_axis(n, name="k1"):
    """The half-zone direction k1 in [0, pi], inclusive."""
    return interval_axis(n, 0.0, np.pi, name=name)


def torus_points(ax1, ax2):
    """The (n1, n2, 2) array of points (k1, k2) on the product grid of two
    axes, k1 varying along the first index."""
    return np.stack(np.meshgrid(ax1.points, ax2.points, indexing="ij"), axis=-1)


def reflect(samples, n_axes):
    """Samples at -k from samples at k_j = -pi + 2 pi j / n on the n_axes
    leading loop_axis grid axes: -k_j sits at index -j mod n."""
    for axis in range(n_axes):
        n = samples.shape[axis]
        samples = np.take(samples, (-np.arange(n)) % n, axis=axis)
    return samples


def quad_weights(axis: Axis):
    """Quadrature weights: periodic trapezoid or composite Simpson."""
    if axis.periodic:
        return np.full(axis.n, axis.step)
    w = np.ones(axis.n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (axis.step / 3.0)


def integrate_grid(values, axes):
    """Integrate a scalar field sampled on the full grid of `axes`.

    `values` has one leading dimension per axis (periodic axes of size n,
    interval axes of size n+1); trailing dimensions are carried through.
    """
    out = np.asarray(values)
    for ax in axes:
        w = quad_weights(ax)
        out = np.tensordot(w, out, axes=(0, 0))
    return out


def spectral_derivative(samples, axis_index, axis: Axis):
    """FFT differentiation along a periodic axis of grid-sampled data."""
    if not axis.periodic:
        raise ValueError("spectral differentiation needs a periodic axis")
    n = axis.n
    freqs = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers
    fac = 1j * (2 * np.pi / axis.length) * freqs
    if n % 2 == 0:
        fac[n // 2] = 0.0  # the Nyquist mode has no well-defined slope
    fhat = np.fft.fft(samples, axis=axis_index)
    shape = [1] * samples.ndim
    shape[axis_index] = n
    return np.fft.ifft(fhat * fac.reshape(shape), axis=axis_index)


# 4th-order finite-difference stencils on n+1 equally spaced points
_FD4_EDGE = np.array([
    [-25.0, 48.0, -36.0, 16.0, -3.0],
    [-3.0, -10.0, 18.0, -6.0, 1.0],
])


def fd4_derivative(samples, axis_index, axis: Axis):
    """4th-order finite differences along an interval axis (n+1 points)."""
    if axis.periodic:
        raise ValueError("use spectral_derivative for periodic axes")
    x = np.moveaxis(samples, axis_index, 0)
    npt = x.shape[0]
    if npt < 5:
        raise ValueError("need at least 5 points for 4th-order stencils")
    h = axis.step
    out = np.empty_like(x)
    out[2:-2] = (x[:-4] - 8 * x[1:-3] + 8 * x[3:-1] - x[4:]) / (12 * h)
    for row, j in ((0, 0), (1, 1)):
        out[j] = np.tensordot(_FD4_EDGE[row], x[:5], axes=(0, 0)) / (12 * h)
        out[npt - 1 - j] = -np.tensordot(_FD4_EDGE[row], x[::-1][:5], axes=(0, 0)) / (12 * h)
    return np.moveaxis(out, 0, axis_index)


def grid_derivative(samples, axis_index, axis: Axis):
    """Differentiate grid samples along one axis with the rule fitting the axis."""
    if axis.periodic:
        return spectral_derivative(samples, axis_index, axis)
    return fd4_derivative(samples, axis_index, axis)
