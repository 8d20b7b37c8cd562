"""Uniform grids on loops, tori, and interval-extended domains, with the
quadrature and differentiation rules used everywhere in the library.

Periodic directions use the periodic trapezoid rule (spectrally accurate on
smooth data) and FFT differentiation; interval directions use composite
Simpson and have no differentiation rule here: every field on an interval
axis carries its exact derivative along it.
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


def loop_axis(n):
    """The momentum loop [-pi, pi) with the symmetric points 0, +-pi on grid."""
    if n % 2 != 0:
        raise ValueError("loop grids must have an even number of points")
    return Axis("k", -np.pi, 2 * np.pi, n, periodic=True)


def unit_circle_axis(n):
    """The unit-period circle R/Z."""
    return Axis("t", 0.0, 1.0, n, periodic=True)


def interval_axis(n, start, stop, name="s"):
    """Closed interval with n panels (n+1 points); Simpson needs n even."""
    if n % 2 != 0:
        raise ValueError("interval axes need an even panel count for Simpson")
    return Axis(name, start, stop - start, n, periodic=False)


def ebz_axis(n):
    """The half-zone direction k1 in [0, pi], inclusive."""
    return interval_axis(n, 0.0, np.pi, name="k1")


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
    """FFT differentiation along a periodic axis of grid-sampled data. The
    wavenumber factor and the inverse transform work in place on the
    transform of `samples`, so no other grid-sized array is made."""
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
    fhat *= fac.reshape(shape)
    return np.fft.ifft(fhat, axis=axis_index, out=fhat)

