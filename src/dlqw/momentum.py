"""A band of (k, k') Fourier modes: the momentum layer of the engines that step
a density from a pure start without a position grid.

A field on the periodic n-site square grid is written as

    f(x, x') = sum over (k, k') of b[k, k'] e^{2 pi i (k x - k' x') / n},

with x and x' the site indices.  A step made of a constant mix of a few
components and a fixed integer shift (s, s') of each component multiplies
every mode by the mix and by the phase e^{-2 pi i (s k - s' k') / n}, so no
two modes mix.  The pure start |psi><psi| of psi(x) = sum_k c[k]
e^{2 pi i k x / n} is c(k) c*(k'), which vanishes to round-off outside the
box of modes where |c| is above round-off, and such steps keep it there.
So an engine steps only that box: :func:`dlqw.pde.band_evolve` (the
homogeneous Strang grid) and :func:`dlqw.noise.channel_run` (the
constant-coin channel of either noise model) differ only in their mix and shifts.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

# A mode enters the band when its amplitude |c(k)| (the norm over the
# components) exceeds this fraction of the largest; below it, sampled packets
# are round-off.
BAND_CUT = 1e-14


class ModeBand:
    """The modes of one axis that a pure start occupies, and the maps between
    a (4, K, K) field on the box of kept modes and position space.

    ``coefficients`` has shape (components, n): psi(x) = sum_k c[:, k]
    e^{2 pi i k x / n}.  :attr:`coefficients` then holds the kept columns.
    """

    def __init__(self, coefficients: np.ndarray):
        c = np.asarray(coefficients)
        self.n = c.shape[1]
        weight = np.linalg.norm(c, axis=0)
        self.modes = np.flatnonzero(weight > BAND_CUT * weight.max())
        self.coefficients = c[:, self.modes]

    @property
    def fills_axis(self) -> bool:
        """True when every mode is kept, so the band saves nothing."""
        return self.modes.size == self.n

    def phases(self, shifts) -> np.ndarray:
        """Per-component phase tables e^{-2 pi i (s k - s' k') / n} of the shifts
        (s, s'), shape (len(shifts), K, K): a shift of the position field."""
        k, n = self.modes, self.n
        return np.exp(-2j * np.pi / n * np.stack(
            [(s * k[:, None] - sp * k[None, :]) % n for s, sp in shifts]))

    @cached_property
    def _bins(self) -> np.ndarray:
        """Bin (a, (k - k') mod n, part) of the (real, imaginary) part of b[a, k, k']."""
        k, n = self.modes, self.n
        offsets = (k[:, None] - k[None, :]) % n
        return (2 * n * np.arange(4)[:, None, None] + 2 * offsets.ravel()[None, :, None]
                + np.arange(2)).ravel()

    def diagonal(self, b: np.ndarray) -> np.ndarray:
        """f(x, x) of a (4, K, K) field, shape (4, n): the modes of each offset
        k - k' summed, then one n-point inverse FFT."""
        n = self.n
        sums = np.bincount(self._bins, b.view(np.float64).ravel(), minlength=8 * n)
        return n * np.fft.ifft(sums.view(complex).reshape(4, n), axis=1)

    def field(self, b: np.ndarray) -> np.ndarray:
        """The (4, n, n) position field f(x, x') of a (4, K, K) field, by one
        zero-padded inverse 2-D FFT."""
        n, k = self.n, self.modes
        f = np.zeros((4, n, n), dtype=complex)
        f[:, k[:, None], -k[None, :] % n] = b
        f = np.fft.ifft2(f)
        f *= n * n
        return f
