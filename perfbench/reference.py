"""A fixed reference job, the yardstick for the machine's current speed.

Usage: python3 perfbench/reference.py

It does the same kinds of work as the orbitdensity CLI, without importing
it: interpreter start and the numpy import, a Gram matrix assembled entry
by entry through a Python inner-product function on kernel-like objects,
and dense Hermitian eigensolves. run.py spawns it on the CPU that the next
workload child will use and divides the workload's times by its times, so
that a change of the machine's speed cancels out. The job never changes
with the program under test; it prints one checksum line.
"""

import math

import numpy as np

SIZE = 380
EIGEN_SIZE = 300
EIGEN_CALLS = 3


class Kernel:
    __slots__ = ("point", "coefficient", "alpha")

    def __init__(self, point, coefficient, alpha):
        self.point = point
        self.coefficient = coefficient
        self.alpha = alpha


def kernel_inner(k1, k2):
    """Bergman-type reproducing kernel of the upper half-plane, times the coefficients."""
    w = (k1.point - k2.point.conjugate()) / 2j
    return k1.coefficient * k2.coefficient.conjugate() * w ** (-k1.alpha)


def main():
    kernels = []
    for k in range(SIZE):
        t = 0.37 * k
        point = complex(math.sin(t) * 3.0, 1.0 + (k % 17) * 0.25)
        kernels.append(Kernel(point, complex(math.cos(t), math.sin(2 * t)), 2.0))
    G = np.empty((SIZE, SIZE), dtype=complex)
    for i, ki in enumerate(kernels):
        for j, kj in enumerate(kernels):
            G[i, j] = kernel_inner(ki, kj)
    total = float(np.linalg.eigvalsh((G + G.conj().T) / 2).sum())
    rng = np.random.default_rng(0)
    A = rng.standard_normal((EIGEN_SIZE, EIGEN_SIZE)) + 1j * rng.standard_normal((EIGEN_SIZE, EIGEN_SIZE))
    A = A + A.conj().T
    for _ in range(EIGEN_CALLS):
        total += float(np.linalg.eigh(A)[0][-1])
    print(f"reference checksum {total:.6e}")


if __name__ == "__main__":
    main()
