"""The fixed reference work that benchmark item times are divided by.

The host this benchmark was built on slows all work by up to 2x in phases of
tens of seconds to minutes. A reference timed beside the items is stretched
by the same phase, so an item's time over the reference time stays put. The
reference never calls the package, so a change to the package leaves it alone.

``block()`` is the reference of the in-process workloads: small complex numpy
algebra driven from Python, the same kind of work as their items. Run as a
script, this file is the reference of the ``cli`` workload, whose items are
processes: a fresh interpreter imports numpy and runs PROCESS_BLOCKS blocks.

    python3 bench/reference.py
"""

import math

import numpy as np

# One block: STEPS rounds of a 4x4 Hamiltonian's eigensystem, its unitary and
# a state update, about 1 ms on a calm host.
STEPS = 25
PROCESS_BLOCKS = 20
_ZX = np.kron(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])).astype(complex)
_IZ = np.kron(np.eye(2), np.diag([1.0, -1.0])).astype(complex)
_BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def block():
    acc = 0.0
    for k in range(STEPS):
        x = 0.01 * (k + 1)
        vals, vecs = np.linalg.eigh(x * _ZX + (1.0 - x) * _IZ)
        psi = ((vecs * np.exp(-1j * vals)) @ vecs.conj().T) @ _BELL
        acc += abs(np.vdot(psi, psi)) + math.cos(x) ** 2
    return acc


if __name__ == "__main__":
    for _ in range(PROCESS_BLOCKS):
        block()
