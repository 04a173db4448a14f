"""Exception hierarchy for the NV-ERC toolkit.

Every failure mode that corresponds to leaving a physical validity domain
(rather than a programming error) gets its own class so that callers and the
CLI can map them to exit codes without string matching.
"""


class NvErcError(Exception):
    """Base class for all toolkit errors."""


class RegimeError(NvErcError):
    """Drive too weak for the resonant Raman regime (omega_eff < 2 * muB_eff).

    Carries ``omega_min``, the smallest drive amplitude that restores
    validity for the given effective field.
    """

    def __init__(self, omega_eff, muB_eff):
        self.omega_eff = float(omega_eff)
        self.muB_eff = float(muB_eff)
        self.omega_min = 2.0 * float(muB_eff)
        super().__init__(
            f"resonant regime requires omega_eff >= 2*muB_eff: "
            f"got omega_eff={self.omega_eff:.6g}, muB_eff={self.muB_eff:.6g} "
            f"(minimal valid drive: {self.omega_min:.6g})"
        )


class DomainError(NvErcError):
    """Input outside the mathematical domain of a closed-form expression."""


class ResonanceError(NvErcError):
    """Transverse field present but the two-tone drive does not restore the
    Raman resonance (wrong amplitude ratio or phase offset)."""


class AxisDegenerateError(NvErcError):
    """The two rotation axes are effectively parallel; the generalized
    Euler decomposition is ill-conditioned."""


class NoConvergenceError(NvErcError):
    """Gate synthesis cannot reach the target fidelity within the budget.

    ``n_rotations`` holds the minimal program length the target needs, and
    ``residual`` the infidelity, in (0, 1], of the best program the
    rotation budget allows.
    """

    def __init__(self, residual, n_rotations):
        self.residual = float(residual)
        self.n_rotations = int(n_rotations)
        super().__init__(
            f"synthesis did not converge: the target needs {self.n_rotations} "
            f"rotations; best infidelity within the budget {self.residual:.3e}"
        )


class ExtractionError(NvErcError):
    """Rabi-trace feature extraction failed (e.g. no ground-state zero in
    the scan window, signalling an invalid regime)."""


class ConfigError(NvErcError):
    """Invalid CLI / sweep configuration; message carries field diagnostics."""
