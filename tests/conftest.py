import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from nverc import SystemParams
from nverc.ham import hamiltonian_rwa_stack

# environment for child interpreters: they find the package under src/ as
# this one does through pyproject's pythonpath, installed or not
_SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}

# no per-example deadline: on a shared machine it times the neighbours'
# load, not the code under test
settings.register_profile("nverc", deadline=None)
settings.load_profile("nverc")

# acceptance-criterion results collected by tests/test_acceptance.py
ACCEPTANCE_RESULTS: list[tuple[str, str, bool, str]] = []


def random_plain_params(rng, n, d=500.0, margin=1.05, omega_max_factor=8.0):
    """Sample resonant-regime systems, drive safely above the threshold."""
    out = []
    for _ in range(n):
        muB = rng.uniform(0.05, 2.0)
        omega = muB * rng.uniform(2.0 * margin, omega_max_factor)
        out.append(SystemParams(D=d, muB=muB, omega_x=omega))
    return out


def rwa_hamiltonian(p, seg):
    """The rotating-wave Hamiltonian (3, 3) of one segment of one system."""
    return hamiltonian_rwa_stack([p], [seg])[0]


def haar_unitary3(rng):
    z = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for crit, name, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        line = f"criterion {crit:>2} {name}: {status}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
