import math

import numpy as np
import pytest

from conftest import random_plain_params
from nverc import PulseSegment, SystemParams
from nverc.ham import (bright_dark_vectors, compensation_ratio, dressing_matrix,
                       hamiltonian_lab, hamiltonian_rwa, static_hamiltonian)
from nverc.spin import KET_MINUS, KET_PLUS, SZ2


def seg_for(p, alpha=0.0, beta=None):
    return PulseSegment(1.0, alpha, p.omega_x, p.omega_y, beta)


class TestLabHamiltonian:
    def test_static_spectrum(self):
        p = SystemParams(D=500.0, muB=1.0, omega_x=0.0)
        h = hamiltonian_lab(p, PulseSegment(1.0, 0.0, 0.0), 0.3)
        assert np.allclose(h, np.diag([501.0, 0.0, 499.0]))

    def test_hermitian_everywhere(self, rng):
        for _ in range(1000):
            p = SystemParams(
                D=rng.uniform(100, 1000), muB=rng.uniform(0, 2),
                omega_x=rng.uniform(0, 10), omega_y=rng.uniform(0, 3),
                Ex=rng.uniform(-1, 1), Ey=rng.uniform(-1, 1), Ez=rng.uniform(-1, 1),
            )
            t = rng.uniform(0, 10)
            h = hamiltonian_lab(p, seg_for(p, rng.uniform(0, 6.28), rng.uniform(0, 6.28)), t)
            assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_ez_shifts_both_doublet_levels(self):
        p = SystemParams(D=500.0, muB=1.0, omega_x=0.0, Ez=0.25)
        levels = np.linalg.eigvalsh(static_hamiltonian(p))
        assert np.allclose(np.sort(levels), [0.0, 500.25 - 1.0, 500.25 + 1.0])

    def test_rwa_is_one_period_average(self, rng):
        # averaging the interaction-picture lab Hamiltonian over one carrier
        # period must land exactly on the rotating-wave form (trapezoid on a
        # periodic integrand converges spectrally); pins every sign choice
        for _ in range(6):
            p = SystemParams(
                D=rng.uniform(300, 800), muB=rng.uniform(0, 2),
                omega_x=rng.uniform(0.5, 6), omega_y=rng.uniform(0, 3),
                Ex=rng.uniform(-1, 1), Ey=rng.uniform(-1, 1), Ez=rng.uniform(-0.5, 0.5),
            )
            alpha = rng.uniform(0, 2 * math.pi)
            beta = rng.uniform(0, 2 * math.pi)
            seg = seg_for(p, alpha, beta)
            wc = p.carrier
            n = 4096
            ts = (np.arange(n) + 0.5) * (2 * math.pi / wc) / n
            acc = np.zeros((3, 3), dtype=complex)
            h0 = wc * SZ2
            for t in ts:
                ph = np.exp(1j * wc * np.diag(SZ2) * t)
                pmat = np.diag(ph)
                acc += pmat @ (hamiltonian_lab(p, seg, t) - h0) @ pmat.conj().T
            acc /= n
            assert np.max(np.abs(acc - hamiltonian_rwa(p, seg))) < 1e-6 * max(1.0, p.omega_x)


class TestRwaHamiltonian:
    def test_plain_matrix_elements(self):
        p = SystemParams(D=500.0, muB=1.3, omega_x=3.0)
        alpha = 0.6
        h = hamiltonian_rwa(p, seg_for(p, alpha))
        assert abs(np.vdot(KET_MINUS, h @ KET_PLUS) - 1.3) < 1e-14
        drive = np.vdot(KET_PLUS, h @ np.array([0, 1, 0], dtype=complex))
        assert abs(drive - 1.5 * np.exp(1j * alpha)) < 1e-14

    def test_transverse_x_projector_shift(self):
        p = SystemParams(D=500.0, muB=1.0, omega_x=3.0, Ex=0.4)
        h = hamiltonian_rwa(p, seg_for(p))
        h0 = hamiltonian_rwa(p.replace(Ex=0.0), seg_for(p))
        dq = h - h0
        want = 0.4 * (np.outer(KET_PLUS, KET_PLUS.conj()) - np.outer(KET_MINUS, KET_MINUS.conj()))
        assert np.max(np.abs(dq - want)) < 1e-14

    def test_dark_state_annihilated(self, rng):
        for p in random_plain_params(rng, 10):
            alpha = rng.uniform(0, 2 * math.pi)
            _, d = bright_dark_vectors(p.muB, p.omega_x, alpha)
            assert np.linalg.norm(hamiltonian_rwa(p, seg_for(p, alpha)) @ d) < 1e-13

    def test_ez_never_enters(self):
        p = SystemParams(D=500.0, muB=1.0, omega_x=3.0, Ez=0.7)
        h1 = hamiltonian_rwa(p, seg_for(p))
        h2 = hamiltonian_rwa(p.replace(Ez=0.0), seg_for(p))
        assert np.array_equal(h1, h2)


class TestDressingIdentities:
    def test_transverse_y_is_dressed_plain_form(self, rng):
        # matrix identity: H(Ey) = W H_plain(sqrt(muB^2+Ey^2)) W^dag
        for _ in range(10):
            muB = rng.uniform(0.1, 2.0)
            ey = rng.uniform(-1.5, 1.5)
            om = rng.uniform(0.5, 8.0)
            alpha = rng.uniform(0, 2 * math.pi)
            p = SystemParams(D=500.0, muB=muB, omega_x=om, Ey=ey)
            g = dressing_matrix(p)
            p_eff = SystemParams(D=500.0, muB=math.hypot(muB, ey), omega_x=om)
            lhs = hamiltonian_rwa(p, seg_for(p, alpha))
            rhs = g @ hamiltonian_rwa(p_eff, seg_for(p_eff, alpha)) @ g.conj().T
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_compensated_two_tone_reduces(self, rng):
        for _ in range(10):
            muB = rng.uniform(0.1, 1.5)
            ex = rng.uniform(0.1, 1.0) * (1 if rng.uniform() < 0.5 else -1)
            ey = rng.uniform(-1.0, 1.0)
            omx = rng.uniform(3.0, 8.0)
            alpha = rng.uniform(0, 2 * math.pi)
            ratio = compensation_ratio(ex, ey)
            p = SystemParams(D=500.0, muB=muB, omega_x=omx, omega_y=ratio * omx,
                             Ex=ex, Ey=ey)
            g = dressing_matrix(p)
            p_eff = SystemParams(D=500.0, muB=p.muB_eff(), omega_x=p.omega_eff())
            lhs = hamiltonian_rwa(p, seg_for(p, alpha, alpha))
            rhs = g @ hamiltonian_rwa(p_eff, seg_for(p_eff, alpha)) @ g.conj().T
            assert np.max(np.abs(lhs - rhs)) < 1e-12
            # rotated Hamiltonian has no |+>/<-> diagonal terms left
            rot = g.conj().T @ lhs @ g
            assert abs(np.vdot(KET_PLUS, rot @ KET_PLUS)) < 1e-12
            assert abs(np.vdot(KET_MINUS, rot @ KET_MINUS)) < 1e-12

    def test_spectrum_matches_reduced_form(self):
        p = SystemParams(D=500.0, muB=1.0, omega_x=4.5,
                         omega_y=(math.sqrt(2) - 1) * 4.5, Ex=0.7, Ey=-0.7)
        p_eff = SystemParams(D=500.0, muB=p.muB_eff(), omega_x=p.omega_eff())
        w1 = np.linalg.eigvalsh(hamiltonian_rwa(p, seg_for(p, 0.45, 0.45)))
        w2 = np.linalg.eigvalsh(hamiltonian_rwa(p_eff, seg_for(p_eff, 0.45)))
        assert np.max(np.abs(w1 - w2)) < 1e-10
