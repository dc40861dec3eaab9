import sys
import threading
import warnings

import numpy as np
import pytest

from hdcca import linalg
from hdcca.errors import DimensionError, PoleProximity, RankDeficient, RegimeWarning
from hdcca.inference import (
    _walk_spikes,
    analyze,
    detect_spikes,
    estimate_spike_closed_form,
    estimate_spike_empirical,
)
from hdcca.simulate import SimSpec, gen_data, seeded_rng
from hdcca.wachter import (
    regime_from_dims,
    regime_from_ratios,
    rho2_from_z,
    z_from_rho2,
)

def _mixed(rng, X, cond):
    """X mixed by ``Q diag(d) Q^T`` with a random orthogonal Q, which raises
    the Gram condition number by about ``cond`` however the rows are scaled,
    and leaves every canonical correlation unchanged."""
    n = X.shape[0]
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.logspace(0.0, -0.5 * np.log10(cond), n)
    return (Q * d) @ Q.T @ X


def _equilibrated_cond(X):
    """Condition number of ``D^-1 X X^T D^-1``, ``D = diag(X X^T)^1/2``."""
    gram = X @ X.T
    d = np.sqrt(gram.diagonal())
    eig = np.linalg.eigvalsh(gram / d / d[:, None])
    return eig[-1] / eig[0]


LIMESTONE_LAMBDAS = np.array([0.83, 0.52, 0.36, 0.11, 0.09, 0.04])
LIMESTONE_REGIME = regime_from_dims(6, 8, 45)
STOCKS_REGIME = regime_from_dims(80, 80, 521)


def _exact_panels(lambdas, M, S):
    """K x S and M x S panels, K = len(lambdas), whose squared correlations
    are exactly ``lambdas``; the last M - K rows of V are noise."""
    K = len(lambdas)
    U = np.zeros((K, S))
    V = np.zeros((M, S))
    for i, lam in enumerate(lambdas):
        U[i, i] = 1.0
        V[i, i] = np.sqrt(lam)
        V[i, K + i] = np.sqrt(1.0 - lam)
    for j in range(K, M):
        V[j, K + j] = 1.0
    return U, V


def _limestone_panels():
    """Panels whose squared correlations are LIMESTONE_LAMBDAS; the one spike
    fails the gate."""
    return _exact_panels(LIMESTONE_LAMBDAS, 8, 45)


def _all_spikes_panels():
    """Panels whose squared correlations are 0.9 and 0.5, both above the
    edge (~0.23)."""
    return _exact_panels((0.9, 0.5), 3, 40)


class TestDetectSpikes:
    def test_all_below_edge_is_empty(self):
        lam = np.array([0.5, 0.4, 0.3])
        assert detect_spikes(lam, LIMESTONE_REGIME) == []

    def test_limestone_single_spike(self):
        assert detect_spikes(LIMESTONE_LAMBDAS, LIMESTONE_REGIME) == [0]

    def test_three_separated_outliers(self):
        lam = np.array([0.89, 0.62, 0.58, 0.50, 0.45, 0.40])
        # stocks-like values: edge ~0.52, S=521 gives gate ~0.22, so gaps of
        # 0.27/0.04/... leave outliers 2 and 3 failing the gate but detected
        assert detect_spikes(lam, STOCKS_REGIME) == [0, 1, 2]


class TestClosedForm:
    def test_stocks_first_row(self):
        rep = estimate_spike_closed_form(0.89, STOCKS_REGIME)
        assert rep.rho_sq_hat == pytest.approx(0.84, abs=0.005)
        assert rep.rho_abs == pytest.approx(0.92, abs=0.005)
        assert rep.theta_x_deg == pytest.approx(10.9, abs=0.1)
        assert rep.sin2_x == pytest.approx(0.036, abs=0.002)
        # equal dimensions -> equal angles on both sides
        assert rep.theta_x_deg == pytest.approx(rep.theta_y_deg, abs=1e-10)

    def test_stocks_second_row(self):
        rep = estimate_spike_closed_form(0.62, STOCKS_REGIME)
        assert rep.rho_sq_hat == pytest.approx(0.43, abs=0.01)
        assert rep.theta_x_deg == pytest.approx(31.0, abs=0.1)
        assert rep.sin2_x == pytest.approx(0.27, abs=0.005)

    def test_limestone_row(self):
        rep = estimate_spike_closed_form(0.83, LIMESTONE_REGIME)
        assert rep.rho_sq_hat == pytest.approx(0.75, abs=0.005)
        assert rep.theta_x_deg == pytest.approx(14.21, abs=0.6)
        assert rep.theta_y_deg == pytest.approx(15.77, abs=0.6)
        assert rep.sin2_x == pytest.approx(np.sin(np.radians(rep.theta_x_deg)) ** 2, abs=1e-12)

    def test_swapped_regime_swaps_angles(self):
        reg = regime_from_dims(8, 6, 45)  # caller's U is the larger side
        rep = estimate_spike_closed_form(0.83, reg)
        base = estimate_spike_closed_form(0.83, LIMESTONE_REGIME)
        assert rep.theta_x_deg == pytest.approx(base.theta_y_deg)
        assert rep.theta_y_deg == pytest.approx(base.theta_x_deg)


class TestEmpiricalRoute:
    def test_limestone_strength(self):
        rep = estimate_spike_empirical(
            LIMESTONE_LAMBDAS, LIMESTONE_REGIME, gap=0.31, gate_passed=False
        )
        assert rep.rho_sq_hat == pytest.approx(0.75, abs=0.05)
        assert rep.method == "empirical-G"
        assert (rep.gap, rep.gate_passed) == (0.31, False)

    def test_ratio_only_regime_raises(self):
        with pytest.raises(DimensionError, match="finite-dimension regime"):
            estimate_spike_empirical(LIMESTONE_LAMBDAS, regime_from_ratios(8.0, 6.0))

    def test_single_correlation_has_no_resolvent(self):
        with pytest.raises(PoleProximity, match="empty resolvent sum"):
            estimate_spike_empirical(np.array([0.9]), regime_from_dims(1, 3, 45))

    def test_matches_closed_form_on_simulation(self):
        spec = SimSpec(K=300, M=450, S=2400, signal_strengths=(0.7,), seed=12)
        U, V, _ = gen_data(spec)
        from hdcca.linalg import sample_cca

        lam = sample_cca(U, V).correlations_sq
        reg = regime_from_dims(300, 450, 2400)
        emp = estimate_spike_empirical(lam, reg)
        closed = estimate_spike_closed_form(lam[0], reg)
        assert emp.rho_sq_hat == pytest.approx(closed.rho_sq_hat, abs=0.03)
        assert emp.theta_x_deg == pytest.approx(closed.theta_x_deg, abs=1.5)
        assert emp.theta_y_deg == pytest.approx(closed.theta_y_deg, abs=1.5)

    def test_route_agreement_tightens_with_dimension(self):
        # the two strength estimates agree to 0.05 at S=800 and to 0.02 at
        # S=3200 on Gaussian draws with a gated spike
        from hdcca.linalg import sample_cca

        for S, bound in ((800, 0.05), (3200, 0.02)):
            K, M = S // 8, 3 * S // 16
            diffs = []
            for rep in range(5):
                spec = SimSpec(
                    K=K, M=M, S=S, signal_strengths=(0.7,), seed=30 + rep
                )
                U, V, _ = gen_data(spec)
                lam = sample_cca(U, V).correlations_sq
                emp = estimate_spike_empirical(
                    lam, regime_from_dims(K, M, S)
                ).rho_sq_hat
                closed = rho2_from_z(lam[0], regime_from_dims(K, M, S))
                diffs.append(abs(emp - closed))
            assert np.mean(diffs) < bound


class TestAnalyze:
    @pytest.mark.parametrize("gate_multiplier", [5.0, 2.0])
    @pytest.mark.parametrize("panels", [_limestone_panels, _all_spikes_panels])
    def test_reports_carry_the_walks_gap_and_gate(self, panels, gate_multiplier):
        # the gate fails every spike at 5 and only the later ones at 2
        report = analyze(*panels(), gate_multiplier=gate_multiplier)
        walk, _ = _walk_spikes(report.correlations, report.regime, gate_multiplier)
        expected = {i + 1: (gap, passed) for i, gap, passed in walk}
        assert [s.index for s in report.spikes] == list(expected)
        assert len(report.empirical_spikes) >= 1
        for s in report.spikes + report.empirical_spikes:
            assert (s.gap, s.gate_passed) == expected[s.index]
        passed = [p for _, p in expected.values()]
        assert passed == [gate_multiplier == 2.0] + [False] * (len(passed) - 1)

    def test_last_spike_gap_is_to_the_edge(self):
        report = analyze(*_all_spikes_panels())
        lam, edge = report.correlations, report.regime.lambda_plus
        assert lam[1] > edge
        assert [s.index for s in report.spikes] == [1, 2]
        assert [s.index for s in report.empirical_spikes] == [1]
        assert report.spikes[1].gap == float(lam[1] - edge)
        assert report.spikes[0].gap == float(lam[0] - lam[1])
        assert (
            "empirical estimate failed at spike 2: empty resolvent sum: "
            "no values remain below the spike"
        ) in report.notes

    def test_noise_only(self):
        spec = SimSpec(K=100, M=150, S=800, seed=13)
        U, V, _ = gen_data(spec)
        report = analyze(U, V)
        assert report.spikes == []
        reg = report.regime
        lam = report.correlations
        assert np.all(lam <= reg.lambda_plus + 0.05)
        assert np.all(lam >= reg.lambda_minus - 0.05)
        assert int(report.histogram.counts.sum()) == lam.shape[0]
        assert report.overlay.shape == (512, 2)

    def test_single_signal_spike_location(self):
        # rotated-pair signals carry the exact prescribed strength, so the
        # spike position fluctuates only through the noise part
        spec = SimSpec(
            K=300, M=450, S=2400, signal_strengths=(0.7,),
            signal_mode="rotated-pair", seed=14,
        )
        U, V, _ = gen_data(spec)
        report = analyze(U, V)
        assert len(report.spikes) == 1
        reg = report.regime
        assert report.spikes[0].lam == pytest.approx(
            z_from_rho2(0.49, reg), abs=0.01
        )
        assert report.spikes[0].rho_sq_hat == pytest.approx(0.49, abs=0.02)
        assert len(report.empirical_spikes) == 1
        # histogram excludes the spike
        assert int(report.histogram.counts.sum()) == report.correlations.shape[0] - 1

    def test_three_signals_ordering(self):
        spec = SimSpec(
            K=200, M=300, S=1600, signal_strengths=(0.95, 0.75, 0.7), seed=15
        )
        U, V, _ = gen_data(spec)
        report = analyze(U, V)
        assert len(report.spikes) == 3
        rho = [s.rho_sq_hat for s in report.spikes]
        theta = [s.theta_x_deg for s in report.spikes]
        assert rho[0] > rho[1] > rho[2]
        assert theta[0] < theta[1] < theta[2]
        assert rho[0] == pytest.approx(0.9025, abs=0.03)
        assert rho[1] == pytest.approx(0.5625, abs=0.04)
        assert rho[2] == pytest.approx(0.49, abs=0.04)

    def test_invariant_under_invertible_mixing(self):
        spec = SimSpec(K=60, M=90, S=600, signal_strengths=(0.8,), seed=16)
        U, V, _ = gen_data(spec)
        rng = seeded_rng(17)
        ups = rng.standard_normal((60, 60)) + 3 * np.eye(60)
        psi = rng.standard_normal((90, 90)) + 3 * np.eye(90)
        a = analyze(U, V)
        b = analyze(ups @ U, psi @ V)
        assert len(a.spikes) == len(b.spikes) == 1
        assert a.spikes[0].lam == pytest.approx(b.spikes[0].lam, abs=1e-9)
        assert a.spikes[0].rho_sq_hat == pytest.approx(
            b.spikes[0].rho_sq_hat, abs=1e-9
        )
        assert a.spikes[0].theta_x_deg == pytest.approx(
            b.spikes[0].theta_x_deg, abs=1e-7
        )

    def test_regime_violation_becomes_note(self):
        rng = seeded_rng(18)
        U = rng.standard_normal((10, 25))
        V = rng.standard_normal((20, 25))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = analyze(U, V)
        assert report.regime is None
        assert any("regime" in n for n in report.notes)
        assert report.spikes == []

    @pytest.mark.parametrize("K, M, S", [(10, 20, 25), (10, 15, 25), (30, 5, 20)])
    def test_one_regime_note_and_warning(self, K, M, S):
        # K+M > S, K+M = S and M >= S: one note, and sample_cca warns with it
        rng = seeded_rng(19)
        U, V = rng.standard_normal((K, S)), rng.standard_normal((M, S))
        notes = analyze(U, V).notes
        assert len(notes) == 1 and notes[0].startswith("dimension regime violated: ")
        assert "0 or more" not in notes[0]
        with pytest.warns(RegimeWarning) as record:
            linalg.sample_cca(U, V)
        assert [str(w.message) for w in record] == notes

    def test_concurrent_calls_keep_their_notes(self):
        # notes are computed values, so threads interleaving inside analyze
        # cannot lose or swap them
        rng = seeded_rng(18)
        violated = (rng.standard_normal((10, 25)), rng.standard_normal((20, 25)))
        gated = _limestone_panels()
        expected = {id(p): analyze(*p).notes for p in (violated, gated)}
        assert [len(n) for n in expected.values()] == [1, 1]
        mismatches = []

        def worker(panels):
            for _ in range(300):
                notes = analyze(*panels).notes
                if notes != expected[id(panels)]:
                    mismatches.append(notes)

        threads = [
            threading.Thread(target=worker, args=(p,))
            for p in (violated, violated, gated, gated)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    def test_monotone_strength_within_analysis(self):
        spec = SimSpec(
            K=200, M=300, S=1600, signal_strengths=(0.9, 0.75), seed=19
        )
        U, V, _ = gen_data(spec)
        report = analyze(U, V)
        lams = [s.lam for s in report.spikes]
        rhos = [s.rho_sq_hat for s in report.spikes]
        thetas = [s.theta_x_deg for s in report.spikes]
        assert lams[0] > lams[1]
        assert rhos[0] > rhos[1]
        assert thetas[0] < thetas[1]

    def test_bad_panels_raise_typed_errors(self):
        rng = np.random.default_rng(22)
        U, V = rng.standard_normal((4, 50)), rng.standard_normal((5, 50))
        U[2, 7] = np.inf
        with pytest.raises(ValueError, match="U has non-finite entries"):
            analyze(U, V)
        with pytest.raises(DimensionError, match="no rows or no samples"):
            analyze(np.empty((4, 0)), np.empty((5, 0)))
        U[2, 7] = 0.0
        U[3] = U[0] + U[1]
        with pytest.raises(RankDeficient, match="U rows are numerically collinear"):
            analyze(U, V)
        V[2] = 0.0
        with pytest.raises(RankDeficient, match="V has exactly collinear rows"):
            analyze(U[:3], V)

    def test_wide_demeaned_panel_is_a_regime_violation(self):
        # de-meaning leaves a 30 x 20 panel rank 19: its rows span the
        # de-meaned sample space, so every correlation is 1
        rng = np.random.default_rng(4)
        U, V = rng.standard_normal((30, 20)), rng.standard_normal((5, 20))
        report = analyze(U - U.mean(axis=1, keepdims=True), V - V.mean(axis=1, keepdims=True))
        assert report.regime is None
        assert report.correlations == pytest.approx(np.ones(5), abs=1e-12)
        assert any("M=30 >= S=20" in note for note in report.notes)

    def test_recovers_no_weights(self, monkeypatch):
        # analyze reads only the correlations of the factorisation
        def unused(*args):
            raise AssertionError("analyze solved for weights")

        monkeypatch.setattr(linalg, "_recover", unused)
        spec = SimSpec(K=20, M=30, S=200, signal_strengths=(0.9,), seed=3)
        U, V, _ = gen_data(spec)
        assert len(analyze(U, V).spikes) == 1
        assert len(analyze(_mixed(np.random.default_rng(3), U, 1e6), V).spikes) == 1

    def test_gram_guard_dispatch(self, monkeypatch):
        # well-conditioned panels take the Cholesky route, which builds no
        # QR factors, and so does a row in other units; an equilibrated Gram
        # condition number above 1e4 reaches the rank-revealing route
        qr_basis = linalg._qr_basis
        names = []

        def no_qr(X, name):
            raise AssertionError("analyze built a QR factor")

        def counting(X, name):
            names.append(name)
            return qr_basis(X, name)

        spec = SimSpec(K=20, M=30, S=200, signal_strengths=(0.9,), seed=3)
        U, V, _ = gen_data(spec)
        monkeypatch.setattr(linalg, "_qr_basis", no_qr)
        lam = analyze(U, V).spikes[0].lam
        U[0] *= 1e3  # raw Gram condition ~1e6, equilibrated unchanged
        assert analyze(U, V).spikes[0].lam == pytest.approx(lam, abs=1e-12)
        U = _mixed(np.random.default_rng(4), U, 1e6)
        assert _equilibrated_cond(U) > 1e5
        monkeypatch.setattr(linalg, "_qr_basis", counting)
        assert analyze(U, V).spikes[0].lam == pytest.approx(lam, abs=1e-12)
        assert names == ["U", "V"]

    def test_gram_certificate_dispatch(self, monkeypatch):
        # well-conditioned desk-size panels pass the shifted-Cholesky
        # certificate, so the one eigensolve is of the small T T^T, and so
        # does a row in other units; an equilibrated Gram condition number
        # between the certificate's reach and 1e4 costs one exact eigensolve
        # more and still takes the Cholesky route
        eigvalsh = np.linalg.eigvalsh
        shapes = []

        def spy(a):
            shapes.append(a.shape)
            return eigvalsh(a)

        def no_qr(X, name):
            raise AssertionError("analyze built a QR factor")

        monkeypatch.setattr(linalg, "_qr_basis", no_qr)
        spec = SimSpec(K=200, M=300, S=1600, signal_strengths=(0.9,), seed=3)
        U, V, _ = gen_data(spec)
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        assert len(analyze(U, V).spikes) == 1
        assert shapes == [(200, 200)]
        U = U[:20].copy()
        scaled = U.copy()
        scaled[0] *= 80.0
        shapes.clear()
        assert len(analyze(scaled, V).spikes) == 1
        assert shapes == [(20, 20)]
        U = _mixed(np.random.default_rng(1), U, 8e3)
        assert 5e3 < _equilibrated_cond(U) < 1e4
        shapes.clear()
        assert len(analyze(U, V).spikes) == 1
        assert shapes == [(20, 20), (20, 20)]

    def test_swapped_panel_order(self):
        # passing the larger panel first swaps the angle labels but nothing
        # else, for both estimation routes
        spec = SimSpec(K=60, M=90, S=720, signal_strengths=(0.8,), seed=21)
        U, V, _ = gen_data(spec)
        a = analyze(U, V)
        b = analyze(V, U)
        assert b.regime.swapped and not a.regime.swapped
        for sa, sb in ((a.spikes[0], b.spikes[0]),
                       (a.empirical_spikes[0], b.empirical_spikes[0])):
            assert sb.lam == pytest.approx(sa.lam, abs=1e-10)
            assert sb.rho_sq_hat == pytest.approx(sa.rho_sq_hat, abs=1e-10)
            assert sb.theta_x_deg == pytest.approx(sa.theta_y_deg, abs=1e-8)
            assert sb.theta_y_deg == pytest.approx(sa.theta_x_deg, abs=1e-8)
