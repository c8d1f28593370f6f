import numpy as np
import pytest

from ccrf import (
    assemble,
    map_backward,
    map_infer,
    nll,
    nll_backward,
)
from ccrf.crf import NonFiniteAffinityError, Workspace, _outer_sum, _stacked, unary_nll

from helpers import (
    central_diff,
    energy,
    grad_rel_err,
    random_affinity,
    reference_map_backward,
    reference_nll_backward,
)


def two_node_system(r12=1.0):
    return assemble(np.array([[0.0, r12], [r12, 0.0]]))


class TestAssemble:
    def test_two_node_oracle(self):
        system = two_node_system(1.0)
        assert np.array_equal(system.a0, [[2.0, -1.0], [-1.0, 2.0]])
        assert system.logdet_a0 == pytest.approx(np.log(3.0), rel=1e-14)

    def test_empty_affinity_gives_identity(self):
        system = assemble(np.zeros((4, 4)))
        assert np.array_equal(system.a0, np.eye(4))
        assert system.logdet_a0 == 0.0

    def test_eigenvalues_at_least_one(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n = int(rng.integers(2, 15))
            system = assemble(random_affinity(rng, n))
            eigs = np.linalg.eigvalsh(system.a0)
            assert eigs.min() >= 1.0 - 1e-10

    def test_logdet_matches_slogdet(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            system = assemble(random_affinity(rng, int(rng.integers(2, 10))))
            sign, logdet = np.linalg.slogdet(system.a0)
            assert sign == 1.0
            assert system.logdet_a0 == pytest.approx(logdet, rel=1e-12)

    def test_rejects_malformed_input(self):
        with pytest.raises(ValueError):
            assemble(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            assemble(np.array([[0.0, np.inf], [np.inf, 0.0]]))
        with pytest.raises(ValueError):
            assemble(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError):
            assemble(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            assemble(np.array([[1.0, 0.5], [0.5, 1.0]]))
        with pytest.raises(ValueError):
            assemble(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_entries_raise_their_own_error(self, bad):
        r = random_affinity(np.random.default_rng(14), 6)
        r[1, 4] = r[4, 1] = bad
        with pytest.raises(NonFiniteAffinityError):
            assemble(r)
        assert issubclass(NonFiniteAffinityError, ValueError)

    def test_symmetric_input_gives_the_textbook_precision(self):
        # bit for bit: A0 = I + D - R, with D the row sums of R
        r = random_affinity(np.random.default_rng(15), 40)
        expected = -r
        expected[np.diag_indices(40)] = 1.0 + r.sum(axis=1)
        assert np.array_equal(assemble(r).a0, expected)

    def test_factor_overwrites_a0_in_place(self):
        # the factor takes the buffer A0 is built in, the workspace's
        # "affinity", and A0 rebuilt from it is the textbook one bit for
        # bit, also after a solve
        r = random_affinity(np.random.default_rng(17), 40)
        expected = -r
        expected[np.diag_indices(40)] = 1.0 + r.sum(axis=1)
        work = Workspace()
        system = assemble(r, work=work)
        assert np.shares_memory(system.factor, work.get("affinity", 40))
        map_infer(system, np.ones((40, 2)))
        assert system.a0.tobytes() == expected.tobytes()

    def test_workspace_affinity_is_trusted_in_its_lower_triangle(self):
        n = 40
        r = random_affinity(np.random.default_rng(18), n)
        work = Workspace()
        own = work.get("affinity", n)
        own[...] = np.tril(r)  # the full-matrix checks would call this asymmetric
        asymmetric = own.copy()
        system = assemble(own, work=work)
        full = assemble(r)
        lower = np.tri(n, dtype=bool)
        assert np.allclose(system.factor[lower], full.factor[lower], rtol=1e-14, atol=0.0)
        assert system.logdet_a0 == pytest.approx(full.logdet_a0, rel=1e-14)
        with pytest.raises(RuntimeError, match="not kept"):
            system.a0
        with pytest.raises(ValueError, match="symmetric"):
            assemble(asymmetric, work=work)
        own[3, 1] = np.nan
        with pytest.raises(NonFiniteAffinityError):
            assemble(own, work=work)

    def test_caller_matrix_sharing_the_workspace_gets_a_fresh_buffer(self):
        # R' viewed through the workspace's own "affinity" is a caller's
        # matrix: fully checked, and assembled outside the memory it reads
        n = 40
        r = random_affinity(np.random.default_rng(19), n)
        work = Workspace()
        own = work.get("affinity", n)
        own[...] = r
        system = assemble(own.T, work=work)
        full = assemble(r)
        assert not np.shares_memory(system.factor, own)
        assert np.array_equal(own, r)
        assert system.factor.tobytes() == full.factor.tobytes()
        assert system.logdet_a0 == full.logdet_a0
        assert system.a0.tobytes() == full.a0.tobytes()

    def test_rounding_asymmetry_is_cleaned(self):
        rng = np.random.default_rng(16)
        r = random_affinity(rng, 7)
        r[2, 5] += 1e-15
        r[3, 3] = 1e-16
        system = assemble(r)
        clean = 0.5 * (r + r.T)
        np.fill_diagonal(clean, 0.0)
        assert np.array_equal(system.a0, system.a0.T)
        assert np.allclose(system.a0, assemble(clean).a0, rtol=0.0, atol=1e-15)


class TestMapInfer:
    def test_two_node_oracle(self):
        # A0 = [[2,-1],[-1,2]], z = (1, 0):
        # y = A0^-1 z = (2/3, 1/3)
        system = two_node_system(1.0)
        y = map_infer(system, np.array([[1.0], [0.0]]))
        assert np.allclose(y, [[2.0 / 3.0], [1.0 / 3.0]], atol=1e-14)

    def test_strong_coupling_pulls_to_mean(self):
        system = two_node_system(1e3)
        y = map_infer(system, np.array([[1.0], [0.0]]))
        assert y[0, 0] == pytest.approx(1001.0 / 2001.0, rel=1e-12)
        assert y[1, 0] == pytest.approx(1000.0 / 2001.0, rel=1e-12)
        assert abs(y[0, 0] - 0.5) < 1e-3 and abs(y[1, 0] - 0.5) < 1e-3

    def test_zero_coupling_returns_scores(self):
        system = assemble(np.zeros((5, 5)))
        rng = np.random.default_rng(2)
        z = rng.standard_normal((5, 3))
        assert np.allclose(map_infer(system, z), z, atol=1e-15)

    def test_residual_is_tiny(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n, m = int(rng.integers(2, 30)), int(rng.integers(1, 6))
            system = assemble(random_affinity(rng, n))
            z = rng.standard_normal((n, m))
            y = map_infer(system, z)
            residual = np.abs(system.a0 @ y - z).max()
            assert residual < 1e-9 * (1.0 + np.abs(z).max())

    def test_map_is_energy_minimum(self):
        rng = np.random.default_rng(4)
        system = assemble(random_affinity(rng, 8))
        z = rng.standard_normal((8, 2))
        y = map_infer(system, z)
        base = energy(system, z, y)
        for trial in range(50):
            perturbed = y + rng.standard_normal(y.shape) * 10.0 ** rng.uniform(-6, 1)
            assert energy(system, z, perturbed) >= base

    def test_rejects_bad_scores(self):
        system = two_node_system()
        with pytest.raises(ValueError):
            map_infer(system, np.zeros((3, 1)))
        with pytest.raises(ValueError):
            map_infer(system, np.array([[np.nan], [0.0]]))


class TestEnergy:
    def test_single_node_oracle(self):
        # n = 1, no coupling: E = y^2 - 2zy + z^2 = (y - z)^2
        system = assemble(np.zeros((1, 1)))
        value = energy(system, np.array([[0.0]]), np.array([[1.0]]))
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_zero_at_exact_fit_without_coupling(self):
        system = assemble(np.zeros((3, 3)))
        z = np.array([[0.2], [0.4], [0.9]])
        assert energy(system, z, z) == pytest.approx(0.0, abs=1e-15)

    def test_pair_term_penalizes_disagreement(self):
        # E = sum (y-z)^2 + R12 * (y1 - y2)^2 for the two-node chain
        system = two_node_system(2.0)
        z = np.array([[0.0], [0.0]])
        y = np.array([[1.0], [-1.0]])
        assert energy(system, z, y) == pytest.approx(1 + 1 + 2.0 * 4.0, rel=1e-14)


class TestBlockwiseEquivalence:
    def test_matches_kronecker_system(self):
        # solving per column must equal the stacked (nm, nm) system
        rng = np.random.default_rng(5)
        for trial in range(10):
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            system = assemble(random_affinity(rng, n))
            z = rng.standard_normal((n, m))
            y = map_infer(system, z)
            big = np.kron(np.eye(m), system.a0)
            y_flat = np.linalg.solve(big, z.T.reshape(-1))
            assert np.abs(y.T.reshape(-1) - y_flat).max() < 1e-10

    def test_logdet_scales_with_channels(self):
        rng = np.random.default_rng(6)
        system = assemble(random_affinity(rng, 4))
        for m in (1, 2, 3):
            big = np.kron(np.eye(m), system.a0)
            _, logdet = np.linalg.slogdet(big)
            assert m * system.logdet_a0 == pytest.approx(logdet, rel=1e-12)


class TestNll:
    def test_single_node_oracle(self):
        # n = m = 1, R = 0, z = y = 0.5: the quadratic part cancels and
        # only the 0.5 log pi normalizer remains
        system = assemble(np.zeros((1, 1)))
        value = nll(system, np.array([[0.5]]), np.array([[0.5]]))
        assert value == pytest.approx(0.5 * np.log(np.pi), rel=1e-15)

    def test_nll_exceeds_density_peak(self):
        rng = np.random.default_rng(7)
        system = assemble(random_affinity(rng, 6))
        z = rng.standard_normal((6, 2))
        y_map = map_infer(system, z)
        best = nll(system, z, y_map)
        for trial in range(20):
            other = y_map + rng.standard_normal(y_map.shape)
            assert nll(system, z, other) >= best

    def test_quadrature_partition_identity(self):
        # nll(y) - E(y) = log integral exp(-E), checked by 2-d trapezoid
        rng = np.random.default_rng(8)
        system = two_node_system(0.7)
        z = np.array([[0.3], [-0.4]])
        y = np.array([[0.1], [0.2]])
        grid = np.linspace(-8.0, 8.0, 321)
        y1, y2 = np.meshgrid(grid, grid, indexing="ij")
        e = (
            (y1 - z[0, 0]) ** 2
            + (y2 - z[1, 0]) ** 2
            + 0.7 * (y1 - y2) ** 2
        )
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        log_partition = np.log(trapezoid(trapezoid(np.exp(-e), grid), grid))
        got = nll(system, z, y) - energy(system, z, y)
        assert got == pytest.approx(log_partition, rel=1e-6)


class TestNllBackward:
    def test_score_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            system = assemble(random_affinity(rng, n))
            z = rng.standard_normal((n, m))
            y = rng.standard_normal((n, m))
            dscores, _ = nll_backward(system, z, y)
            fd = central_diff(lambda: nll(system, z, y), z)
            assert grad_rel_err([dscores], [fd]) < 1e-6

    def test_affinity_gradient_matches_pair_perturbation(self):
        # entry [p, q] is d nll / d eps under R[p,q] = R[q,p] += eps
        rng = np.random.default_rng(10)
        n, m = 5, 2
        base = random_affinity(rng, n)
        z = rng.standard_normal((n, m))
        y = rng.standard_normal((n, m))
        _, daff = nll_backward(assemble(base), z, y)

        eps = 1e-6
        for p in range(n):
            for q in range(p + 1, n):
                bumped = base.copy()
                bumped[p, q] += eps
                bumped[q, p] += eps
                up = nll(assemble(bumped), z, y)
                bumped[p, q] -= 2 * eps
                bumped[q, p] -= 2 * eps
                down = nll(assemble(bumped), z, y)
                fd = (up - down) / (2 * eps)
                assert daff[p, q] == pytest.approx(fd, rel=1e-4, abs=1e-7)
                assert daff[q, p] == daff[p, q]

    def test_gradient_zero_at_optimum(self):
        # with y = map and z chosen so quad is stationary, dscores = 0
        rng = np.random.default_rng(11)
        system = assemble(random_affinity(rng, 4))
        z = rng.standard_normal((4, 2))
        y = map_infer(system, z)
        dscores, _ = nll_backward(system, z, y)
        assert np.abs(dscores).max() < 1e-12


class TestAgainstReferenceFormulas:
    @pytest.mark.parametrize("n", [1, 2, 60, 300])
    def test_nll_backward_matches_explicit_inverse(self, n):
        rng = np.random.default_rng(100 + n)
        for m in (1, 3):
            system = assemble(random_affinity(rng, n))
            z = rng.standard_normal((n, m))
            y = rng.standard_normal((n, m))
            dscores, daff = nll_backward(system, z, y)
            ref_dscores, ref_daff = reference_nll_backward(system, z, y)
            assert np.array_equal(dscores, ref_dscores)
            assert np.allclose(daff, ref_daff, rtol=1e-10, atol=1e-12)
            assert np.array_equal(daff, daff.T)
            assert np.all(np.diagonal(daff) == 0.0)

    @pytest.mark.parametrize("n", [1, 2, 60, 300])
    def test_map_backward_matches_unfused_formula(self, n):
        rng = np.random.default_rng(200 + n)
        for m in (1, 3):
            system = assemble(random_affinity(rng, n))
            y = map_infer(system, rng.standard_normal((n, m)))
            dy = rng.standard_normal((n, m))
            dscores, daff = map_backward(system, y, dy)
            ref_dscores, ref_daff = reference_map_backward(system, y, dy)
            assert np.array_equal(dscores, ref_dscores)
            assert np.allclose(daff, ref_daff, rtol=1e-10, atol=1e-12)
            assert np.array_equal(daff, daff.T)
            assert np.all(np.diagonal(daff) == 0.0)


class TestBlasProducts:
    # n = 300 is above OpenBLAS's threading threshold
    N = 300

    def test_outer_sum_writes_into_its_output(self):
        rng = np.random.default_rng(41)
        a, b = rng.standard_normal((2, self.N, 9))
        d = rng.standard_normal(self.N)
        out = Workspace().get("affinity", self.N)
        x = _outer_sum(_stacked((a,), d), _stacked((b,), 1.0), out)
        assert np.shares_memory(x, out)
        ref = a @ b.T + b @ a.T + d[:, None] + d[None, :]
        lower = np.tri(self.N, dtype=bool)
        assert np.abs(x - ref)[lower].max() <= 1e-12 * np.abs(ref).max()

    def test_map_backward_product_is_written_in_place(self):
        n = self.N
        rng = np.random.default_rng(42)
        work = Workspace()
        system = assemble(random_affinity(rng, n))
        y = map_infer(system, rng.standard_normal((n, 3)))
        dy = rng.standard_normal((n, 3))
        _, daff = map_backward(system, y, dy, work=work)
        # the product lands in the workspace's buffer: had f2py copied it,
        # the buffer would still hold the zeros it was allocated with
        assert np.shares_memory(daff, work.get("affinity", n))
        ref = reference_map_backward(system, y, dy)[1]
        lower = np.tri(n, dtype=bool)
        assert np.abs(work.get("affinity", n) - ref)[lower].max() <= 1e-12 * np.abs(ref).max()


class TestLowerTriangle:
    """With a workspace, dL/dR is exact in the lower triangle of its
    "affinity", and the other triangle is never read."""

    @staticmethod
    def poisoned_workspace(n):
        work = Workspace()
        work.get("affinity", n)[...] = np.nan
        return work

    @pytest.mark.parametrize("n", [60, 300])
    def test_nll_backward_matches_explicit_inverse(self, n):
        rng = np.random.default_rng(300 + n)
        lower = np.tri(n, dtype=bool)
        for m in (1, 3):
            system = assemble(random_affinity(rng, n))
            z = rng.standard_normal((n, m))
            y = rng.standard_normal((n, m))
            work = self.poisoned_workspace(n)
            dscores, daff = nll_backward(system, z, y, work=work)
            ref_dscores, ref_daff = reference_nll_backward(system, z, y)
            assert daff is work.get("affinity", n)
            assert np.array_equal(dscores, ref_dscores)
            assert np.allclose(daff[lower], ref_daff[lower], rtol=1e-10, atol=1e-12)
            assert np.all(np.diagonal(daff) == 0.0)

    @pytest.mark.parametrize("n", [60, 300])
    def test_map_backward_matches_unfused_formula(self, n):
        rng = np.random.default_rng(400 + n)
        lower = np.tri(n, dtype=bool)
        for m in (1, 3):
            system = assemble(random_affinity(rng, n))
            y = map_infer(system, rng.standard_normal((n, m)))
            dy = rng.standard_normal((n, m))
            work = self.poisoned_workspace(n)
            dscores, daff = map_backward(system, y, dy, work=work)
            ref_dscores, ref_daff = reference_map_backward(system, y, dy)
            assert daff is work.get("affinity", n)
            assert np.array_equal(dscores, ref_dscores)
            assert np.allclose(daff[lower], ref_daff[lower], rtol=1e-10, atol=1e-12)
            assert np.all(np.diagonal(daff) == 0.0)


class TestUnaryNll:
    def test_bit_identical_to_zero_affinity(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n, m = int(rng.integers(1, 60)), int(rng.integers(1, 5))
            z = rng.standard_normal((n, m))
            y = rng.standard_normal((n, m))
            system = assemble(np.zeros((n, n)))
            value, dscores = unary_nll(z, y)
            assert value == nll(system, z, y)
            assert np.array_equal(dscores, nll_backward(system, z, y)[0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            unary_nll(np.zeros((3, 1)), np.zeros((3, 2)))


class TestMapBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 3))
            base = random_affinity(rng, n)
            z = rng.standard_normal((n, m))
            proj = rng.standard_normal((n, m))

            system = assemble(base)
            y = map_infer(system, z)
            dscores, daff = map_backward(system, y, proj)

            def loss_for(aff, scores):
                return float((map_infer(assemble(aff), scores) * proj).sum())

            fd_z = central_diff(lambda: loss_for(base, z), z)
            assert grad_rel_err([dscores], [fd_z]) < 1e-6

            eps = 1e-6
            for p in range(n):
                for q in range(p + 1, n):
                    bumped = base.copy()
                    bumped[p, q] += eps
                    bumped[q, p] += eps
                    up = loss_for(bumped, z)
                    bumped[p, q] -= 2 * eps
                    bumped[q, p] -= 2 * eps
                    down = loss_for(bumped, z)
                    fd = (up - down) / (2 * eps)
                    assert daff[p, q] == pytest.approx(fd, rel=1e-4, abs=1e-7)

