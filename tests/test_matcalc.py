import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrecap.matcalc import (
    chol_inv,
    chol_rows,
    chol_solve,
    kron,
    psd_sqrt,
    sym,
    unvec,
    unvech,
    vec,
    vech,
    vech_diag_indices,
    vech_len,
)

from conftest import duplication_matrix, random_spd, reduced_duplication_matrix


def symmetric_matrices(max_dim=6):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=m * m, max_size=m * m
        ).map(lambda vals: sym(np.array(vals).reshape(m, m)))
    )


class TestVech:
    def test_two_by_two(self):
        s = np.array([[1.0, 2.0], [2.0, 3.0]])
        np.testing.assert_array_equal(vech(s), [1.0, 2.0, 3.0])

    def test_identity_three(self):
        np.testing.assert_array_equal(vech(np.eye(3)), [1, 0, 0, 1, 0, 1])

    def test_round_trip_5x5(self):
        rng = np.random.default_rng(5)
        s = sym(rng.standard_normal((5, 5)))
        np.testing.assert_array_equal(unvech(vech(s)), s)

    @given(symmetric_matrices())
    @settings(max_examples=50)
    def test_round_trip_property(self, s):
        np.testing.assert_array_equal(unvech(vech(s)), s)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            vech(np.ones((2, 3)))

    def test_column_wise_order(self):
        s = np.arange(16.0).reshape(4, 4)
        s = s + s.T
        v = vech(s)
        # first column's lower part leads the vector
        np.testing.assert_array_equal(v[:4], s[:, 0])

    def test_diag_indices(self):
        idx = vech_diag_indices(3)
        s = np.diag([4.0, 5.0, 6.0])
        np.testing.assert_array_equal(vech(s)[idx], [4.0, 5.0, 6.0])


class TestDuplication:
    def test_m2_definition(self):
        d = duplication_matrix(2)
        assert d.shape == (4, 3)
        np.testing.assert_array_equal(d @ [1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0])

    def test_m3_shape(self):
        assert duplication_matrix(3).shape == (9, 6)

    def test_full_column_rank_m4(self):
        d = duplication_matrix(4)
        assert np.linalg.matrix_rank(d) == vech_len(4)

    @given(symmetric_matrices())
    @settings(max_examples=50)
    def test_maps_vech_to_vec_exactly(self, s):
        d = duplication_matrix(s.shape[0])
        # 0/1 matrix times exact entries: no rounding at all
        np.testing.assert_array_equal(d @ vech(s), vec(s))

    def test_cached_instances_are_readonly(self):
        d = duplication_matrix(3)
        assert d is duplication_matrix(3)
        with pytest.raises(ValueError):
            d[0, 0] = 5.0


class TestReducedDuplication:
    def test_smallest_case(self):
        dt = reduced_duplication_matrix(1, 1)
        assert dt.shape == (4, 1)
        np.testing.assert_array_equal(dt @ [7.0], [0.0, 7.0, 7.0, 0.0])

    def test_shape_2_1(self):
        assert reduced_duplication_matrix(2, 1).shape == (9, 2)

    def test_hollow_block_structure(self):
        rng = np.random.default_rng(3)
        n1, n2 = 3, 2
        db = rng.standard_normal((n2, n1))
        dt = reduced_duplication_matrix(n1, n2)
        dk = unvec(dt @ vec(db), n1 + n2, n1 + n2)
        np.testing.assert_array_equal(dk[:n1, :n1], np.zeros((n1, n1)))
        np.testing.assert_array_equal(dk[n1:, n1:], np.zeros((n2, n2)))
        np.testing.assert_array_equal(dk[n1:, :n1], db)
        np.testing.assert_array_equal(dk[:n1, n1:], db.T)

    @pytest.mark.parametrize("n1", range(1, 7))
    @pytest.mark.parametrize("n2", range(1, 7))
    def test_columns_linearly_independent(self, n1, n2):
        dt = reduced_duplication_matrix(n1, n2)
        assert np.linalg.matrix_rank(dt) == n1 * n2


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_scalar_case(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(kron(np.array([[1.0]]), b), b)

    @pytest.mark.parametrize("shape_a, shape_b", [
        ((3, 3), (3, 3)),
        ((8, 8), (8, 8)),
        ((2, 5), (4, 1)),
        ((1, 4), (3, 2)),
        ((6, 2), (2, 6)),
    ])
    def test_bitwise_equal_to_numpy(self, shape_a, shape_b):
        rng = np.random.default_rng(15)
        a = rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b)
        assert np.array_equal(kron(a, b), np.kron(a, b))

    def test_mixed_product(self):
        rng = np.random.default_rng(11)
        a, b, c, d = (rng.standard_normal((3, 3)) for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_trace_identity(self):
        # tr(ABCD) == vec(D)' (A kron C') vec(B')
        rng = np.random.default_rng(12)
        a, b, c, d = (rng.standard_normal((3, 3)) for _ in range(4))
        lhs = np.trace(a @ b @ c @ d)
        rhs = vec(d) @ kron(a, c.T) @ vec(b.T)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_psd_order_preserved(self):
        # A >= B >= 0 implies A kron A - B kron B >= 0
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = rng.standard_normal((3, 3))
            b = sym(g @ g.T)
            e = rng.standard_normal((3, 3))
            a = b + sym(e @ e.T)
            diff = kron(a, a) - kron(b, b)
            assert np.linalg.eigvalsh(sym(diff)).min() >= -1e-10


class TestPsdSqrt:
    def test_square_recovers(self):
        rng = np.random.default_rng(14)
        g = rng.standard_normal((4, 4))
        w = sym(g @ g.T)
        s = psd_sqrt(w)
        np.testing.assert_allclose(s @ s, w, atol=1e-12)
        np.testing.assert_allclose(s, s.T)

    def test_singular_input(self):
        w = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        s = psd_sqrt(w)
        np.testing.assert_allclose(s @ s, w, atol=1e-12)


class TestStackedLapack:
    """Each slice of a stacked LAPACK kernel is bit for bit the one-matrix
    call on that slice, column-major like it, and the inputs stay as given."""

    N = 4

    @staticmethod
    def stack(rng, count, bad=None):
        a = np.stack([random_spd(rng, TestStackedLapack.N) for _ in range(count)])
        if bad is not None:
            a[bad] = -a[bad]  # negative definite
        return a

    @staticmethod
    def assert_slices(out, one, count):
        assert out.shape[0] == count
        for i in range(count):
            assert out[i].flags.f_contiguous, i
            np.testing.assert_array_equal(out[i], one(i))

    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_chol_rows(self, count):
        a = self.stack(np.random.default_rng(70 + count), count)
        a0 = a.copy()
        c, bad = chol_rows(a)
        assert bad == []
        self.assert_slices(c, lambda i: chol_rows(a[i])[0], count)
        np.testing.assert_array_equal(a, a0)

    def test_non_pd_slice_is_listed_alone(self):
        a = self.stack(np.random.default_rng(73), 7, bad=3)
        a0 = a.copy()
        c, bad = chol_rows(a)
        assert bad == [3]
        assert chol_rows(a[3])[1] == [0]
        self.assert_slices(c, lambda i: chol_rows(a[i])[0], 7)
        np.testing.assert_array_equal(a, a0)

    @pytest.mark.parametrize("count", [1, 2, 7])
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("column_major", [False, True])
    def test_chol_solve(self, count, shared, column_major):
        rng = np.random.default_rng(80 + count)
        c, _ = chol_rows(self.stack(rng, count))
        b = rng.standard_normal((self.N, 3) if shared else (count, self.N, 3))
        if column_major:  # slices LAPACK could solve in place: still copied
            b = b.mT.copy().mT
        c0, b0 = c.copy(), b.copy()
        x = chol_solve(c, b)
        self.assert_slices(
            x, lambda i: chol_solve(c[i], b if shared else b[i]), count)
        np.testing.assert_array_equal(c, c0)
        np.testing.assert_array_equal(b, b0)

    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_chol_inv(self, count):
        c, _ = chol_rows(self.stack(np.random.default_rng(90 + count), count))
        c0 = c.copy()
        inv = chol_inv(c)
        for i in range(count):
            np.testing.assert_array_equal(inv[i], chol_inv(c[i]))
        np.testing.assert_array_equal(c, c0)

    def test_shared_right_hand_side_may_be_read_only(self):
        c, _ = chol_rows(self.stack(np.random.default_rng(95), 2))
        b = np.eye(self.N)
        b.flags.writeable = False
        np.testing.assert_array_equal(chol_solve(c, b)[1],
                                      chol_solve(c[1], b))


class TestLapackBinding:
    def test_only_matcalc_imports_scipy(self):
        # one module binds LAPACK, so a switch of BLAS kernels touches one file
        src = Path(__file__).resolve().parents[1] / "src" / "secrecap"
        importers = set()
        for path in src.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""] if isinstance(node, ast.ImportFrom)
                         else [])
                if any(n.split(".")[0] == "scipy" for n in names):
                    importers.add(path.name)
        assert importers == {"matcalc.py"}
