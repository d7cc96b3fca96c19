import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dpconic.conic import (
    ConeSpec,
    ConicProgram,
    NotOptimal,
    Residuals,
    Solution,
    Status,
    as_dense,
    build_simple_lp,
    cone_membership,
    cone_membership_rows,
    nonneg,
    program_from_json,
    program_to_json,
    rsoc,
    slack,
    soc,
    require_optimal,
    zero,
)


def lp2() -> ConicProgram:
    return ConicProgram(np.eye(2), np.array([1.0, 1.0]), np.array([1.0, 1.0]),
                        ConeSpec([nonneg(2)]))


class TestConeSpec:
    def test_equal_blocks_share_one_instance(self):
        # a privatized program lists thousands of blocks of a few shapes
        spec = ConeSpec([("NonNeg", 3), ("SecondOrder", np.int64(4)), ("NonNeg", 3),
                         ("SecondOrder", 4)])
        assert spec.blocks[0] is spec.blocks[2]
        assert spec.blocks[1] is spec.blocks[3]
        assert spec.blocks[1] == soc(4) and type(spec.blocks[1].dim) is int

    def test_bad_block_rejected(self):
        with pytest.raises(ValueError):
            ConeSpec([("RotatedSecondOrder", 1)])


class TestValidate:
    """A program checks itself on construction; ValueError names every
    violation."""

    @staticmethod
    def _rejected(match, A=None, b=(1.0, 1.0), c=(1.0, 1.0), cones=(nonneg(2),),
                  names=None):
        with pytest.raises(ValueError, match=match):
            ConicProgram(np.eye(2) if A is None else A, np.array(b), np.array(c),
                         ConeSpec(cones), variable_names=names)

    def test_ok(self):
        p = lp2()
        assert (p.m, p.n) == (2, 2)
        ConicProgram(np.eye(2), np.ones(2), np.ones(2), ConeSpec([nonneg(2)]),
                     variable_names=("x", "y"))

    def test_bad_b_length(self):
        self._rejected(r"^invalid program: b length 3 != m=2$", b=(1.0, 1.0, 1.0),
                       cones=(nonneg(2),))

    def test_bad_c_length(self):
        self._rejected(r"^invalid program: c length 3 != n=2$", c=(1.0, 1.0, 1.0))

    def test_cone_dim_mismatch(self):
        self._rejected(r"^invalid program: cone dims sum to 1 != m=2$", cones=(nonneg(1),))

    def test_nonfinite(self):
        A = np.eye(2)
        A[0, 0] = np.inf
        self._rejected(r"^invalid program: A has non-finite entries$", A=A)

    def test_nonfinite_b(self):
        self._rejected(r"^invalid program: b has non-finite entries$", b=(1.0, np.nan))

    def test_nonfinite_c(self):
        self._rejected(r"^invalid program: c has non-finite entries$", c=(-np.inf, 1.0))

    def test_variable_names_length(self):
        self._rejected(r"^invalid program: variable_names length != n$", names=("x",))

    def test_every_violation_named(self):
        self._rejected(r"^invalid program: b length 3 != m=2; c has non-finite entries$",
                       b=(1.0, 1.0, 1.0), c=(1.0, np.nan))

    def test_idempotent_and_pure(self):
        # a program rebuilt from its own fields is the same program, and a
        # rejected build leaves its inputs as they were
        p = lp2()
        q = ConicProgram(p.A, p.b, p.c, p.cones)
        assert np.array_equal(q.A, p.A) and np.array_equal(q.b, p.b)
        assert np.array_equal(q.c, p.c) and q.cones == p.cones
        A, b = np.eye(2), np.array([1.0, np.nan])
        with pytest.raises(ValueError):
            ConicProgram(A, b, np.ones(2), ConeSpec([nonneg(2)]))
        assert A.flags.writeable and b.flags.writeable and np.isnan(b[1])

    def test_owns_its_arrays(self):
        # a builder may write into its arrays after building a program from
        # them: the program holds read-only copies
        A, b, c = np.eye(2), np.ones(2), np.ones(2)
        p = ConicProgram(A, b, c, ConeSpec([nonneg(2)]))
        A[0, 0], b[0], c[0] = 3.0, 4.0, 5.0
        assert np.array_equal(p.A, np.eye(2))
        assert np.array_equal(p.b, np.ones(2)) and np.array_equal(p.c, np.ones(2))
        for array in (p.A, p.b, p.c):
            assert not array.flags.writeable


class TestCsrForm:
    def test_kept_canonical_and_read_only(self):
        # duplicates summed and stored zeros dropped, on a copy
        A = sp.coo_array(([1.0, 2.0, 0.0, -1.0], ([0, 0, 1, 1], [1, 1, 0, 2])),
                         shape=(2, 3))
        p = ConicProgram(A, np.ones(2), np.zeros(3), ConeSpec([nonneg(2)]))
        assert p.A.format == "csr" and p.A.nnz == 2
        assert np.array_equal(p.A.toarray(), [[0.0, 3.0, 0.0], [0.0, 0.0, -1.0]])
        assert A.nnz == 4
        with pytest.raises(ValueError):
            p.A.data[0] = 1.0

    def test_nonfinite(self):
        A = sp.csr_array(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="^invalid program: A has non-finite entries$"):
            ConicProgram(A, np.ones(2), np.ones(2), ConeSpec([nonneg(2)]))

    def test_slack_matches_dense(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(5, 4))
        A[rng.random(A.shape) < 0.5] = 0.0
        args = (rng.normal(size=5), rng.normal(size=4), ConeSpec([nonneg(2), soc(3)]))
        p, d = ConicProgram(sp.csr_array(A), *args), ConicProgram(A, *args)
        assert p.A.format == "csr" and np.array_equal(p.A.toarray(), d.A)
        x = rng.normal(size=4)
        np.testing.assert_allclose(slack(p, x), slack(d, x), rtol=1e-15, atol=1e-15)


class TestSlack:
    def test_identity(self):
        p = ConicProgram(np.eye(2), np.array([2.0, 3.0]), np.zeros(2),
                         ConeSpec([nonneg(2)]))
        assert np.allclose(slack(p, [1.0, 1.0]), [1.0, 2.0])

    def test_zero_x(self):
        p = lp2()
        assert np.allclose(slack(p, [0.0, 0.0]), p.b)

    def test_row(self):
        p = ConicProgram(np.array([[1.0, 1.0]]), np.array([5.0]), np.zeros(2),
                         ConeSpec([nonneg(1)]))
        assert np.allclose(slack(p, [2.0, 3.0]), [0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            slack(lp2(), [1.0, 2.0, 3.0])


class TestConeMembership:
    def test_soc_boundary(self):
        assert cone_membership(np.array([1.0, 0.6, 0.8]), ConeSpec([soc(3)]), 1e-9)

    def test_rsoc_violated(self):
        # 2*1*1 = 2 < 1.5^2 = 2.25
        assert not cone_membership(np.array([1.0, 1.0, 1.5]), ConeSpec([rsoc(3)]))

    def test_zero_block(self):
        assert cone_membership(np.zeros(2), ConeSpec([zero(2)]))

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            cone_membership(np.zeros(2), ConeSpec([zero(2)]), tol=-1.0)

    def test_mixed_blocks(self):
        v = np.concatenate([[0.0], [0.5, 0.2], [1.0, 0.0, 1.0]])
        cones = ConeSpec([zero(1), nonneg(2), soc(3)])
        assert cone_membership(v, cones)

    @settings(max_examples=100, deadline=None)
    @given(
        v=st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
        tol1=st.floats(0, 1),
        tol2=st.floats(0, 1),
    )
    def test_monotone_in_tol(self, v, tol1, tol2):
        lo, hi = sorted([tol1, tol2])
        cones = ConeSpec([soc(3)])
        if cone_membership(np.array(v), cones, lo):
            assert cone_membership(np.array(v), cones, hi)


class TestConeMembershipRows:
    CONES = ConeSpec([zero(1), nonneg(2), soc(3), rsoc(3)])

    @staticmethod
    def _inside(v, tol):
        """Membership in CONES, written out block by block."""
        return (abs(v[0]) <= tol and min(v[1:3]) >= -tol
                and v[3] >= np.linalg.norm(v[4:6]) - tol
                and min(v[6:8]) >= -tol and 2.0 * v[6] * v[7] >= v[8] ** 2 - tol)

    def test_each_row_equals_one_row_call(self):
        V = np.random.default_rng(0).normal(scale=0.3, size=(500, self.CONES.dim))
        V[::2, 0] = 0.0                 # the Zero block holds on every other row
        V[:, 1:3] += 0.5
        V[:, 3] += 1.0
        V[:, 6:8] += 1.0
        for tol in (0.0, 0.05, 0.5):
            rows = cone_membership_rows(V, self.CONES, tol)
            assert rows.dtype == bool and rows.shape == (500,)
            assert list(rows) == [cone_membership(v, self.CONES, tol) for v in V]
            assert list(rows) == [self._inside(v, tol) for v in V]
            assert 0 < rows.sum() < rows.size

    def test_no_rows(self):
        assert cone_membership_rows(np.empty((0, self.CONES.dim)), self.CONES).shape == (0,)

    @pytest.mark.parametrize("shape", [(9,), (4, 8), (4, 10), (2, 3, 9)])
    def test_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            cone_membership_rows(np.zeros(shape), self.CONES)


class TestSimpleLp:
    def test_standard_form(self):
        p = build_simple_lp(1.0, 1.0, 2.0)
        assert p.m == 2 and p.n == 1
        # feasibility of the two endpoints, infeasibility outside
        assert cone_membership(slack(p, [1.0]), p.cones, 1e-12)
        assert cone_membership(slack(p, [2.0]), p.cones, 1e-12)
        assert not cone_membership(slack(p, [0.5]), p.cones, 1e-6)

    def test_rejects_empty_box(self):
        with pytest.raises(ValueError):
            build_simple_lp(1.0, 2.0, 1.0)


class TestRequireOptimal:
    @staticmethod
    def solution(status):
        return Solution(np.zeros(1), np.zeros(2), status, 0.0, Residuals(0.0, 0.0, 0.0))

    def test_optimal_passes_unchanged(self):
        sol = self.solution(Status.OPTIMAL)
        assert require_optimal(sol, "simple LP") is sol

    @pytest.mark.parametrize("status", [Status.PRIMAL_INFEASIBLE,
                                        Status.DUAL_INFEASIBLE, Status.MAX_ITER])
    def test_other_statuses_raise(self, status):
        with pytest.raises(NotOptimal) as err:
            require_optimal(self.solution(status), "simple LP")
        assert isinstance(err.value, RuntimeError)
        assert err.value.status == status
        assert str(err.value) == f"simple LP returned {status.value}"


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        p = ConicProgram(rng.normal(size=(6, 3)), rng.normal(size=6),
                         rng.normal(size=3), ConeSpec([zero(1), nonneg(2), soc(3)]),
                         variable_names=("a", "b", "c"))
        q = program_from_json(program_to_json(p))
        assert np.array_equal(p.A, q.A)
        assert np.array_equal(p.b, q.b)
        assert np.array_equal(p.c, q.c)
        assert p.cones == q.cones
        assert p.variable_names == q.variable_names

    def test_csr_program_written_as_its_dense_form(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(6, 3))
        A[rng.random(A.shape) < 0.5] = 0.0
        args = (rng.normal(size=6), rng.normal(size=3),
                ConeSpec([zero(1), nonneg(2), soc(3)]))
        p = ConicProgram(sp.csr_array(A), *args, variable_names=("a", "b", "c"))
        text = program_to_json(p)
        assert text == program_to_json(ConicProgram(A, *args, variable_names=("a", "b", "c")))
        q = program_from_json(text)
        assert np.array_equal(as_dense(p.A), q.A)
        assert np.array_equal(p.b, q.b) and np.array_equal(p.c, q.c)
        assert p.cones == q.cones and p.variable_names == q.variable_names

    def test_schema_fields(self):
        doc = json.loads(program_to_json(lp2()))
        assert set(doc) >= {"m", "n", "A", "b", "c", "cones"}
        assert doc["cones"][0] == {"kind": "NonNeg", "dim": 2}

    @settings(max_examples=50, deadline=None)
    @given(vals=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                   width=64), min_size=4, max_size=4))
    def test_round_trip_arbitrary_doubles(self, vals):
        p = ConicProgram(np.array(vals).reshape(2, 2), np.array([1.0, 2.0]),
                         np.array([0.5, -0.5]), ConeSpec([nonneg(2)]))
        q = program_from_json(program_to_json(p))
        assert np.array_equal(p.A, q.A)
