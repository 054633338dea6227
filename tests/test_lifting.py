import numpy as np
import pytest

from pdeltaflow.discretization import RectDomain, build_space, norm_Lp, norm_W1p
from pdeltaflow.lifting import (
    BoundaryData,
    LiftingError,
    _boundary_defect,
    _compat_defect,
    lift,
)

from conftest import tangential_g2


class TestCompatibility:
    def test_tangential_data_has_zero_flux(self, space8):
        data = BoundaryData(g1=0.0, g2=tangential_g2(1.0))
        assert abs(_compat_defect(space8, data.g1_values(space8), data.g2_dof_values(space8))) < 1e-12

    def test_linear_field_flux(self, space8):
        # int g1 = 2, boundary flux of (x, y) = 2
        data = BoundaryData(g1=2.0, g2=(lambda x, y: x, lambda x, y: y))
        assert abs(_compat_defect(space8, data.g1_values(space8), data.g2_dof_values(space8))) < 1e-12

    def test_incompatible_data(self, space8):
        data = BoundaryData(g1=1.0, g2=None)
        assert abs(_compat_defect(space8, data.g1_values(space8), data.g2_dof_values(space8)) - 1.0) < 1e-12

    def test_boundary_defect_is_the_trace_interpolation_error(self):
        s = build_space(RectDomain(0.5, -0.3, 2.5, 0.7), 4, 3)

        def defect(g2):
            return _boundary_defect(s, BoundaryData(g2=g2).g2_dof_values(s), g2)

        quadratic = (lambda x, y: x**2 - y, lambda x, y: x * y + y**2)
        assert defect(quadratic) <= 1e-13
        cubic = (lambda x, y: x**3, lambda x, y: 0.0 * x)
        assert defect(cubic) > 1e-3

    def test_lift_rejects_incompatible(self, space8):
        with pytest.raises(LiftingError) as err:
            lift(BoundaryData(g1=1.0, g2=None), space8, 2.0, 2.0)
        assert abs(err.value.compat_defect - 1.0) < 1e-12  # the defect travels with the error

    def test_g2_interpolated_at_boundary_nodes_only(self):
        # a callable g2 is evaluated at the boundary P2 nodes only, to the full interpolant's values there
        s = build_space(RectDomain(0.5, -0.3, 2.5, 0.7), 4, 3)
        sizes = []

        def gx(x, y):
            sizes.append(x.size)
            return np.sin(x) * y

        pair = (gx, lambda x, y: np.exp(x - y))
        full = s.interpolate_velocity(pair).coeffs
        ref = np.zeros(s.n_vel)
        ref[s.boundary_vel_dofs] = full[s.boundary_vel_dofs]
        sizes.clear()
        assert np.array_equal(BoundaryData(g2=pair).g2_dof_values(s), ref)
        assert sizes == [s.boundary_p2.size]

    @pytest.mark.parametrize(
        "g2",
        [
            lambda x, y: np.column_stack([x, y]),  # one callable of both components
            (lambda x, y: x,),
            (lambda x, y: x, lambda x, y: y, lambda x, y: x),
            (1.0, 2.0),
            np.zeros(2),
        ],
        ids=["vector-callable", "one", "three", "numbers", "array"],
    )
    def test_g2_that_is_not_a_pair_of_callables_is_rejected(self, space4, g2):
        with pytest.raises(ValueError, match="pair of scalar callables"):
            BoundaryData(g2=g2).g2_dof_values(space4)
        with pytest.raises(ValueError, match="pair of scalar callables"):
            space4.interpolate_velocity(g2)


class TestLift:
    def test_zero_data(self, space8):
        lf = lift(BoundaryData(), space8, 1.8, 1.8)
        assert lf.norms["W1p"] == 0.0
        assert lf.div_defect == 0.0

    def test_manufactured_quadratic(self, unit_domain):
        # (x^2, -2xy) is divergence free and minimizes the gradient energy
        # among fields with its trace, so the discrete lift reproduces it
        ge = (lambda x, y: x**2, lambda x, y: -2.0 * x * y)
        for n in (8, 16):
            s = build_space(unit_domain, n, n)
            lf = lift(BoundaryData(g1=0.0, g2=ge), s, 2.0, 2.0)
            exact = s.interpolate_velocity(ge)
            err = norm_Lp(s.velocity_field(lf.g.coeffs - exact.coeffs), 2.0)
            assert err < 1e-10
            assert lf.div_defect <= 1e-8
            assert lf.boundary_defect < 1e-12

    def test_manufactured_linear_with_divergence(self, space8):
        data = BoundaryData(g1=2.0, g2=(lambda x, y: x, lambda x, y: y))
        lf = lift(data, space8, 2.0, 2.0)
        exact = space8.interpolate_velocity((lambda x, y: x, lambda x, y: y))
        assert np.abs(lf.g.coeffs - exact.coeffs).max() < 1e-10

    def test_linearity(self, space8):
        g2a = (lambda x, y: x * y, lambda x, y: -y)
        g2b = tangential_g2(1.0)
        da = BoundaryData(g1=-0.5, g2=g2a)  # flux of (xy, -y) is -1/2
        db = BoundaryData(g1=0.0, g2=g2b)
        la = lift(da, space8, 1.8, 1.8)
        lb = lift(db, space8, 1.8, 1.8)
        comb = BoundaryData(
            g1=lambda x, y: -1.0 + 0 * x,
            g2=(
                lambda x, y: 2.0 * g2a[0](x, y) + 0.5 * g2b[0](x, y),
                lambda x, y: 2.0 * g2a[1](x, y) + 0.5 * g2b[1](x, y),
            ),
        )
        lc = lift(comb, space8, 1.8, 1.8)
        combined = 2.0 * la.g.coeffs + 0.5 * lb.g.coeffs
        scale = np.abs(combined).max()
        assert np.abs(lc.g.coeffs - combined).max() < 1e-9 * max(scale, 1.0)

    def test_pointwise_divergence_defect_decreases(self, unit_domain):
        g2 = (lambda x, y: np.sin(np.pi * y) * np.exp(x), lambda x, y: np.cos(np.pi * x) * y**2)
        g1_raw = lambda x, y: np.cos(2 * np.pi * x) * np.sin(np.pi * y)
        defects = []
        for n in (8, 16, 32):
            s = build_space(unit_domain, n, n)
            raw = BoundaryData(g1=g1_raw, g2=g2)
            shift = _compat_defect(s, raw.g1_values(s), raw.g2_dof_values(s)) / s.domain.measure
            data = BoundaryData(g1=lambda x, y: g1_raw(x, y) - shift, g2=g2)
            lf = lift(data, s, 1.8, 1.8)
            assert lf.div_defect <= 1e-8
            defects.append(lf.div_defect_pointwise)
        assert defects[0] > defects[1] > defects[2]

    def test_norms_populated(self, space8):
        lf = lift(BoundaryData(g1=0.0, g2=tangential_g2(0.5)), space8, 1.6, 2.4)
        for key in ("W1p", "W1s", "Dg_s", "div_s", "Dg_p", "div_p"):
            assert lf.norms[key] >= 0.0
        assert lf.norms["W1p"] > 0
        assert abs(lf.norms["W1p"] - norm_W1p(lf.g, 1.6)) < 1e-14
