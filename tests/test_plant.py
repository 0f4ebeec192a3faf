from dataclasses import fields

import numpy as np
import pytest

import gridtrade as gt
from gridtrade import PlantState, plant_equilibrium, plant_rhs
from gridtrade.plant import SingularSystemError


def single_loop_setup(R=2.0, Z_L=1.0, I_L=0.0, u_ref=0.0):
    topo = gt.MicrogridTopology(1, [], [])
    dgu = gt.DguParams(R=R, L=1.0, C=1.0, Z_L=Z_L, I_L=I_L,
                       V_min=-1e6, V_max=1e6, V_ref=0.0, u_ref=u_ref)
    return topo, gt.PlantParams([dgu], [])


class TestPlantRhs:
    def test_zero_everything(self, ref_scenario):
        p = ref_scenario.plant
        topo = ref_scenario.topo
        dgus = [gt.DguParams(R=d.R, L=d.L, C=d.C, Z_L=d.Z_L, I_L=0.0,
                             V_min=d.V_min, V_max=d.V_max, V_ref=d.V_ref)
                for d in p.dgus]
        p0 = gt.PlantParams(dgus, p.lines)
        s = PlantState.zeros(4, 4)
        d = plant_rhs(s, np.zeros(4), p0, topo)
        assert np.array_equal(d.to_vector(), np.zeros(12))

    def test_single_loop_arithmetic(self):
        topo, p = single_loop_setup(R=2.0)
        d = plant_rhs(PlantState([1.0], [0.0], []), np.zeros(1), p, topo)
        assert d.I[0] == pytest.approx(-2.0, abs=1e-15)

    def test_zero_at_oracle_equilibrium(self, ref_scenario, ref_solution):
        # balance residual, in equation units, relative to the load scale
        g = ref_scenario.games[0]
        I, V, Il = g.layout.split(ref_solution.x_star)
        state = PlantState(I, V, Il)
        d = plant_rhs(state, ref_solution.u_star, ref_scenario.plant,
                      ref_scenario.topo)
        p = ref_scenario.plant
        balance = np.concatenate([d.I * p.L, d.V * p.C, d.I_l * p.L_l])
        scale = max(1.0, np.abs(ref_solution.u_star).max())
        assert np.abs(balance).max() / scale < 1e-8

    def test_linearity(self, ref_scenario):
        p = ref_scenario.plant
        dgus = [gt.DguParams(R=d.R, L=d.L, C=d.C, Z_L=d.Z_L, I_L=0.0,
                             V_min=d.V_min, V_max=d.V_max, V_ref=d.V_ref)
                for d in p.dgus]
        p0 = gt.PlantParams(dgus, p.lines)
        topo = ref_scenario.topo
        rng = np.random.default_rng(21)
        for _ in range(5):
            s1 = PlantState(*np.split(rng.normal(size=12), [4, 8]))
            s2 = PlantState(*np.split(rng.normal(size=12), [4, 8]))
            u1, u2 = rng.normal(size=4), rng.normal(size=4)
            a, b = rng.normal(), rng.normal()
            mix = PlantState(a * s1.I + b * s2.I, a * s1.V + b * s2.V,
                             a * s1.I_l + b * s2.I_l)
            lhs = plant_rhs(mix, a * u1 + b * u2, p0, topo).to_vector()
            rhs = a * plant_rhs(s1, u1, p0, topo).to_vector() \
                + b * plant_rhs(s2, u2, p0, topo).to_vector()
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-9)

    def test_dimension_mismatch(self, ref_scenario):
        s = PlantState.zeros(4, 4)
        with pytest.raises(ValueError):
            plant_rhs(s, np.zeros(3), ref_scenario.plant,
                      ref_scenario.topo)


class TestPlantEquilibrium:
    def test_zero_input_zero_load(self):
        topo, p = single_loop_setup(I_L=0.0)
        eq = plant_equilibrium(np.zeros(1), p, topo)
        assert np.allclose(eq.to_vector(), 0.0, atol=1e-14)

    def test_voltage_divider(self):
        topo, p = single_loop_setup(R=1.0, Z_L=1.0, I_L=0.0)
        eq = plant_equilibrium(np.array([10.0]), p, topo)
        assert eq.I[0] == pytest.approx(5.0, abs=1e-12)
        assert eq.V[0] == pytest.approx(5.0, abs=1e-12)

    def test_rhs_vanishes_at_equilibrium(self, ref_scenario):
        rng = np.random.default_rng(3)
        u = rng.uniform(370, 390, size=4)
        eq = plant_equilibrium(u, ref_scenario.plant, ref_scenario.topo)
        d = plant_rhs(eq, u, ref_scenario.plant, ref_scenario.topo)
        p = ref_scenario.plant
        balance = np.concatenate([d.I * p.L, d.V * p.C, d.I_l * p.L_l])
        assert np.abs(balance).max() < 1e-9 * np.abs(u).max()

    def test_oracle_voltage_window(self, ref_scenario, ref_solution):
        eq = plant_equilibrium(ref_solution.u_star, ref_scenario.plant,
                               ref_scenario.topo)
        assert (eq.V >= 377.0 - 1e-6).all()
        assert (eq.V <= 383.0 + 1e-6).all()

    def test_singular_parameters_flagged(self):
        # extreme magnitudes make the balance system numerically singular
        topo, _ = single_loop_setup()
        dgu = gt.DguParams(R=1e300, L=1.0, C=1.0, Z_L=1e300, I_L=0.0,
                           V_min=-1.0, V_max=1.0, V_ref=0.0)
        p = gt.PlantParams([dgu], [])
        with pytest.raises(SingularSystemError):
            plant_equilibrium(np.zeros(1), p, topo)


class TestLoadStep:
    def test_reference_step(self, ref_scenario):
        stepped = gt.apply_load_step(ref_scenario.plant, 3.0, 3.0)
        assert stepped.I_L[0] == pytest.approx(27.0)
        assert stepped.Z_L[0] == pytest.approx(13.0)
        assert np.array_equal(stepped.R, ref_scenario.plant.R)
        assert np.array_equal(stepped.V_ref, ref_scenario.plant.V_ref)

    def test_identity_step(self, ref_scenario):
        stepped = gt.apply_load_step(ref_scenario.plant, 0.0, 0.0)
        assert np.array_equal(stepped.I_L, ref_scenario.plant.I_L)
        assert np.array_equal(stepped.Z_L, ref_scenario.plant.Z_L)

    def test_nonpositive_impedance_rejected(self):
        _, p = single_loop_setup(Z_L=2.0)
        with pytest.raises(ValueError, match="Z_L"):
            gt.apply_load_step(p, 0.0, 3.0)


class TestPlantParams:
    def test_arrays_read_off_the_records(self, ref_scenario):
        """Every record field is an array over the records, in record
        order; a line's R and L are R_l and L_l."""
        p = ref_scenario.plant
        for records, cls, rename in ((p.dgus, gt.DguParams, {}),
                                     (p.lines, gt.LineParams,
                                      {"R": "R_l", "L": "L_l"})):
            for f in fields(cls):
                arr = getattr(p, rename.get(f.name, f.name))
                assert arr.dtype == np.float64
                assert arr.tolist() == [getattr(r, f.name) for r in records]


class TestParamValidation:
    def test_positivity(self):
        with pytest.raises(ValueError):
            gt.DguParams(R=-1.0, L=1.0, C=1.0, Z_L=1.0, I_L=0.0,
                         V_min=0.0, V_max=1.0, V_ref=0.5)
        with pytest.raises(ValueError):
            gt.LineParams(R=0.0, L=1.0, Il_min=-1.0, Il_max=1.0)

    def test_box_order(self):
        with pytest.raises(ValueError):
            gt.DguParams(R=1.0, L=1.0, C=1.0, Z_L=1.0, I_L=0.0,
                         V_min=1.0, V_max=1.0, V_ref=0.5)
