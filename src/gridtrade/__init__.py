"""DC microgrid energy-trading control: simulator and verification toolkit."""

from .controller import (ControllerParams, ControllerState, KktResidual,
                         consensus_errors, controller_rhs, fast_equilibrium,
                         kkt_residual)
from .engine import (ClosedLoop, RunReport, Scenario, ScenarioError,
                     parse_quantity, run_scenario)
from .game import (ConstraintData, GameDefinition, ObjectiveWeights,
                   PenaltyBoxes, PenaltyParams, PriceParams, build_game,
                   check_price_margin, check_monotonicity, check_penalty_bounds,
                   cost, local_gradient, penalty_subgradient, pseudo_gradient)
from .integrate import IntegrationError, IntegratorConfig, Trajectory
from .oracle import (ClosedLoopEquilibrium, EquilibriumSolution,
                     FeasibleSetProjector, closed_loop_equilibrium,
                     lyapunov_diagnostics, recover_multipliers,
                     reduced_model_rhs, solve_vi)
from .plant import (DguParams, LineParams, PlantParams, PlantState,
                    SingularSystemError, apply_load_step, plant_equilibrium,
                    plant_rhs)
from .topology import (AgentLayout, MicrogridTopology, incidence_matrix,
                       laplacian)

__version__ = "0.1.0"
