"""Simulator and experiment harness for a three-mode trapped-ion
absorption refrigerator.

The package evolves three harmonic modes coupled by a trilinear
interaction, exploiting the two conserved excitation sums to reduce the
dynamics to small invariant sectors.  It covers state preparation
(thermal, coherent, squeezed thermal), sideband detection and
thermometry fits, thermodynamic benchmarks, and reproducible dataset
generation via the ``ionfridge`` CLI.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .benchmarks import (CoolingReport, OccupationTriple, cooling_condition,
                         cooling_report, entropy_flow,
                         equilibrium_cold_occupation, equilibrium_shift,
                         extract_equilibrium_nc)
from .dynamics import (EnsembleSpectrum, ThreeModeEnsemble, assemble_initial,
                       default_incoherence_strength)
from .errors import (CutoffError, DomainError, FitConvergenceError,
                     NumericsError, ScenarioError, SensitivityError,
                     TruncationError, ValidationError)
from .experiments import (Scenario, SteadyStateRule, TrajectoryResult,
                          equilibrium_cell, fig2_dataset, fig3_dataset,
                          fig4_dataset, load_scenario, relaxation_trace,
                          run_scenario, scenario_from_dict, single_shot_point,
                          steady_state)
from .fockspace import (SectorSelection, TruncationPolicy, enumerate_sector,
                        select_sectors)
from .measurement import (BrightnessRecord, EstimatorConfig,
                          FitResult, SidebandConfig, SimulatedResponse,
                          blue_sideband_flopping, damped_least_squares,
                          estimate_nbar, fit_distribution, load_brightness_csv,
                          red_sideband_brightness, save_brightness_csv,
                          synthetic_brightness)
from .oracle import dense_oracle_evolve
from .states import (ModePrep, PhononDistribution, coherent_distribution,
                     prep_mean, prep_to_distribution,
                     squeezed_thermal_distribution, squeezed_thermal_mean,
                     squeezed_vacuum_distribution, thermal_distribution)
from .trap import (CODATA2014, REFERENCE_SETUPS, CouplingFormulaWarning,
                   CouplingRate, ModeFrequencies, PhysicalConstants,
                   TrapConfig, cooling_power_per_mass, coupling_rate,
                   equilibrium_spacing, mode_frequencies, mode_temperature,
                   refrigeration_ordering)

__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
