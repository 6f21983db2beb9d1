"""Exact simulation of mass measurement through timed elastic collisions.

A hidden mass in [0, 1] scatters test projectiles; the time until a
recoiling particle crosses a flag grows like the reciprocal of the mass
difference, so comparisons against chosen test masses cost more the
closer they are.  This package simulates that experiment with exact
rational arithmetic and builds the measurement procedures, budget
schedules, advice encodings, and statistical estimators that turn the
timing law into computation.
"""

from .collision import (Outcome, classify_outcome, experiment_time,
                        kinetic_energy, momentum, post_collision_velocities,
                        time_bounds, time_gap_product, uncertainty_product)
from .dyadic import Dyadic, validate_word, word_to_dyadic
from .oracle import (BatchRecord, CollisionOracle, ConfigError, OracleConfig,
                     PrecisionMode, QueryRecord, WaitPolicy)
from .sources import (MassSource, RunLengths, adversarial_mass,
                      affine_of_source, custom, diagonal_run_lengths,
                      distance_bracket, from_dyadic, from_rational,
                      from_run_lengths, load_mass_file, parse_mass_spec)
from .procedures import (MeasurementReport, Schedule, adversarial_continuation,
                         bisection, builtin_schedules, grid_failure_measure,
                         grid_sweep, measurability_check,
                         measurable_continuation, parse_schedule,
                         run_length_blocks, schedule_algebraic,
                         schedule_constant, schedule_exponential,
                         schedule_tabular, sufficient_exponential,
                         sufficient_for_rational)
from .advice import (AdviceCorruptionError, GrowthBoundError, PrefixFunction,
                     binarize_8bit, code_binary, decode_advice,
                     dyadic_gap_bound, encode_advice, encoded_mass, read_bound)
from .harness import (AdviceLanguage, DigitEstimate, MembershipResult,
                      cost_slope, decide_membership, embed_parameter,
                      estimate_digits, estimator_zeta, hidden_bit_language,
                      membership_schedule, trinomial_probabilities)
from . import kernels

__version__ = "0.1.0"
