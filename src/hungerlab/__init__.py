"""Deterministic chip-firing simulators and estimators for finite Markov
chains: the greedy demand-side game, its stationary/hitting/absorption
estimators, exact orbit analysis, and the Engel and rotor-router baselines.
"""

from ._kernels import active_backend
from .baselines import (
    ChipConfig,
    EngelRecord,
    RotorTrace,
    TwoStateComparison,
    compare_two_state,
    engel_run,
    rotor_run,
)
from .chain_model import (
    FLOAT,
    RATIONAL,
    HungerMatrix,
    MarkovChain,
    ReroutedChain,
    absorbing_states,
    chain_to_document,
    common_denominator,
    hunger_matrix,
    is_irreducible,
    lcd_of_stationary,
    make_absorbing,
    parse_chain,
    reroute,
    split_vertex,
    stationary_distribution,
)
from .errors import (
    CapExceeded,
    ChainFormatError,
    FloatModeUnsupported,
    HasAbsorbing,
    HungerLabError,
    IIsAbsorbing,
    NoAbsorbingStates,
    NonUniqueStationary,
    Stabilized,
    UEqualsV,
    VIsAbsorbing,
    YNotOnZ,
    ZeroSteps,
)
from .estimators import (
    AbsorptionEstimate,
    DiscrepancyProfile,
    HittingEstimate,
    absorption_profile,
    absorption_time,
    discrepancy_profile,
    escape_probability,
    escape_profile,
    expected_return_time,
    hitting_distribution,
    hitting_oracle,
    hitting_profile,
    hitting_profiles,
    normalized_firing_vector,
    return_time_profile,
)
from .hunger_engine import (
    DEFAULT_CAP,
    FiringTrace,
    GoldbugChain,
    HarmonicChain,
    LazyChain,
    ReinsertionTrace,
    SparseHunger,
    SparseTrace,
    chip_add,
    fire_step,
    goldbug_chain,
    harmonic_chain,
    hungriest_index,
    lazy_run,
    run,
    run_with_reinsertion,
    zero_hunger,
)
from .recurrence import (
    BasinCell,
    BasinScan,
    ConjectureReport,
    CoveringCheck,
    CycleInfo,
    HungerLattice,
    basin_scan,
    canonical_order,
    conjecture_reports,
    covering_check,
    covering_detail,
    find_cycle,
    is_recurrent,
    lattice_basis,
    lattice_member,
    zero_period,
)

__version__ = "0.1.0"
