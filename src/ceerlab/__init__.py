"""ceerlab: stage-enumerated equivalence relations and the constructions
that act on them — a graded-algebra kernel with exact growth audits, free
products with decidable normal forms over staged presentations, and a
deterministic finite-injury engine with replayable logs."""

from .pairing import pair, unpair
from .ceers import (
    CeerTable,
    FunctionalStub,
    PartialityError,
    ReductionFn,
    ReductionReport,
    StageRegressionError,
    StageSet,
    column_of,
    darkness_probe,
    lightness_witness_check,
    product,
    pullback,
    uniform_join,
    verify_reduction,
)
from .algebra import (
    EncodingError,
    GSAuditResult,
    GSBudget,
    HomogeneousIdeal,
    HorizonError,
    Monomial,
    PaddedRelator,
    Poly,
    decode_padded,
    gs_audit,
    monomial_to_unit_word,
    pad_presentation,
    unit_inverse_poly,
    unit_word_to_poly,
)
from .groups import (
    CeerModuleGroup,
    CyclicFactor,
    FreeProduct,
    FreeProductWord,
    Relation,
    StagedAbelianFactor,
    StagedPresentation,
    TriangularityError,
    WordCoding,
    alternating_word,
    finite_genset_translate,
    fp_reduce,
    ga_wp,
    staged_abelian_wp,
    star_z2_to_star_h,
    validate_relation_stream,
    word_problem_table,
    z2_module_wp,
)
from .engine import ActionRecord, ConstructionRun, PriorityEngine, Requirement, RunLog
from .dark import DarkRunResult, run_dark_group, run_dark_ring
from .sigma3 import Sigma3Result, run_sigma3_ceer
from .star import (
    BudgetError,
    PhiEntry,
    StarConstruction,
    StarResult,
    level_census,
    run_star_universal,
)
from .indexset import SugResult, SumFunctionalStub, run_sug_indexset
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario

__version__ = "0.1.0"
