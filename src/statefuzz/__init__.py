"""State-aware fuzzing of a simulated dual-layer flight stack.

The pipeline: parse a fuzz spec and mission, enumerate the spec's
combinations for that mission into seeded test cases, execute them
deterministically against the simulated vehicle, judge each run with a
decision-tree oracle, cluster the failures, re-fuzz representative contexts
into truth tables, and minimize those into cut sets rendered as fault trees.

The clustering names (AnalysisResult, analyze_failures, encode_failures,
kmeans, select_k, select_representatives, sweep_k) load statefuzz.analysis,
and with it numpy, on first use: importing the package, or any command that
does not cluster, never loads numpy.
"""

from .cutset import (
    CutSet,
    FaultTree,
    SoundnessResult,
    TableRow,
    TruthTable,
    build_fault_tree,
    build_truth_table,
    cut_sets_for_table,
    merge_cut_sets,
    minimize,
    soundness_check,
    table_from_results,
)
from .executor import ExecutionProfile, Executor, run_campaign
from .fuzzspec import (
    CoverageReport,
    DelayBand,
    EnvironmentSpace,
    FuzzSpecification,
    MissionPlan,
    StateTarget,
    load_fuzz_spec,
    load_mission,
    parse_fuzz_spec,
    parse_mission,
    validate_coverage,
    validate_sut_config,
)
from .oracle import (
    FAILURE,
    INVALID,
    SUCCESS,
    Verdict,
    classify,
    default_tree,
    parse_tree,
    serialize_tree,
)
from .storage import Campaign, load_campaign
from .sutmodel import (
    AppState,
    AutopilotMode,
    Decision,
    FaultId,
    InjectionRequest,
    RcAction,
    SutConfig,
    Vehicle,
    inject_fault_behavior,
)
from .testgen import (
    GeneratorConfig,
    TestCase,
    derive_seed,
    focused_generate,
    generate,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "AppState",
    "AutopilotMode",
    "Campaign",
    "CoverageReport",
    "CutSet",
    "Decision",
    "DelayBand",
    "EnvironmentSpace",
    "ExecutionProfile",
    "Executor",
    "FAILURE",
    "FaultId",
    "FaultTree",
    "FuzzSpecification",
    "GeneratorConfig",
    "INVALID",
    "InjectionRequest",
    "MissionPlan",
    "RcAction",
    "SoundnessResult",
    "StateTarget",
    "SUCCESS",
    "SutConfig",
    "TableRow",
    "TestCase",
    "TruthTable",
    "Vehicle",
    "Verdict",
    "analyze_failures",
    "build_fault_tree",
    "build_truth_table",
    "classify",
    "cut_sets_for_table",
    "default_tree",
    "derive_seed",
    "encode_failures",
    "focused_generate",
    "generate",
    "inject_fault_behavior",
    "kmeans",
    "load_campaign",
    "load_fuzz_spec",
    "load_mission",
    "merge_cut_sets",
    "minimize",
    "parse_fuzz_spec",
    "parse_mission",
    "parse_tree",
    "run_campaign",
    "select_k",
    "select_representatives",
    "serialize_tree",
    "soundness_check",
    "sweep_k",
    "table_from_results",
    "validate_coverage",
    "validate_sut_config",
]

#: names resolved from statefuzz.analysis on first access (PEP 562)
_ANALYSIS_NAMES = frozenset({
    "AnalysisResult",
    "analyze_failures",
    "encode_failures",
    "kmeans",
    "select_k",
    "select_representatives",
    "sweep_k",
})


def __getattr__(name: str):
    if name in _ANALYSIS_NAMES:
        from . import analysis

        value = globals()[name] = getattr(analysis, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
