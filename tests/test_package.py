import types

import quantile_kaczmarz


def test_all_holds_no_module():
    namespace = {}
    exec("from quantile_kaczmarz import *", namespace)
    modules = [name for name in quantile_kaczmarz.__all__
               if isinstance(namespace[name], types.ModuleType)]
    assert modules == []


def test_public_api_is_pinned():
    # a name enters or leaves the public API only through an edit here
    assert sorted(quantile_kaczmarz.__all__) == [
        "CorruptionSpec", "DQRK", "DenseSystem", "DiagnosticRow",
        "DimensionMismatchError", "ExperimentResult", "ExperimentSpec",
        "FileSource", "GeneratedSource", "GroundTruth",
        "HypothesisViolationError", "InvalidQuantilesError",
        "MatrixMarketParseError", "Motzkin", "OnHyperplane", "Origin",
        "ProblemSpec", "QRK", "QuantileKaczmarzError", "RK", "RQRK", "RunSpec",
        "SelectorKind", "SolveTrace", "SolverConfig", "StopRule",
        "ThresholdResult", "TraceRecord", "UnsupportedFieldError",
        "ZeroRowError", "corrupt", "corruption_penalty",
        "cost_parity_benchmark", "derive_seed", "diagnostic_report",
        "emit_artifacts", "extreme_singular_values", "generate_system",
        "leave_one_out_sigma_min", "load_matrix_market", "normalize_rows",
        "parse_selector", "robustness_diagnostic", "run_experiment",
        "save_matrix_market", "solve", "spec_from_dict", "spec_to_dict",
        "time_to_threshold",
    ]
