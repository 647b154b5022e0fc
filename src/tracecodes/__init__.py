"""Collusion-resistant code toolkit.

Exact verifiers, tracing algorithms, constructive transforms, closed-form
size caps and exhaustive searches for frameproof, parent-identifiable and
traceability codes and their cover-free set-family twins.

Every public name below is re-exported from its submodule, which is
imported on first use (PEP 562), so ``import tracecodes.cli`` loads only
what a command runs.
"""

from importlib import import_module

__version__ = "0.3.0"

#: The submodule that defines each public name.
_SUBMODULE = {
    name: module
    for module, names in {
        "bounds": (
            "BinaryFpStatus", "BoundEntry", "BoundReport", "binary_fp_status", "bound_report",
            "fp_bound", "ipp_bound", "min_exceed_length_quadratic", "singleton_bound",
            "ta_bound",
        ),
        "core": (
            "Code", "DescendantSetTooLarge", "INFINITE_DISTANCE", "ParentSetFamily", "SetFamily",
            "desc_profile", "hamming_distance", "is_descendant", "min_distance", "parent_sets",
        ),
        "search": (
            "MinLengthResult", "SearchProblem", "SearchResult", "max_code_search",
            "min_length_search",
        ),
        "trace": (
            "Accusation", "DEFAULT_SEED", "PirateStrategy", "TracingReport", "forge_pirate",
            "simulate_tracing", "trace_ipp", "trace_ta",
        ),
        "transform": (
            "IppViolationCertificate", "PatternPartition", "PruneResult", "Restriction",
            "StripTrace", "block_compose", "build_ipp_violation", "certificate_problems",
            "cff_restrict", "cff_to_fpc", "distance_strip", "fpc_to_cff", "make_row_partition",
            "pad_code", "prune_special_codewords",
        ),
        "verify": (
            "Counters", "CoverViolation", "FramedWord", "IppViolation", "TaViolation", "Verdict",
            "check_cff", "check_frameproof", "check_ipp", "check_ta", "ta_distance_sufficient",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    """A public name or a submodule, imported on first access and kept."""
    if name in _SUBMODULE:
        value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    elif name in _SUBMODULE.values():
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
