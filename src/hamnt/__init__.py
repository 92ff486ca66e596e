"""Codes in Hamming graphs H(m,q): neighbour sets, the wreath-product
automorphism group and its action, pre-codeword structure, setwise
stabilizer search, neighbour-transitivity verification, the
doubled-vector binary family, and the structural lemma suite."""

from .errors import (CodeFormatError, FeasibilityError, HypothesisError,
                     ImageInCodeError, LemmaViolationError, MinDistanceError,
                     NotACodewordError, NotNeighbourStabilizerError,
                     SchemeMismatchError)
from .hamming_core import (DEFAULT_ENUMERATION_CAP, HammingScheme, Triple,
                           Vertex, common_neighbours, distance,
                           enumerate_triples, neighbours, vertex_from_text,
                           vertex_to_text, weight)
from .wreath_group import (DEFAULT_GROUP_CAP, Automorphism, GeneratorSet,
                           automorphism_from_text, automorphism_to_text,
                           closure, conjugate, enumerate_full_group,
                           group_order, orbit, translation)
from .code_model import (Code, EquivalenceWitness, code_to_text,
                         find_equivalence, is_code_automorphism,
                         is_linear_binary, parse_code_text, read_code_file,
                         shell, stabilizes_set, translation_subgroup,
                         write_code_file)
from .precodeword import (PreReport, c_of_pi, pre_codewords,
                          pre_for_neighbour, verify_pre_structure)
from .transitivity import (CASE2, CASE3, VERDICT_FIXED, VERDICT_NONFIXING,
                           VIOLATION, ClassificationReport, StabilizerAnalysis,
                           analyze_stabilizer, classify_theorem,
                           is_neighbour_transitive, neighbour_orbits,
                           setwise_stabilizer)
from .family_codes import (FamilyInstance, FamilyReport, build_family,
                           verify_family)
from .lemmas import LemmaSuiteReport, run_lemma_suite
from .reporting import ClauseResult

__version__ = "0.1.0"

__all__ = [
    "HammingScheme", "Vertex", "Triple", "distance", "weight", "neighbours",
    "common_neighbours", "enumerate_triples", "vertex_to_text",
    "vertex_from_text", "DEFAULT_ENUMERATION_CAP",
    "Automorphism", "GeneratorSet", "translation", "enumerate_full_group",
    "closure", "orbit", "conjugate", "group_order", "automorphism_to_text",
    "automorphism_from_text", "DEFAULT_GROUP_CAP",
    "Code", "EquivalenceWitness", "shell", "stabilizes_set",
    "is_code_automorphism", "is_linear_binary", "translation_subgroup",
    "find_equivalence", "parse_code_text", "code_to_text", "read_code_file",
    "write_code_file",
    "PreReport", "pre_codewords", "pre_for_neighbour", "c_of_pi",
    "verify_pre_structure",
    "ClassificationReport", "setwise_stabilizer", "is_neighbour_transitive",
    "neighbour_orbits", "classify_theorem", "StabilizerAnalysis",
    "analyze_stabilizer", "VERDICT_FIXED", "VERDICT_NONFIXING", "CASE2",
    "CASE3", "VIOLATION",
    "FamilyInstance", "FamilyReport", "build_family", "verify_family",
    "LemmaSuiteReport", "run_lemma_suite",
    "ClauseResult",
    "SchemeMismatchError", "FeasibilityError", "CodeFormatError",
    "HypothesisError", "MinDistanceError", "NotACodewordError",
    "NotNeighbourStabilizerError", "ImageInCodeError", "LemmaViolationError",
]
