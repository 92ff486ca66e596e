"""Codes in Hamming graphs H(m,q): neighbour sets, the wreath-product
automorphism group and its action, pre-codeword structure, one search
with stabilizer chains behind setwise stabilizers, the least element
outside a subgroup and code equivalence, neighbour-transitivity
verification, the doubled-vector binary family, and the structural
lemma suite."""

from .errors import (CodeFormatError, FeasibilityError, HypothesisError,
                     ImageInCodeError, MinDistanceError, NotACodewordError,
                     NotNeighbourStabilizerError, SchemeMismatchError)
from .hamming_core import (DEFAULT_ENUMERATION_CAP, HammingScheme, Triple,
                           Vertex, common_neighbours, distance,
                           enumerate_triples, neighbours, shell,
                           vertex_from_text, vertex_to_text, weight)
from .wreath_group import (DEFAULT_GROUP_CAP, Automorphism, GeneratorSet,
                           automorphism_to_text, closure, enumerate_full_group,
                           full_group_generators, group_order, orbit,
                           translation)
from .chain import (StabilizerChain, fixes_entries, least_outside,
                    schreier_sims, stabilizer_chain)
from .code_model import (Code, code_to_text, find_equivalence,
                         is_code_automorphism, is_linear_binary,
                         neighbour_count, neighbour_stabilizer,
                         neighbourhoods_disjoint, parse_code_text,
                         read_code_file, stabilizes_set, write_code_file)
from .precodeword import PreReport, pre_codewords, verify_pre_structure
from .transitivity import (CASE2, CASE3, VERDICT_FIXED, VERDICT_NONFIXING,
                           VIOLATION, ClassificationReport, StabilizerAnalysis,
                           analyze_stabilizer, classify_theorem,
                           is_neighbour_transitive, setwise_stabilizer)
from .family_codes import (FamilyInstance, FamilyReport, build_family,
                           verify_family)
from .lemmas import LemmaSuiteReport, run_lemma_suite
from .reporting import ClauseResult

__version__ = "0.1.0"

__all__ = [
    "HammingScheme", "Vertex", "Triple", "distance", "weight", "neighbours",
    "common_neighbours", "enumerate_triples", "shell", "vertex_to_text",
    "vertex_from_text", "DEFAULT_ENUMERATION_CAP",
    "Automorphism", "GeneratorSet", "translation", "enumerate_full_group",
    "full_group_generators", "closure", "orbit", "group_order",
    "StabilizerChain", "stabilizer_chain", "schreier_sims", "least_outside",
    "fixes_entries",
    "automorphism_to_text", "DEFAULT_GROUP_CAP",
    "Code", "stabilizes_set",
    "is_code_automorphism", "is_linear_binary", "neighbour_count",
    "neighbour_stabilizer", "neighbourhoods_disjoint",
    "find_equivalence", "parse_code_text", "code_to_text", "read_code_file",
    "write_code_file",
    "PreReport", "pre_codewords", "verify_pre_structure",
    "ClassificationReport", "setwise_stabilizer", "is_neighbour_transitive",
    "classify_theorem", "StabilizerAnalysis",
    "analyze_stabilizer", "VERDICT_FIXED", "VERDICT_NONFIXING", "CASE2",
    "CASE3", "VIOLATION",
    "FamilyInstance", "FamilyReport", "build_family", "verify_family",
    "LemmaSuiteReport", "run_lemma_suite",
    "ClauseResult",
    "SchemeMismatchError", "FeasibilityError", "CodeFormatError",
    "HypothesisError", "MinDistanceError", "NotACodewordError",
    "NotNeighbourStabilizerError", "ImageInCodeError",
]
