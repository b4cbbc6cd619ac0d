"""Adjoint-twisted Reidemeister torsion of torus knots and their 2-cables.

The package computes the homological Reidemeister torsion of knot-exterior
chain complexes twisted by the adjoint of SL(2,C) representations: free
words and Fox calculus (``words``), the piece presentations
(``presentations``), the four representation families (``representations``),
twisted chain complexes (``chains``), the torsion engine (``torsion``), the
Mayer-Vietoris gluing (``mayer_vietoris``), and the scalar closed forms that
serve as oracles (``closed_forms``).  ``cli`` exposes compute / verify /
sweep commands.
"""

from .words import (
    GroupRingElement,
    Word,
    fox_derivative,
    parse_word,
    word_to_text,
)
from .presentations import (
    PeripheralSystem,
    Presentation,
    abelianization_exponents,
    cable_exterior_presentation,
    pattern_piece_presentation,
    torus_piece_presentation,
)
from .representations import (
    CabletorsionError,
    Representation,
    RepresentationError,
    abelian_representation,
    adjoint_matrix,
    evaluate_ring,
    evaluate_word,
    index_range,
    invariant_vector,
    rep_build,
    verify_relations,
)
from .linalg import kernel_basis, numerical_rank
from .chains import (
    BasedChainComplex,
    chain_of_loop,
    class_coordinates,
    homology,
    presentation_complex,
    torus_complex,
)
from .torsion import (
    TorsionValue,
    reidemeister_torsion,
    torsion_equal,
)
from .mayer_vietoris import (
    InducedMaps,
    TorEResult,
    build_mv_sequence,
    build_gluing_torus,
    build_pattern_piece,
    build_torus_piece,
    induced_maps,
    mv_torsion,
    tor_E,
    tor_E_abelian,
)
from . import closed_forms

__version__ = "0.1.0"

__all__ = [
    "CabletorsionError",
    "GroupRingElement", "Word", "fox_derivative", "parse_word",
    "word_to_text", "PeripheralSystem", "Presentation",
    "abelianization_exponents", "cable_exterior_presentation",
    "pattern_piece_presentation", "torus_piece_presentation",
    "Representation", "RepresentationError", "abelian_representation",
    "adjoint_matrix", "evaluate_ring", "evaluate_word", "index_range",
    "invariant_vector", "rep_build", "verify_relations",
    "kernel_basis", "numerical_rank",
    "BasedChainComplex", "chain_of_loop", "class_coordinates", "homology",
    "presentation_complex", "torus_complex",
    "TorsionValue", "reidemeister_torsion", "torsion_equal",
    "InducedMaps", "TorEResult", "build_mv_sequence", "build_gluing_torus",
    "build_pattern_piece", "build_torus_piece", "induced_maps", "mv_torsion",
    "tor_E", "tor_E_abelian", "closed_forms",
]
