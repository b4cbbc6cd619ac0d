"""Adjoint-twisted Reidemeister torsion of torus knots and their 2-cables.

The package computes the homological Reidemeister torsion of knot-exterior
chain complexes twisted by the adjoint of SL(2,C) representations: free
words and Fox calculus (``words``), the piece presentations
(``presentations``), the four representation families (``representations``),
twisted chain complexes (``chains``), the torsion engine (``torsion``), the
Mayer-Vietoris gluing (``mayer_vietoris``), and the scalar closed forms that
serve as oracles (``closed_forms``).  ``cli`` exposes compute / verify /
sweep commands.  The package exports only what the demos, the README and the
tests read from it; everything else is imported from its module.
"""

from .words import GroupRingElement, fox_derivative, parse_word, word_to_text
from .presentations import cable_exterior_presentation, torus_piece_presentation
from .representations import CabletorsionError, abelian_representation, rep_build
from .chains import homology, presentation_complex
from .torsion import reidemeister_torsion, torsion_equal
from .mayer_vietoris import build_gluing_torus, build_mv_sequence, build_pattern_piece, build_torus_piece
from .mayer_vietoris import induced_maps, mv_torsion, tor_E, tor_E_abelian
from . import closed_forms

__version__ = "0.1.0"

__all__ = [
    "CabletorsionError",
    "GroupRingElement", "fox_derivative", "parse_word", "word_to_text",
    "cable_exterior_presentation", "torus_piece_presentation",
    "abelian_representation", "rep_build",
    "homology", "presentation_complex",
    "reidemeister_torsion", "torsion_equal",
    "build_mv_sequence", "build_gluing_torus", "build_pattern_piece", "build_torus_piece",
    "induced_maps", "mv_torsion", "tor_E", "tor_E_abelian", "closed_forms",
]
