"""Aut-invariant quasimorphisms on graph products of f.g. abelian groups."""

from .graphs import (GraphError, LabeledGraph, VertexGroupSpec, Z, cyclic,
                     primary, parse_graph, expand, tau_classes,
                     is_lower_cone, lower_cone_L, center_support,
                     connected_components)
from .words import (NormalWord, WordError, parse_word, retraction,
                    random_word)
from .codes import (code, weighted_z_code, is_generic, code_qm,
                    weighted_code_qm, homogenise, HomogValue)
from .autos import (AutError, LabelledGraphAut, FactorAut, Transvection,
                    PartialConj, AutWord, apply_gen, validate_gen,
                    enum_labelled_graph_autos, AutGroup, labelled_aut_group,
                    valid_aut0_gens, random_aut0)
from .evaluators import (Evaluator, BuildError, Code, WeightedZ,
                         SumBothSides, build, evaluate, average,
                         labeled_isomorphic, pair_kind)
from .decide import (Verdict, WitnessSpec, decide, find_invariant_cones,
                     witness)
from .scl import (DefectEstimate, estimate_defect, scl_aut_lower_bound)

__all__ = [name for name in dir() if not name.startswith("_")]
