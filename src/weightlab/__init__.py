"""weightlab: exact computations with root data of semisimple groups --
weight systems, tensor product decompositions, PRV components -- and the
classification, construction and enumeration of perfect submonoids of
dominant weights."""

__version__ = "0.1.0"

from .rootdata import (CartanType, LatticeSpec, RootDataError, RootDatum, Weight,
                       build_root_datum, in_lattice, root_coordinates)
from .weyl import (apply_word, dominance_leq, dual_weight, make_dominant, orbit,
                   orbit_size, reflect, w0_action, weyl_group_elements)
from .charcalc import (Character, character, dominant_weights_below, expand_character,
                       weyl_dimension)
from .tensor import (DominanceRegimeError, TensorDecomposition, tensor_multiplicity,
                     prv_component, stable_multiplicity_check, tensor_decompose)
from .latticecalc import (FinAbGroup, Subgroup, annihilator, enumerate_subgroups,
                          fundamental_group, project_to_cocenter,
                          quotient_subgroups, smith_normal_form,
                          weight_kills_subgroup)
from .perfectmonoid import (Box, ClassificationReport, MonoidSpec,
                            PerfectDescriptor, bounded_perfect_closure, classify,
                            component_support, enumerate_perfect,
                            is_perfect_in_box, is_saturated_monoid,
                            predicted_members, verify_classification)
from .constructions import (ChainReport, ConstructionError, ConstructionTrace,
                            TraceStep, check_prv_chain, factor_antifixed_sequence,
                            smallest_dominating_multiple, support_growing_step,
                            support_regular_weight, w0_antifixed_weight)
