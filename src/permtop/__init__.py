"""Verification laboratory for algebraically determined topologies on
permutation groups of the naturals.

The package splits into a permutation core (ResiduePerm, EPSet), open-set
expressions with exact membership, witness constructions that are
re-checkable by that membership test, windowed centralizer machinery, a
free-factor self-normalization certifier, an exhaustive finite-group
oracle, stabilizer-topology checks, and a CLI that ties the verification
suites together.
"""

from .epset import EPSet
from .perm import (ResiduePerm, commutes, conjugate, from_cycles, from_mapping,
                   identity, image, intertwines, noncommuting_transposition, sigma,
                   support, transposition)
from .subbase import (ConjEq, ConjNeq, Const, DoubleConjNeq, FixesAll, GroupWord,
                      Intersection, OpenSetExpr, PointFiber, SupportIn, Var,
                      WordNeq, eval_word, member, tp_open_witness,
                      traced_point_eval)
from .witness import (EscapeInstance, InjectiveTable, closed_ball_witness,
                      escape_witness, isolation_witness, point_support_witness,
                      stabilizer_closed_witness, t1_separator)
from .central import (centralizer_equals_stabilizer, centralizer_not_open_witness,
                      double_centralizer_window)
from .selfnorm import (FreeWord, Inconclusive, InSubgroup, MovesOut, SDElement,
                       ThinSet, certify_self_normalizing, in_free_factor,
                       sd_conj, word_element)
from .oracle import (Comparison, ContinuityReport, FiniteGroup, MinNbhdMap,
                     Subbase, SubbaseSpec, TopologyProps, build_group,
                     classify_continuity, compare, generate_subbase,
                     min_neighborhoods, topology_props, translate_set)
from .tbeta import (Partition, alpha_basic_equivalence, disjoint_mover_set,
                    infinite_support_stabilizer, nbhd_member, stabilizes,
                    validate_partition)
from .literals import (expr_to_literal, parse_epset, parse_expr, parse_free_word,
                       parse_group_word, parse_partition, parse_perm,
                       parse_sd_element, parse_thin_set, word_to_literal)
from .errors import (BadCardinality, BadResidueShift, CarrierMismatch,
                     EqualInputs, FiniteSupport, Gap,
                     IdentityInput, InfiniteSupport, NegativeImage, NotAGroup,
                     NotBijective, NotInvolution, NotMember, OddModulus,
                     OracleError, Overlap, ParseError, PartitionError,
                     PermtopError, PointNotInSupport, PointwiseFixed,
                     SpecMismatch, SupportTooLarge, SupportTooSmall, TooLarge,
                     ValidationError, WindowTooSmall, WitnessError, ZeroExponent)

__version__ = "0.1.0"
