"""Causal cone geometry on forward-light-cone hyperboloids.

Minkowski four-vector and Lorentz-semigroup primitives, the projective
ball model of the constant-time hyperboloids, spherical-cap cones with
exact inclusion/disjointness predicates, constructive witnesses for the
cone-calculus existence facts, and an abelian charge calculus whose
admissibility questions are answered by the geometry.
"""

from .config import Tolerances, DEFAULT_TOLERANCES
from .errors import (AdmissibilityError, ChargeMismatchError,
                     ConstructionFailure, DegenerateGeometry,
                     HyperconesError, SceneError)
from .minkowski import (CausalClass, FourVector, LorentzTransform,
                        PoincareElement, causal_class, decompose_translation,
                        in_light_cone, in_semigroup, kappa_split,
                        lightlike_boost, minkowski_product)
from .ball_model import (BallPoint, Cap, Hyperboloid, SphereDirection,
                         ball_distance, boost_ball_action, cap_image,
                         euclidean_radius_of_centered_ball, fit_cap,
                         homology_through, hyperboloid_distance,
                         lift_from_ball, lorentz_ball_action,
                         project_to_ball, shadow_radius, sphere_action)
from .cones import (BallCone, DisjointResult, Hyperball, Hypercone,
                    InclusionResult, LeqResult, cone_hyperball_disjoint,
                    cone_leq, contains_point, disjoint, enclosing_cone,
                    hyperball_in_cone, in_causal_completion, map_cone,
                    opposite, point_margin)
from .constructions import (ConePath, ContractingBoosts, Funnel,
                            avoid_ball_inside, common_complement_cone,
                            contracting_boosts, enclose_shadow, escape_ball,
                            funnel_from_exhaustion, funnel_in,
                            interval_expansion, lightray_offset,
                            lightray_point, path_connect,
                            path_connect_in_complement,
                            robust_enclosure_lorentz, shrink_across_shells,
                            shrink_for_connectivity, translate_enclosure,
                            wrap_ball_in_complement)
from .charges import (AxiomReport, ChargeElement, ChargeGroup,
                      ComposedUnlocalized, Morphism, ShiftedMorphism,
                      StatisticsCharacter, compose, conjugate,
                      exchange_statistics, intertwiner_region,
                      shift_light_cone, transport_chain, verify_group_axioms)
# no library function calls convex, but the benchmark's traced run wraps
# convex.gjk_distance and finds each traced module (perfbench/spans.TRACED)
# in sys.modules
from . import convex  # noqa: F401

__all__ = [
    "Tolerances", "DEFAULT_TOLERANCES",
    "AdmissibilityError", "ChargeMismatchError", "ConstructionFailure",
    "DegenerateGeometry", "HyperconesError", "SceneError",
    "CausalClass", "FourVector", "LorentzTransform", "PoincareElement",
    "causal_class", "decompose_translation", "in_light_cone", "in_semigroup",
    "kappa_split", "lightlike_boost", "minkowski_product",
    "BallPoint", "Cap", "Hyperboloid", "SphereDirection", "ball_distance",
    "boost_ball_action", "cap_image", "euclidean_radius_of_centered_ball",
    "fit_cap", "homology_through", "hyperboloid_distance", "lift_from_ball",
    "lorentz_ball_action", "project_to_ball", "shadow_radius",
    "sphere_action",
    "BallCone", "DisjointResult", "Hyperball", "Hypercone",
    "InclusionResult", "LeqResult", "cone_hyperball_disjoint", "cone_leq",
    "contains_point", "disjoint", "enclosing_cone", "hyperball_in_cone",
    "in_causal_completion", "map_cone", "opposite", "point_margin",
    "ConePath", "ContractingBoosts", "Funnel", "avoid_ball_inside",
    "common_complement_cone", "contracting_boosts", "enclose_shadow",
    "escape_ball", "funnel_from_exhaustion", "funnel_in",
    "interval_expansion", "lightray_offset", "lightray_point",
    "path_connect", "path_connect_in_complement", "robust_enclosure_lorentz",
    "shrink_across_shells", "shrink_for_connectivity", "translate_enclosure",
    "wrap_ball_in_complement",
    "AxiomReport", "ChargeElement", "ChargeGroup", "ComposedUnlocalized",
    "Morphism", "ShiftedMorphism", "StatisticsCharacter", "compose",
    "conjugate", "exchange_statistics", "intertwiner_region",
    "shift_light_cone", "transport_chain", "verify_group_axioms",
]

__version__ = "0.1.0"
