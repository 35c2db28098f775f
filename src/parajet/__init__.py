"""parajet: differential invariants of plane curves and parabolic surfaces.

Evaluates, derives and cross-verifies the affine differential invariants of
rank-one-Hessian (developable) graphed surfaces and of plane curves, and
classifies developable surfaces as cylinders, cones or tangent surfaces.

Layers, bottom up:

* :mod:`parajet.scalars`    exact/floating scalars, real roots, sensitivities
* :mod:`parajet.series`     truncated power series, affine graph transforms
* :mod:`parajet.jets`       jet coordinates, rank-one fills, total derivatives
* :mod:`parajet.prolong`    generator prolongation, tangency and rank facts
* :mod:`parajet.invariants` closed-form invariant evaluation
* :mod:`parajet.normalize`  the progressive normalization loops (the oracle)
* :mod:`parajet.recurrence` Maurer-Cartan systems, invariant derivations
* :mod:`parajet.classify`   developable families and their classification
* :mod:`parajet.verify`     seeded verification suites
* :mod:`parajet.cli`        the command-line front end
"""

from .series import (
    TruncatedSeries1,
    TruncatedSeries2,
    AffineTransform3,
    CurveTransform2,
    apply_affine,
    apply_affine_curve,
    compose2,
    solve_implicit,
    series_from_json,
    series_to_json,
)
from .jets import (
    JetPoint,
    ParabolicJet,
    jets_of_series,
    parabolic_jet_of_series,
    realize_series,
    total_derivative,
)
from .invariants import (
    InvariantReport,
    evaluate_at_jet,
    invariant_H,
    invariant_S,
    invariant_W,
    invariant_X,
    invariant_Y,
    invariant_M,
    pick_invariant,
    equiaffine_curvature,
    conic_invariant,
    euclid_curvature,
)
from .normalize import (
    NormalFormResult,
    normalize_curve_sl2,
    normalize_curve_gl2,
    normalize_parabolic_surface,
    sa2_moving_frame,
    BranchError,
    AmbiguousBranchError,
)
from .recurrence import (
    MaurerCartan,
    solve_mc_surface,
    solve_mc_curve,
    invariant_derivatives,
    frame_derivatives,
    verify_recurrences,
    verify_curve_recurrences,
)
from .classify import (
    Classification,
    Cylinder,
    Cone,
    Tangential,
    Graph,
    MixedTypeError,
    classify,
    realize_graph,
)

__all__ = [
    "TruncatedSeries1",
    "TruncatedSeries2",
    "AffineTransform3",
    "CurveTransform2",
    "apply_affine",
    "apply_affine_curve",
    "compose2",
    "solve_implicit",
    "series_from_json",
    "series_to_json",
    "JetPoint",
    "ParabolicJet",
    "jets_of_series",
    "parabolic_jet_of_series",
    "realize_series",
    "total_derivative",
    "InvariantReport",
    "evaluate_at_jet",
    "invariant_H",
    "invariant_S",
    "invariant_W",
    "invariant_X",
    "invariant_Y",
    "invariant_M",
    "pick_invariant",
    "equiaffine_curvature",
    "conic_invariant",
    "euclid_curvature",
    "NormalFormResult",
    "normalize_curve_sl2",
    "normalize_curve_gl2",
    "normalize_parabolic_surface",
    "sa2_moving_frame",
    "BranchError",
    "AmbiguousBranchError",
    "MaurerCartan",
    "solve_mc_surface",
    "solve_mc_curve",
    "invariant_derivatives",
    "frame_derivatives",
    "verify_recurrences",
    "verify_curve_recurrences",
    "Classification",
    "Cylinder",
    "Cone",
    "Tangential",
    "Graph",
    "MixedTypeError",
    "classify",
    "realize_graph",
]

__version__ = "0.1.0"
