"""Central tolerance configuration: every bound a check compares against.

The dataclass fields are the cutoffs a scene file can override by name; the
class-level contract bounds are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import ClassVar


@dataclass(frozen=True)
class Tolerances:
    # metric / linear algebra
    spd_tol: float = 1e-12        # Cholesky pivot floor; below this the metric is singular
    degeneracy_tol: float = 1e-10  # relative floor for plane-section denominators
    frame_tol: float = 1e-10      # coordinate-frame rank floor; tangential slack of a normal
    rank_tol: float = 1e-10       # relative smallest-singular-value floor for immersions
    min_field_norm: float = 1e-12  # points with |V| below this are outside the scene domain

    # field classification
    class_tol: float = 1e-7       # residual cutoff for class membership
    parallel_tol: float = 1e-9    # |grad V| cutoff for the parallel verdict
    class_min_points: int = 50    # minimum sample size for a scene-level verdict
    geodesic_tol: float = 1e-8    # max |∇̃_V V| (V unit anti-torqued); decomposition item (a)
    unit_norm_tol: float = 1e-8   # bound on max ||V| − 1| for the unit-field precondition

    # rectifying verification
    proper_tol: float = 1e-8      # a component of V within this vanishes; proper: both above
    rect_tol: float = 1e-7        # normalized rectifying residual cutoff
    null_dir_tol: float = 1e-16   # |X|² floor below which X ⊥ W^⊤ counts as zero (torqued)

    # warped-product checks
    ode_tol: float = 1e-6         # warping ODE residual cutoff
    decomp_tol: float = 1e-7      # items (b), (c), (d) of the ambient decomposition

    # contract bounds from the characterization statements (fixed)
    a_vperp_tol: ClassVar[float] = 1e-8          # |A_{V^⊥}| on a rectifying submanifold
    parallel_normal_tol: ClassVar[float] = 1e-8  # |D_X V^⊥| when V is normal
    umbilic_tol: ClassVar[float] = 1e-7          # |A_{V^⊥} + f Id|
    det_tol: ClassVar[float] = 1e-8              # |det A_ξ| when V is tangent
    h_tangent_tol: ClassVar[float] = 1e-8        # |h(X, V^⊤)| when V is tangent
    curv_match_tol: ClassVar[float] = 1e-7       # curvature identities (ambient vs intrinsic)
    gauss_tol: ClassVar[float] = 1e-7            # Gauss-equation residual

    def override(self, **kwargs) -> "Tolerances":
        """Return a copy with the given named tolerances replaced."""
        return replace(self, **kwargs)


DEFAULT = Tolerances()

#: names accepted in a scene document's "tolerances" block
TOLERANCE_NAMES = tuple(f.name for f in fields(Tolerances))
