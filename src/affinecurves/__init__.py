"""Affine differential geometry of convex plane curves.

Curvature-parametrized profiles and inverses, Lagrange-kernel comparison
machinery for linear ODE initial value problems, affine curve primitives,
geometric comparison theorems as checked reports, and certified lattice
point counting with exact arithmetic.
"""

from .compare import (
    area_bounds,
    area_compare,
    area_ode_residual,
    coord_bounds_check,
    triangle_bound_arc,
    triangle_bound_rect,
    verify_triangle_bound,
)
from .conics import Conic
from .curve import (
    AdaptedFrame,
    AffineCurve,
    AreaFunction,
    ConvexityError,
    OrientationError,
    adapted_frame,
    area_function,
    constant_curvature_curve,
    graph_curve,
    graphing_parameter_set,
    parabola_curve,
    reconstruct_from_curvature,
    reparam_unit_speed,
    wedge,
)
from .kfuncs import (
    DomainError,
    Interval,
    abar,
    ck,
    fk,
    gk,
    hk,
    profile_interval,
    rect_area_interval,
    sk,
    xbar,
    ybar,
)
from .lattice import (
    AffineMap,
    ConicArc,
    CountBoundCertificate,
    Lattice,
    LatticePointSet,
    LinearConstraint,
    PolyGraph,
    bound_general,
    bound_rigid,
    bound_sharp,
    bound_three_points,
    bound_two_points,
    enumerate_near_curve,
    enumerate_on_arc,
    enumerate_on_graph,
    equal_spaced_orbit,
    m_of_coords,
    m_of_curve,
    motion_preserves_lattice,
    on_curve,
    triangle_multiplier,
)
from .odekernel import (
    IVPSolution,
    LagrangeKernel,
    LinearOperator,
    PositivityReport,
    SolverError,
    check_forward_positive,
    compare_solutions,
    grid_jets,
    make_operator,
    power_op,
    solve_ivp,
    step_propagators,
)
from .reports import BoundReport, Hypothesis
from .sharp_instances import (
    CircleConfig,
    CircleInstance,
    SharpInstance,
    circle_instance,
    hyperbola_general_instance,
    hyperbola_zxz_instance,
    parabola_instance,
)
from .specfiles import (
    CurveSpec,
    SpecError,
    load_curve_spec,
    load_lattice_spec,
    parse_curve_spec,
    parse_lattice_spec,
)

__version__ = "0.1.0"
