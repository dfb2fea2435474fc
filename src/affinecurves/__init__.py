"""Affine differential geometry of convex plane curves.

Curvature-parametrized profiles and inverses, Lagrange-kernel comparison
machinery for linear ODE initial value problems, affine curve primitives,
geometric comparison theorems as checked reports, and certified lattice
point counting with exact arithmetic.
"""

from .compare import (
    area_bounds,
    area_compare,
    coord_bounds_check,
    triangle_bound_arc,
    triangle_bound_rect,
    triangle_ratio_asymptotic,
    triangle_ratio_exact,
    verify_triangle_bound,
)
from .conics import Conic
from .curve import (
    AdaptedFrame,
    AffineCurve,
    AreaFunction,
    ConvexityError,
    GraphJet,
    OrientationError,
    ParametricCurve,
    adapted_frame,
    affine_arclength,
    affine_curvature_at,
    area_function,
    area_ode_residual,
    constant_curvature_curve,
    curvature_from_graph,
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
    bound_general,
    bound_rigid,
    bound_sharp,
    bound_three_points,
    bound_two_points,
    conic_in_lattice_coords,
    enumerate_near_curve,
    enumerate_on_arc,
    equal_spaced_orbit,
    lattice_equal,
    m_of_coords,
    m_of_curve,
    motion_preserves_lattice,
    on_curve,
    parity_multiplier_bound,
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
    lagrange_kernel,
    make_operator,
    oscillator_op,
    power_op,
    solve_ivp,
    solve_via_kernel,
    step_propagators,
    third_order_op,
)
from .reports import BoundReport, Hypothesis
from .sharp_instances import (
    CircleConfig,
    CircleInstance,
    SharpInstance,
    circle_instance,
    hyperbola_general_instance,
    hyperbola_zxz_instance,
    is_classified_angle,
    parabola_instance,
    rotation_trace,
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
