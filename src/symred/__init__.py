"""Exact pointwise linear algebra for symplectic reduction along submanifolds.

Everything is computed over the rationals: Chevalley-basis Lie algebras,
the Lie-Poisson structure on g*, stabilizer subalgebroid fibers and their
classification (pre-Poisson, stable, Poisson transversal), tangent fibers
of stabilizer subgroupoids of the cotangent groupoid T*G = G x g*, linear
models of reduced spaces with their symplectic forms, and a batch runner
for named check suites.
"""

__version__ = "0.1.0"

from .errors import (
    BaseNotInSubgroupoid,
    CertificateFailed,
    ConfigError,
    DimensionMismatch,
    EtaNotInAnnihilator,
    KindNotInvariant,
    LiftNotValid,
    NoMatrixRep,
    NotASubalgebra,
    NotOnModel,
    NotStable,
    SolveFailure,
    SymredError,
    UnsupportedType,
)
from .lie import (
    GroupElement,
    LieAlgebra,
    RootSystem,
    Sl2Triple,
    build_chevalley,
    direct_power,
    principal_sl2,
)
from .poisson import (
    AffineSubspace,
    AlgebroidFiber,
    CasimirLevelSet,
    CoadjointOrbit,
    DecompositionClass,
    Explicit,
    PoissonPointModel,
    SubmanifoldModel,
    WeylChamberFace,
    algebroid_fiber,
    coisotropic_check,
    constant_model,
    diagonal,
    kks_model,
    moment_transversality_check,
    poisson_transversal_check,
    pre_poisson_sample_check,
    slodowy_slice,
    stabilizer_subalgebra,
    symplectic_model,
    trivial_model,
)
from .groupoid import (
    CotangentPoint,
    GroupoidTangentFiber,
    coadjoint_orbit_fiber,
    lie_functor_check,
    mw_fiber,
    normality_infinitesimal_check,
    omega_eval,
    source_target_differentials,
)
from .reduction import (
    ReducedSpaceModel,
    decomposition_form_check,
    dimension_formula_check,
    kernel_identity_check,
    orbit_tangent_in_universal,
)
from .scenarios import REGISTRY, ScenarioReport, run_scenario
