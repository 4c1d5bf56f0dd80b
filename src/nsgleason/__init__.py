"""Numerical toolkit for no-signalling frame functions over product bases.

Validates frame functions and boxes for no-signalling, reconstructs the
unique self-adjoint operator behind a non-signalling frame function,
classifies operators by local time orientation (CP vs co-CP via the Choi
matrix), and reproduces the supporting constructions: twisted product
bases, PR-box exclusion by linear programming, and the cube-tiling
counterexample giving unentangled bases that are not twisted product bases.
"""

from .linalg import (
    HermitianOperator,
    ProductState,
    Spectrum,
    ValidationError,
    hermitian_eig,
    make_rng,
    partial_transpose,
    proj,
    random_density,
    random_hermitian,
    random_onb,
    random_unit,
    tensor,
)
from .bases import (
    TwistCertificate,
    TwistMove,
    UnentangledBasis,
    apply_twist,
    find_local_pairs,
    product_basis,
    twist_search,
    twisted_example_basis,
    twisted_example_certificate,
    validate_unentangled,
)
from .framefn import (
    OperatorInduced,
    SignallingFamily,
    Tabulated,
    make_signalling_example,
    sample_from_operator,
)
from .nosig import (
    TSIRELSON,
    Box,
    deterministic_box,
    check_box,
    check_framefn,
    chsh_optimize,
    chsh_value,
    chsh_value_box,
    max_chsh_lp,
    pr_box,
    quantum_extension,
    singlet,
    with_qubit_realizations,
)
from .gleason import (
    Classification,
    Reconstruction,
    SpanningDesign,
    classify_product_positivity,
    random_product_effects,
    reconstruct_povm,
    reconstruct_pvm,
    sample_effects_from_operator,
    spanning_design,
)
from .orientation import (
    Orientation,
    OrientationClass,
    choi_of,
    classify_orientation,
)
from .presheaf import (
    Context,
    ProductContext,
    RefinementEdge,
    SectionTable,
    check_section,
    restrict,
    section_from_operator,
)
from .keller import (
    CliqueCandidate,
    Graph,
    SearchMode,
    basis_from_clique,
    bundled_candidate,
    family_from_clique,
    clique_search,
    edge,
    load_clique,
    save_clique,
    verify_clique,
)

__version__ = "0.1.0"
