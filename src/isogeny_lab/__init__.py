"""isogeny_lab: pointed rational l-isogeny graphs and mod-l Galois modules.

Exact arithmetic over prime fields, small extensions and Q; long
Weierstrass curves with division polynomials, torsion bases, Weil pairing
and Frobenius matrices; prime-degree Velu isogenies;
matrix Galois modules with invariant complements and the hyperplane lattice;
verification sweeps and the rational counterexample reproduction.
"""

__version__ = "0.1.0"

from .curves import (  # noqa: F401
    CurvePoint,
    FrobeniusMatrix,
    TorsionBasis,
    WeierstrassCurve,
    division_polynomial,
    frobenius_matrix,
    torsion_basis,
    weil_pairing,
)
from .fields import (  # noqa: F401
    ExtensionField,
    FieldElement,
    Polynomial,
    PrimeField,
    QQ,
    poly_roots,
    rational_roots,
)
from .galois_modules import (  # noqa: F401
    GaloisModule,
    PointedConfiguration,
    Subspace,
    enumerate_invariant_subspaces,
    fixed_subspace,
    graph_order,
    group_closure,
    is_invariant,
    is_semisimple,
    pointedness_check,
    product_module,
    relative_invariant_complement,
    subspace_lattice,
    theorem2_construct,
)
from .graphs import PointedGraph, build_pointed_graphs  # noqa: F401
from .isogenies import (  # noqa: F401
    Isogeny,
    family_e3,
    velu_quotient,
)
from .reports import VerificationReport  # noqa: F401
from .verify import (  # noqa: F401
    abstract_necessity_witness,
    lemma_sweep,
    reproduce_paper_counterexample,
    run_sweep,
    verify_theorem1,
    verify_theorem2_products,
)
