"""Exact bases of (conformal) Killing tensors and wave-operator symmetries.

Everything is computed over the rationals: polynomial fields live in
``exactalg``/``tensors``, the defining systems and their prolongations in
``equations``, degree-bounded nullspace solving in ``solver``, closed-form
families and counting formulas in ``constructors``, and Weyl-algebra
symmetry operators of the wave (Klein-Gordon) operator in ``operators``.
"""

from .exactalg import Poly, Rational
from .tensors import (
    Basis,
    Signature,
    SymTensorField,
    contract_x,
    enumerate_indices,
    metric_outer,
    symmetrize,
    trace,
    traceless_project,
    x_squared,
)
from .equations import (
    DefiningSystem,
    ProlongedSystem,
    conformal_residual,
    count_eq_unknowns,
    killing_residual,
    prolong,
)
from .solver import (
    AnsatzSpec,
    RankReport,
    full_rank_check,
    nullspace,
    saturation_check,
    solve_basis,
    verify_basis,
)
from .constructors import (
    conformal_vectors,
    count,
    killing_vectors,
    lemma1_product,
    lemma2_product,
    lemma3_scale,
    lemma4_contract,
    lemma5_scale,
)
from .operators import (
    KGFOperator,
    WeylOp,
    anticommutator,
    build_symmetry_operator,
    check_symmetry,
    commutator,
    conformal_symmetry_operator,
    divide_by_principal,
    kgf,
    lie_closure_check,
    weyl_mul,
)

__version__ = "0.1.0"

__all__ = [
    "AnsatzSpec",
    "Basis",
    "DefiningSystem",
    "KGFOperator",
    "Poly",
    "ProlongedSystem",
    "RankReport",
    "Rational",
    "Signature",
    "SymTensorField",
    "WeylOp",
    "anticommutator",
    "build_symmetry_operator",
    "check_symmetry",
    "commutator",
    "conformal_residual",
    "conformal_symmetry_operator",
    "conformal_vectors",
    "contract_x",
    "count",
    "count_eq_unknowns",
    "divide_by_principal",
    "enumerate_indices",
    "full_rank_check",
    "kgf",
    "killing_residual",
    "killing_vectors",
    "lemma1_product",
    "lemma2_product",
    "lemma3_scale",
    "lemma4_contract",
    "lemma5_scale",
    "lie_closure_check",
    "metric_outer",
    "nullspace",
    "prolong",
    "saturation_check",
    "solve_basis",
    "symmetrize",
    "trace",
    "traceless_project",
    "verify_basis",
    "weyl_mul",
    "x_squared",
]
