"""Golden digests: solver bases, prolonged systems, the traceless projector and
the symmetry operators built from a basis.

Each digest is the sha256 of a canonical JSON rendering (sorted keys, no
whitespace) of one output.  They pin the exact bytes, so a refactor of the
residual stencil, the projector or the elimination kernel that changes any
number, any ordering or any reduced-echelon choice fails here.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from ktk import (
    AnsatzSpec,
    Poly,
    Signature,
    SymTensorField,
    build_symmetry_operator,
    check_symmetry,
    conformal_symmetry_operator,
    kgf,
    prolong,
    solve_basis,
    traceless_project,
)
from ktk.exactalg import monomials_upto
from ktk.tensors import enumerate_indices


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def fixed_field(rank: int) -> SymTensorField:
    """A dense field of degree <= 2 on (1,3), with varied rationals."""
    sig = Signature(1, 3)
    comps = {}
    for k, idx in enumerate(enumerate_indices(rank, sig.m)):
        terms = {}
        for n, exps in enumerate(monomials_upto(sig.m, 2)):
            num = (3 * k + 5 * n) % 7 - 3
            if num:
                terms[exps] = Fraction(num, 1 + (k + n) % 4)
        comps[idx] = Poly(sig.m, terms)
    return SymTensorField(rank, sig, comps)


BASES = {
    ("conformal", 2, 2, 2, 1): "629d7f64139fd775b944f084bba86c2b7e50a0f4886b2d5893c3df986458b624",
    ("ordinary", 3, 2, 1, 3): "12b1cdd12929c0bab38f80fd738275cf5a7809dad4487df4e1176fb2b001e177",
    ("ordinary", 5, 1, 1, 3): "bff5cb586c8cb067a2b4d4cd571f3a4b900533e7c4a09bae3f51ee7f36694650",
    ("ordinary", 2, 3, 2, 2): "f87a175f45272c092681dbd2d28701c158dcd05c2c1971fcd47f86f5fa127117",
    ("ordinary", 4, 1, 3, 0): "b075a699aab2e4c76486cca512ecc4eae5577a2b26fb347a3583ad5947db0fc5",
    ("conformal", 1, 2, 2, 1): "2309e91c65331fcc1775e6ad91f4b990ee044a97acb2ef74606486f93acd8c49",
}

PROLONGED = {
    (1, 1, 1, 2, 1): "296e0d71b65d7e4fbf8e26d11e57bb07b76d0b704fa8c2d181f41608005bcbbf",
    (2, 2, 1, 2, 1): "30475962038b05f3164a76e0848bba40c4ea37fc54b8420b8b27fd9e1d820757",
    (2, 1, 2, 1, 3): "5a886ddd53ef79f015c2f42800b650334f942b47af557a74bcc8978b9bec9fc7",
    (1, 2, 2, 3, 0): "2536a5ddfa13240443574a0726f8dcffa1a39aa09c105041708a85a67a8a6b38",
    (0, 2, 3, 2, 1): "8ea34e548cac4fe9eb0eca7c86b0f76c77ab83790e9b050a21c8d33f7a682e01",
    (3, 1, 1, 1, 1): "571178cd1e8477820f9d20dc3cead0342f04190664347cd872ffb0a91642fa21",
    (2, 2, 2, 2, 2): "27b357a12f9e9bf8b74cd773122c34dd53def7572f52b6fc0387ab2c2d38faef",
}

TRACELESS_RANK4 = "bca190ca417c14e47a78a94825c621bdf95c97b95b876510c46fb257c9f388cb"

# Ranks where the projector's closed form has three and four terms.
TRACELESS = {
    5: "7e2567e683a45ea8f85d68033745615286930a1654a5d53612a795451589907b",
    6: "34e0a342977d9424c8441f48887ee90a10dd383de517a2c83c03663e95209d91",
}


# The operator of each order-1 basis element and its alpha for kappa^2 = 3/7.
OPERATORS = {
    ("conformal", 2, 1, 3): "610c9cc97d282a45bba87eb141ae77c9f53b015d0798ab722c8c39180cf61145",
    ("conformal", 3, 3, 0): "317e129ad5160a5baff2af70e57c774ad516bf4e2468e22d1ce948e0d23caea0",
    ("conformal", 2, 2, 1): "9c13ed26d07a154693eb99a44e45c33ffef57a0a2a8598e716bebf29759b7d8f",
    ("ordinary", 2, 2, 2): "3b6c0c823fd1a2b9b1b14086f467aecbe28916823ee2896e2a2ad1f5fd89acce",
}


@pytest.mark.parametrize("case", sorted(BASES), ids=str)
def test_solver_basis(case):
    kind, j, s, p, q = case
    basis = solve_basis(AnsatzSpec(kind, j, s, Signature(p, q)))
    assert digest(basis.to_json()) == BASES[case]


@pytest.mark.parametrize("case", sorted(PROLONGED), ids=str)
def test_prolonged_system(case):
    j, k, s, p, q = case
    assert digest(prolong(j, k, s, Signature(p, q)).to_json()) == PROLONGED[case]


def test_traceless_projection_rank4():
    assert digest(traceless_project(fixed_field(4)).to_json()) == TRACELESS_RANK4


@pytest.mark.parametrize("rank", sorted(TRACELESS))
def test_traceless_projection_higher_rank(rank):
    assert digest(traceless_project(fixed_field(rank)).to_json()) == TRACELESS[rank]


@pytest.mark.parametrize("case", sorted(OPERATORS), ids=str)
def test_symmetry_operators(case):
    kind, j, p, q = case
    sig = Signature(p, q)
    build = conformal_symmetry_operator if kind == "conformal" else build_symmetry_operator
    L = kgf(sig, Fraction(3, 7))
    out = []
    for F in solve_basis(AnsatzSpec(kind, j, 1, sig)).elements:
        Q = build(F)
        out.append({"Q": Q.to_json(), "alpha": check_symmetry(Q, L).alpha.to_json()})
    assert digest(out) == OPERATORS[case]
