"""Paraproduct decomposition of products on the torus.

The product of two fields splits into a low-high paraproduct, a high-low
paraproduct and a resonant part,

    u f = pi_lt(u, f) + pi_gt(u, f) + pi_res(u, f),

with pi_lt(u, f) = sum_j S_j u Delta_j f, pi_gt(u, f) = pi_lt(f, u) and
pi_res(u, f) = sum_{|l-j|<=1} Delta_j u Delta_l f.  The partial sums start
two blocks below the current one (S_{-1} = S_0 = 0, S_1 = Delta_{-1}, ...),
which is exactly what makes the three parts add up to the full double block
sum with no double counting; the identity then holds to rounding on the
grid because products are taken at the collocation points without
dealiasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .torus import (
    ModeLattice,
    ScalarField,
    dft_forward,
    holder_norm,
    lp_block_grids,
)


@dataclass
class BonyTriple:
    lt: ScalarField
    gt: ScalarField
    res: ScalarField

    def total(self) -> ScalarField:
        return ScalarField(self.lt.lattice, self.lt.coeff + self.gt.coeff + self.res.coeff)


def _check_shared_lattice(u: ScalarField, f: ScalarField) -> ModeLattice:
    if u.lattice is not f.lattice and u.lattice.N != f.lattice.N:
        raise ValueError("fields must share one lattice")
    return u.lattice


def _partial_sums(blocks: np.ndarray) -> np.ndarray:
    """S_j on the block axis: out[b] = sum of blocks[:b-1] (j = b - 1)."""
    out = np.zeros_like(blocks)
    csum = np.cumsum(blocks, axis=0)
    # S_j = sum_{i <= j-2} Delta_i, i.e. blocks 0 .. b-2 for block index b.
    out[2:] = csum[:-2]
    return out


def _blocks(u: ScalarField, f: ScalarField):
    lattice = _check_shared_lattice(u, f)
    return lattice, lp_block_grids(lattice, u.coeff), lp_block_grids(lattice, f.coeff)


def _lt(bu: np.ndarray, bf: np.ndarray) -> np.ndarray:
    """Grid values of pi_lt from the block grids: sum_j S_j u Delta_j f."""
    return np.sum(_partial_sums(bu) * bf, axis=0)


def _res(bu: np.ndarray, bf: np.ndarray) -> np.ndarray:
    """Grid values of pi_res from the block grids: sum_{|l-j|<=1} Delta_j u Delta_l f."""
    nb = bu.shape[0]
    res = np.zeros(bu.shape[1:], dtype=np.complex128)
    for j in range(nb):
        res += bu[j] * np.sum(bf[max(0, j - 1):min(nb, j + 2)], axis=0)
    return res


def bony_decompose(u: ScalarField, f: ScalarField) -> BonyTriple:
    lattice, bu, bf = _blocks(u, f)
    return BonyTriple(*(ScalarField(lattice, dft_forward(lattice, grid))
                        for grid in (_lt(bu, bf), _lt(bf, bu), _res(bu, bf))))


def paraproduct_lt(u: ScalarField, f: ScalarField) -> ScalarField:
    lattice, bu, bf = _blocks(u, f)
    return ScalarField(lattice, dft_forward(lattice, _lt(bu, bf)))


def resonant(u: ScalarField, f: ScalarField) -> ScalarField:
    lattice, bu, bf = _blocks(u, f)
    return ScalarField(lattice, dft_forward(lattice, _res(bu, bf)))


def grid_product(u: ScalarField, f: ScalarField) -> ScalarField:
    """Pointwise collocation product, the reference for the Bony identity."""
    lattice = _check_shared_lattice(u, f)
    return ScalarField(lattice, dft_forward(lattice, u.to_grid() * f.to_grid()))


def commutator(f: ScalarField, g: ScalarField, h: ScalarField) -> ScalarField:
    """Tri-linear operator C(f,g,h) = pi_res(pi_lt(f,g), h) - f * pi_res(g,h)."""
    lattice = _check_shared_lattice(f, g)
    _check_shared_lattice(g, h)
    first = resonant(paraproduct_lt(f, g), h)
    second = grid_product(f, resonant(g, h))
    return ScalarField(lattice, first.coeff - second.coeff)


def para_estimate_ratio(u: ScalarField, f: ScalarField, alpha: float, beta: float) -> dict:
    """Empirical ratios behind the paraproduct estimates.

    Returns the three ratios ||pi_lt||_{C^beta} / (||u||_inf ||f||_{C^beta}),
    ||pi_gt||_{C^{a+b}} / (||u||_{C^a} ||f||_{C^b}) and the resonant analogue
    (requires alpha + beta > 0).  Zero inputs give ratio 0 by convention.
    """
    tri = bony_decompose(u, f)
    u_inf = float(np.max(np.abs(u.to_grid().real)))
    u_a = holder_norm(u, alpha)
    f_b = holder_norm(f, beta)
    out = {}
    denom = u_inf * f_b
    out["lt"] = holder_norm(tri.lt, beta) / denom if denom > 0 else 0.0
    denom = u_a * f_b
    out["gt"] = holder_norm(tri.gt, alpha + beta) / denom if denom > 0 else 0.0
    if alpha + beta > 0:
        out["res"] = holder_norm(tri.res, alpha + beta) / denom if denom > 0 else 0.0
    return out


def leray_paraproduct_commutator_ratio(
    f: ScalarField, g: ScalarField, proj_entry: tuple[int, int], alpha: float, beta: float
) -> float:
    """Ratio ||P^{kl} pi_lt(f,g) - pi_lt(f, P^{kl} g)||_{C^{a+b}} / (||f||_a ||g||_b).

    P^{kl} is the scalar Fourier multiplier given by one entry of the Leray
    symbol on the shared lattice.
    """
    k, l = proj_entry
    lattice = _check_shared_lattice(f, g)
    mult = lattice.leray_tensor()[k, l]
    pg = ScalarField(lattice, mult * g.coeff)
    lhs = ScalarField(lattice, mult * paraproduct_lt(f, g).coeff)
    diff = ScalarField(lattice, lhs.coeff - paraproduct_lt(f, pg).coeff)
    denom = holder_norm(f, alpha) * holder_norm(g, beta)
    return holder_norm(diff, alpha + beta) / denom if denom > 0 else 0.0
