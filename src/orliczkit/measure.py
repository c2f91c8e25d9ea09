"""Discrete sigma-finite measure spaces and the random variables on them.

A space is a finite list of atoms (id, weight > 0) partitioned into
finite-mass blocks. Countable spaces are represented by a truncation with a
tail note recording what was cut off; every statement "almost everywhere"
then means "at every atom", since zero-mass atoms are rejected outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import SpaceMismatchError

FINITE = "finite"
TRUNCATED = "truncated_countable"

DEFAULT_TRUNCATION = 1024


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    atom_ids: np.ndarray
    weights: np.ndarray
    block_ids: np.ndarray
    kind: str
    tail_note: str = ""

    def __post_init__(self):
        ids = np.asarray(self.atom_ids, dtype=np.int64)
        w = np.asarray(self.weights, dtype=float)
        blocks = np.asarray(self.block_ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError("a measure space needs at least one atom")
        if len(w) != len(ids) or len(blocks) != len(ids):
            raise ValueError("atom_ids, weights and block_ids must align")
        if np.any(np.diff(ids) <= 0):
            raise ValueError("atom ids must be strictly ascending and unique")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("atom weights must be finite and strictly positive")
        if self.kind not in (FINITE, TRUNCATED):
            raise ValueError(f"unknown space kind {self.kind!r}")
        for arr, name in ((ids, "atom_ids"), (w, "weights"), (blocks, "block_ids")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        fp = hash((self.kind, ids.tobytes(), w.tobytes(), blocks.tobytes()))
        object.__setattr__(self, "_fingerprint", fp)
        object.__setattr__(self, "_blocks", None)  # built by blocks()

    # -- basic queries -----------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return int(self.atom_ids.size)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def fingerprint(self) -> int:
        return self._fingerprint

    def blocks(self) -> tuple[np.ndarray, ...]:
        """Index arrays of the blocks, ordered by ascending block id; built
        on the first call from one stable sort of the block ids, so each
        array lists its atoms' positions in ascending order."""
        if self._blocks is None:
            order = np.argsort(self.block_ids, kind="stable")
            cuts = np.flatnonzero(np.diff(self.block_ids[order])) + 1
            object.__setattr__(self, "_blocks", tuple(np.split(order, cuts)))
        return self._blocks

    def is_probability(self, tol: float = 1e-9) -> bool:
        return abs(self.total_mass - 1.0) <= tol

    def same_space(self, other: "MeasureSpace") -> bool:
        """Equal kind, ids, weights and blocks; the fingerprint only screens,
        since two different spaces can share a hash."""
        if self is other:
            return True
        return (self._fingerprint == other._fingerprint
                and self.kind == other.kind
                and np.array_equal(self.atom_ids, other.atom_ids)
                and np.array_equal(self.weights, other.weights)
                and np.array_equal(self.block_ids, other.block_ids))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def finite(
        weights: Iterable[float],
        atom_ids: Iterable[int] | None = None,
        block_ids: Iterable[int] | None = None,
    ) -> "MeasureSpace":
        w = np.asarray(list(weights), dtype=float)
        n = len(w)
        ids = np.arange(1, n + 1) if atom_ids is None else np.asarray(list(atom_ids))
        blocks = np.arange(n) if block_ids is None else np.asarray(list(block_ids))
        return MeasureSpace(ids, w, blocks, FINITE)

    @staticmethod
    def truncated_countable(
        weights: Iterable[float],
        atom_ids: Iterable[int] | None = None,
        block_ids: Iterable[int] | None = None,
        tail_note: str = "",
    ) -> "MeasureSpace":
        """Truncation of a countable space; blocks default to the dyadic
        ranges {2^k, ..., 2^(k+1)-1} of atom positions."""
        w = np.asarray(list(weights), dtype=float)
        n = len(w)
        ids = np.arange(1, n + 1) if atom_ids is None else np.asarray(list(atom_ids))
        if block_ids is None:
            pos = np.arange(1, n + 1)
            blocks = np.floor(np.log2(pos)).astype(np.int64)
        else:
            blocks = np.asarray(list(block_ids))
        note = tail_note or f"atoms beyond position {n} truncated"
        return MeasureSpace(ids, w, blocks, TRUNCATED, tail_note=note)


def uniform_probability(n: int, truncated: bool = False) -> MeasureSpace:
    w = np.full(n, 1.0 / n)
    if truncated:
        return MeasureSpace.truncated_countable(w)
    return MeasureSpace.finite(w)


# -- random variables ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Rv:
    """A real vector indexed by the atoms of a space (one value per atom)."""

    space: MeasureSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        if v.shape != (self.space.n_atoms,):
            raise ValueError(
                f"value vector of shape {v.shape} does not fit a space with "
                f"{self.space.n_atoms} atoms"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("Rv values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @staticmethod
    def _wrap(space: MeasureSpace, values: np.ndarray) -> "Rv":
        """Internal no-copy, no-validation constructor for hot loops.

        The caller owns ``values`` and must not let the Rv outlive a buffer
        it intends to mutate.
        """
        rv = object.__new__(Rv)
        object.__setattr__(rv, "space", space)
        object.__setattr__(rv, "values", values)
        return rv

    # -- arithmetic (same-space checked) ------------------------------------

    def _peer(self, other: "Rv") -> None:
        if not self.space.same_space(other.space):
            raise SpaceMismatchError("operands live on different measure spaces")

    def __add__(self, other):
        if isinstance(other, Rv):
            self._peer(other)
            return Rv(self.space, self.values + other.values)
        return Rv(self.space, self.values + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Rv):
            self._peer(other)
            return Rv(self.space, self.values - other.values)
        return Rv(self.space, self.values - float(other))

    def __mul__(self, a):
        return Rv(self.space, self.values * float(a))

    __rmul__ = __mul__

    def __neg__(self):
        return Rv(self.space, -self.values)

    def abs(self) -> "Rv":
        return Rv(self.space, np.abs(self.values))

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


def zeros(space: MeasureSpace) -> Rv:
    return Rv(space, np.zeros(space.n_atoms))


def ones(space: MeasureSpace) -> Rv:
    return Rv(space, np.ones(space.n_atoms))


def indicator(space: MeasureSpace, index: Sequence[int] | np.ndarray | int) -> Rv:
    """Indicator of a set of atom *positions* (0-based indexes, not ids)."""
    v = np.zeros(space.n_atoms)
    v[np.asarray(index)] = 1.0
    return Rv(space, v)


# -- strictly positive witness ---------------------------------------------


def strictly_positive_witness(space: MeasureSpace, phi) -> Rv:
    """A strictly positive vector with Luxemburg norm at most 1.

    Block n (1-based, in block order) carries the constant
    ``2**-n / (1 + ||indicator(block)||_phi)``; summing over blocks gives a
    strictly positive element whose norm is bounded by the triangle
    inequality by sum 2**-n <= 1. An indicator's norm depends only on the
    block's mass, so the distinct block masses take one lockstep search
    (``norms._indicator_norms``), whatever the number of blocks and atoms
    carrying them.
    """
    from .norms import _indicator_norms  # local import to avoid a module cycle

    blocks = space.blocks()
    masses = np.array([space.weights[block].sum() for block in blocks])
    distinct, which = np.unique(masses, return_inverse=True)
    consts = (np.ldexp(1.0, -np.arange(1, len(blocks) + 1))
              / (1.0 + _indicator_norms(phi, distinct)[which]))
    v = np.zeros(space.n_atoms)
    for block, c in zip(blocks, consts):
        v[block] = c
    return Rv(space, v)


# -- pointwise (atomwise) convergence ---------------------------------------


@dataclass(frozen=True)
class AeVerdict:
    converged: bool
    settle_steps: np.ndarray  # first index from which the tail sup stays <= tol; len(seq) if never
    final_residuals: np.ndarray
    slowest_atom_id: int
    slowest_settle_step: int
    tol: float


def ae_converges(seq: Sequence[Rv], f: Rv, tol: float) -> AeVerdict:
    """Does the recorded sequence settle within ``tol`` at every atom?

    An atom counts as settled once the running tail supremum of
    ``|f_n - f|`` drops to ``tol`` or below and stays there through the end
    of the recording. Reports the slowest atom (largest settle step; among
    unsettled atoms, the one with the worst final residual).
    """
    if len(seq) == 0:
        raise ValueError("cannot judge convergence of an empty sequence")
    resid = np.empty((len(seq), f.space.n_atoms))
    for row, term in zip(resid, seq):
        term._peer(f)
        np.subtract(term.values, f.values, out=row)
        np.abs(row, out=row)
    return _ae_verdict(resid, f.space, tol)


def _ae_verdict(resid: np.ndarray, space: MeasureSpace,
                tol: float) -> AeVerdict:
    """``ae_converges``'s verdict from its ``(terms >= 1, n_atoms)`` matrix
    of residuals ``|f_n - f|`` in recording order, which it only reads, so
    a reversed view of a buffer will do."""
    n_terms = len(resid)
    # the tail supremum stays within tol from the step after an atom's last
    # residual that is not (nan included)
    late = ~(resid <= tol)
    settle_steps = np.where(late.any(axis=0),
                            n_terms - np.argmax(late[::-1], axis=0), 0)
    converged = bool(np.all(settle_steps < n_terms))
    if converged:
        slow_pos = int(np.argmax(settle_steps))
    else:
        unsettled = settle_steps >= n_terms
        finals = np.where(unsettled, resid[-1], -np.inf)
        slow_pos = int(np.argmax(finals))
    # a copy: a view would keep the whole residual matrix alive
    return AeVerdict(
        converged=converged,
        settle_steps=settle_steps,
        final_residuals=resid[-1].copy(),
        slowest_atom_id=int(space.atom_ids[slow_pos]),
        slowest_settle_step=int(settle_steps[slow_pos]),
        tol=tol,
    )
