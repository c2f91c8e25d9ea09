"""Sequence generators, a.e.-subsequence extraction, w*-limit checks,
Fatou-style lower-semicontinuity verdicts, and hull-closure demos.

All verdicts are scoped to the finite truncation the inputs live on: the
checks are honest finite-window readings of asymptotic statements, and the
preconditions (declared norm bounds, residual decay toward the declared
limit) are enforced rather than assumed. Every family, limit, test
function and functional a check is handed must live on one measure space,
the paper's one L_Phi(mu); a mismatch raises SpaceMismatchError
(``MeasureSpace.require_same``) before any of them is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ClosureRefusal
from .measure import AeVerdict, MeasureSpace, Rv, _ae_verdict, zeros
from .norms import heart_member, indicator_norm, luxemburg_norm
from .orlicz import OrliczFunction
from .risk import RiskFunctional

NORM_CONVERGENT = "norm_convergent"
AE_ONLY_SPIKE = "ae_only_traveling_spike"
ORDER_CONVERGENT = "order_convergent"
CUSTOM = "custom"
_MODES = (NORM_CONVERGENT, AE_ONLY_SPIKE, ORDER_CONVERGENT, CUSTOM)


#: bytes of one scratch block. The extraction, w*-limit and decay checks
#: read a family on n atoms in blocks of max(1, BLOCK_BYTES // (8 n)) rows,
#: one matrix call per block, so their scratch is one or two such blocks
#: whatever the family's length. 512 KiB won a sweep from 256 KiB to 2 MiB
#: on a 2-CPU machine with 2 MiB of L2 cache per core (BENCH_15.json): the
#: w*-check's two blocks fit in that cache together.
BLOCK_BYTES = 1 << 19


@dataclass(frozen=True, eq=False, init=False)
class SequenceFamily:
    """An ordered, norm-bounded family of random variables with a declared
    limit. ``norm_bound`` is a declared (structural) bound on the Luxemburg
    norms of the terms; ``math.inf`` marks a family declared unbounded, which
    downstream checks refuse.

    A family stores one layout. Most store their terms once, as the rows of
    a read-only ``(len, n_atoms)`` float64 array; terms passed to the
    constructor are stacked into it, so a family of L terms on n atoms takes
    L * n * 8 bytes. A generated traveling-spike family stores no rows, only
    its limit, its height c and its length L: term k is the limit plus c at
    atom k while k < n_atoms, and the limit itself after.

    ``rows(start, stop)`` reads either layout: a view of the stored rows, or
    just the requested spike rows, built on the call. The extraction,
    w*-limit, decay and Fatou checks read through it in blocks of
    ``BLOCK_BYTES``, so their scratch memory does not grow with L; handed a
    spike family's own limit, the first three read its layout instead, in
    O(L + n_atoms) time and memory. ``values`` (the whole array) and
    ``terms`` (no-copy ``Rv`` views of its rows) are built on first access
    and then kept, for callers that want them; no check reads them.
    """

    norm_bound: float
    mode: str
    limit: Rv
    # the read-only (len, n_atoms) rows, or a spike's (height, length)
    _layout: np.ndarray | tuple[float, int] = field(repr=False)

    def __init__(self, terms: Sequence[Rv], norm_bound: float, mode: str,
                 limit: Rv):
        if not terms:
            raise ValueError("a sequence family needs at least one term")
        limit.space.require_same(*(t.space for t in terms))
        # the internal constructor does the storing; take its fields
        vars(self).update(vars(self._stored(
            np.stack([t.values for t in terms]), norm_bound, mode, limit)))

    @classmethod
    def _stored(cls, layout: np.ndarray | tuple[float, int],
                norm_bound: float, mode: str, limit: Rv) -> "SequenceFamily":
        """Internal no-copy constructor. ``layout`` is either a fresh,
        finite ``(len >= 1, n_atoms)`` float64 array on ``limit``'s space,
        which the family owns from here on, or a spike's ``(height,
        length)``, of finite height and length >= 1."""
        if mode not in _MODES:
            raise ValueError(f"unknown family mode {mode!r}")
        if isinstance(layout, np.ndarray):
            layout.setflags(write=False)
        fam = object.__new__(cls)
        vars(fam).update(norm_bound=norm_bound, mode=mode, limit=limit,
                         _layout=layout)
        return fam

    def __len__(self) -> int:
        layout = self._layout
        return len(layout) if isinstance(layout, np.ndarray) else layout[1]

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start:stop`` of the family's ``(len, n_atoms)`` array: a
        read-only view of the stored rows, or a new array holding only
        these rows of a spike layout."""
        if isinstance(self._layout, np.ndarray):
            return self._layout[start:stop]
        height, length = self._layout
        limit = self.limit.values
        out = np.empty((max(0, min(stop, length) - start), limit.size))
        out[:] = limit
        spiked = np.arange(start, min(start + len(out), limit.size))
        out[spiked - start, spiked] += height
        return out

    @cached_property
    def values(self) -> np.ndarray:
        """The whole read-only ``(len, n_atoms)`` array, built once."""
        if isinstance(self._layout, np.ndarray):
            return self._layout
        rows = self.rows(0, len(self))
        rows.setflags(write=False)
        return rows

    @cached_property
    def terms(self) -> tuple[Rv, ...]:
        """No-copy ``Rv`` views of the rows of ``values``."""
        return tuple(Rv._wrap(self.limit.space, row) for row in self.values)

    @classmethod
    def from_terms(cls, terms: Sequence[Rv], limit: Rv, phi: OrliczFunction,
                   mode: str = CUSTOM) -> "SequenceFamily":
        """A family declared with the norm of the pointwise envelope
        ``max_j |t_j|`` as its bound: one Luxemburg norm, not one per term.
        The norm is monotone in ``|f|``, so the envelope's norm covers every
        term's. Bisection reads each norm up to a relative 1e-10 above its
        true value, so the bound carries a 1e-9 relative margin."""
        fam = cls(terms, math.inf, mode, limit)
        envelope = np.abs(fam.rows(0, len(fam))).max(axis=0)
        bound = luxemburg_norm(Rv._wrap(limit.space, envelope), phi).value
        object.__setattr__(fam, "norm_bound", bound + 1e-9 * (1.0 + bound))
        return fam


def _block_rows(n_atoms: int) -> int:
    """Rows of ``n_atoms`` float64 values in one BLOCK_BYTES block, at least 1."""
    return max(1, BLOCK_BYTES // (8 * n_atoms))


def _row_blocks(family: SequenceFamily, start: int = 0):
    """Consecutive ``(start, rows)`` blocks of ``family.rows`` from row
    ``start`` on, each of ``_block_rows(n_atoms)`` rows but the last."""
    step = _block_rows(family.limit.values.size)
    for lo in range(start, len(family), step):
        yield lo, family.rows(lo, lo + step)


def _spike_residuals(family: SequenceFamily, f: Rv) -> np.ndarray | None:
    """The residuals r_k = (f_k + c) - f_k of a spike layout's terms
    k < min(len, n_atoms) against its own limit ``f``: row k of
    ``family.values - f`` is r_k at atom k and exactly 0 elsewhere, and the
    later rows are 0. None for a family stored as rows, or an ``f`` other
    than the family's limit; those take the block readers."""
    if (isinstance(family._layout, np.ndarray)
            or not np.array_equal(f.values, family.limit.values)):
        return None
    height, length = family._layout
    fv = f.values[:length]
    return (fv + height) - fv


def generate_sequence(space: MeasureSpace, phi: OrliczFunction, f: Rv,
                      mode: str, length: int = 32, seed: int = 0,
                      spike_height: float = 1.0) -> SequenceFamily:
    """Build a norm-bounded family converging a.e. to ``f``.

    norm_convergent:    f_n = f + (1/n) * z for one nonnegative draw z.
    ae_only_traveling_spike:
                        f_n = f + c * (indicator of atom position n) while
                        n <= n_atoms, and f_n = f once the spike has walked
                        off the truncation. Atomwise convergent by
                        construction; whether the norms of f_n - f vanish
                        depends on the weight profile (they stay flat under
                        uniform weights).
    order_convergent:   f_n = f + (1/n) * F for a strictly positive F, so
                        |f_n - f| <= (1/n) F is dominated.

    The declared norm bound is structural (triangle inequality on the pieces)
    rather than a per-term norm computation, plus a 1e-9 relative margin. For
    the spike it takes one indicator norm, at the largest visited weight: an
    indicator's norm grows with its mass. The spike family is stored as its
    layout (see ``SequenceFamily``); the other two write their terms
    straight into the family's one array. ``length`` below 1 and ``seed``
    below 0 raise ValueError before any work.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    if seed < 0:
        raise ValueError(f"generate_sequence needs a nonnegative seed, got "
                         f"seed={seed!r}")
    space.require_same(f.space)
    rng = np.random.default_rng(seed)
    n = space.n_atoms
    base_norm = luxemburg_norm(f, phi).value
    if mode == AE_ONLY_SPIKE:
        c = float(spike_height)
        if not math.isfinite(c):
            raise ValueError("spike height must be finite")
        worst = indicator_norm(phi, float(space.weights[:length].max()))
        bound = base_norm + abs(c) * worst
        return SequenceFamily._stored((c, length),
                                      bound + 1e-9 * (1.0 + bound), mode, f)
    rows = np.empty((length, n))
    steps = np.arange(1, length + 1, dtype=float)[:, None]
    if mode == NORM_CONVERGENT:
        z = np.abs(rng.normal(0.0, 1.0, n))
        np.divide(z, steps, out=rows)
        rows += f.values
        bound = base_norm + luxemburg_norm(Rv(space, z), phi).value
    elif mode == ORDER_CONVERGENT:
        envelope = np.abs(rng.normal(0.0, 1.0, n)) + 0.1
        np.divide(envelope, steps, out=rows)
        rows += f.values
        bound = base_norm + luxemburg_norm(Rv(space, envelope), phi).value
    else:
        raise ValueError(f"unknown generator mode {mode!r}")
    bound += 1e-9 * (1.0 + bound)
    return SequenceFamily._stored(rows, bound, mode, f)


# ---------------------------------------------------------------------------
# subsequence extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtractionResult:
    status: str  # "ok" | "inconclusive"
    indices: tuple[int, ...]
    pairings: tuple[float, ...]
    targets: tuple[float, ...]
    trace: tuple[float, ...]
    trace_margin: float
    trace_bound_ok: bool
    stalled_at: int | None
    pointwise: AeVerdict | None
    pointwise_ok: bool


def extract_ae_subsequence(family: SequenceFamily, f: Rv, g0: Rv, f0: Rv, *,
                           max_picks: int = 40,
                           ae_tol: float = 1e-8) -> ExtractionResult:
    """Select indices a_1 < a_2 < ... with <|f_{a_n} - f|, g0> <= 2^-n.

    The walk is greedy: for each target 2^-n it takes the first unused term
    whose pairing against the strictly positive g0 meets it. The procedure's
    hypothesis is that the input pairings decay toward zero; on a finite
    recording that is judged by a halving test (the last quarter's best
    pairing is at most half the first quarter's worst, or negligible
    outright). When the hypothesis holds, running out of recorded terms is
    exhaustion, not failure, and the status stays "ok" with the first unmet
    target noted in ``stalled_at``. When it fails the status is
    "inconclusive". The diagnostic trace
    t_n = <sup_{m>=n}(|f_{a_m} - f| ^ f0), g0> is reported together with the
    telescoped bound check t_n <= 2^-(n-1) + 1e-12, whose largest excess
    (0.0 when it holds) is ``trace_margin``, and two atomwise
    convergence verdicts for the selected subsequence: settle-within-ae_tol,
    and the finite-recording fallback that each atom's residual sup has at
    least halved from the first half of the picks to the second (or sits at
    the ae_tol noise floor). ``pointwise_ok`` is their disjunction.
    """
    if not math.isfinite(family.norm_bound):
        raise ValueError("family is declared norm-unbounded; extraction "
                         "requires a norm-bounded sequence")
    space = f.space
    space.require_same(g0.space, f0.space, family.limit.space)
    if g0.values.min() <= 0.0 or f0.values.min() <= 0.0:
        raise ValueError("g0 and f0 must be strictly positive")
    wg = space.weights * g0.values
    fv = f.values
    spikes = _spike_residuals(family, f)
    if spikes is not None:
        np.abs(spikes, out=spikes)
        pairings_all = np.zeros(len(family))
        np.multiply(spikes, wg[:len(spikes)], out=pairings_all[:len(spikes)])
    else:
        pairings_all = np.empty(len(family))
        scratch = np.empty((min(_block_rows(space.n_atoms), len(family)),
                            space.n_atoms))
        for start, rows in _row_blocks(family):
            d = np.subtract(rows, fv, out=scratch[:len(rows)])
            np.abs(d, out=d)
            np.matmul(d, wg, out=pairings_all[start:start + len(rows)])

    q = max(1, len(pairings_all) // 4)
    pairings_decay = bool(pairings_all[-q:].min()
                          <= 0.5 * pairings_all[:q].max() + 1e-12)

    indices: list[int] = []
    targets: list[float] = []
    cursor = 0
    stalled_at: int | None = None
    for pick in range(1, max_picks + 1):
        target = 2.0 ** (-pick)
        hits = np.flatnonzero(pairings_all[cursor:] <= target)
        if hits.size == 0:
            stalled_at = pick
            break
        found = cursor + int(hits[0])
        indices.append(found)
        targets.append(target)
        cursor = found + 1
    picked_pairings = [float(pairings_all[j]) for j in indices]

    status = "ok" if (pairings_decay and indices) else "inconclusive"

    trace: list[float] = []
    trace_margin = 0.0
    pointwise = None
    pointwise_ok = False
    if indices:
        # one (picks, n) buffer, written in place: the residuals |f_a - f|,
        # then the running sup over the tail of |f_a - f| ^ f0. Its rows run
        # in reverse pick order, so that sup runs forward, and the trace's
        # product reads a reversed view, which numpy sums without BLAS, in
        # the order it always did
        picks = np.array(indices[::-1])
        if spikes is not None:
            rev = np.zeros((len(picks), space.n_atoms))
            at = np.flatnonzero(picks < len(spikes))
            rev[at, picks[at]] = spikes[picks[at]]
        else:
            rev = np.empty((len(picks), space.n_atoms))
            for row, j in zip(rev, picks):
                row[:] = family.rows(j, j + 1)[0]
            np.subtract(rev, fv, out=rev)
            np.abs(rev, out=rev)
        pointwise = _ae_verdict(rev[::-1], space, ae_tol)
        pointwise_ok = pointwise.converged
        if not pointwise_ok:
            half = max(1, len(indices) // 2)
            head = rev[len(indices) - half:].max(axis=0)
            tail = (rev[:len(indices) - half].max(axis=0)
                    if half < len(indices) else head)
            pointwise_ok = bool(
                np.all(tail <= np.maximum(ae_tol, 0.5 * head)))

        np.minimum(rev, f0.values, out=rev)
        for m in range(1, len(indices)):
            np.maximum(rev[m], rev[m - 1], out=rev[m])
        sups = rev[::-1]
        for m, t_m in enumerate(sups @ wg, start=1):
            trace.append(float(t_m))
            trace_margin = max(trace_margin,
                               float(t_m) - (2.0 ** (-(m - 1)) + 1e-12))
    return ExtractionResult(
        status=status,
        indices=tuple(indices),
        pairings=tuple(picked_pairings),
        targets=tuple(targets),
        trace=tuple(trace),
        trace_margin=trace_margin,
        trace_bound_ok=trace_margin == 0.0,
        stalled_at=stalled_at,
        pointwise=pointwise,
        pointwise_ok=pointwise_ok,
    )


# ---------------------------------------------------------------------------
# w*-limit checks against heart test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WstarReport:
    converged: bool
    tail_tol: float
    worst_tail: float
    tails: tuple[float, ...]
    overflow_tails: tuple[float, ...]
    dominated_tails: tuple[float, ...]


def wstar_limit_check(family: SequenceFamily, f: Rv, tests: Sequence[Rv],
                      psi: OrliczFunction, *, f0: Rv | None = None,
                      tail_tol: float = 1e-8) -> WstarReport:
    """Check <f_n - f, g> -> 0 for every test g from the heart of ``psi``.

    Convergence is judged on the tail of a family of L terms from 0-based
    index max(0, floor(3L/4) - 1) on: the last ceil(L/4) + 1 terms when
    L >= 2, one more than a quarter, and the one term when L = 1. The max
    absolute pairing there must fall below ``tail_tol``. For diagnosis each
    residual is split against a positive f0 (default: the constant one) into
    an overflow part <(|f_n - f| - f0)^+, |g|> and a dominated part
    <|f_n - f| ^ f0, |g|>, so a failure is attributable to mass escaping
    upward versus persistent dominated discrepancy. No CLI command calls
    this, as the CLI reads no file format for heart test functions; the
    ``truncated_diagnostics`` benchmark workload and the tests do.
    """
    if not math.isfinite(family.norm_bound):
        raise ValueError("family is declared norm-unbounded; the w*-limit "
                         "claim only applies to norm-bounded sequences")
    if not tests:
        raise ValueError("need at least one test function")
    space = f.space
    if f0 is None:
        f0 = Rv(space, np.ones(space.n_atoms))
    space.require_same(family.limit.space, f0.space, *(g.space for g in tests))
    for g in tests:
        if not heart_member(g, psi):
            raise ValueError("test function outside the heart of the "
                             "conjugate Young function")
    if f0.values.min() <= 0.0:
        raise ValueError("f0 must be strictly positive")
    fv, f0v = f.values, f0.values
    gs = np.stack([g.values for g in tests], axis=1)  # (n, tests)
    wg = space.weights[:, None] * gs
    wag = np.abs(wg)
    q = max(0, (3 * len(family)) // 4 - 1)
    # every pairing below is >= 0, so the running maxima start at 0
    tails, over_tails, dom_tails = (np.zeros(len(tests)) for _ in range(3))
    spikes = _spike_residuals(family, f)
    if spikes is not None:
        # row k's pairings are its one residual times row k of the weights;
        # at every other atom |0| - f0 < 0 and min(|0|, f0) = 0, as f0 > 0
        tail = slice(q, len(spikes))
        if q < len(spikes):
            d = np.abs(spikes[tail, None])
            tails = np.abs(spikes[tail, None] * wg[tail]).max(axis=0)
            over_tails = (np.maximum(d - f0v[tail, None], 0.0)
                          * wag[tail]).max(axis=0)
            dom_tails = (np.minimum(d, f0v[tail, None])
                         * wag[tail]).max(axis=0)
    else:
        scratch = np.empty((2, min(_block_rows(space.n_atoms),
                                   len(family) - q), space.n_atoms))
        for _, rows in _row_blocks(family, q):
            signed = np.subtract(rows, fv, out=scratch[0, :len(rows)])
            np.maximum(tails, np.abs(signed @ wg).max(axis=0), out=tails)
            d = np.abs(signed, out=signed)
            part = np.subtract(d, f0v, out=scratch[1, :len(rows)])
            np.maximum(part, 0.0, out=part)
            np.maximum(over_tails, (part @ wag).max(axis=0), out=over_tails)
            np.minimum(d, f0v, out=part)
            np.maximum(dom_tails, (part @ wag).max(axis=0), out=dom_tails)
    worst = float(tails.max())
    return WstarReport(
        converged=worst <= tail_tol,
        tail_tol=tail_tol,
        worst_tail=worst,
        tails=tuple(tails.tolist()),
        overflow_tails=tuple(over_tails.tolist()),
        dominated_tails=tuple(dom_tails.tolist()),
    )


# ---------------------------------------------------------------------------
# Fatou-style lower semicontinuity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FatouRow:
    family_index: int
    mode: str
    limit_value: float
    liminf_estimate: float
    margin: float
    violation: bool


@dataclass(frozen=True)
class FatouReport:
    rows: tuple[FatouRow, ...]
    tol: float
    violation_count: int
    worst_margin: float
    worst_family_index: int


def _require_ae_decay(family: SequenceFamily) -> None:
    """Finite-window reading of 'a.e. convergent to the declared limit':
    atomwise residuals over the last quarter must have at least halved
    relative to the first quarter (or be negligible outright)."""
    limit = family.limit.values
    spikes = _spike_residuals(family, family.limit)
    if spikes is not None:
        sups = np.zeros(len(family))
        np.abs(spikes, out=sups[:len(spikes)])
    else:
        sups = np.empty(len(family))
        scratch = np.empty((min(_block_rows(limit.size), len(family)),
                            limit.size))
        for start, rows in _row_blocks(family):
            d = np.subtract(rows, limit, out=scratch[:len(rows)])
            np.abs(d, out=d)
            d.max(axis=1, out=sups[start:start + len(rows)])
    q = max(1, len(sups) // 4)
    head = float(sups[:q].max())
    tail = float(sups[-q:].min())
    if tail > 0.5 * head + 1e-12:
        raise ValueError(
            "family does not settle toward its declared limit "
            f"(head residual {head!r}, tail residual {tail!r})")


def fatou_check(phi: RiskFunctional, families: Sequence[SequenceFamily],
                tol: float = 1e-9) -> FatouReport:
    """Assert phi(limit) <= liminf phi(f_n) + tol for each family.

    The liminf over a finite recording of L terms is estimated by the
    minimum of ``phi.evaluate`` over its last max(1, floor(L/4)) terms --
    deliberately conservative, so the check can only get stricter. Those
    terms are read through ``SequenceFamily.rows`` one block at a time and
    evaluated one row at a time, so a spike family's whole array is never
    built. Families must be norm bounded and settle toward their declared
    limits (preconditions, raised), and live on phi's space; Fatou
    violations themselves are reported with witnesses, never raised.
    """
    if not families:
        raise ValueError("no families to check")
    phi.space.require_same(*(fam.limit.space for fam in families))
    rows = []
    for idx, fam in enumerate(families):
        if not math.isfinite(fam.norm_bound):
            raise ValueError(f"family {idx} is declared norm-unbounded")
        _require_ae_decay(fam)
        q = max(1, len(fam) // 4)
        liminf = min(phi.evaluate(Rv._wrap(fam.limit.space, row))
                     for _, block in _row_blocks(fam, len(fam) - q)
                     for row in block)
        limit_value = phi.evaluate(fam.limit)
        margin = limit_value - liminf
        rows.append(FatouRow(
            family_index=idx,
            mode=fam.mode,
            limit_value=limit_value,
            liminf_estimate=liminf,
            margin=margin,
            violation=margin > tol,
        ))
    worst = max(rows, key=lambda r: r.margin)
    return FatouReport(
        rows=tuple(rows),
        tol=tol,
        violation_count=sum(r.violation for r in rows),
        worst_margin=worst.margin,
        worst_family_index=worst.family_index,
    )


def non_lsc_control(base: RiskFunctional, at: Rv) -> RiskFunctional:
    """A deliberately non-lower-semicontinuous wrapper: the base functional
    plus a unit bump exactly at ``at``. Any family whose terms differ from
    ``at`` but converge to it exposes the bump as a Fatou violation with
    margin close to 1."""
    space = base.space
    space.require_same(at.space)
    target = at.values.copy()

    def ev(f: Rv) -> float:
        bump = 1.0 if np.array_equal(f.values, target) else 0.0
        return base.evaluate(f) + bump

    return RiskFunctional(
        name=f"non_lsc({base.name})",
        space=space,
        evaluate=ev,
        proper_witness=zeros(space),
    )


# ---------------------------------------------------------------------------
# hull closure demo
# ---------------------------------------------------------------------------

#: projection sweeps before closure_demo stops short of converging
CLOSURE_SWEEP_CAP = 10_000


@dataclass(frozen=True)
class ClosureReport:
    projection: Rv
    weights: tuple[float, ...]
    distance_euclid: float
    distance_lux: float
    family: SequenceFamily
    # True by construction: each term is the first iterate within its
    # envelope, and the final iterate, at distance_lux, is within every one
    envelope_ok: bool
    sweeps: int
    vertex_shortcut: bool


def closure_demo(vertices: Sequence[Rv], f: Rv, phi: OrliczFunction, *,
                 hull_tol: float = 1e-9, length: int = 32) -> ClosureReport:
    """Project ``f`` onto the convex hull of ``vertices`` and emit a hull
    sequence obeying the envelope ||f_n - f|| <= (1 + 1/n)·dist + 1/n.

    The projection minimizes Euclidean distance by alternating exact
    clamped pairwise steps on the barycentric weights. If the projected
    distance exceeds ``hull_tol`` the point is outside the closure and a
    ClosureRefusal carrying the separating margin is raised. Inside, the
    emitted terms are projection iterates (members of the hull throughout),
    thinned to meet the envelope in Luxemburg norm and ending on the final
    iterate; a point sitting on a vertex short-circuits to the constant
    sequence.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    if not vertices:
        raise ValueError("need at least one vertex")
    space = f.space
    space.require_same(*(v.space for v in vertices))

    for v in vertices:
        if np.array_equal(v.values, f.values):
            fam = SequenceFamily._stored(
                np.tile(f.values, (length, 1)),
                luxemburg_norm(f, phi).value + 1e-12, CUSTOM, f)
            return ClosureReport(
                projection=Rv(space, f.values.copy()),
                weights=tuple(1.0 if u is v else 0.0 for u in vertices),
                distance_euclid=0.0, distance_lux=0.0, family=fam,
                envelope_ok=True, sweeps=0, vertex_shortcut=True)

    V = np.stack([v.values for v in vertices])  # (m, n)
    m = V.shape[0]
    theta = np.full(m, 1.0 / m)
    x = theta @ V
    fv = f.values
    snapshots = [x.copy()]
    sweeps = 0
    for _ in range(CLOSURE_SWEEP_CAP):
        sweeps += 1
        before = float(np.dot(fv - x, fv - x))
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                d = V[i] - V[j]
                dd = float(np.dot(d, d))
                if dd == 0.0:
                    continue
                s = float(np.dot(fv - x, d)) / dd
                s = min(max(s, -theta[i]), theta[j])
                if s != 0.0:
                    theta[i] += s
                    theta[j] -= s
                    x = x + s * d
        snapshots.append(x.copy())
        after = float(np.dot(fv - x, fv - x))
        if before - after <= 1e-18 * (1.0 + before):
            break
    dist_e = float(np.sqrt(np.dot(fv - x, fv - x)))
    if dist_e > hull_tol:
        raise ClosureRefusal(
            f"point lies outside the hull: Euclidean distance {dist_e!r} "
            f"exceeds tolerance {hull_tol!r}", margin=dist_e - hull_tol)

    lux_cache: dict[int, float] = {}

    def lux_at(k: int) -> float:
        if k not in lux_cache:
            lux_cache[k] = luxemburg_norm(
                Rv(space, snapshots[k] - fv), phi).value
        return lux_cache[k]

    dist_lux = lux_at(len(snapshots) - 1)
    picks = []
    cursor = 0
    for k in range(1, length + 1):
        # every budget is at least dist_lux, also in floating point, so the
        # search stops by the last snapshot at the latest
        budget = (1.0 + 1.0 / k) * dist_lux + 1.0 / k
        cursor = next(j for j in range(cursor, len(snapshots))
                      if lux_at(j) <= budget)
        picks.append(snapshots[cursor])
    # the early snapshots meet the envelope but need not approach the
    # projection, so the family ends on the final iterate itself
    picks[-1] = snapshots[-1]
    vertex_norms = [luxemburg_norm(v, phi).value for v in vertices]
    fam = SequenceFamily._stored(np.stack(picks), max(vertex_norms) + 1e-12,
                                 CUSTOM, Rv(space, x.copy()))
    return ClosureReport(
        projection=Rv(space, x.copy()),
        weights=tuple(float(t) for t in theta),
        distance_euclid=dist_e,
        distance_lux=dist_lux,
        family=fam,
        envelope_ok=True,
        sweeps=sweeps,
        vertex_shortcut=False,
    )
