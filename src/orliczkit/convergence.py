"""Sequence generators, a.e.-subsequence extraction, w*-limit checks,
Fatou-style lower-semicontinuity verdicts, and hull-closure demos.

All verdicts are scoped to the finite truncation the inputs live on: the
checks are honest finite-window readings of asymptotic statements, and the
preconditions (declared norm bounds, residual decay toward the declared
limit) are enforced rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ClosureRefusal
from .measure import AeVerdict, MeasureSpace, Rv, ae_converges, zeros
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


@dataclass(frozen=True, eq=False)
class SequenceFamily:
    """An ordered, norm-bounded family of random variables with a declared
    limit. ``norm_bound`` is a declared (structural) bound on the Luxemburg
    norms of the terms; ``math.inf`` marks a family declared unbounded, which
    downstream checks refuse.

    The terms are stored once, as the rows of the read-only
    ``(len, n_atoms)`` float64 array ``values``; ``terms`` holds no-copy
    ``Rv`` views of those rows. Terms passed to the constructor are stacked
    into that array, a family of L terms on n atoms takes L * n * 8 bytes.
    The extraction, w*-limit and decay checks read it in blocks of
    ``BLOCK_BYTES``, so their scratch memory does not grow with L.
    """

    terms: tuple[Rv, ...]
    norm_bound: float
    mode: str
    limit: Rv
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a sequence family needs at least one term")
        space = self.limit.space
        for t in self.terms:
            if not space.same_space(t.space):
                raise ValueError("family terms live on mismatched spaces")
        self._adopt(np.stack([t.values for t in self.terms]))

    def _adopt(self, rows: np.ndarray) -> None:
        """Take ``rows`` over as the family's storage and view the terms
        into it."""
        if self.mode not in _MODES:
            raise ValueError(f"unknown family mode {self.mode!r}")
        rows.setflags(write=False)
        space = self.limit.space
        object.__setattr__(self, "values", rows)
        object.__setattr__(self, "terms",
                           tuple(Rv._wrap(space, row) for row in rows))

    @classmethod
    def _from_rows(cls, rows: np.ndarray, norm_bound: float, mode: str,
                   limit: Rv) -> "SequenceFamily":
        """Internal no-copy constructor: ``rows`` is a fresh, finite
        ``(len >= 1, n_atoms)`` float64 array on ``limit``'s space, which the
        family owns from here on."""
        fam = object.__new__(cls)
        object.__setattr__(fam, "norm_bound", norm_bound)
        object.__setattr__(fam, "mode", mode)
        object.__setattr__(fam, "limit", limit)
        fam._adopt(rows)
        return fam

    def __len__(self) -> int:
        return len(self.terms)

    def check_norm_bound(self, phi: OrliczFunction, slack: float = 1e-12) -> bool:
        """Verify the declared bound against actual Luxemburg norms."""
        if not math.isfinite(self.norm_bound):
            return True
        return all(luxemburg_norm(t, phi).value <= self.norm_bound + slack
                   for t in self.terms)

    @classmethod
    def from_terms(cls, terms: Sequence[Rv], limit: Rv, phi: OrliczFunction,
                   mode: str = CUSTOM) -> "SequenceFamily":
        """A family declared with the norm of the pointwise envelope
        ``max_j |t_j|`` as its bound: one Luxemburg norm, not one per term.
        The norm is monotone in ``|f|``, so the envelope's norm covers every
        term's. Bisection reads each norm up to a relative 1e-10 above its
        true value, so the bound carries a 1e-9 relative margin."""
        fam = cls(terms=tuple(terms), norm_bound=math.inf, mode=mode,
                  limit=limit)
        envelope = np.abs(fam.values).max(axis=0)
        bound = luxemburg_norm(Rv._wrap(limit.space, envelope), phi).value
        object.__setattr__(fam, "norm_bound", bound + 1e-9 * (1.0 + bound))
        return fam


def _block_rows(n_atoms: int) -> int:
    """Rows of ``n_atoms`` float64 values in one BLOCK_BYTES block, at least 1."""
    return max(1, BLOCK_BYTES // (8 * n_atoms))


def _row_blocks(rows: np.ndarray):
    """Consecutive ``(start, block)`` slices of a ``(len, n_atoms)`` array,
    each of ``_block_rows(n_atoms)`` rows but the last."""
    step = _block_rows(rows.shape[1])
    for start in range(0, len(rows), step):
        yield start, rows[start:start + step]


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
    indicator's norm grows with its mass. The terms are written straight
    into the family's one array.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    if not space.same_space(f.space):
        raise ValueError("f lives on a different space")
    rng = np.random.default_rng(seed)
    n = space.n_atoms
    base_norm = luxemburg_norm(f, phi).value
    rows = np.empty((length, n))
    steps = np.arange(1, length + 1, dtype=float)[:, None]

    if mode == NORM_CONVERGENT:
        z = np.abs(rng.normal(0.0, 1.0, n))
        np.divide(z, steps, out=rows)
        rows += f.values
        bound = base_norm + luxemburg_norm(Rv(space, z), phi).value
    elif mode == AE_ONLY_SPIKE:
        c = float(spike_height)
        if not math.isfinite(c):
            raise ValueError("spike height must be finite")
        rows[:] = f.values
        visited = np.arange(min(length, n))
        rows[visited, visited] += c
        worst = indicator_norm(phi, float(space.weights[visited].max()))
        bound = base_norm + abs(c) * worst
    elif mode == ORDER_CONVERGENT:
        envelope = np.abs(rng.normal(0.0, 1.0, n)) + 0.1
        np.divide(envelope, steps, out=rows)
        rows += f.values
        bound = base_norm + luxemburg_norm(Rv(space, envelope), phi).value
    else:
        raise ValueError(f"unknown generator mode {mode!r}")
    bound += 1e-9 * (1.0 + bound)
    return SequenceFamily._from_rows(rows, bound, mode, f)


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
    if not (space.same_space(g0.space) and space.same_space(f0.space)):
        raise ValueError("f, g0, f0 must share one measure space")
    if g0.values.min() <= 0.0 or f0.values.min() <= 0.0:
        raise ValueError("g0 and f0 must be strictly positive")
    wg = space.weights * g0.values
    fv = f.values
    pairings_all = np.empty(len(family))
    scratch = np.empty((min(_block_rows(space.n_atoms), len(family)),
                        space.n_atoms))
    for start, rows in _row_blocks(family.values):
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
        resid = np.abs(family.values[indices] - fv)
        # running sup over the tail of the selected subsequence
        sups = np.maximum.accumulate(
            np.minimum(resid, f0.values)[::-1], axis=0)[::-1]
        for m, t_m in enumerate(sups @ wg, start=1):
            trace.append(float(t_m))
            trace_margin = max(trace_margin,
                               float(t_m) - (2.0 ** (-(m - 1)) + 1e-12))

        pointwise = ae_converges([family.terms[j] for j in indices], f,
                                 tol=ae_tol)
        pointwise_ok = pointwise.converged
        if not pointwise_ok:
            half = max(1, len(indices) // 2)
            head = resid[:half].max(axis=0)
            tail = resid[half:].max(axis=0) if half < len(indices) else head
            pointwise_ok = bool(
                np.all(tail <= np.maximum(ae_tol, 0.5 * head)))
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

    Convergence is judged on the last quarter of the sequence: the max
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
    for g in tests:
        if not space.same_space(g.space):
            raise ValueError("test functions must share the sequence's space")
        if not heart_member(g, psi):
            raise ValueError("test function outside the heart of the "
                             "conjugate Young function")
    if f0 is None:
        f0 = Rv(space, np.ones(space.n_atoms))
    fv, f0v = f.values, f0.values
    gs = np.stack([g.values for g in tests], axis=1)  # (n, tests)
    wg = space.weights[:, None] * gs
    wag = np.abs(wg)
    q = max(0, (3 * len(family)) // 4 - 1)
    tail = family.values[q:]
    # every pairing below is >= 0, so the running maxima start at 0
    tails, over_tails, dom_tails = (np.zeros(len(tests)) for _ in range(3))
    scratch = np.empty((2, min(_block_rows(space.n_atoms), len(tail)),
                        space.n_atoms))
    for _, rows in _row_blocks(tail):
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
    sups = np.empty(len(family))
    scratch = np.empty((min(_block_rows(limit.size), len(family)), limit.size))
    for start, rows in _row_blocks(family.values):
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

    The liminf over a finite recording is estimated by the minimum over the
    last quarter of terms -- deliberately conservative, so the check can only
    get stricter. Families must be norm bounded and settle toward their
    declared limits (preconditions, raised); Fatou violations themselves are
    reported with witnesses, never raised.
    """
    if not families:
        raise ValueError("no families to check")
    rows = []
    for idx, fam in enumerate(families):
        if not math.isfinite(fam.norm_bound):
            raise ValueError(f"family {idx} is declared norm-unbounded")
        _require_ae_decay(fam)
        q = max(1, len(fam) // 4)
        liminf = min(phi.evaluate(t) for t in fam.terms[-q:])
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
    if not space.same_space(at.space):
        raise ValueError("bump point lives on a different space")
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
    for v in vertices:
        if not space.same_space(v.space):
            raise ValueError("vertices must share f's measure space")

    for v in vertices:
        if np.array_equal(v.values, f.values):
            fam = SequenceFamily._from_rows(
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
    envelope_ok = True
    cursor = 0
    for k in range(1, length + 1):
        budget = (1.0 + 1.0 / k) * dist_lux + 1.0 / k
        chosen = None
        for j in range(cursor, len(snapshots)):
            if lux_at(j) <= budget:
                chosen = j
                break
        if chosen is None:
            chosen = len(snapshots) - 1
            if lux_at(chosen) > budget:
                envelope_ok = False
        cursor = chosen
        picks.append(snapshots[chosen])
    # the early snapshots meet the envelope but need not approach the
    # projection, so the family ends on the final iterate itself
    picks[-1] = snapshots[-1]
    vertex_norms = [luxemburg_norm(v, phi).value for v in vertices]
    fam = SequenceFamily._from_rows(np.stack(picks),
                                    max(vertex_norms) + 1e-12, CUSTOM,
                                    Rv(space, x.copy()))
    return ClosureReport(
        projection=Rv(space, x.copy()),
        weights=tuple(float(t) for t in theta),
        distance_euclid=dist_e,
        distance_lux=dist_lux,
        family=fam,
        envelope_ok=envelope_ok,
        sweeps=sweeps,
        vertex_shortcut=False,
    )
