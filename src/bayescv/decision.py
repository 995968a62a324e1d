"""From posteriors to decisions against a region of practical equivalence.

A rope [-r, r] splits the real line into "left" (the second system wins by
more than r), "rope" (practically equivalent), and "right" (the first
system wins by more than r), reading a difference series as first minus
second. ``region_probs`` integrates the population t of every posterior
draw over the three regions in one array kernel, and the plot places those
masses on the simplex. ``count_draws`` (behind ``tally``) counts each
draw's argmax verdict, integrating only the draws that two exact rules
for nu >= 1 leave open. With r the rope halfwidth: when |delta0| - r >
1e-6 sigma0, the tail on delta0's side holds 1/2 plus at least 3.1e-7
(near 0 the t density is >= 1/pi) and wins (median rule); when r - |delta0|
>= 0.5774 sigma0, each tail holds at most 1/3 - 1.19e-5 and the rope wins
(Cauchy rule: P(t_nu > z) <= 1/2 - arctan(z)/pi for z >= 0, which is 1/3 at
tan(pi/6) = 0.57735...). Each winner leads by 6.3e-7 or more, far beyond
the kernel's 1e-10 error per tail, so the counts are the kernel's; at
sigma0 = 0 both rules give its point-mass answer.
``rank`` assembles pairwise verdicts into a partial order.
``write_report_csv`` and ``read_report_csv`` keep the triples in a CSV
table written and read by ``manifest.write_table`` and
``manifest.read_table``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .manifest import read_table, write_table
from .model import PosteriorChains
from .scores import DifferenceSeries
from .statcore import StudentT, rng_fork, std_t_cdf, t_sample

__all__ = [
    "RopeInterval",
    "DecisionTriple",
    "verdict_of",
    "check_draws",
    "region_probs",
    "classify_draws",
    "count_draws",
    "tally",
    "ttest_triple",
    "simplex_points",
    "rank",
    "RankResult",
    "rope_from_differences",
    "ReportRow",
    "write_report_csv",
    "read_report_csv",
    "REPORT_COLUMNS",
]

VERDICTS = ("left", "rope", "right")

# Draws per kernel call in classify_draws: bounds its working memory.
_BLOCK = 2048

# count_draws' margins; the module docstring derives them.
_MEDIAN_MARGIN = 1e-6
_CAUCHY_RATIO = 0.5774


@dataclass(frozen=True)
class RopeInterval:
    """Symmetric region of practical equivalence [-halfwidth, halfwidth]."""

    halfwidth: float

    def __post_init__(self) -> None:
        if not (self.halfwidth >= 0.0 and math.isfinite(self.halfwidth)):
            raise ValueError(f"halfwidth must be finite and >= 0, got {self.halfwidth}")

    def scaled(self, constant: float) -> "RopeInterval":
        """The same region expressed in units divided by ``constant``."""
        if not (constant > 0.0 and math.isfinite(constant)):
            raise ValueError(f"scaling constant must be finite and positive, got {constant}")
        return RopeInterval(self.halfwidth / constant)


@dataclass(frozen=True)
class DecisionTriple:
    """Counts of posterior draws won by each region.

    The probabilities are exactly the counter ratios, so they always sum
    to 1 and are reproducible integers underneath.
    """

    n_left: int
    n_rope: int
    n_right: int

    def __post_init__(self) -> None:
        if min(self.n_left, self.n_rope, self.n_right) < 0:
            raise ValueError("counters cannot be negative")
        if self.n_samples == 0:
            raise ValueError("at least one sample is required")

    @property
    def n_samples(self) -> int:
        return self.n_left + self.n_rope + self.n_right

    @property
    def p_left(self) -> float:
        return self.n_left / self.n_samples

    @property
    def p_rope(self) -> float:
        return self.n_rope / self.n_samples

    @property
    def p_right(self) -> float:
        return self.n_right / self.n_samples

    @property
    def verdict(self) -> str:
        """Region with the most draws; any tie is rope."""
        return verdict_of(self.n_left, self.n_rope, self.n_right)

    def flipped(self) -> "DecisionTriple":
        """The same evidence with the two systems swapped."""
        return DecisionTriple(n_left=self.n_right, n_rope=self.n_rope, n_right=self.n_left)


def _winner(p_left: ArrayLike, p_rope: ArrayLike, p_right: ArrayLike) -> np.ndarray:
    """Elementwise index into VERDICTS of the argmax region. Any tie is rope,
    an exact left/right tie above the rope too, so swapping left and right
    mirrors every winner."""
    p_left, p_rope, p_right = (np.asarray(p) for p in (p_left, p_rope, p_right))
    rope = (p_rope >= np.maximum(p_left, p_right)) | (p_left == p_right)
    return np.where(rope, 1, np.where(p_left > p_right, 0, 2))


def verdict_of(p_left: float, p_rope: float, p_right: float) -> str:
    """Argmax region; any tie, a left/right one included, is rope."""
    return VERDICTS[int(_winner(p_left, p_rope, p_right))]


def check_draws(delta0: np.ndarray, sigma0: np.ndarray, nu: np.ndarray) -> None:
    """ValueError naming the first draw, in the arrays' common shape, whose
    delta0 is not finite, sigma0 not finite and >= 0, or nu not finite and > 0."""
    valid = np.isfinite(delta0) & np.isfinite(sigma0) & (sigma0 >= 0.0)
    valid &= np.isfinite(nu) & (nu > 0.0)
    if not valid.all():
        i = int(np.argmin(valid.reshape(-1)))
        raise ValueError(
            "draws need a finite delta0, a finite sigma0 >= 0 and a finite nu > 0, got "
            f"delta0={delta0.flat[i]}, sigma0={sigma0.flat[i]}, nu={nu.flat[i]}"
        )


def region_probs(
    delta0: ArrayLike, sigma0: ArrayLike, nu: ArrayLike, rope: RopeInterval
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mass of t(delta0, sigma0, nu) left of, inside, and right of the rope.

    The inputs broadcast against each other, and each of the three arrays
    has their common shape (0-d for scalars). Every draw must pass
    ``check_draws``.

    The left and right masses are computed as direct tail integrals that
    depend on the standardized offsets only through their squares, so
    flipping the sign of delta0 swaps the outer probabilities exactly, bit
    for bit. sigma0 == 0 is the point-mass limit: all mass goes to the
    single region containing delta0, with the closed interval winning the
    boundary.
    """
    d0, s0, nu = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (delta0, sigma0, nu)))
    check_draws(d0, s0, nu)
    r = rope.halfwidth
    point = s0 == 0.0
    scale = np.where(point, 1.0, s0)
    # Both tails in one kernel call: left of -r, then right of r.
    p_left, p_right = std_t_cdf(np.stack([(-r - d0) / scale, -((r - d0) / scale)]), nu)
    p_left = np.where(point, d0 < -r, p_left)
    p_right = np.where(point, d0 > r, p_right)
    p_rope = np.maximum(1.0 - (p_left + p_right), 0.0)
    return (p_left, p_rope, p_right)


def classify_draws(
    delta0: ArrayLike, sigma0: ArrayLike, nu: ArrayLike, rope: RopeInterval
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], DecisionTriple]:
    """Region masses of every draw (flattened), and the draws counted by verdict.

    Draws are evaluated in blocks of ``_BLOCK``, so the working memory on
    top of the returned masses does not grow with the number of draws.
    """
    d0, s0, nu = (np.asarray(v, dtype=float).reshape(-1) for v in (delta0, sigma0, nu))
    if not d0.size == s0.size == nu.size:
        raise ValueError("delta0, sigma0, nu must hold the same number of draws")
    probs = np.empty((3, d0.size))
    counts = np.zeros(3, dtype=np.int64)
    for lo in range(0, d0.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        probs[:, block] = region_probs(d0[block], s0[block], nu[block], rope)
        counts += np.bincount(_winner(*probs[:, block]), minlength=3)
    return tuple(probs), DecisionTriple(*(int(n) for n in counts))


def count_draws(
    delta0: ArrayLike, sigma0: ArrayLike, nu: ArrayLike, rope: RopeInterval
) -> DecisionTriple:
    """``classify_draws(...)[1]``: every draw checked, then the rules'
    draws counted from |delta0| and its sign, and only the rest integrated."""
    d0, s0, nu = (np.asarray(v, dtype=float).reshape(-1) for v in (delta0, sigma0, nu))
    if not d0.size == s0.size == nu.size:
        raise ValueError("delta0, sigma0, nu must hold the same number of draws")
    check_draws(d0, s0, nu)
    # Neither rule divides, and r - |delta0| is -offset exactly.
    offset = np.abs(d0) - rope.halfwidth
    outside = (nu >= 1.0) & (offset > _MEDIAN_MARGIN * s0)
    inside = (nu >= 1.0) & (-offset >= _CAUCHY_RATIO * s0)
    right = np.count_nonzero(outside & (d0 > 0.0))
    counts = np.array([np.count_nonzero(outside) - right, np.count_nonzero(inside), right])
    rest = ~(outside | inside)
    if rest.any():
        kernel = classify_draws(d0[rest], s0[rest], nu[rest], rope)[1]
        counts += (kernel.n_left, kernel.n_rope, kernel.n_right)
    return DecisionTriple(*(int(n) for n in counts))


def tally(post: PosteriorChains, rope: RopeInterval) -> DecisionTriple:
    """One decision per posterior draw, counted.

    For each draw of (delta0, sigma0, nu) the predicted difference on a
    fresh data set follows the population t; its three region masses are
    compared and the winning counter is incremented (any tie counts as
    rope). The rope is given on the raw score scale and converted to
    the standardized scale of the draws here.
    """
    rope_std = rope.scaled(post.standardization_constant)
    return count_draws(post.delta0, post.sigma0, post.nu, rope_std)


def ttest_triple(
    post: StudentT, rope: RopeInterval, n_samples: int = 50000, seed: int = 0
) -> DecisionTriple:
    """Decision counters for a single-dataset t posterior, by simulation.

    Each draw is a simulated mean difference; it lands in exactly one
    region (the rope is closed). The analytic region masses are available
    from region_probs for cross-checking; this sampled version exists so
    single-dataset comparisons report honest counters with the same
    contract as the hierarchical path.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = rng_fork(seed, 0)
    draws = t_sample(post, rng, size=n_samples)
    draws = np.asarray(draws)
    r = rope.halfwidth
    n_left = int(np.count_nonzero(draws < -r))
    n_right = int(np.count_nonzero(draws > r))
    return DecisionTriple(n_left=n_left, n_rope=n_samples - n_left - n_right, n_right=n_right)


def simplex_points(p_rope: ArrayLike, p_right: ArrayLike) -> np.ndarray:
    """Barycentric embedding of region masses into the unit-side triangle, shape (..., 2).

    Vertices: left at (0, 0), rope at (1/2, sqrt(3)/2), right at (1, 0).
    """
    p_rope = np.asarray(p_rope, dtype=float)
    return np.stack([0.5 * p_rope + p_right, 0.5 * math.sqrt(3.0) * p_rope], axis=-1)


@dataclass(frozen=True)
class RankResult:
    """A partial order over systems derived from pairwise verdicts.

    ``labels`` is the comparison graph: each given pair (a, b) with its
    relation symbol "<", ">", or "≈", sorted. ``classes`` groups systems
    that are practically equivalent, ordered worst to best when the
    verdicts are consistent; ``chain`` is then the human-readable summary
    like "a < b ≈ c". Inconsistent verdict sets (a strict difference
    inside an equivalence class, opposite directions between two classes,
    or a directed cycle) leave ``chain`` as None and list the conflicts.
    """

    labels: tuple[tuple[str, str, str], ...]
    classes: tuple[tuple[str, ...], ...]
    chain: str | None
    conflicts: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        return self.chain is not None


def rank(verdicts: Mapping[tuple[str, str], str]) -> RankResult:
    """Aggregate pairwise verdicts into a partial order.

    ``verdicts`` maps each ordered pair (a, b) to its verdict: "left"
    means b wins, "right" means a wins, "rope" means practically
    equivalent. Every unordered pair of the mentioned systems must appear
    exactly once in either orientation; otherwise ValueError is raised.
    """
    systems = sorted({name for pair in verdicts for name in pair})
    if len(systems) < 2:
        raise ValueError("ranking needs at least two systems")
    seen: dict[frozenset[str], tuple[str, str]] = {}
    better: dict[frozenset[str], str | None] = {}
    labels: list[tuple[str, str, str]] = []
    for (a, b), verdict in verdicts.items():
        if a == b:
            raise ValueError(f"pair ({a!r}, {b!r}) compares a system with itself")
        key = frozenset((a, b))
        if key in seen:
            raise ValueError(f"pair {a!r}/{b!r} appears more than once")
        seen[key] = (a, b)
        if verdict == "rope":
            better[key] = None
            labels.append((a, "≈", b))
        elif verdict == "right":
            better[key] = a
            labels.append((a, ">", b))
        elif verdict == "left":
            better[key] = b
            labels.append((a, "<", b))
        else:
            raise ValueError(f"unknown verdict {verdict!r} for pair ({a!r}, {b!r})")
    missing = [
        (a, b)
        for i, a in enumerate(systems)
        for b in systems[i + 1 :]
        if frozenset((a, b)) not in seen
    ]
    if missing:
        raise ValueError(f"no verdict for pairs: {missing}")

    # Union equivalent systems, then check every strict edge respects the
    # grouping and the classes form an acyclic tournament.
    parent = {s: s for s in systems}

    def find(s: str) -> str:
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for key, winner in better.items():
        if winner is None:
            a, b = seen[key]
            parent[find(a)] = find(b)

    members: dict[str, list[str]] = {}
    for s in systems:
        members.setdefault(find(s), []).append(s)
    classes = {root: tuple(sorted(group)) for root, group in members.items()}

    conflicts: list[str] = []
    wins: dict[tuple[str, str], set[str]] = {}
    for key, winner in better.items():
        if winner is None:
            continue
        a, b = seen[key]
        ra, rb = find(a), find(b)
        if ra == rb:
            conflicts.append(
                f"{a} and {b} are strictly ordered but sit in the same equivalence group "
                f"{classes[ra]}"
            )
            continue
        edge = (ra, rb) if ra < rb else (rb, ra)
        wins.setdefault(edge, set()).add(find(winner))
    for (ra, rb), winners in wins.items():
        if len(winners) > 1:
            conflicts.append(
                f"groups {classes[ra]} and {classes[rb]} beat each other in different pairings"
            )

    order: list[str] = []
    if not conflicts:
        beats: dict[str, set[str]] = {root: set() for root in classes}
        for (ra, rb), winners in wins.items():
            winner = next(iter(winners))
            loser = rb if winner == ra else ra
            beats[winner].add(loser)
        # An acyclic tournament has distinct out-degrees 0..len-1; equal
        # out-degrees imply a cycle among the tied groups.
        by_wins = sorted(classes, key=lambda root: (len(beats[root]), classes[root]))
        degrees = [len(beats[root]) for root in by_wins]
        if degrees != list(range(len(classes))):
            conflicts.append(
                "the strict verdicts form a cycle: "
                + ", ".join(str(classes[root]) for root in by_wins)
            )
        else:
            order = by_wins

    label_graph = tuple(sorted(labels))
    if conflicts:
        return RankResult(
            labels=label_graph,
            classes=tuple(sorted(classes.values())),
            chain=None,
            conflicts=tuple(conflicts),
        )
    ordered_classes = tuple(classes[root] for root in order)
    chain = " < ".join(" ≈ ".join(group) for group in ordered_classes)
    return RankResult(
        labels=label_graph,
        classes=ordered_classes,
        chain=chain,
        conflicts=(),
    )


REPORT_COLUMNS = (
    "system_a",
    "system_b",
    "metric",
    "p_left",
    "p_rope",
    "p_right",
    "verdict",
    "n_samples",
    "rope_halfwidth",
)


@dataclass(frozen=True)
class ReportRow:
    """One pairwise comparison, as serialized in the report CSV."""

    system_a: str
    system_b: str
    metric: str
    triple: DecisionTriple
    rope_halfwidth: float


def write_report_csv(rows: Sequence[ReportRow], path: str | Path, manifest: str | None = None) -> None:
    """Write the machine-readable comparison table.

    Probabilities are written with full precision; they are exact counter
    ratios, so a reader can reconstruct the integers from p * n_samples.
    An optional leading comment line records the producing manifest.
    """
    cells = (
        [
            row.system_a,
            row.system_b,
            row.metric,
            repr(row.triple.p_left),
            repr(row.triple.p_rope),
            repr(row.triple.p_right),
            row.triple.verdict,
            row.triple.n_samples,
            repr(row.rope_halfwidth),
        ]
        for row in rows
    )
    write_table(path, REPORT_COLUMNS, cells, manifest)


def read_report_csv(path: str | Path) -> list[ReportRow]:
    path = Path(path)
    rows: list[ReportRow] = []
    for lineno, row in read_table(path, REPORT_COLUMNS):
        try:
            n_samples = int(row[7])
            triple = DecisionTriple(
                n_left=round(float(row[3]) * n_samples),
                n_rope=round(float(row[4]) * n_samples),
                n_right=round(float(row[5]) * n_samples),
            )
            halfwidth = float(row[8])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if triple.n_samples != n_samples:
            raise ValueError(f"{path}:{lineno}: probabilities do not match n_samples")
        if row[6] != triple.verdict:
            raise ValueError(f"{path}:{lineno}: verdict {row[6]!r} does not match the probabilities")
        rows.append(
            ReportRow(
                system_a=row[0],
                system_b=row[1],
                metric=row[2],
                triple=triple,
                rope_halfwidth=halfwidth,
            )
        )
    if not rows:
        raise ValueError(f"{path}: no comparison rows found")
    return rows


def rope_from_differences(series: list[DifferenceSeries]) -> RopeInterval:
    """Half the width of the central 95% interval of the pooled differences.

    A data-driven rope on the raw score scale, for callers that prefer not
    to fix a halfwidth a priori.
    """
    if not series:
        raise ValueError("need at least one difference series")
    pooled = np.concatenate([s.x for s in series])
    # Not the literal 0.025, which is another double.
    alpha = (1.0 - 0.95) / 2.0
    lo, hi = np.quantile(pooled, [alpha, 1.0 - alpha])
    return RopeInterval(halfwidth=float((hi - lo) / 2.0))
