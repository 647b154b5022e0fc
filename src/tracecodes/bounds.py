"""Closed-form cardinality bounds, exact integer arithmetic throughout.

Bounds whose constants grow astronomically are kept symbolic as
(coefficient, exponent) pairs and only multiplied out on request.  The
quadratic threshold test for binary frameproof codes never touches floats:
``N < (15 + sqrt(33))/24 * (t-2)**2`` is decided by comparing
``(24N - 15(t-2)**2)**2`` against ``33 (t-2)**4`` with sign guards.
"""

from __future__ import annotations

from math import comb, isqrt
from typing import NamedTuple

from .core import any_int_length, record, row_parts

__all__ = [
    "BinaryFpStatus",
    "BoundEntry",
    "BoundReport",
    "binary_fp_status",
    "bound_report",
    "fp_bound",
    "ipp_bound",
    "min_exceed_length_quadratic",
    "singleton_bound",
    "ta_bound",
]


@record
class BoundEntry(NamedTuple):
    """One upper bound on a code size, exact or symbolic.

    A usable entry sets exactly one of ``value`` (a computed integer) or
    the pair ``coefficient``/``exponent`` (meaning coefficient * q**exponent).
    Entries with ``usable=False`` carry qualitative information only, and
    may give only a shape: ``ta2-quarter`` sets an exponent with no
    coefficient, as its constant is unknown (its note holds a lower
    estimate on it).
    """

    source: str
    value: int | None = None
    coefficient: int | None = None
    exponent: int | None = None
    usable: bool = True
    note: str = ""

    def evaluate(self, q: int | None = None) -> int:
        """Concrete integer value; multiplies a symbolic entry out."""
        if self.value is not None:
            return self.value
        if self.coefficient is None or self.exponent is None or q is None:
            raise ValueError(f"entry {self.source!r} cannot be evaluated")
        return self.coefficient * q**self.exponent


def fp_bound(N: int, q: int, t: int) -> BoundEntry:
    """Largest possible t-frameproof code, by splitting coordinates t ways.

    With r = N mod t the bound is
    max(q**ceil(N/t), r*(q**ceil(N/t) - 1) + (t-r)*(q**floor(N/t) - 1));
    when r = 1 the first term alone is also valid, and it is never above the
    maximum, so q**ceil(N/t) is returned.
    """
    if N < 1 or q < 2 or t < 1:
        raise ValueError(f"need N >= 1, q >= 2, t >= 1, got ({N}, {q}, {t})")
    r = N % t
    hi = q ** (-(-N // t))
    if r == 1:
        return BoundEntry(source="fp-split", value=hi, note="r=1: capped by the single-part term")
    value = max(hi, r * (hi - 1) + (t - r) * (q ** (N // t) - 1))
    return BoundEntry(source="fp-split", value=value, note=f"r={r}")


def _below_quadratic_threshold(N: int, t: int) -> bool:
    """Exact test of N < (15 + sqrt(33))/24 * (t-2)**2."""
    b = (t - 2) ** 2
    a = 24 * N - 15 * b
    if a <= 0:
        return True  # sqrt(33)*b > 0 for t >= 3
    return a * a < 33 * b * b


def min_exceed_length_quadratic(t: int) -> int:
    """Smallest N the quadratic threshold no longer covers, exactly."""
    if t < 3:
        raise ValueError(f"need t >= 3, got {t}")
    b = (t - 2) ** 2
    # isqrt rounds down, so the start never passes the threshold: only step up.
    m = max(1, (15 * b + isqrt(33 * b * b)) // 24)
    while _below_quadratic_threshold(m, t):
        m += 1
    return m


@record
class BinaryFpStatus(NamedTuple):
    """Is every binary t-frameproof code of length N capped at N words?

    Also carries three lower bounds on the smallest length where the cap
    first breaks: the classical pairwise-block bound C(t+1, 2), the
    quadratic-threshold bound, and the conjectured t**2.
    """

    t: int
    N: int | None
    guaranteed: bool | None
    reason: str | None
    binomial_lower: int
    quadratic_lower: int
    conjectured: int


def binary_fp_status(N: int | None, t: int) -> BinaryFpStatus:
    """Report the size-cap guarantee at length N (skip with None) for q=2."""
    quadratic = min_exceed_length_quadratic(t)  # raises unless t >= 3
    binomial = comb(t + 1, 2)
    guaranteed: bool | None = None
    reason: str | None = None
    if N is not None:
        if N < 1:
            raise ValueError(f"need N >= 1, got {N}")
        if N == 1:
            # Degenerate: the full binary line {0, 1} is t-frameproof for
            # every t and has 2 > N words, so no guarantee is possible.
            guaranteed = False
            reason = "degenerate length: the two-word binary line beats the cap"
        elif N <= t:
            guaranteed = True
            reason = "short length: split bound caps the size at N"
        elif N <= 3 * t:
            guaranteed = True
            reason = "medium length: within the guaranteed window (t+1 .. 3t)"
        elif _below_quadratic_threshold(N, t):
            guaranteed = True
            reason = "below the quadratic threshold"
        else:
            guaranteed = False
            reason = "beyond every known guarantee"
    return BinaryFpStatus(
        t=t,
        N=N,
        guaranteed=guaranteed,
        reason=reason,
        binomial_lower=binomial,
        quadratic_lower=quadratic,
        conjectured=t * t,
    )


def ipp_bound(N: int, q: int, t: int) -> tuple[BoundEntry, BoundEntry, BoundEntry]:
    """Parent-identifiable code caps from a v-1 part row partition.

    v = floor((t/2 + 1)**2), parts as ``core.row_parts``.  The balanced form
    weights ceil/floor exponents by r = N mod (v-1); the uniform form uses
    the ceiling everywhere; the quadratic variant scales by v(v-1)/2.
    """
    if N < 1 or q < 2 or t < 2:
        raise ValueError(f"need N >= 1, q >= 2, t >= 2, got ({N}, {q}, {t})")
    k, r, hi, lo = row_parts(N, t)
    v = k + 1
    balanced = r * q**hi + (k - r) * q**lo
    uniform = k * q**hi
    quadratic = v * k // 2 * q**hi
    return (
        BoundEntry(source="ipp-balanced-parts", value=balanced, note=f"v={v}, r={r}"),
        BoundEntry(source="ipp-uniform-parts", value=uniform, note=f"v={v}"),
        BoundEntry(source="ipp-quadratic-parts", value=quadratic, note=f"v={v}"),
    )


def ta_bound(N: int, q: int, t: int) -> tuple[BoundEntry, ...]:
    """Traceability caps for coalition sizes 2 and 3.

    For t=2 the shape is c * q**ceil(N/4) with the constant not pinned down;
    the entry reports a lower estimate on it and is marked unusable, except
    at N=4 where the clean cap 4q applies.  For t=3 iterated distance
    stripping of the padded length N9 = 9*ceil(N/9) gives the symbolic cap
    (N9 * 2**(3*N9)) * q**ceil(N/9).
    """
    if N < 1 or q < 2:
        raise ValueError(f"need N >= 1, q >= 2, got ({N}, {q})")
    if t == 2:
        entries = []
        if N == 4:
            entries.append(
                BoundEntry(source="ta2-length4", value=4 * q, note="exact cap at length 4")
            )
        exponent = -(-N // 4)
        with any_int_length():  # the estimate has about N/1.8 digits
            estimate = str(N * comb(N, exponent))
        entries.append(
            BoundEntry(
                source="ta2-quarter",
                coefficient=None,
                exponent=exponent,
                usable=False,
                note=f"shape c*q**ceil(N/4); constant unknown, lower estimate on it: {estimate}",
            )
        )
        return tuple(entries)
    if t == 3:
        n9 = 9 * (-(-N // 9))
        coefficient = n9 * 2 ** (3 * n9)
        return (
            BoundEntry(
                source="ta3-ninth",
                coefficient=coefficient,
                exponent=-(-N // 9),
                note=f"padded length {n9}; kept symbolic",
            ),
        )
    raise ValueError(f"traceability caps cover t=2 and t=3 only, got t={t}")


def singleton_bound(N: int, q: int, d: int) -> int:
    """Largest code with minimum distance d: q**(N - d + 1)."""
    if N < 1 or q < 2 or not 1 <= d <= N:
        raise ValueError(f"need N >= 1, q >= 2, 1 <= d <= N, got ({N}, {q}, {d})")
    return q ** (N - d + 1)


@record
class BoundReport(NamedTuple):
    """Every bound applicable at (N, q, t); entries appear only when their
    preconditions hold."""

    N: int
    q: int
    t: int
    entries: tuple[BoundEntry, ...]


def bound_report(N: int, q: int, t: int, evaluate_symbolic: bool = False) -> BoundReport:
    """Aggregate the applicable bounds; symbolic entries stay symbolic unless asked."""
    entries: list[BoundEntry] = [fp_bound(N, q, t)]
    if t >= 2:
        entries.extend(ipp_bound(N, q, t))
    if t in (2, 3):
        entries.extend(ta_bound(N, q, t))
    if evaluate_symbolic:
        expanded = []
        for e in entries:
            if e.value is None and e.coefficient is not None:
                expanded.append(
                    BoundEntry(
                        source=e.source,
                        value=e.evaluate(q),
                        usable=e.usable,
                        note=(e.note + "; fully evaluated").lstrip("; "),
                    )
                )
            else:
                expanded.append(e)
        entries = expanded
    return BoundReport(N=N, q=q, t=t, entries=tuple(entries))
