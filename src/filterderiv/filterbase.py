"""Filter bases on the real line.

A base is represented as a nested, indexed chain of set descriptors with a
deterministic sampler. Each descriptor is a finite union of open intervals
plus a finite point set, minus a finite excluded set; it is canonicalized
once, when built, into maximal connected components so that emptiness,
membership and containment are decided exactly (float comparisons only,
no tolerances); the two simple shapes, points only and open intervals
only, are canonical in closed form. The generated filter is
never materialized: membership of a candidate set in it is answered by
searching for a contained base element, by bisection on a chain that a
constructor built and so nests.
A geometric base samples level k from its annulus, element(k) without
element(k+1), in closed form and without building a descriptor, and every
sample set drawn from intervals is memoized. Its element(k) is closed-form
too: two elements nest by their sides and scales alone, membership is two
comparisons a side, and containment in another set looks each of its at
most two intervals up in that set's components. A sequence base's elements
are tails of its one term tuple: two of them nest by their start indices
alone, membership is a bisect on magnitude, and a tail lies in another set
at once when one component of that set holds its smallest and largest
points. Either kind builds its canonical form only when it is read.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Mapping, Sequence
from functools import lru_cache

from ._record import record
from .errors import _real

__all__ = [
    "Piece", "SetDescriptor", "FilterBaseChain", "SequenceSpec", "AxiomReport",
    "punctured_base", "right_base", "left_base", "sequence_base",
    "chain_from_elements", "verify_base_axioms",
    "in_generated_filter", "generated_filter_witness",
]

_M64 = (1 << 64) - 1
# Smallest scale a geometric chain may reach; keeps stratified sampling in
# the normal float range where strata stay distinct.
_MIN_SCALE = 1e-300
# Terms a sequence base keeps past its last level, so that even its deepest
# tail holds this many points to sample.
_TAIL_POINTS = 256


@record
class Piece:
    """One maximal connected component of a canonicalized set: an interval
    with independently open or closed endpoints."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    def contains(self, x: float) -> bool:
        if not self.lo <= x <= self.hi:  # NaN too: every comparison with it is False
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def covers(self, other: "Piece") -> bool:
        lower_ok = self.lo < other.lo or (
            self.lo == other.lo and (self.lo_closed or not other.lo_closed))
        upper_ok = other.hi < self.hi or (
            other.hi == self.hi and (self.hi_closed or not other.hi_closed))
        return lower_ok and upper_ok


@record
class SetDescriptor:
    """(union of open intervals  ∪  points) \\ excluded.

    ``intervals`` must be pairwise disjoint, each with lo < hi, and sorted by
    lo. The described set may be empty; emptiness is a *reported* axiom
    failure (see verify_base_axioms), not a construction error. The
    canonical form, ``pieces`` and ``isolated_points``, is computed on
    construction.
    """

    intervals: tuple[tuple[float, float], ...] = ()
    points: tuple[float, ...] = ()
    excluded: tuple[float, ...] = ()

    def __post_init__(self):
        end, point = (lambda **_: ValueError("interval endpoints must be finite"),
                      lambda **_: ValueError("points must be finite"))
        ivs = tuple([(_real(lo, end), _real(hi, end)) for lo, hi in self.intervals])
        pts = tuple([_real(x, point) for x in self.points])
        exc = tuple([_real(x, point) for x in self.excluded])
        for lo, hi in ivs:
            if not lo < hi:
                raise ValueError(f"interval ({lo!r}, {hi!r}) needs lo < hi")
        for a, b in zip(ivs, ivs[1:]):
            if b[0] < a[1]:
                raise ValueError("intervals must be pairwise disjoint and sorted by lo")
        vars(self).update(intervals=ivs, points=pts, excluded=exc)  # the dict __init__ set
        if not ivs:
            # Points only: every point that is not excluded stands alone.
            self._set_canonical((), tuple(sorted(set(pts) - set(exc))))
        elif not pts and not exc:
            # Sorted, disjoint open intervals are already the components.
            self._set_canonical(tuple(Piece(lo, hi, False, False) for lo, hi in ivs), ())
        else:
            self._set_canonical(*self._merge())

    def _set_canonical(self, pieces: tuple[Piece, ...], isolated: tuple[float, ...]) -> None:
        """Store the canonical form: the maximal components, sorted, and the
        lookups that contains and issubset read."""
        vars(self).update(pieces=pieces, isolated_points=isolated,
                          _piece_los=[p.lo for p in pieces], _isolated_set=frozenset(isolated))

    def _merge(self) -> tuple[tuple[Piece, ...], tuple[float, ...]]:
        """The canonical form of any mix of intervals, points and excluded
        points, by a direct merge; the reference that the two closed forms
        in __post_init__ are tested against. Each interval is split at the
        excluded points inside it; each kept point outside every interval
        is a closed piece [x, x]. In sorted order a piece joins the one
        before it when they meet at a point that one of them holds, so a
        kept point closes the piece ends it meets, joins two pieces, or
        stands alone."""
        minus = set(self.excluded)
        runs: list[tuple[float, float, bool, bool]] = []
        for lo, hi in self.intervals:
            cuts = [lo, *sorted(x for x in minus if lo < x < hi), hi]
            runs += [(a, b, False, False) for a, b in zip(cuts, cuts[1:])]
        runs += [(x, x, True, True) for x in set(self.points) - minus
                 if not any(lo < x < hi for lo, hi in self.intervals)]
        runs.sort(key=lambda r: r[:2])
        merged: list[tuple[float, float, bool, bool]] = []
        for r in runs:
            if merged and merged[-1][1] == r[0] and (merged[-1][3] or r[2]):
                prev = merged.pop()
                r = (prev[0], r[1], prev[2], r[3])
            merged.append(r)
        return (tuple(Piece(*r) for r in merged if r[0] != r[1]),
                tuple(r[0] for r in merged if r[0] == r[1]))

    def is_empty(self) -> bool:
        return not self.pieces and not self.isolated_points

    def contains(self, x: float) -> bool:
        i = bisect_right(self._piece_los, x) - 1
        if i >= 0 and self.pieces[i].contains(x):
            return True
        return x in self._isolated_set

    def issubset(self, other: "SetDescriptor") -> bool:
        """Exact containment. A connected piece of self must sit inside a
        single connected component of other."""
        for p in self.pieces:
            j = bisect_right(other._piece_los, p.lo) - 1
            if j < 0 or not other.pieces[j].covers(p):
                return False
        # A point that other holds alone needs no search of its pieces.
        return all(map(other.contains, self._isolated_set - other._isolated_set))

    def same_set(self, other: "SetDescriptor") -> bool:
        return (self.pieces == other.pieces
                and self.isolated_points == other.isolated_points)


class _ClosedForm(SetDescriptor):
    """A SetDescriptor held in closed form: a subclass stores its own shape,
    gives the fields it sets as properties and answers what it can from the
    shape; it equals the SetDescriptor of the same fields, with the same
    hash and repr. The canonical form, _canonical()'s pieces and isolated
    points, is built on its first read."""

    def __getattr__(self, name: str):
        # Reached only while the canonical form is not yet stored.
        if name not in ("pieces", "isolated_points", "_piece_los", "_isolated_set"):
            raise AttributeError(name)
        self._set_canonical(*self._canonical())
        return vars(self)[name]

    def __eq__(self, other):
        if not isinstance(other, SetDescriptor):
            return NotImplemented
        return ((self.intervals, self.points, self.excluded)
                == (other.intervals, other.points, other.excluded))

    __hash__ = SetDescriptor.__hash__

    def __repr__(self) -> str:
        return repr(SetDescriptor(intervals=self.intervals, points=self.points,
                                  excluded=self.excluded))


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _allocate(widths: Sequence[float], m: int, level: int) -> list[int]:
    """Largest-remainder allocation of m sample slots proportional to width."""
    try:
        total = math.fsum(widths)
        quotas = [m * w / total for w in widths]
        counts = [int(math.floor(q)) for q in quotas]
    except (OverflowError, ValueError):  # a width, the total or a quota is not finite
        raise ValueError(f"level {level} is too wide to sample {m} points") from None
    short = m - sum(counts)
    order = sorted(range(len(widths)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    return counts


# Sample sets kept by _sample_spans. A 49-level descent needs 49 per base;
# the limits of one rule check, and every call with the same base, m and
# LimitConfig.seed, reuse them.
_SAMPLE_SETS = 1024


@lru_cache(maxsize=_SAMPLE_SETS)
def _sample_spans(spans: tuple[tuple[float, float], ...], m: int, seed: int,
                  level: int) -> tuple[float, ...]:
    """m distinct points inside the open intervals ``spans`` (sorted, disjoint
    (lo, hi) pairs): a jittered stratified grid per interval, with slots
    allocated proportionally to width. The jitter of stratum i of interval c
    is a counter-based uniform in [0, 1): splitmix64 chained over (seed,
    level, c, i), a fixed function of its arguments, identical across
    platforms and runs; the first three rounds are shared by the interval.
    A pure function of its arguments, so it is memoized."""
    widths = [hi - lo for lo, hi in spans]
    out: list[float] = []
    for c, ((lo, hi), width, n) in enumerate(zip(spans, widths, _allocate(widths, m, level))):
        h = 0x243F6A8885A308D3
        for part in (seed, level, c):
            h = _splitmix64(h ^ (part & _M64))
        for i in range(n):
            u = (_splitmix64(h ^ i) >> 11) * 2.0 ** -53
            jitter = (u - 0.5) * (1.0 - 1e-9)
            x = lo + width * ((i + 0.5 + jitter) / n)
            if not lo < x < hi:
                x = lo + width * ((i + 0.5) / n)  # nudge to stratum center
            out.append(x)
    if len(set(out)) != m:
        raise ValueError(f"level {level} is too thin to hold {m} distinct samples")
    return tuple(out)


def _stratified_sample(desc: SetDescriptor, m: int, seed: int, level: int) -> list[float]:
    """m distinct members of desc: _sample_spans over its interval
    components, or, when it has no interval part, the first m distinct
    stored points it contains (of 0.0 and -0.0, the first stored)."""
    pieces = desc.pieces
    if not pieces:
        pts = [p for p in dict.fromkeys(desc.points) if desc.contains(p)]
        if len(pts) < m:
            raise ValueError(
                f"level {level} has only {len(pts)} sampleable points, need {m}")
        return pts[:m]
    return list(_sample_spans(tuple((p.lo, p.hi) for p in pieces), m, seed, level))


def _int(value: int, name: str) -> int:
    if not isinstance(value, int):
        raise ValueError(f"{name} must be an int")
    return value


class FilterBaseChain:
    """A filter base as a nested indexed family level -> SetDescriptor.

    Nestedness (element(k) ⊆ element(j) for j ≤ k) makes the base axioms hold
    constructively; it is a contract checked by verify_base_axioms rather
    than enforced here, so deliberately broken chains can be built for
    diagnosis. All operations are pure and deterministic given the seed.
    """

    # Every h that sample(k, ...) returns has |h| > inner_ratio * scale(k):
    # set to a geometric chain's ratio, which its subchains keep; None on others.
    # On such a _nested chain |h| < scale(k) too, which fderiv's rule checks read.
    inner_ratio: float | None = None
    # True on a chain nested by construction (every constructor's, and their
    # subchains'), which generated_filter_witness bisects; a hand-built
    # chain's nesting is only a contract.
    _nested = False

    def __init__(self, *, chain_id: str, max_level: int, punctured_at_zero: bool,
                 params: Mapping[str, object],
                 element_fn: Callable[[int], SetDescriptor],
                 scale_fn: Callable[[int], float],
                 sample_fn: Callable[[int, int, int], list[float]] | None = None):
        if _int(max_level, "max_level") < 0:
            raise ValueError("max_level must be >= 0")
        self.id = chain_id
        self.max_level = max_level
        self.punctured_at_zero = punctured_at_zero
        self.params = dict(params)
        self._element_fn = element_fn
        self._scale_fn = scale_fn
        self._sample_fn = sample_fn

    def __repr__(self):
        return f"FilterBaseChain({self.id!r}, max_level={self.max_level})"

    def _check_level(self, k: int) -> None:
        if not 0 <= _int(k, "level") <= self.max_level:
            raise ValueError(f"level {k} outside 0..{self.max_level}")

    def element(self, k: int) -> SetDescriptor:
        if not (isinstance(k, int) and 0 <= k <= self.max_level):  # inline: read on every level
            self._check_level(k)
        found = self._element_fn(k)
        if self.punctured_at_zero and found.contains(0.0):
            raise ValueError(
                f"chain {self.id!r} is flagged punctured_at_zero "
                f"but element({k}) contains 0")
        return found

    def scale(self, k: int) -> float:
        """Shrink scale of level k: the interval half-width for geometric
        bases, the tail start index for sequence bases."""
        if not (isinstance(k, int) and 0 <= k <= self.max_level):  # inline: read on every level
            self._check_level(k)
        return self._scale_fn(k)

    def sample(self, k: int, m: int, seed: int) -> list[float]:
        """m distinct members of element(k), as a fresh list; deterministic
        in (k, m, seed). m and seed must be ints."""
        if not (isinstance(m, int) and isinstance(seed, int)):
            raise ValueError("m and seed must be ints")
        if m < 2:
            raise ValueError("need m >= 2 sample points")
        if not (isinstance(k, int) and 0 <= k <= self.max_level):  # inline: read on every level
            self._check_level(k)
        if self._sample_fn is not None:
            return self._sample_fn(k, m, seed)
        return _stratified_sample(self.element(k), m, seed, level=k)

    def subchain(self, stride: int) -> "FilterBaseChain":
        """The coarser chain k -> element(stride * k), for an int stride >= 1."""
        if _int(stride, "stride") < 1:
            raise ValueError("stride must be >= 1")
        parent = self
        sub = FilterBaseChain(
            chain_id=f"{self.id}/stride={stride}",
            max_level=self.max_level // stride,
            punctured_at_zero=self.punctured_at_zero,
            params={**self.params, "stride": stride},
            element_fn=lambda k: parent.element(stride * k),
            scale_fn=lambda k: parent.scale(stride * k),
            sample_fn=lambda k, m, seed: parent.sample(stride * k, m, seed),
        )
        sub.inner_ratio, sub._nested = self.inner_ratio, self._nested
        return sub


class _Scaled(_ClosedForm):
    """element(k) of a geometric chain at its scale d > 0, with sides =
    (neg, pos): the open intervals (-d, 0) if neg and (0, d) if pos, the
    set that SetDescriptor(intervals=...) of them describes. Built in O(1):
    two elements nest by their sides and scales, membership is two
    comparisons a side, and containment in any other descriptor looks each
    interval up in that one's components; the pieces are built only when
    read."""

    def __init__(self, sides: tuple[bool, bool], d: float):
        attrs = self.__dict__  # past the __setattr__ that raises
        attrs["_sides"], attrs["_d"] = sides, d

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        (neg, pos), d = self._sides, self._d
        return ((-d, 0.0),) * neg + ((0.0, d),) * pos

    def _canonical(self) -> tuple[tuple[Piece, ...], tuple[float, ...]]:
        return tuple(Piece(lo, hi, False, False) for lo, hi in self.intervals), ()

    def is_empty(self) -> bool:
        return False

    def contains(self, x: float) -> bool:
        (neg, pos), d = self._sides, self._d
        return (pos and 0.0 < x < d) or (neg and -d < x < 0.0)

    def issubset(self, other: SetDescriptor) -> bool:
        if isinstance(other, _Scaled):
            (neg, pos), (oneg, opos) = self._sides, other._sides
            return neg <= oneg and pos <= opos and self._d <= other._d
        # An open interval lies in a component of other iff that one's ends
        # enclose its own, whether they are open or closed.
        los, pieces = other._piece_los, other.pieces
        for lo, hi in self.intervals:
            j = bisect_right(los, lo) - 1
            if j < 0 or not (pieces[j].lo <= lo and hi <= pieces[j].hi):
                return False
        return True


def _geometric_chain(kind: str, delta0: float, ratio: float, max_level: int,
                     annulus: Callable[[float, float], tuple[tuple[float, float], ...]]
                     ) -> FilterBaseChain:
    """A chain whose level k has scale d = delta0*ratio**k and element the
    union of the open intervals (-d, 0), unless kind is right, and (0, d),
    unless kind is left, in closed form (_Scaled). Level k is sampled
    straight from annulus(d, e), e = ratio*d: the open intervals of
    element(k) that element(k+1) leaves, so every sampled |h| lies in
    (e, d), and no descriptor is built. Each scale is checked against
    _MIN_SCALE as it is computed, so a chain too deep is rejected at its
    first level below it."""
    bad_delta0, bad_ratio = (lambda **_: ValueError("delta0 must be a positive real"),
                             lambda **_: ValueError("ratio must lie strictly inside (0, 1)"))
    delta0, ratio = _real(delta0, bad_delta0), _real(ratio, bad_ratio)
    if not delta0 > 0.0:
        raise bad_delta0()
    if not 0.0 < ratio < 1.0:
        raise bad_ratio()
    scales: list[float] = []
    scale = delta0
    for k in range(_int(max_level, "max_level") + 1):
        if scale < _MIN_SCALE:
            raise ValueError(f"delta0*ratio**{k} = {scale!r} is below {_MIN_SCALE}; "
                             "reduce max_level")
        scales.append(scale)
        scale *= ratio
    sides = (kind != "right", kind != "left")
    chain = FilterBaseChain(
        chain_id=f"{kind}:delta0={delta0!r},ratio={ratio!r}",
        max_level=max_level,
        punctured_at_zero=True,
        params={"kind": kind, "delta0": delta0, "ratio": ratio, "max_level": max_level},
        element_fn=lambda k: _Scaled(sides, scales[k]),
        scale_fn=scales.__getitem__,
        sample_fn=lambda k, m, seed: list(
            _sample_spans(annulus(scales[k], ratio * scales[k]), m, seed, k)),
    )
    chain.inner_ratio, chain._nested = ratio, True
    return chain


def punctured_base(delta0: float, ratio: float, *, max_level: int = 64) -> FilterBaseChain:
    """Punctured symmetric neighborhoods of 0:
    element(k) = (-delta0*ratio**k, delta0*ratio**k) \\ {0}."""
    return _geometric_chain("punctured", delta0, ratio, max_level,
                            lambda d, e: ((-d, -e), (e, d)))


def right_base(delta0: float, ratio: float, *, max_level: int = 64) -> FilterBaseChain:
    """Right-sided neighborhoods: element(k) = (0, delta0*ratio**k)."""
    return _geometric_chain("right", delta0, ratio, max_level, lambda d, e: ((e, d),))


def left_base(delta0: float, ratio: float, *, max_level: int = 64) -> FilterBaseChain:
    """Left-sided neighborhoods: element(k) = (-delta0*ratio**k, 0)."""
    return _geometric_chain("left", delta0, ratio, max_level, lambda d, e: ((-d, -e),))


@record
class SequenceSpec:
    """A strictly |.|-decreasing null sequence from the closed family

    - powinv:   h_n = c * n**(-p), p > 0
    - geo:      h_n = c * q**n,    0 < |q| < 1
    - piovern:  h_n = c / (pi * n)

    with c != 0 and n >= 1. p is given for powinv only and q for geo only;
    a parameter the kind does not use is a ValueError. c and the parameter
    the kind uses are stored as floats.
    """

    kind: str
    c: float = 1.0
    p: float | None = None
    q: float | None = None

    def __post_init__(self):
        if self.kind not in ("powinv", "geo", "piovern"):
            raise ValueError(f"unknown sequence kind {self.kind!r} "
                             "(expected powinv, geo, or piovern)")
        # each parameter, the kind that uses it (None: all), its range as a float and rule
        for name, used_by, inside, rule in (
                ("c", None, lambda c: c != 0.0, "c must be a nonzero real"),
                ("p", "powinv", lambda p: p > 0.0, "powinv requires p > 0"),
                ("q", "geo", lambda q: -1.0 < q < 1.0 and q != 0.0, "geo requires 0 < |q| < 1")):
            value = getattr(self, name)
            if used_by not in (None, self.kind):
                if value is not None:
                    raise ValueError(f"{self.kind} takes no {name}; only {used_by} does")
            elif value is None or not inside(value := _real(value, lambda **_: ValueError(rule))):
                raise ValueError(rule)
            else:
                object.__setattr__(self, name, value)

    def _set_params(self) -> dict[str, float]:
        """c, then p or q, whichever is set."""
        return {n: getattr(self, n) for n in ("c", "p", "q") if getattr(self, n) is not None}

    def describe(self) -> str:
        return f"seq:kind={self.kind}" + "".join(
            f",{name}={value!r}" for name, value in self._set_params().items())


def _sequence_terms(spec: SequenceSpec, count: int) -> tuple[float, ...]:
    underflow = ValueError("sequence term underflowed to 0 or overflowed; "
                           "shorten the tail or change parameters")
    # The last term's log in closed form, before any term is built: below -789
    # (e**-789 < 2**-1138, 2**-64 of the least subnormal) it is 0 however it
    # rounds. A geo count is capped at 2**1000, where the log is already below
    # -1e285, so that a count no double holds still multiplies as a float.
    log_last = math.log(abs(spec.c)) + (
        min(count, 2**1000) * math.log(abs(spec.q)) if spec.kind == "geo"
        else -spec.p * math.log(count) if spec.kind == "powinv"
        else -math.log(math.pi) - math.log(count))
    if log_last < -789.0:
        raise underflow
    decreasing = ValueError("sequence is not strictly decreasing in magnitude")
    # powinv and piovern take n as a double: n = 2**53 + 1 rounds to 2**53,
    # whose term it repeats, so a longer tail fails before it is built
    if spec.kind != "geo" and count > 2**53:
        raise decreasing
    vals: list[float] = []
    if spec.kind == "geo":
        h = spec.c
        for _ in range(count):
            h = h * spec.q
            vals.append(h)
    elif spec.kind == "powinv":
        vals = [spec.c * math.pow(n, -spec.p) for n in range(1, count + 1)]
    else:
        vals = [spec.c / (math.pi * n) for n in range(1, count + 1)]
    if vals[-1] == 0.0:  # the terms are finite and fall in magnitude: the last is the least
        raise underflow
    for a, b in zip(vals, vals[1:]):
        if not abs(b) < abs(a):
            raise decreasing
    return tuple(vals)


def _magnitude_order(v: float) -> float:
    """The bisect key under which terms strictly decreasing in magnitude
    ascend."""
    return -abs(v)


class _Tail(_ClosedForm):
    """terms[start:] of a term tuple as _sequence_terms returns it (finite,
    non-zero, strictly decreasing in magnitude, of one sign or alternating
    in sign): the set that
    SetDescriptor(points=terms[start:]) describes. A tail is built in O(1):
    two tails of one tuple nest by their starts alone, membership is a
    bisect on magnitude, and the sorted canonical form is built on its
    first read."""

    def __init__(self, terms: tuple[float, ...], start: int):
        attrs = self.__dict__  # past the __setattr__ that raises
        attrs["_terms"], attrs["_start"] = terms, start

    @property
    def points(self) -> tuple[float, ...]:
        return self._terms[self._start:]

    def _canonical(self) -> tuple[tuple[Piece, ...], tuple[float, ...]]:
        return (), tuple(sorted(self.points))

    def is_empty(self) -> bool:
        return self._start == len(self._terms)

    def contains(self, x: float) -> bool:
        i = bisect_left(self._terms, -abs(x), self._start, key=_magnitude_order)
        return i < len(self._terms) and self._terms[i] == x

    def issubset(self, other: SetDescriptor) -> bool:
        if isinstance(other, _Tail) and other._terms is self._terms:
            return self._start >= other._start
        terms, start = self._terms, self._start
        if start < len(terms):
            # The terms keep one sign or alternate, so the tail's smallest and
            # largest points are among its first two and its last. A piece is a
            # maximal interval with the excluded points cut out: if it holds
            # those two points, it holds every point of the tail.
            ends = terms[start:start + 2] + terms[-1:]
            lo, hi = min(ends), max(ends)
            j = bisect_right(other._piece_los, lo) - 1
            if j >= 0 and other.pieces[j].contains(lo) and other.pieces[j].contains(hi):
                return True
        return all(map(other.contains, self.points))


def sequence_base(spec: SequenceSpec, *, max_level: int = 64) -> FilterBaseChain:
    """Tails-of-a-sequence base: element(k) = {h_n : n >= k+1}, truncated at a
    single global index max_level + _TAIL_POINTS so that the truncated tails
    nest exactly. sample() returns the first m members of the tail."""
    cutoff = _int(max_level, "max_level") + _TAIL_POINTS
    values = _sequence_terms(spec, cutoff)

    def sample_fn(k: int, m: int, seed: int) -> list[float]:
        if m > cutoff - k:
            raise ValueError(
                f"level {k} tail truncation holds {cutoff - k} points, need {m}")
        return list(values[k:k + m])

    chain = FilterBaseChain(
        chain_id=spec.describe(),
        max_level=max_level,
        punctured_at_zero=True,
        params={"kind": "seq", "seq_kind": spec.kind, **spec._set_params(),
                "max_level": max_level, "tail_points": _TAIL_POINTS},
        element_fn=lambda k: _Tail(values, k),
        scale_fn=lambda k: float(k + 1),
        sample_fn=sample_fn,
    )
    chain._nested = True
    return chain


def chain_from_elements(chain_id: str, elements: Sequence[SetDescriptor], *,
                        punctured_at_zero: bool = False) -> FilterBaseChain:
    """Hand-built chain over an explicit element list (levels 0..len-1).
    Useful for testing broken bases against verify_base_axioms."""
    elems = tuple(elements)
    if not elems:
        raise ValueError("need at least one element")
    return FilterBaseChain(
        chain_id=chain_id,
        max_level=len(elems) - 1,
        punctured_at_zero=punctured_at_zero,
        params={"kind": "custom", "levels": len(elems)},
        element_fn=lambda k: elems[k],
        scale_fn=float,
    )


@record
class AxiomReport:
    """Verdicts of the two base axioms over levels 0..levels_checked.

    Axiom 1 (no empty element) fails at each level in empty_levels. Axiom 2
    (two elements contain a common element inside their intersection) is
    verified through nestedness: element(max(j,k)) ⊆ element(j) ∩ element(k)
    for every pair, which for j < k reduces to element(k) ⊆ element(j);
    each failing pair (j, k) lands in nesting_failures, ordered by j then k.
    Nesting is checked on consecutive levels first; since exact containment
    is transitive, the pairs are only scanned when one of those checks fails.
    """

    base_id: str
    levels_checked: int
    empty_levels: tuple[int, ...]
    nesting_failures: tuple[tuple[int, int], ...]

    @property
    def axiom1_ok(self) -> bool:
        return not self.empty_levels

    @property
    def axiom2_ok(self) -> bool:
        return not self.nesting_failures

    @property
    def passed(self) -> bool:
        return self.axiom1_ok and self.axiom2_ok


def verify_base_axioms(b: FilterBaseChain, K: int) -> AxiomReport:
    """Check the base axioms exactly over levels 0..K (K <= b.max_level).

    K subset checks when every element(k) ⊆ element(k-1), which implies
    every pair nests; the full scan of all pairs runs only for a broken
    chain, to name each failing pair."""
    if not 0 <= _int(K, "K") <= b.max_level:
        raise ValueError(f"K must lie in 0..{b.max_level}")
    descs = [b.element(k) for k in range(K + 1)]
    empty = tuple(k for k, d in enumerate(descs) if d.is_empty())
    failures: tuple[tuple[int, int], ...] = ()
    if not all(descs[k].issubset(descs[k - 1]) for k in range(1, K + 1)):
        failures = tuple((j, k)
                         for j in range(K + 1)
                         for k in range(j + 1, K + 1)
                         if not descs[k].issubset(descs[j]))
    return AxiomReport(base_id=b.id, levels_checked=K,
                       empty_levels=empty, nesting_failures=failures)


def generated_filter_witness(b: FilterBaseChain, S: SetDescriptor, K: int) -> int | None:
    """Smallest level k <= K with element(k) ⊆ S, or None if no witness.

    On a chain nested by construction element(k) ⊆ S is false below the
    witness and true from it on, so levels 0..K are bisected: at most
    ceil(log2(K + 2)) subset checks. A hand-built chain's levels are
    scanned in order, since its nesting is only a contract."""
    if not 0 <= _int(K, "K") <= b.max_level:
        raise ValueError(f"K must lie in 0..{b.max_level}")
    if b._nested:
        k = bisect_left(range(K + 1), True, key=lambda k: b.element(k).issubset(S))
        return k if k <= K else None
    for k in range(K + 1):
        if b.element(k).issubset(S):
            return k
    return None


def in_generated_filter(b: FilterBaseChain, S: SetDescriptor, K: int) -> bool:
    """True iff S contains some base element of level <= K, i.e. S is seen to
    belong to the filter generated by b. False only means "no witness up to
    level K"."""
    return generated_filter_witness(b, S, K) is not None
