"""Monoid-level verification of the local saturation computations.

The local charts behind tame base change at a point of the special fiber
come in two shapes. Case 1 (a smooth point of a branch of multiplicity a,
after a degree-m extension, a | m) is the image Q of Z x N^2 in
Z^3 / <(1, a, -m)>, written in coordinates q = (u, v, w); the first
generator is a unit, so membership and saturation only involve (v, w):

    q in Q       iff  there is k in Z with v + k a >= 0 and w - k m >= 0,
                 iff  ceil(-v/a) <= floor(w/m);
    q in Q^sat   iff  m v + a w >= 0.

Case 2 (a node joining branches of multiplicities a and b, a | m, b | m)
is the image of N^3 in Z^3 / <(a, b, -m)>:

    q in Q       iff  max(ceil(-u/a), ceil(-v/b)) <= floor(w/m);
    q in Q^sat   iff  m u + a w >= 0 and m v + b w >= 0.

The closed forms are what the package computes with; the _search variants
re-derive them from the definitions with bounded enumeration. The shift
searches scan only the k that the signs allow, and the argument for that
uses nothing but a, b, m >= 1. A branch coordinate x of multiplicity c
(v in case 1; u and v in case 2) rules out every k < -x when x >= 0, as
x + k c <= x + k < 0, and every k <= 0 when x < 0, as x + k c <= x < 0;
so the scan starts at k = -x or k = 1, in case 2 at the larger of the u
and v bounds. Since m >= 1, w - k m strictly decreases in k, so the first
scanned k with w - k m < 0 ends the scan with False; and the range ends
at |w|, as a k > |w| gives w - k m <= w - k < 0. Every inequality is
still tested at every scanned k, and no floor or ceil is taken, so the
searches stay independent of the closed forms they check. The bounds a*m
and m*max(a, b) on the saturation multiplier are exact: off the cone
boundary, scaling by a*m makes the feasible interval for k at least 1
long, and on a boundary facet the denominator of the critical ratio
divides the branch multiplicity. The closed-form membership and
saturation functions accept plain integers or integer arrays (numpy's,
say) componentwise; this module itself imports no numpy. The searches
take integers only. _divisible_case1 takes non-negative ints unchecked:
only the monoid suite calls it, on the box it ranges over.

AffineMonoid covers finitely generated submonoids of N^r for the pushout
lemma: Q = P +_N (1/d) N glued along 1 |-> e in P has canonical forms
(x, n/d) with x in P^gp and 0 <= n < d, and for saturated P,
(x, n/d) in Q^sat iff d x + n e in P (multiplying any witness multiple by
d lands in P's group and saturation finishes the argument). Membership in
P^gp, and the enumeration of P^gp in a box, read the staircase basis that
lattices._column_hnf gives for the generators the constructor checked.

Membership in an AffineMonoid is read off a grid on [0, B]^r that holds
the monoid's points in the box. Since generators are non-negative, every
partial sum of a point of the box lies in the box too, so the grid is the
closure of {0} under adding one generator inside the box. It is built one
generator g at a time, in order of increasing coordinate sum: shifting by
g, 2g, 4g, ... (each shift ORs the shifted grid into the grid) adds every
multiple of g that fits. A set closed under earlier generators stays
closed under them after the multiples of g are added, as
x + n g + h = (x + h) + n g; and a g that is already in the grid is a sum
of earlier generators, which adds nothing, so it is skipped, as is a g
outside the box.

The grid is one Python int used as a bitset: the point x is bit
off(x) = sum_k x_k S^(r-1-k), with stride S = 2(B + 1), so x is read as
r digits in base S. A shift by g adds off(g). For x in the box and
max(g) <= B every digit x_k + g_k is at most 2B < S, so the sum carries
into no other digit: the bit lands at x + g exactly, whether or not x + g
is still in the box. The points that leave the box are the ones with some
digit above B, and a single mask of the box's bits, taken after each
shift, clears them all; so closing under g is grid |= (grid << off(g)) &
mask. The mask is the row of the last coordinate, B + 1 ones, copied
B + 1 times, S^j bits apart, for each earlier coordinate j; a block fits
in S^j bits, so the copies do not overlap, and doubling the block of
copies builds each level in time linear in its size (up to a log factor),
where a repunit product or quotient would cost more. Once built, the int
is kept as its little-endian bytes: a lookup of x then reads one byte,
where a shift of the int would copy all of it.

The pushout scan and is_saturated read the grid by offset alone. off is
linear on all of Z^r, so off(d x + n e) = d off(x) + n off(e) and
off(k x) = k off(x), even when x itself has negative entries; every
vector they read lies in [0, B]^r, so the bit read is that point's. For
each x the scan takes only n >= n0, the least n with d x + n e >= 0,
that is the largest ceil(-d x_i / e_i) over the x_i < 0 (and none at all
when some x_i < 0 has e_i = 0): a smaller n leaves the orthant. A hit
n < d gives d (x + e) >= (d - n) e >= 0, so x + e lies in [0, B]^r too;
it is read once per x with a hit, and a miss names the first hit n. The x
are the points of P^gp in the box, enumerated in itertools.product order
from the staircase basis, one coordinate at a time: each column j is zero
above its pivot row, so the earlier columns fix a partial sum acc, and
x_i ranges over acc_i + k col_j[i] at the pivot row of column j, while a
row that is no pivot admits acc_i alone.

chart_saturation_index checks the pushout of a chart along a degree-n
extension one branch multiplicity c at a time: (t, W) in Z^2 is a
counterexample when e n t + c W >= 0 but e t + c floor(W/n) < 0. With
W = n q + r, 0 <= r < n, the first holds exactly for
t >= -floor(c W / (e n)) and the second fails exactly for
t < -floor(c q / e), both by ceil(-y) = -floor(y); so the row W holds a
counterexample iff floor(c q / e) < floor(c W / (e n)). Replacing q by
q + e adds c to both sides, so the check reads exactly one period, q in
[0, e) and r in [0, n), with no bound on t or W.
"""

import operator
from math import lcm
from numbers import Integral

from ._values import Value, _check_int, _shown
from .errors import (InternalInconsistency, NotSaturatedInput,
                     PreconditionFailed)
from .lattices import _column_hnf

# The largest membership grid, in bits: 8 MiB. A grid on [0, B]^r takes up
# to (2(B + 1))^r bits; the verification suites build at most 4,900.
GRID_BITS = 1 << 26


class SaturationChartCase1(Value):
    """Chart at a smooth point of a branch of multiplicity a, with a | m."""

    __slots__ = _fields = ("a", "m")

    def __init__(self, a: int, m: int):
        _check_int("a", a)
        _check_int("m", m)
        if m % a != 0:
            raise PreconditionFailed(f"a must divide m, got a={_shown(a, str)}, m={_shown(m, str)}")
        set_a, set_m = self._setters
        set_a(self, a)
        set_m(self, m)

    @property
    def branches(self):
        """Multiplicities of the branches through the point."""
        return (self.a,)


class SaturationChartCase2(Value):
    """Chart at a node joining branches of multiplicities a and b, a | m, b | m."""

    __slots__ = _fields = ("a", "b", "m")

    def __init__(self, a: int, b: int, m: int):
        _check_int("a", a)
        _check_int("b", b)
        _check_int("m", m)
        if m % a != 0 or m % b != 0:
            raise PreconditionFailed(f"a and b must divide m, got a={_shown(a, str)}, "
                                     f"b={_shown(b, str)}, m={_shown(m, str)}")
        set_a, set_b, set_m = self._setters
        set_a(self, a)
        set_b(self, b)
        set_m(self, m)

    @property
    def branches(self):
        return (self.a, self.b)


def member_case1(chart, q):
    """Whether q = (u, v, w) lies in the case-1 chart monoid."""
    _, v, w = q
    return -(v // chart.a) <= w // chart.m


def sat_member_case1(chart, q):
    """Whether q = (u, v, w) lies in the saturation of the case-1 monoid."""
    _, v, w = q
    return chart.m * v + chart.a * w >= 0


def member_case2(chart, q):
    """Whether q = (u, v, w) lies in the case-2 chart monoid."""
    u, v, w = q
    f = w // chart.m
    return (-(u // chart.a) <= f) & (-(v // chart.b) <= f)


def sat_member_case2(chart, q):
    """Whether q = (u, v, w) lies in the saturation of the case-2 monoid."""
    u, v, w = q
    return (chart.m * u + chart.a * w >= 0) & (chart.m * v + chart.b * w >= 0)


def member_case1_search(chart, q):
    """Definition-level membership: search the shift k directly, from the
    first k the sign of v allows up to the first k with w - k m < 0.

    For v >= 0 the scan starts at k = -v, as a k < -v gives
    v + k a <= v + k < 0; for v < 0 it starts at k = 1, as a k <= 0 gives
    v + k a <= v < 0. Since m >= 1, w - k m strictly decreases in k, so the
    first k where it is negative ends the scan with False. Every scanned k
    tests both inequalities. A non-integral v or w raises TypeError."""
    _, v, w = q
    a, m = chart.a, chart.m
    if v < 0:
        operator.index(v)  # range() refuses a non-integral -v or w
    for k in range(-v if v >= 0 else 1, abs(w) + 1):
        if w - k * m < 0:
            return False
        if v + k * a >= 0:
            return True
    return False


def sat_member_case1_search(chart, q):
    """Definition-level saturation membership: try multiples up to a*m."""
    u, v, w = q
    return any(member_case1_search(chart, (n * u, n * v, n * w))
               for n in range(1, chart.a * chart.m + 1))


def member_case2_search(chart, q):
    """Definition-level membership: search the shift k directly, from the
    first k the signs of u and v allow up to the first k with w - k m < 0.

    Each branch coordinate x of multiplicity c allows no k below -x when
    x >= 0 (x + k c <= x + k < 0) and no k <= 0 when x < 0
    (x + k c <= x < 0); the scan starts at the larger of the two bounds.
    Since m >= 1, w - k m strictly decreases in k, so the first k where it
    is negative ends the scan with False. Every scanned k tests all three
    inequalities. A non-integral u, v or w raises TypeError."""
    u, v, w = q
    a, b, m = chart.a, chart.b, chart.m
    # max() could drop a non-integral bound, so u and v are checked here;
    # range() refuses a non-integral w
    u, v = operator.index(u), operator.index(v)
    for k in range(max(-u if u >= 0 else 1, -v if v >= 0 else 1), abs(w) + 1):
        if w - k * m < 0:
            return False
        if u + k * a >= 0 and v + k * b >= 0:
            return True
    return False


def sat_member_case2_search(chart, q):
    """Definition-level saturation membership: try multiples up to
    m*max(a, b)."""
    u, v, w = q
    top = chart.m * max(chart.a, chart.b)
    return any(member_case2_search(chart, (n * u, n * v, n * w))
               for n in range(1, top + 1))


def cokernel_generators_case1(chart):
    """Generators (j, floor(j a / m)) of Q^sat over Q in the case-1 chart.

    The pair (j, f) stands for the chart element (0, -f, j): it always lies
    in Q^sat, and it lies in Q itself exactly when f = 0.
    """
    a, m = chart.a, chart.m
    return tuple((j, (j * a) // m) for j in range(1, m))


def _divisible_case1(chart, s, t, i):
    """Divisibility of monomials in the case-1 chart algebra: whether the
    degree-(s, i) element is divisible by t powers of the base parameter,
    for non-negative ints s, t and i (unchecked)."""
    return chart.a * (s - i) - chart.m * t >= 0


def charts_case1(max_m):
    """All case-1 charts with m <= max_m."""
    return [SaturationChartCase1(a, m)
            for m in range(1, max_m + 1)
            for a in range(1, m + 1) if m % a == 0]


def charts_case2(max_m):
    """All case-2 charts with m <= max_m."""
    return [SaturationChartCase2(a, b, m)
            for m in range(1, max_m + 1)
            for a in range(1, m + 1) if m % a == 0
            for b in range(1, m + 1) if m % b == 0]


# -- base-change stability of a chart ----------------------------------------

def _branch_saturated(e, n, c):
    """Whether one branch condition of the degree-(e, n) pushout is
    saturated: no (t, W) in Z^2 has e n t + c W >= 0 > e t + c floor(W/n).
    Exact, on one period of W: see the module docstring."""
    return all(c * (n * q + r) // (e * n) == c * q // e
               for q in range(e) for r in range(n))


def chart_saturation_index(chart):
    """Least degree e of base extension after which the chart stays
    saturated under every further tame extension.

    A further degree-n pushout of the degree-e extension is saturated for
    all n exactly when each branch multiplicity divides e, so the index is
    the lcm of the branch multiplicities; the implementation finds it by
    the exact checks for n = 2, 3 rather than by quoting that fact: at most
    e n steps per (e, n, c), about 1 s at lcm 9,700 on a 2-core x86 host.
    """
    if not isinstance(chart, (SaturationChartCase1, SaturationChartCase2)):
        raise PreconditionFailed(f"not a saturation chart: {_shown(chart)}")
    for e in range(1, lcm(*chart.branches) + 1):
        if all(_branch_saturated(e, n, c)
               for n in (2, 3) for c in chart.branches):
            return e
    raise InternalInconsistency("no stable degree found up to the lcm bound")


# -- finitely generated submonoids of N^r ------------------------------------

def _offset(x, strides):
    """Bit of the point x in a grid with the given strides."""
    return sum(map(operator.mul, x, strides))


def _has(grid, bit):
    """Bit number bit of a grid kept as little-endian bytes."""
    return grid[bit >> 3] >> (bit & 7) & 1


def _close_under(grid, g, bound, strides, mask):
    """The bitset grid on [0, bound]^r with every point x + n g of the box
    added, x in the grid and n >= 1: shifts by g, 2g, 4g, ... while they
    fit. g must be nonzero, or the shifts never leave the box."""
    step = g
    while max(step) <= bound:
        grid |= (grid << _offset(step, strides)) & mask
        step = tuple(2 * c for c in step)
    return grid


def _repeat(bits, width, count):
    """count copies of bits (which fit in width bits) side by side, width
    bits apart: each round doubles the block of copies, so the cost is
    linear in the result's size up to a log count factor."""
    out = shift = 0
    while count:
        if count & 1:
            out |= bits << shift
            shift += width
        bits |= bits << width
        width *= 2
        count >>= 1
    return out


def _box_mask(rank, bound, stride):
    """The bits of every point of [0, bound]^rank, in base-stride digits."""
    mask, width = (1 << (bound + 1)) - 1, 1
    for _ in range(rank - 1):
        width *= stride
        mask = _repeat(mask, width, bound + 1)
    return mask


class AffineMonoid(Value):
    """Submonoid of N^r generated by finitely many non-negative vectors.

    Only ``generators`` is a field; the membership grid (with its bound
    and strides) and the Hermite form of the generators are caches, filled
    on first use. The grid is the box asked for: a lookup past it builds
    the grid of the larger box in its place."""

    _fields = ("generators",)
    __slots__ = _fields + ("_grid", "_grid_bound", "_strides", "_hnf")

    def __init__(self, generators):
        gens = tuple(tuple(g) for g in generators)
        if not gens:
            raise PreconditionFailed("need at least one generator")
        r = len(gens[0])
        if r < 1 or any(len(g) != r for g in gens):
            raise PreconditionFailed("generators must be nonempty vectors of equal length")
        for g in gens:
            for x in g:
                if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                    raise PreconditionFailed(
                        f"generator entries must be non-negative integers, got {_shown(x)}")
        self._setters[0](self, gens)
        object.__setattr__(self, "_grid", None)
        object.__setattr__(self, "_grid_bound", -1)
        object.__setattr__(self, "_strides", None)
        object.__setattr__(self, "_hnf", None)

    @property
    def rank(self):
        return len(self.generators[0])

    def _ensure_grid(self, bound):
        """Build the grid on [0, bound]^r, the box asked for, unless the kept
        grid holds it already. Raises PreconditionFailed, before allocating,
        when that grid would pass GRID_BITS."""
        if bound <= self._grid_bound:
            return
        if (2 * (bound + 1)) ** self.rank > GRID_BITS:
            raise PreconditionFailed(
                f"a membership grid on [0, {_shown(bound, str)}]^{self.rank} would take "
                f"more than GRID_BITS = {GRID_BITS} bits")
        stride = 2 * (bound + 1)
        strides = tuple(stride ** k for k in reversed(range(self.rank)))
        mask = _box_mask(self.rank, bound, stride)
        grid = 1
        # close under one generator at a time, lightest first; see the
        # module docstring for why a generator already in the grid is skipped
        for g in sorted(self.generators, key=sum):
            if max(g) <= bound and not grid >> _offset(g, strides) & 1:
                grid = _close_under(grid, g, bound, strides, mask)
        size = (mask.bit_length() + 7) // 8
        object.__setattr__(self, "_grid", grid.to_bytes(size, "little"))
        object.__setattr__(self, "_grid_bound", bound)
        object.__setattr__(self, "_strides", strides)

    def _vector(self, x):
        """x as a tuple of ints of the monoid's rank."""
        x = tuple(x)
        if len(x) != self.rank:
            raise PreconditionFailed("vector has the wrong length")
        if not all(isinstance(c, Integral) and not isinstance(c, bool) for c in x):
            raise PreconditionFailed(f"vector entries must be integers, got {_shown(x)}")
        return tuple(map(operator.index, x))

    def contains(self, x):
        """Membership in the monoid (non-negative combinations only).
        Raises PreconditionFailed when the grid that holds x would pass
        GRID_BITS."""
        x = self._vector(x)
        if any(c < 0 for c in x):
            return False
        self._ensure_grid(max(x))
        return self._lookup(x)

    def _lookup(self, y):
        """Membership of a vector y of the right length whose entries are
        at most the grid bound; negative entries are simply outside."""
        return min(y) >= 0 and bool(_has(self._grid, _offset(y, self._strides)))

    def _group_basis(self):
        """The staircase basis (columns, pivot rows) of the group, built on
        first use from the generators the constructor checked."""
        if self._hnf is None:
            rows = [[g[i] for g in self.generators] for i in range(self.rank)]
            object.__setattr__(self, "_hnf", _column_hnf(rows))
        return self._hnf

    def group_contains(self, x):
        """Membership in the group generated by the monoid."""
        residual = self._vector(x)
        for col, pr in zip(*self._group_basis()):
            q, r = divmod(residual[pr], col[pr])
            if r:
                return False
            if q:
                residual = [ri - q * ci for ri, ci in zip(residual, col)]
        return not any(residual)

    def _group_points(self, lo, hi):
        """The points of the group in [lo, hi]^r, in itertools.product
        order, one coordinate at a time: see the module docstring."""
        cols, pivots = self._group_basis()
        column = dict(zip(pivots, cols))
        last = self.rank - 1

        def extend(point, acc):
            i = len(point)
            col = column.get(i)
            if col is None:  # the earlier columns force x_i = acc_i
                values = (acc[i],) if lo <= acc[i] <= hi else ()
            else:
                p = col[i]
                values = range(lo + (acc[i] - lo) % p, hi + 1, p)
            if i == last:
                for xi in values:
                    yield point + (xi,)
                return
            nxt = acc
            for xi in values:
                if col is not None:  # x_i = acc_i + k p adds k times col
                    k = (xi - acc[i]) // p
                    nxt = [a + k * c for a, c in zip(acc, col)]
                yield from extend(point + (xi,), nxt)

        return extend((), [0] * (last + 1))

    def is_saturated(self, box):
        """Bounded saturation check on [0, box]^r with multipliers 2 to
        max(2, box); PreconditionFailed when the grid would pass GRID_BITS."""
        _check_int("box", box, 0)
        kmax = max(2, box)
        self._ensure_grid(box * kmax)
        grid, strides = self._grid, self._strides
        for x in self._group_points(0, box):
            bit = _offset(x, strides)  # 0 only at x = 0
            if not bit or _has(grid, bit):
                continue
            if any(_has(grid, k * bit) for k in range(2, kmax + 1)):
                return False
        return True


def verify_lemm_coker(P, e, d, box):
    """Check, over a box, that every saturation element of Q = P +_N (1/d)N
    glued along e already becomes integral after adding e once.

    For each x in [-box, box]^r inside P^gp and each n in [0, d), the
    canonical element q = (x, n/d) lies in Q^sat iff d x + n e lies in P
    (P must be saturated for that criterion, hence NotSaturatedInput);
    whenever it does, the claim is that x + e lies in P. Returns the number
    of saturation elements checked; a counterexample raises
    InternalInconsistency. A box whose grid would pass GRID_BITS raises
    PreconditionFailed. The scan reads the grid by offset and skips the n
    that leave the orthant: see the module docstring.
    """
    if not isinstance(P, AffineMonoid):
        raise PreconditionFailed("P must be an AffineMonoid")
    e = P._vector(e)
    _check_int("d", d)
    _check_int("box", box)
    # one grid holds every vector looked up below: the multiples in
    # is_saturated, d x + n e and x + e
    top = max(e)
    P._ensure_grid(max(box * max(2, box), d * box + (d - 1) * top, box + top))
    if not P._lookup(e):
        raise PreconditionFailed("e must be an element of P")
    if not P.is_saturated(box):
        raise NotSaturatedInput("P is not saturated on the verification box")
    grid, strides = P._grid, P._strides
    step = _offset(e, strides)
    count = 0
    for x in P._group_points(-box, box):
        # the least n with d x + n e >= 0; none when some x_i < 0 has e_i = 0
        n0 = 0
        for xi, ei in zip(x, e):
            if xi < 0:
                if not ei:
                    break
                n0 = max(n0, -(d * xi // ei))
        else:
            at = _offset(x, strides)
            hits = [n for n in range(n0, d) if _has(grid, d * at + n * step)]
            if hits:
                if not _has(grid, at + step):
                    raise InternalInconsistency(
                        f"saturation element (x={x}, n={hits[0]}/{d}) "
                        "with x + e outside P")
                count += len(hits)
    return count


def _cross(p, q):
    return p[0] * q[1] - p[1] * q[0]


def random_cone_monoid(rng):
    """A saturated submonoid of N^2: all lattice points of a random
    two-dimensional cone, generated by its points with coordinates <= 6."""
    while True:
        r1 = (rng.randint(0, 3), rng.randint(0, 3))
        r2 = (rng.randint(0, 3), rng.randint(0, 3))
        if any(r1) and any(r2):
            break
    if _cross(r1, r2) < 0:
        r1, r2 = r2, r1

    def in_cone(p):
        if _cross(r1, r2) == 0:
            return _cross(r1, p) == 0 and p[0] * r1[0] + p[1] * r1[1] >= 0
        return _cross(r1, p) >= 0 and _cross(p, r2) >= 0

    gens = [(x, y) for x in range(7) for y in range(7)
            if (x, y) != (0, 0) and in_cone((x, y))]
    return AffineMonoid(tuple(gens))
