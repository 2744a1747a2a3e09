"""Stage-enumerated equivalence relations over a finite index bound.

A CeerTable holds a growing list of asserted pairs, each tagged with the
stage at which it was enumerated, and answers queries against the
equivalence closure of the pairs visible at any given stage.  Tables are
the common currency of the package: joins, products and pullbacks all
produce fresh tables, and the construction runners enumerate into them.

The closure lives in one union-by-size forest without path compression.
Each node records the stage at which it was attached under another (a
root's stamp is NaN, which no stage reaches); since pairs arrive in stage
order, those stamps never decrease going up a path, and the forest at
stage s is the current one cut at every edge stamped after s.  Queries at
past stages are therefore climbs, not replays, and nothing is cached
between calls; a query at `inf` (or `1e309`) is answered as at the last
stage and one at NaN as at a stage before every pair, with no test of the
stage.  Every other stage view reads NaN so too, as a stage before every
entry: `StageSet.count_at` and `StagedPresentation.census_at` count
nothing there, and `staged_abelian_wp` applies no relation.  The forest
stores only the indices up to the largest one a pair names: any later
index was never merged and is its own root, so a table's bound is
checked, never allocated, and its memory follows its pairs, up to
the constant INDEX_CEILING on the indices pairs may name.  `product` and
`pullback` walk pairs too, in union-finds of their own rooted at each
class's least member: their work is the pairs they read plus the pairs
they assert (plus the map's bound, for `pullback`), never pairs or stages
times a bound.  A partition snapshot (`roots_at`, `classes_at`) is one
read of the stamps: one pass over the named indices, each climbing inline
while its edges are stamped at or before the stage, then the later
indices as singletons, so it takes time linear in a bound, as its output
does.  `verify_reduction` climbs once per index
it reads and never asks `related` pair by pair, so it takes time linear in
its bound plus the pairs its report lists.

Equality of two indices is a positive, stage-monotone fact.  Inequality
never is: a pair that is unrelated at stage s may become related later,
so nothing in this module ever reports a negative fact as conclusive.
Mutation is single-threaded.  A snapshot shares nothing with its table:
`roots_at` returns a tuple and `classes_at` fresh lists.
"""
from __future__ import annotations

import heapq
import json
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, groupby, islice
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

from .pairing import pair

__all__ = [
    "INDEX_CEILING",
    "IndexCeilingError",
    "BoundError",
    "StageRegressionError",
    "PartialityError",
    "StageSet",
    "CeerTable",
    "check_bound",
    "ReductionFn",
    "FunctionalStub",
    "ReductionReport",
    "uniform_join",
    "product",
    "pullback",
    "verify_reduction",
]


class StageRegressionError(ValueError):
    """A pair was asserted at a stage earlier than one already recorded."""


class PartialityError(ValueError):
    """A reduction function was consulted outside its table."""


# Ceiling on the indices a table's pairs may name.  The forest stores every
# index up to the largest named one: about 50 MB peak RSS at the ceiling.
INDEX_CEILING = 1_000_000


class IndexCeilingError(ValueError):
    """A pair named an index at or above INDEX_CEILING."""


class BoundError(IndexError, ValueError):
    """An index outside a table's bound: an IndexError to code that indexes
    a table, and a ValueError, as every refusal of input is, to a command
    that read the index from a file or from its arguments."""


class StageSet:
    """A set of values enumerated over stages.

    Entry i is (value, stage) in enumeration order with nondecreasing
    stages; at_stage(s) returns the values visible by stage s, still in
    enumeration order and deduplicated.  Values and stages are two parallel
    sequences: lists for a set built entry by entry, and sequences that
    compute item i when it is indexed for a ``generated`` one, which holds
    O(1) state whatever its length.
    """

    def __init__(self, entries: Iterable[tuple[Any, int]] = ()):
        self._values: Sequence[Any] = []
        self._stages: Sequence[int] = []
        for value, stage in entries:
            self.add(value, stage)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[Any, int]]) -> "StageSet":
        """Build from possibly unordered rows; sorts by stage, stable."""
        ordered = sorted(enumerate(rows), key=lambda t: (t[1][1], t[0]))
        return cls((value, stage) for _, (value, stage) in ordered)

    @classmethod
    def generated(cls, values: Sequence[Any], n: int, start: int = 0,
                  period: int = 1, rate: int = 1) -> "StageSet":
        """The read-only set of the n entries (values[i], start + (i // rate)
        * period); values must compute its items on demand too.  period and
        rate must be at least 1."""
        out = cls()
        out._values = values
        out._stages = _StageProgression(max(n, 0), start, period, rate)
        return out

    def add(self, value: Any, stage: int) -> None:
        """Append an entry; a stage below the last one, or NaN, which no
        stage orders, is refused."""
        stages = self._stages
        if stages:
            if not stage >= stages[-1]:
                raise StageRegressionError(
                    f"entry at stage {stage} after stage {stages[-1]}")
        elif stage != stage:
            raise StageRegressionError(f"entry at stage {stage}, which no "
                                       "stage orders")
        self._values.append(value)
        self._stages.append(stage)

    def entries(self) -> tuple[tuple[Any, int], ...]:
        return tuple(zip(self._values, self._stages))

    def __getitem__(self, i: int) -> tuple[Any, int]:
        return self._values[i], self._stages[i]

    def at_stage(self, stage: int) -> list[Any]:
        seen = set()
        out = []
        for value in islice(self._values, self.count_at(stage)):
            if value not in seen:
                seen.add(value)
                out.append(value)
        return out

    def count_at(self, stage: int) -> int:
        """Number of raw entries (including repeats) visible by stage: every
        entry at `inf` and, as at a stage before every entry, none at NaN,
        which no stage orders."""
        if isinstance(self._stages, list):
            # bisection puts NaN past every entry
            return bisect_right(self._stages, stage) if stage == stage else 0
        return self._stages.count_upto(stage)

    def __len__(self) -> int:
        return len(self._stages)

    def __repr__(self) -> str:
        return f"StageSet(values={self._values!r}, stages={self._stages!r})"


class _StageProgression:
    """The stages start + (i // rate) * period of n entries, by arithmetic."""

    __slots__ = ("n", "start", "period", "rate")

    def __init__(self, n: int, start: int, period: int, rate: int):
        self.n, self.start, self.period, self.rate = n, start, period, rate

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if i < 0:
            i += self.n
        if not 0 <= i < self.n:
            raise IndexError("StageSet index out of range")
        return self.start + (i // self.rate) * self.period

    def count_upto(self, stage: int) -> int:
        """The number of entries whose stage is at most stage: all of them
        at `inf`, none at `-inf` and none at NaN, as at a stage before
        every entry."""
        steps = (stage - self.start) // self.period + 1
        if steps != steps:  # a float division of an infinity or a NaN
            return self.n if stage > self.start else 0
        return min(self.n, max(0, steps * self.rate))

    def __repr__(self) -> str:
        return (f"_StageProgression(n={self.n}, start={self.start}, "
                f"period={self.period}, rate={self.rate})")


# the stamp of a root: NaN, which no stage reaches, `inf` included, and the
# one object every root shares, so `is _ROOT` tells a root
_ROOT = float("nan")

# the line `CeerTable.dump` writes, each int in JSON's grammar and ASCII
# digits, so `int` of each gives what `json.loads` does; `load` matches a
# whole block of such lines, newlines included, at once, and leaves only
# their ints by deleting every other character but the blanks and newlines
# between them
_INT = r"-?(?:0|[1-9][0-9]*)"
_DUMP_LINE = re.compile(
    rf'\{{"a": ({_INT}), "b": ({_INT}), "s": ({_INT})\}}\n?')
_DUMP_BLOCK = re.compile(
    rf'(?:\{{"a": {_INT}, "b": {_INT}, "s": {_INT}\}}\n)*')
_DUMP_KEYS = str.maketrans("", "", '{"abs:,}')
# the characters `load` asks `readlines` for at a time: a block of whole
# lines, about 2,000 of them as `dump` writes a bound-4,000 table
_LOAD_BLOCK = 1 << 16


def _decoded(lines: list[str], n: int) -> list[int]:
    """The ints a0, b0, s0, a1, ... of the pairs on `lines`, numbered from
    n + 1, read one line at a time: a line as `dump` writes it, with or
    without its newline, by one `_DUMP_LINE` match, a blank one skipped, and
    any other by `json.loads`, with its checks and messages."""
    ints: list[int] = []
    match = _DUMP_LINE.fullmatch
    for n, line in enumerate(lines, start=n + 1):
        m = match(line)
        if m is not None:
            ints += int(m[1]), int(m[2]), int(m[3])
        elif line.strip():
            try:
                rec = json.loads(line)
            except RecursionError:
                raise ValueError(f"dump line {n} nests too deeply") from None
            if type(rec) is not dict:
                raise ValueError(f"dump line {n}: not a JSON object")
            if missing := [key for key in "abs" if key not in rec]:
                raise ValueError(f'dump line {n}: field "{missing[0]}" is '
                                 "missing")
            row = a, b, s = rec["a"], rec["b"], rec["s"]
            if type(a) is not int or type(b) is not int or type(s) is not int:
                key = next(k for k, v in zip("abs", row) if type(v) is not int)
                raise ValueError(
                    f'dump line {n}: field "{key}" is not an integer')
            ints += row
    return ints


def check_bound(bound: int) -> int:
    """`bound`, once checked to be one a table may take: a nonnegative int
    (a bool is none)."""
    if type(bound) is not int:
        raise ValueError(f"bound {bound!r} is not an integer")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    return bound


class CeerTable:
    """Equivalence relation on [0, bound) enumerated stage by stage."""

    def __init__(self, bound: int = 4096):
        self.bound = check_bound(bound)
        self._pairs: list[tuple[int, int, int]] = []
        # indices up to the largest one a pair names; any later one is a root
        self._parent: list[int] = []  # read only below an attached node
        self._size: list[int] = []
        self._stamp: list[float] = []  # stage at which x was attached, or _ROOT

    # -- construction ------------------------------------------------

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[int, int, int]], bound: int
    ) -> "CeerTable":
        """The table `assert_pair` builds from the pairs one by one, with
        the same error on the first bad one.  Pairs that are tuples or lists
        of three ints go through `load`'s merge loop instead."""
        table = cls(bound)
        rows = list(pairs)
        if set(map(type, rows)) <= {tuple, list} and set(map(len, rows)) <= {3}:
            ints = list(chain.from_iterable(rows))
            if ints and set(map(type, ints)) <= {int}:
                a, b = ints[0::3], ints[1::3]
                return table._fill(a, b, ints[2::3], max(max(a), max(b)))
        for a, b, s in rows:
            table.assert_pair(a, b, s)
        return table

    def _fill(self, a: list[int], b: list[int], s: list[int],
              top: int) -> "CeerTable":
        """This new table holding the pairs zip(a, b, s), at least one, whose
        largest index is `top`, as `assert_pair` builds it from them one by
        one.

        Checks over whole columns come first: every index named below the
        bound and the ceiling, and the stages in order (ints only reach
        here, so no NaN).  If they hold, one inline merge loop builds the
        forest, with `assert_pair`'s climbs and union by size, and the pairs
        it walks become `_pairs`; if not, `assert_pair` takes the pairs one
        by one, to raise the first bad one's error."""
        if not (min(min(a), min(b)) >= 0 and top < self.bound
                and top < INDEX_CEILING and s == sorted(s)):
            for row in zip(a, b, s):
                self.assert_pair(*row)
            return self
        named = top + 1
        parent, size, stamp = [0] * named, [1] * named, [_ROOT] * named
        self._pairs = pairs = list(zip(a, b, s))
        for a, b, s in pairs:
            while stamp[a] <= s:
                a = parent[a]
            while stamp[b] <= s:
                b = parent[b]
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                stamp[b] = s
                size[a] += size[b]
        self._parent, self._size, self._stamp = parent, size, stamp
        return self

    def _check_index(self, n: int) -> None:
        if not (0 <= n < self.bound):
            raise BoundError(f"index {n} out of bound {self.bound}")

    def assert_pair(self, a: int, b: int, stage: int) -> "CeerTable":
        """Record that a and b are related from `stage` onward."""
        bound = self.bound
        if not (0 <= a < bound and 0 <= b < bound):
            self._check_index(a)  # raises the first index's error
            self._check_index(b)
        pairs, parent, stamp = self._pairs, self._parent, self._stamp
        if pairs:
            if not stage >= pairs[-1][2]:  # NaN included
                raise StageRegressionError(
                    f"pair at stage {stage} after stage {pairs[-1][2]}")
        elif stage != stage:
            raise StageRegressionError(f"pair at stage {stage}, which no "
                                       "stage orders")
        named = len(stamp)
        if a >= named or b >= named:
            if max(a, b) >= INDEX_CEILING:
                raise IndexCeilingError(
                    f"pair ({a}, {b}) names index {max(a, b)}, not below "
                    f"the table index ceiling {INDEX_CEILING}")
            grow = max(a, b) + 1 - named
            parent.extend([0] * grow)
            self._size.extend([1] * grow)
            stamp.extend([_ROOT] * grow)
        pairs.append((a, b, stage))
        # both indices are named now and no stamp exceeds `stage`, so these
        # inline climbs (`_top`'s) reach the current roots
        while stamp[a] <= stage:
            a = parent[a]
        while stamp[b] <= stage:
            b = parent[b]
        if a != b:
            size = self._size
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            stamp[b] = stage
            size[a] += size[b]
        return self

    # -- queries -----------------------------------------------------

    @property
    def pairs(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(self._pairs)

    @property
    def pair_count(self) -> int:
        """len(pairs), without copying them."""
        return len(self._pairs)

    @property
    def last_stage(self) -> int:
        return self._pairs[-1][2] if self._pairs else 0

    def stages(self) -> tuple[int, ...]:
        return tuple(dict.fromkeys(s for _, _, s in self._pairs))

    def _top(self, x: int, stage: int) -> int:
        """Root of x's tree in the forest as it stood at `stage`."""
        parent, stamp = self._parent, self._stamp
        try:
            while stamp[x] <= stage:
                x = parent[x]
        except IndexError:  # x is past every named index: its own root
            pass
        return x

    def roots_at(self, stage: int) -> tuple[int, ...]:
        """Canonical partition snapshot: roots_at(s)[i] = min of i's class.

        One pass over the named indices, each climbing the forest as it
        stood at `stage` inline; every later index is its own least member.
        At `inf` this is the last stage's snapshot, at NaN the singletons.
        """
        parent, stamp = self._parent, self._stamp
        least: dict[int, int] = {}
        out = []
        for n in range(len(stamp)):
            x = n
            while stamp[x] <= stage:
                x = parent[x]
            out.append(least.setdefault(x, n))
        out.extend(range(len(stamp), self.bound))
        return tuple(out)

    def related(self, a: int, b: int, stage: int) -> bool:
        """Whether a and b are related at `stage`: at `inf` as at the last
        stage, at NaN only when a == b, as before every pair.

        Both indices are checked in one comparison, and each root is found
        by `_top`'s climb written inline; an index past every named one is
        its own root."""
        bound = self.bound
        if not (0 <= a < bound and 0 <= b < bound):
            self._check_index(a)  # raises the first index's error
            self._check_index(b)
        if a == b:
            return True
        parent, stamp = self._parent, self._stamp
        try:
            while stamp[a] <= stage:
                a = parent[a]
        except IndexError:
            pass
        try:
            while stamp[b] <= stage:
                b = parent[b]
        except IndexError:
            pass
        return a == b

    def first_related_stage(self, a: int, b: int) -> int | None:
        """Least recorded stage at which a and b are related, None if never.

        That is the largest stamp on the tree path from a to b; stamps grow
        going up, so on each side it is the stamp of the last edge climbed.
        """
        self._check_index(a)
        self._check_index(b)
        if a == b:
            return 0
        parent, stamp = self._parent, self._stamp
        if max(a, b) >= len(stamp):
            return None  # an index no pair names stays a singleton
        above_a: dict[int, int] = {}  # ancestor of a -> largest stamp up to it
        x, last = a, 0
        while True:
            above_a[x] = last
            if stamp[x] is _ROOT:
                break
            x, last = parent[x], stamp[x]
        x, last = b, 0
        while x not in above_a:
            if stamp[x] is _ROOT:
                return None
            x, last = parent[x], stamp[x]
        return max(last, above_a[x])

    def classes_at(self, stage: int) -> list[list[int]]:
        """Partition at a stage as sorted class lists, sorted by least member.

        One pass over the named indices: each climbs the forest as it stood
        at `stage` inline and joins the list of its tree's root, so a class
        is met first at its least member and filled in ascending order.
        Every later index follows as a singleton.  The lists are fresh.
        At `inf` this is the last stage's partition, at NaN the singletons.
        """
        parent, stamp = self._parent, self._stamp
        buckets: dict[int, list[int]] = {}
        for n in range(len(stamp)):
            x = n
            while stamp[x] <= stage:
                x = parent[x]
            members = buckets.get(x)
            if members is None:
                buckets[x] = [n]
            else:
                members.append(n)
        out = list(buckets.values())
        out.extend([n] for n in range(len(stamp), self.bound))
        return out

    # -- serialization -----------------------------------------------

    def dump(self, fp) -> None:
        """Write one JSON line per asserted pair, in enumeration order,
        4,096 lines a write, so the text is never held whole.

        Each line is ``{"a": A, "b": B, "s": S}``: the indices and the stage
        are ints, as `assert_pair` takes them and `load` requires, and these
        are the bytes ``json.dumps(..., sort_keys=True)`` gives for ints.
        """
        pairs = self._pairs
        for lo in range(0, len(pairs), 4096):
            fp.write("".join([f'{{"a": {a}, "b": {b}, "s": {s}}}\n'
                              for a, b, s in pairs[lo:lo + 4096]]))

    def dumps(self) -> str:
        """The text `dump` writes, as one string."""
        import io

        buf = io.StringIO()
        self.dump(buf)
        return buf.getvalue()

    @classmethod
    def load(cls, fp, bound: int | None = None) -> "CeerTable":
        """A dump as a table, by default bounded just past its largest index;
        that index must lie below the ceiling, checked before the table is
        allocated.  Every `a`, `b` and `s` must be a JSON integer (not
        true, 1.5, 2.0 or "3").

        The file is read in blocks of whole lines, `_LOAD_BLOCK` characters
        a `readlines` call, so its text is never held whole.  A block whose
        every line is exactly what `dump` writes, newline included, is
        accepted by one match of `_DUMP_BLOCK`, and its ints are read in
        one pass: `translate` leaves them, `split` and `int` convert them.
        Any other block is read line by line (`_decoded`), with the line
        numbers, `json.loads` calls, checks and messages of a line-by-line
        reader.  Both follow JSON's own integer grammar in ASCII digits, so
        `int` of each field gives what `json.loads` gives, the same
        ValueError past 4,300 digits at the same line included.  The pairs
        are sorted by stage, stably, only when a hand-made file lists them
        out of order; `_fill` then builds the forest, as `from_pairs` does."""
        a, b, s = [], [], []
        n = 0  # the lines read so far
        while lines := fp.readlines(_LOAD_BLOCK):
            block = "".join(lines)
            if _DUMP_BLOCK.fullmatch(block):
                ints = list(map(int, block.translate(_DUMP_KEYS).split()))
            else:
                ints = _decoded(lines, n)
            n += len(lines)
            a += ints[0::3]
            b += ints[1::3]
            s += ints[2::3]
        top = max(max(a), max(b)) if a else 0
        if top >= INDEX_CEILING:
            raise ValueError(f"index {top} implies a bound above the ceiling "
                             f"{INDEX_CEILING}")
        table = cls(top + 1 if bound is None else bound)
        if not a:
            return table
        if s != sorted(s):
            order = sorted(range(len(s)), key=s.__getitem__)  # stable
            a, b, s = ([col[i] for i in order] for col in (a, b, s))
        return table._fill(a, b, s, top)

    @classmethod
    def loads(cls, text: str, bound: int | None = None) -> "CeerTable":
        import io

        return cls.load(io.StringIO(text), bound=bound)

    def __repr__(self) -> str:
        return f"CeerTable(bound={self.bound}, pairs={len(self._pairs)})"


@dataclass
class ReductionFn:
    """A total-below-bound computable map given as a finite table.

    table maps argument -> (value, convergence stage).  Entries never
    change once recorded; consulting a missing argument is a
    PartialityError naming the argument.
    """

    table: dict[int, tuple[int, int]]
    totality_bound: int

    @classmethod
    def identity(cls, bound: int) -> "ReductionFn":
        return cls({n: (n, 0) for n in range(bound)}, bound)

    def __call__(self, n: int) -> int:
        entry = self.table.get(n)
        if entry is None:
            raise PartialityError(f"reduction function diverges on argument {n}")
        return entry[0]


@dataclass(frozen=True)
class FunctionalStub:
    """Monotone stand-in for an oracle computation on its own index.

    The stub halts at every stage >= converge_stage once all
    required_pairs are present in the oracle; the result is `use`, which
    bounds the indices of every oracle pair consulted.  Adding pairs or
    stages never turns a halt back into divergence.
    """

    ident: int
    converge_stage: int
    use: int
    required_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for a, b in self.required_pairs:
            if max(a, b) > self.use:
                raise ValueError(
                    f"required pair ({a},{b}) exceeds declared use {self.use}"
                )

    def evaluate(
        self, related: Callable[[int, int], bool], stage: int
    ) -> int | None:
        """Return the use on halt, None while diverging."""
        if stage < self.converge_stage:
            return None
        for a, b in self.required_pairs:
            if not related(a, b):
                return None
        return self.use


@dataclass
class ReductionReport:
    """Outcome of checking f: E -> R below a bound.

    positive_violations are conclusive: i E j held but the images never
    became R-related.  unaligned_so_far pairs have R-related images while
    i, j are not yet E-related; since inequivalence is not a decidable
    fact, these are reported as inconclusive, never as violations.
    """

    bound: int
    stage: int
    positive_violations: list[tuple[int, int]] = field(default_factory=list)
    unaligned_so_far: list[tuple[int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.positive_violations

    def write(self, out: TextIO) -> None:
        """Write the report to `out` as one line, 4,096 pairs a write, so its
        text is never held whole."""
        parts = [(pairs, what) for pairs, what in (
            (self.positive_violations, "positive violation(s)"),
            (self.unaligned_so_far, "pair(s) unaligned so far (inconclusive)"))
            if pairs]
        for n, (pairs, what) in enumerate(parts):
            out.write(f"{'; ' * n}{len(pairs)} {what}: ")
            for lo in range(0, len(pairs), 4096):
                out.write(", " * (lo > 0) + ", ".join(
                    f"({a},{b})" for a, b in pairs[lo:lo + 4096]))
        out.write("\n" if parts else "no violations\n")


# -- operations -------------------------------------------------------


def uniform_join(
    columns: Sequence[CeerTable], bound: int | None = None
) -> CeerTable:
    """Join the columns along the fixed pairing: <j,n> ~ <j,m> iff n ~ m in column j.

    Indices not of the form <j, n> with n below column j's bound stay
    singletons.
    """
    if bound is None:
        bound = 0
        for j, col in enumerate(columns):
            if col.bound > 0:
                bound = max(bound, pair(j, col.bound - 1) + 1)
    joined = CeerTable(bound)
    merged: list[tuple[int, int, int, int]] = []
    for j, col in enumerate(columns):
        for a, b, s in col.pairs:
            merged.append((s, j, a, b))
    merged.sort(key=lambda t: (t[0], t[1]))
    for s, j, a, b in merged:
        ca, cb = pair(j, a), pair(j, b)
        if ca < bound and cb < bound:
            joined.assert_pair(ca, cb, s)
    return joined


def _least(parent: list[int], x: int) -> int:
    """The root of x in a forest rooted at each class's least member,
    halving the path it climbs."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _join(parent: list[int], x: int, y: int) -> tuple[int, int]:
    """Merge the classes of x and y in such a forest: the roots it keeps
    and absorbs, one root twice if x and y were already one class."""
    keep, gone = sorted((_least(parent, x), _least(parent, y)))
    parent[gone] = keep
    return keep, gone


def product(left: CeerTable, right: CeerTable) -> CeerTable:
    """Product relation: <a1,b1> ~ <a2,b2> iff a1 ~ a2 on the left and b1 ~ b2 on the right.

    The product is generated by <a1,b> ~ <a2,b> for each left pair and each
    b below the right bound, and by <a,b1> ~ <a,b2> for each right pair and
    each a below the left bound.  The factors' pairs are walked merged by
    stage, left first within a stage, each side in a union-find rooted at
    each class's least member.  A pair inside one class of its side asserts
    nothing; a pair that joins two asserts its generator at the least member
    of each class of the other side, in ascending order, the generators the
    output does not yet relate.  So the result holds one pair per class
    merge, and the work is the pairs walked plus the pairs asserted.
    """
    bl, br = left.bound, right.bound
    if bl == 0 or br == 0:
        return CeerTable(0)
    out = CeerTable(pair(bl - 1, br - 1) + 1)
    # per side, over the indices its pairs name: the forest, and its class
    # leasts in ascending order, with those merged away since it was read
    parents = [list(range(len(t._stamp))) for t in (left, right)]
    leasts = [list(p) for p in parents]
    sides = heapq.merge(((s, 0, a, b) for a, b, s in left.pairs),
                        ((s, 1, a, b) for a, b, s in right.pairs))
    for s, side, x, y in sides:
        keep, gone = _join(parents[side], x, y)
        if keep == gone:
            continue
        other = parents[1 - side]
        live = leasts[1 - side] = [k for k in leasts[1 - side] if other[k] == k]
        for k in chain(live, range(len(other), bl if side else br)):
            c, d = (pair(k, x), pair(k, y)) if side else (pair(x, k), pair(y, k))
            out.assert_pair(c, d, s)
    return out


def pullback(f: ReductionFn, target: CeerTable, bound: int | None = None) -> CeerTable:
    """Relation induced on [0, bound) by i ~ j iff f(i) ~ f(j) in target.

    Like product, the result holds one pair per class merge.  At the first
    stage, min(0, the target's least stage), each index is paired with the
    least one mapped into its target class.  Each later stage walks only
    the target's pairs at that stage, in a union-find rooted at each class's
    least member: the least index mapped into each class it absorbs is
    paired with the least one mapped into the merged class, in ascending
    order.  So the work is the bound plus the target's pairs plus the pairs
    asserted.
    """
    if bound is None:
        bound = f.totality_bound
    images = [f(n) for n in range(bound)]
    for fi in images:
        target._check_index(fi)
    out = CeerTable(bound)
    pairs = target.pairs
    first = min(0, pairs[0][2]) if pairs else 0
    start = bisect_right(pairs, first, key=itemgetter(2))
    parent = list(range(len(target._stamp)))  # the indices pairs name
    for a, b, _ in pairs[:start]:
        _join(parent, a, b)
    least: dict[int, int] = {}  # class root -> least index mapped into it
    for i, fi in enumerate(images):
        j = least.setdefault(_least(parent, fi) if fi < len(parent) else fi, i)
        if j != i:
            out.assert_pair(j, i, first)
    for s, stage_pairs in groupby(pairs[start:], key=itemgetter(2)):
        absorbed = []
        for a, b, _ in stage_pairs:
            keep, gone = _join(parent, a, b)
            if keep == gone:
                continue
            lg = least.pop(gone, None)
            if lg is not None:
                lk = least.setdefault(keep, lg)
                if lk != lg:
                    least[keep] = min(lk, lg)
                    absorbed.append(max(lk, lg))
        for i in sorted(absorbed):
            out.assert_pair(least[_least(parent, images[i])], i, s)
    return out


def _split_pairs(outer: Sequence[Any], inner: Sequence[Any]) -> list[tuple[int, int]]:
    """The pairs i < j with outer[i] == outer[j] but inner[i] != inner[j], in
    order.  Each index links to the next member of its outer class and to
    the next one whose inner label differs from its own; a walk from i jumps
    over a run of i's own label in one step and lands on a pair or past the
    class, so the work is linear in len(outer) plus the pairs listed."""
    n = len(outer)
    nxt = [-1] * n   # the next member of i's outer class
    skip = [-1] * n  # the next member of i's outer class not labelled inner[i]
    later: dict[Any, int] = {}
    for i in range(n - 1, -1, -1):
        j = later.get(outer[i], -1)
        later[outer[i]] = i
        if j >= 0:
            nxt[i] = j
            skip[i] = j if inner[j] != inner[i] else skip[j]
    pairs = []
    for i in range(n):
        label, j = inner[i], nxt[i]
        while j >= 0:
            if inner[j] == label:
                j = skip[j]
            else:
                pairs.append((i, j))
                j = nxt[j]
    return pairs


def verify_reduction(
    f: ReductionFn, source: CeerTable, target: CeerTable, bound: int, stage: int
) -> ReductionReport:
    """Check f as a reduction from source to target on indices below bound.

    Reads three partition snapshots, each at the indices the check needs:
    the target's at its last stage through the images f(0..bound-1), and
    the source's at `stage` and at max(its last stage, `stage`).  Positive
    violations are listed inside the source's classes at `stage`, unaligned
    pairs inside the images' classes.  An index out of a table's bound
    raises the IndexError that the pairs (0, j) meet first, in the order
    f(0), f(j), 0, j, for j = 1, 2, ...; below bound 2 there is no pair and
    nothing is checked.
    """
    for n in range(bound):
        if n not in f.table:
            raise PartialityError(f"reduction function diverges on argument {n}")
    if bound < 2:
        return ReductionReport(bound=bound, stage=stage)
    images = [f(n) for n in range(bound)]
    target._check_index(images[0])
    for j in range(1, bound):
        target._check_index(images[j])
        if j == 1:
            source._check_index(0)
        source._check_index(j)
    final_t, late = target.last_stage, max(source.last_stage, stage)
    image_roots = [target._top(fi, final_t) for fi in images]
    roots = [source._top(i, stage) for i in range(bound)]
    late_roots = roots if late == stage else [
        source._top(i, late) for i in range(bound)]
    return ReductionReport(bound, stage,
                           _split_pairs(roots, image_roots),
                           _split_pairs(image_roots, late_roots))
