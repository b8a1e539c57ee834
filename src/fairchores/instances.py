"""Core data model: chore-division instances, orderings, and allocations.

Valuations are non-negative integers (chores cost effort, larger means
worse). All threshold arithmetic is exact and never floating point:
thresholds are rationals, and since loads are integers, code that
compares loads against a rational cap t may compare them against the
integer floor(t) instead, which is the same test.

The package has three input rules. ``_as_int`` is the integer rule for
every count, index, limit, threshold and share a caller passes, for each
chore index of an ``Allocation``, and, through ``_check_values``, for
every value of a row: a non-bool integer from a lower to an upper bound,
``sys.maxsize`` unless the site says otherwise (``MAX_VALUE`` for values).
A bad value raises "... must be an integer, got ...", "... must be at
least 0" or "... must be at most 9223372036854775807". ``_as_cap`` is the
caps rule for ``ThresholdVector`` and ``check_amms``'s alpha: a non-bool
``int`` or ``Fraction``, at least 0. ``_as_type`` is the object rule for
every argument that must be one of the package's objects.

Every per-row entry point that returns chores runs four steps: check
the values (``_check_values``), sort the row (``_descending``), run a
core on the positions of the sorted row, map them back
(``_chore_allocation`` for bundles of positions, ``_witness`` for the
bin of each position). The value-only entry points, ``naive_test``,
``search_threshold`` and ``threshold_test``, sort the values alone and
map nothing back.
A whole instance is checked once, by ``Instance``, and sorted once, by
``OrderedInstance(inst)``, which ``ordered_instance`` builds from it
alone; the solvers and ``mms_profile`` run every per-row core on that
one ordered instance and map positions back through its
``source_ranks``, so no row is sorted twice. What those steps derive is
built through ``_trusted``, not re-checked.

Every record type of the package, here and in the other modules, derives
from ``_Record``: a frozen record with the construction, ``==``, ``hash``,
``repr``, pickling and copying of a frozen dataclass, in plain Python
with no generated code, so importing the package loads neither
``dataclasses`` nor ``inspect``, and ``json`` loads with the first file
read.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .errors import InputError

# Valuations must fit in a signed 64-bit word so serialized instances
# stay portable to fixed-width consumers.
MAX_VALUE = 2**63 - 1


class _Signature:
    """A record class's ``inspect.signature``: its fields, as its
    constructor takes them. Built on each read, so that ``inspect`` loads
    only when something asks."""

    def __get__(self, obj: object, cls: type):
        import inspect

        Parameter = inspect.Parameter
        fields = [
            Parameter(
                f,
                Parameter.POSITIONAL_OR_KEYWORD,
                default=cls._defaults.get(f, Parameter.empty),
                annotation=cls.__annotations__[f],
            )
            for f in cls._fields
        ]
        return inspect.Signature(fields, return_annotation=None)


class _Record:
    """A frozen record: the package's base for its result and input types.

    A subclass's fields are its own annotations, in declared order, and a
    class attribute of a field's name is that field's default. The
    constructor takes the fields by position or keyword (all of them
    positional, or all by keyword in declared order, skip the binding
    step), sets them through ``object.__setattr__`` and then runs
    ``__post_init__``, which may replace a field the same way. ``==``,
    ``hash`` and ``repr`` read the fields as one tuple, as a frozen
    dataclass does; assigning or deleting an attribute raises
    ``AttributeError``. Pickling and copying restore ``__dict__`` and run
    no constructor.
    """

    _fields: Tuple[str, ...] = ()
    _defaults: Mapping[str, object] = {}
    __signature__ = _Signature()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs:
            # Every field by keyword, in declared order, needs no binding.
            in_order = not args and tuple(kwargs) == fields
            args = kwargs.values() if in_order else self._bind(args, kwargs)
        elif len(args) != len(fields):
            args = self._bind(args, kwargs)
        # Set one by one, so the instance keeps the class's shared keys.
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: Mapping[str, object]) -> List[object]:
        """Every field's value, in declared order, from any other call."""
        fields = cls._fields
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        if (
            len(args) > len(fields)
            or values.keys() != set(fields)
            or any(map(kwargs.__contains__, fields[: len(args)]))
        ):
            raise TypeError(
                f"{cls.__qualname__}() takes the fields {', '.join(fields)}, got"
                f" {len(args)} by position and {', '.join(kwargs) or 'none'} by keyword"
            )
        return [values[f] for f in fields]

    def __post_init__(self) -> None:
        """The field checks; a record with none has nothing to run."""

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._astuple()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _trusted(cls, **fields):
    """Build a record without running its ``__post_init__`` checks.

    Only for values the package has just derived from an already
    validated instance; anything from outside goes through the public
    constructors, which check every field. The derived values are:

    - the sorted rows of an ``OrderedInstance``: permutations of its
      source's checked rows.
    - ``_chore_allocation``'s allocations (every schedule, and through
      ``_witness`` every share witness): disjoint position bundles mapped
      through a permutation, with every other chore in the leftover, so
      they are disjoint and cover 0..m-1; the leftover is empty, not
      computed, when the bundles hold all m positions.
    - ``greedy_fill``'s allocation: the positions ``_fill`` took and
      those it left.
    - the generator's instances: n rows of m values, each drawn from 0 to
      the config's checked ``value_max``.
    - ``_profile``'s ``MmsProfile``: the search's makespans, integers
      from 0, and the bins its witnesses are built from on first read.
    - the lifted allocations, ``lift_allocation``'s and the one
      ``solvers._allocate_within`` builds from ``_lift`` once the loads
      pass: each position's owner takes one untaken chore, so every
      chore is taken once.
    - ``ThresholdVector.uniform``'s repeated cap, checked once, and the
      solvers' caps: 11/9 of a share or 5/4 of a searched threshold,
      both non-negative integers, as a ``Fraction`` each, built by
      ``_allocate_within`` after its re-checks.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _as_int(value: object, what: str, lo: int = 0, hi: int = sys.maxsize) -> int:
    """The one integer rule: a non-bool integer from ``lo`` to ``hi``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if value < lo:
        raise InputError(f"{what} must be at least {lo}")
    if value > hi:
        raise InputError(f"{what} must be at most {hi}")
    return value


def _as_cap(value: object, what: str) -> Fraction:
    """The one caps rule: a non-bool ``int`` or a ``Fraction``, at least 0."""
    # A bool is an int, and a float or a string would convert
    # inexactly or not at all: only exact rationals are caps.
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise InputError(f"{what} must be an integer or a Fraction, got {value!r}")
    if value < 0:
        raise InputError(f"{what} must be at least 0")
    return Fraction(value)


def _as_type(value: object, cls: type, what: str):
    """The one object rule: an instance of ``cls`` ("an MmsProfile": M reads "em")."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIMOU" else "a"
        raise InputError(f"{what} must be {article} {cls.__name__}, got {type(value).__name__}")
    return value


def _row_tuples(rows: Iterable[Iterable[int]]) -> Tuple[Tuple[int, ...], ...]:
    """Each row as a tuple. Only a failed build looks for the first agent
    whose row is not iterable, to name it in the ``InputError``."""
    try:
        return tuple(tuple(row) for row in rows)
    except TypeError:
        message = "valuations must be a sequence of rows"
        if isinstance(rows, Iterable):
            for i, row in enumerate(rows):
                if not isinstance(row, Iterable):
                    message = f"agent {i}: expected a row of values, got {row!r}"
                    break
        raise InputError(message) from None


def _check_values(values: Sequence[object], label: str) -> None:
    """The integer rule from 0 to ``MAX_VALUE`` for every value of a row.

    A row of plain ints passes in three C-level passes (types, min,
    max). Any other row goes through ``_as_int`` value by value, so an
    int subclass such as an ``IntEnum`` still passes, and
    ``label.format(c)`` names the first value c that fails.
    """
    if (
        set(map(type, values)) <= {int}
        and min(values, default=0) >= 0
        and max(values, default=0) <= MAX_VALUE
    ):
        return
    for c, value in enumerate(values):
        _as_int(value, label.format(c), 0, MAX_VALUE)


def _descending(row: Sequence[int]) -> Tuple[List[int], List[int]]:
    """The chore at each position, by descending value with ties by chore
    index (a stable sort keeps them so even reversed), and those values.

    The sort keys through a list copy of the row: a list's ``__getitem__``
    is a builtin method, which the sort calls faster than a tuple's slot
    wrapper, and the copy costs less than that saves, at m = 13 as at
    m = 250."""
    vals = list(row)
    order = sorted(range(len(vals)), key=vals.__getitem__, reverse=True)
    return order, [vals[c] for c in order]


class Instance(_Record):
    """n agents, m chores, and an n x m non-negative integer value matrix.

    Attributes:
        num_agents: number of agents n (at least 1).
        num_chores: number of chores m (0 allowed).
        valuations: tuple of n rows; valuations[i][c] is agent i's cost
            for chore c.
    """

    num_agents: int
    num_chores: int
    valuations: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = _row_tuples(self.valuations)
        object.__setattr__(self, "valuations", rows)
        _as_int(self.num_agents, "num_agents", 1)
        _as_int(self.num_chores, "num_chores")
        if len(rows) != self.num_agents:
            raise InputError(
                f"expected {self.num_agents} valuation rows, got {len(rows)}"
            )
        for i, row in enumerate(rows):
            if len(row) != self.num_chores:
                raise InputError(
                    f"agent {i}: expected {self.num_chores} values, got {len(row)}"
                )
            _check_values(row, f"valuations[{i}][{{}}]")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Instance":
        rows = _row_tuples(rows)  # the only copy of each row
        if not rows:
            raise InputError("an instance needs at least one agent")
        return cls(num_agents=len(rows), num_chores=len(rows[0]), valuations=rows)

    def row(self, agent: int) -> Tuple[int, ...]:
        return self.valuations[_as_int(agent, "agent index", 0, self.num_agents - 1)]

    def value(self, agent: int, chores: Iterable[int]) -> int:
        """Total cost of a set of chores for one agent, under an
        ``Allocation``'s rules: each an index, none listed twice."""
        row = self.row(agent)
        try:
            chores = list(chores)
        except TypeError:
            message = f"chores must be a collection of chore indices, got {chores!r}"
            raise InputError(message) from None
        last = self.num_chores - 1
        total = sum(row[_as_int(c, "chore index", 0, last)] for c in chores)
        if len(set(chores)) < len(chores):
            twice = next(c for i, c in enumerate(chores) if c in chores[:i])
            raise InputError(f"chores list chore {twice} more than once")
        return total


class OrderedInstance(_Record):
    """The rows of ``source``, each sorted nonincreasing.

    ``instance`` holds the sorted rows: position j holds every agent's
    j-th largest chore, so the shared descending order is simply 0..m-1.
    ``source_ranks[i][j]`` is the chore of ``source`` behind agent i's
    position j. ``source`` determines both, so ``==``, ``hash`` and
    ``repr`` read it alone. Equal rows are sorted once and share their
    sorted row and ranks.
    """

    source: Instance

    def __post_init__(self) -> None:
        inst = _as_type(self.source, Instance, "source")
        # Equal rows sort alike, so each distinct row is sorted once.
        sorted_rows: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        sorts = []
        for row in inst.valuations:
            pair = sorted_rows.get(row)
            if pair is None:
                order, desc = _descending(row)
                pair = sorted_rows[row] = (tuple(order), tuple(desc))
            sorts.append(pair)
        # Sorted permutations of validated rows: nothing left to re-check.
        ordered = _trusted(
            Instance,
            num_agents=inst.num_agents,
            num_chores=inst.num_chores,
            valuations=tuple([desc for _, desc in sorts]),
        )
        object.__setattr__(self, "instance", ordered)
        object.__setattr__(self, "source_ranks", tuple([order for order, _ in sorts]))


class Allocation(_Record):
    """n bundles plus an explicit leftover set.

    Bundles and leftover are pairwise disjoint and together cover chores
    0..m-1 exactly; chores an algorithm could not place stay visible in
    ``leftover`` instead of silently vanishing.
    """

    bundles: Tuple[FrozenSet[int], ...]
    leftover: FrozenSet[int]

    def __post_init__(self) -> None:
        try:
            parts = [*map(list, self.bundles), list(self.leftover)]
        except TypeError:
            raise InputError("bundles and leftover must be collections of chore indices") from None
        for part in parts:
            for c in part:
                _as_int(c, "chore index")
        chosen = list(map(frozenset, parts))
        # A frozenset would merge a repeat silently.
        for b, (part, chores) in enumerate(zip(parts, chosen)):
            if len(chores) < len(part):
                where = "leftover" if b == len(parts) - 1 else f"bundle {b}"
                raise InputError(f"{where} lists a chore more than once")
        object.__setattr__(self, "bundles", tuple(chosen[:-1]))
        object.__setattr__(self, "leftover", chosen[-1])
        seen = frozenset().union(*chosen)
        if sum(map(len, chosen)) != len(seen):
            raise InputError("bundles and leftover must be pairwise disjoint")
        if seen != set(range(len(seen))):
            raise InputError("allocation must cover chores 0..m-1 exactly")

    @property
    def num_chores(self) -> int:
        return sum(len(b) for b in self.bundles) + len(self.leftover)

    @property
    def complete(self) -> bool:
        return not self.leftover


class ThresholdVector(_Record):
    """Per-agent rational caps driving the greedy allocator."""

    thresholds: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        thresholds = _as_type(self.thresholds, Iterable, "thresholds")
        caps = (_as_cap(t, f"threshold {i}") for i, t in enumerate(thresholds))
        object.__setattr__(self, "thresholds", tuple(caps))

    @classmethod
    def uniform(cls, n: int, value: Union[int, Fraction]) -> "ThresholdVector":
        """n copies of one cap, checked once."""
        n = _as_int(n, "threshold count")
        return _trusted(cls, thresholds=cls((value,)).thresholds * n)

    def __len__(self) -> int:
        return len(self.thresholds)

    def __getitem__(self, i: int) -> Fraction:
        return self.thresholds[i]


def ordered_instance(inst: Instance) -> OrderedInstance:
    """Sort every agent's row nonincreasing, remembering the permutations.

    Ties are broken by ascending original chore index, so the result is
    reproducible and ``ordered_instance`` is idempotent on its output.
    """
    return OrderedInstance(_as_type(inst, Instance, "inst"))


def _chore_allocation(order: Sequence[int], bundles: Iterable[List[int]]) -> Allocation:
    """Bundles of positions as chores, ``order[p]`` being the chore at p;
    chores in no bundle become the leftover."""
    chosen = tuple(frozenset(map(order.__getitem__, bundle)) for bundle in bundles)
    leftover = frozenset()  # when the bundles hold every position
    if sum(map(len, chosen)) < len(order):
        leftover = frozenset(range(len(order))).difference(*chosen)
    # Disjoint positions through a permutation: disjoint chores.
    return _trusted(Allocation, bundles=chosen, leftover=leftover)


def _witness(order: Sequence[int], bins: Sequence[int], n: int) -> Allocation:
    """The partition that puts chore ``order[p]`` in bundle ``bins[p]``."""
    bundles: List[List[int]] = [[] for _ in range(n)]
    for pos, b in enumerate(bins):
        bundles[b].append(pos)
    return _chore_allocation(order, bundles)


def ido_order(inst: Instance) -> Optional[Tuple[int, ...]]:
    """A chore order that is nonincreasing for every agent, if one exists.

    Sorting by the full per-agent value vectors (descending, ties by
    chore index) yields a valid order whenever any does: a shared order
    forces every pair of chores to be comparable coordinatewise, and the
    lexicographic sort respects that dominance.
    """
    # Column c holds every agent's value for chore c.
    order, _ = _descending(list(zip(*_as_type(inst, Instance, "inst").valuations)))
    for row in inst.valuations:
        for a, b in zip(order, order[1:]):
            if row[a] < row[b]:
                return None
    return tuple(order)


def lift_allocation(ordd: OrderedInstance, ord_alloc: Allocation) -> Allocation:
    """Map a complete allocation of ``ordd`` back to ``ordd.source``.

    Position j of agent i is chore ``ordd.source_ranks[i][j]`` of
    ``ordd.source``, so ``ordd`` alone carries the map back. Walks
    ordered positions from the smallest chore (j = m-1) to the largest
    (j = 0); the agent owning position j takes the last chore of their
    row ``ordd.source_ranks[agent]`` that nobody has taken yet, which is
    their cheapest remaining original chore, equal chores highest index
    first. Each agent ends up no worse off than their ordered bundle:
    v_i(result_i) <= v*_i(ord_alloc_i).

    Check, core, record: ``ord_alloc`` is checked against ``ordd``, the
    walk runs in ``_lift`` on its bundles, and the chores it picks, one
    untaken chore per position, become the record without a re-check.
    """
    if not isinstance(ordd, OrderedInstance):
        raise InputError("lift_allocation needs ordered_instance(inst), not a raw instance")
    n, m = ordd.instance.num_agents, ordd.instance.num_chores
    if _as_type(ord_alloc, Allocation, "ord_alloc").leftover:
        raise InputError("lift_allocation needs a complete ordered allocation")
    if len(ord_alloc.bundles) != n or ord_alloc.num_chores != m:
        raise InputError("ordered allocation does not match the instance")
    picked = _lift(ordd, ord_alloc.bundles)
    return _trusted(Allocation, bundles=tuple(map(frozenset, picked)), leftover=frozenset())


def _lift(ordd: OrderedInstance, bundles: Sequence[Iterable[int]]) -> List[List[int]]:
    """``lift_allocation``'s walk: each agent's chores of ``ordd.source``,
    from n bundles of positions that together hold 0..m-1 once each."""
    n, m = ordd.instance.num_agents, ordd.instance.num_chores
    owner = [0] * m
    for i, bundle in enumerate(bundles):
        for j in bundle:
            owner[j] = i

    # Each owner's cursor moves from the cheap end of their row past
    # chores other owners have taken.
    cursor = [m - 1] * n
    taken = [False] * m
    picked: List[List[int]] = [[] for _ in range(n)]
    ranks = ordd.source_ranks
    for j in range(m - 1, -1, -1):
        agent = owner[j]
        mine = ranks[agent]
        at = cursor[agent]
        while taken[mine[at]]:
            at -= 1
        chore = mine[at]
        cursor[agent] = at - 1
        taken[chore] = True
        picked[agent].append(chore)
    return picked


class VerificationReport(_Record):
    """Per-agent loads and threshold flags for an allocation."""

    loads: Tuple[int, ...]
    within_threshold: Tuple[bool, ...]
    complete: bool


def allocation_loads(inst: Instance, alloc: Allocation) -> Tuple[int, ...]:
    """Each agent's bundle cost, once the allocation fits the instance,
    whose chores 0..m-1 then index the rows unchecked."""
    _as_type(inst, Instance, "inst")
    if len(_as_type(alloc, Allocation, "alloc").bundles) != inst.num_agents:
        raise InputError("allocation bundle count does not match agent count")
    if alloc.num_chores != inst.num_chores:
        raise InputError("allocation chore universe does not match the instance")
    return tuple(
        sum(map(row.__getitem__, bundle))
        for row, bundle in zip(inst.valuations, alloc.bundles)
    )


def verify_allocation(
    inst: Instance, alloc: Allocation, thresholds: ThresholdVector
) -> VerificationReport:
    """Check an allocation against an instance and per-agent caps."""
    _as_type(thresholds, ThresholdVector, "thresholds")
    loads = allocation_loads(inst, alloc)
    if len(thresholds) != inst.num_agents:
        raise InputError("threshold vector length does not match agent count")
    within = tuple(loads[i] <= thresholds[i] for i in range(inst.num_agents))
    return VerificationReport(
        loads=loads, within_threshold=within, complete=alloc.complete
    )


# -- JSON interchange ---------------------------------------------------------
#
# Instance files:   {"agents": n, "chores": m, "valuations": [[int, ...], ...]}
# Allocation files: {"bundles": [[choreIdx, ...], ...], "leftover": [...]}
# Index lists are emitted sorted so the files round-trip byte-stably.


def instance_to_json(inst: Instance) -> Mapping[str, object]:
    return {
        "agents": inst.num_agents,
        "chores": inst.num_chores,
        "valuations": [list(row) for row in inst.valuations],
    }


def _json_fields(obj: object, what: str, *keys: str) -> List[object]:
    """The values at ``keys`` of a JSON object, each key required."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} JSON must be an object")
    try:
        return [obj[key] for key in keys]
    except KeyError as exc:
        raise InputError(f"{what} JSON missing key {exc.args[0]!r}") from exc


def instance_from_json(obj: object) -> Instance:
    agents, chores, valuations = _json_fields(obj, "instance", "agents", "chores", "valuations")
    if not isinstance(valuations, list) or not all(
        isinstance(row, list) for row in valuations
    ):
        raise InputError("valuations must be a list of rows")
    return Instance(
        num_agents=_as_int(agents, "agents", 1),
        num_chores=_as_int(chores, "chores"),
        valuations=valuations,
    )


def allocation_to_json(alloc: Allocation) -> Mapping[str, object]:
    return {
        "bundles": [sorted(b) for b in alloc.bundles],
        "leftover": sorted(alloc.leftover),
    }


def allocation_from_json(obj: object) -> Allocation:
    bundles, leftover = _json_fields(obj, "allocation", "bundles", "leftover")
    if not isinstance(bundles, list) or not all(
        isinstance(b, list) for b in bundles
    ):
        raise InputError("bundles must be a list of index lists")
    if not isinstance(leftover, list):
        raise InputError("leftover must be an index list")
    return Allocation(bundles=bundles, leftover=leftover)


def _load_json(path: str) -> object:
    """Parse a JSON file; any malformed content is an InputError."""
    import json  # not on the import path: only reading a file needs it

    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad syntax, bad UTF-8 and over-long integer
            # literals; RecursionError covers nesting deeper than the parser.
            raise InputError(f"{path}: invalid JSON ({exc})") from exc


def load_instance(path: str) -> Instance:
    return instance_from_json(_load_json(path))


def load_allocation(path: str) -> Allocation:
    return allocation_from_json(_load_json(path))
