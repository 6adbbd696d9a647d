"""The colour-brush process on an oriented graph.

A vertex is ready once every in-arc is tattooed and it still has an
untattooed out-arc.  Firing a ready vertex tattoos all of its untattooed
out-arcs at once, each with a distinct colour set drawn from the pool at
the vertex.  Colour sets travel along their arcs: a singleton adds its
primary to the head's present colours, a blend arrives as an opaque unit
that can only be forwarded, never taken apart or re-blended.  Equal
colour sets arriving at a vertex merge.

Primaries enter the process in two ways, both counted by ``cost``: an
initial allocation before anything fires, or an augmentation at firing
time when the assignment refers to primaries the vertex does not hold.
Augmented indices are pinned by the naming policy: SMALLEST hands out the
smallest positive indices absent from the vertex, FRESH hands out the
indices just above every one issued so far.  Every issued primary is
paid for, so the FRESH counter stands at the cost.

Modes restrict the pool.  BLEND allows every non-empty subset of the
present primaries plus arrived blends; FSG allows singletons only; BRUSH
replaces colours with anonymous tokens, one per arc, so firing involves
no choices at all.

The pool, its order and the policy's grant are stated here once, on
masks whose bit i is primary i + 1 (``_pool_masks``, ``_sort_key``,
``_grant_mask``); the search uses them too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from tattooing.graphs import Digraph, Graph, _ints, orient


class Mode(Enum):
    BRUSH = "brush"
    FSG = "fsg"
    BLEND = "blend"


class Policy(Enum):
    SMALLEST = "smallest"
    FRESH = "fresh"


def _member(name: str, value, kind: type[Enum]) -> None:
    """Refuse ``value`` unless it is a member of ``kind``: the process
    branches on ``is``, so a string of a member's value would mix the
    rules of two members."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be a {kind.__name__}, got {value!r}")


class EngineError(Exception):
    """Base class for violations of the process rules."""


class NotReadyError(EngineError):
    """The fired vertex has an untattooed in-arc or nothing left to tattoo."""


class IncompleteAssignmentError(EngineError):
    """The assignment does not cover exactly the untattooed out-arcs."""


class InjectivityError(EngineError):
    """Two out-arcs of one firing were given the same colour set."""


class UnavailableColourSetError(EngineError):
    """An assigned colour set is not in the pool, or names primaries the
    policy would not grant."""


class ReplayError(EngineError):
    """Replaying a witness did not reproduce the claimed outcome."""


@dataclass(frozen=True)
class ColourSet:
    """A non-empty set of primary colour indices (1-based), kept sorted.

    The label weight of a set is the sum of its member indices; an arc
    tattooed with the set contributes that weight to the label sum.
    """

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        _ints("primary indices", self.members)
        canon = tuple(sorted(set(self.members)))
        if not canon:
            raise ValueError("colour set must be non-empty")
        if canon[0] < 1:
            raise ValueError("primary indices start at 1")
        if canon != self.members:
            object.__setattr__(self, "members", canon)

    @classmethod
    def single(cls, index: int) -> ColourSet:
        return cls((index,))

    @property
    def weight(self) -> int:
        return sum(self.members)

    @property
    def is_blend(self) -> bool:
        return len(self.members) > 1

    def sort_key(self) -> tuple[int, int, tuple[int, ...]]:
        """Order pools by weight, then cardinality, then members."""
        return (self.weight, len(self.members), self.members)

    def mask(self) -> int:
        return sum(1 << (p - 1) for p in self.members)

    @classmethod
    def from_mask(cls, mask: int) -> ColourSet:
        return cls(tuple(p + 1 for p in range(mask.bit_length()) if (mask >> p) & 1))

    def __str__(self) -> str:
        return "{" + ",".join(str(p) for p in self.members) + "}"


@dataclass(frozen=True)
class AllocationPlan:
    """Initial primaries (or brush tokens) per vertex, plus naming policy.

    ``initial`` lists (vertex, count) pairs with positive counts; at
    least one vertex must receive something before the process starts.
    """

    initial: tuple[tuple[int, int], ...]
    policy: Policy

    def __post_init__(self) -> None:
        _member("policy", self.policy, Policy)
        for pair in self.initial:
            _ints("allocation vertices and counts", pair)
        pairs = tuple(sorted(self.initial))
        if not pairs:
            raise ValueError("allocation plan must give at least one vertex something")
        vertices = [v for v, _ in pairs]
        if len(set(vertices)) != len(vertices):
            raise ValueError("allocation plan repeats a vertex")
        for v, k in pairs:
            if v < 0:
                raise ValueError(f"bad vertex {v} in allocation plan")
            if k < 1:
                raise ValueError(f"allocation count for vertex {v} must be positive")
        object.__setattr__(self, "initial", pairs)

    @classmethod
    def from_counts(cls, counts: Mapping[int, int], policy: Policy) -> AllocationPlan:
        return cls(tuple((v, k) for v, k in sorted(counts.items()) if k), policy)

    @property
    def total(self) -> int:
        return sum(k for _, k in self.initial)


@dataclass(frozen=True)
class FireEvent:
    """One firing: a vertex and its arc-to-colour-set assignment.

    BRUSH firings carry an empty assignment; token handling is implied.
    """

    vertex: int
    assignment: tuple[tuple[int, ColourSet], ...] = ()

    def __post_init__(self) -> None:
        _ints("fired vertices", (self.vertex,))
        _ints("arcs", [i for i, _ in self.assignment])
        object.__setattr__(
            self, "assignment", tuple(sorted(self.assignment, key=itemgetter(0)))
        )


@dataclass(frozen=True)
class Witness:
    """A complete, replayable record of one run."""

    orientation: int
    policy: Policy
    initial: tuple[tuple[int, int], ...]
    events: tuple[FireEvent, ...]

    def __post_init__(self) -> None:
        _ints("orientation codes", (self.orientation,))
        _member("policy", self.policy, Policy)


@dataclass(frozen=True)
class Outcome:
    """Result of a completed run.

    ``cost`` is the number of primaries used: initial allocations plus
    augmentations (token count in BRUSH mode).  ``raw_ratio`` is
    edges over label sum; ``index`` divides that again by the cost.
    """

    mode: Mode
    cost: int
    label_sum: int
    raw_ratio: Fraction
    index: Fraction
    witness: Witness


@dataclass(frozen=True)
class ProcessState:
    """Immutable snapshot of a run in progress."""

    digraph: Digraph
    mode: Mode
    policy: Policy
    arc_status: tuple[ColourSet | None, ...]
    primaries_present: tuple[tuple[int, ...], ...]
    arrived_blends: tuple[tuple[ColourSet, ...], ...]
    brush_tokens: tuple[int, ...]
    cost: int

    @property
    def complete(self) -> bool:
        return all(s is not None for s in self.arc_status)

    @property
    def label_sum(self) -> int:
        return sum(s.weight for s in self.arc_status if s is not None)

    def untattooed_out(self, vertex: int) -> tuple[int, ...]:
        return tuple(
            i for i in self.digraph.out_arcs(vertex) if self.arc_status[i] is None
        )


def required_primaries(demand: int, mode: Mode) -> int:
    """Fewest primaries that can cover ``demand`` arcs with distinct sets.

    With k primaries a vertex can form 2**k - 1 distinct non-empty
    subsets in BLEND mode but only k singletons otherwise.
    """
    if demand <= 0:
        return 0
    if mode is Mode.BLEND:
        return demand.bit_length()
    return demand


def initial_state(digraph: Digraph, mode: Mode, plan: AllocationPlan) -> ProcessState:
    """Apply the initial allocation; nothing has fired yet."""
    _member("mode", mode, Mode)
    g = digraph.graph
    if g.m == 0:
        raise ValueError("the process needs at least one edge")
    n = g.n
    for v, _ in plan.initial:
        if v >= n:
            raise ValueError(f"allocation plan names vertex {v}, graph has {n}")
    present: list[tuple[int, ...]] = [()] * n
    tokens = [0] * n
    if mode is Mode.BRUSH:
        for v, k in plan.initial:
            tokens[v] = k
    else:
        issued = 0
        for v, k in plan.initial:
            present[v] = tuple(range(issued + 1, issued + k + 1))
            if plan.policy is Policy.FRESH:
                issued += k
    return ProcessState(
        digraph=digraph,
        mode=mode,
        policy=plan.policy,
        arc_status=(None,) * g.m,
        primaries_present=tuple(present),
        arrived_blends=((),) * n,
        brush_tokens=tuple(tokens),
        cost=plan.total,
    )


def ready_vertices(state: ProcessState) -> tuple[int, ...]:
    """Vertices whose in-arcs are all tattooed and that still have work."""
    out = []
    for v in range(state.digraph.graph.n):
        if not all(state.arc_status[i] is not None for i in state.digraph.in_arcs(v)):
            continue
        if state.untattooed_out(v):
            out.append(v)
    return tuple(out)


@functools.cache
def _sort_key(mask: int) -> tuple[int, int, tuple[int, ...]]:
    members = tuple(
        i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1
    )
    return (sum(members), len(members), members)


def _pool_masks(
    held: int,
    arrived: Iterable[int],
    mode: Mode,
    check: Callable[[], None] | None = None,
) -> list[int]:
    """The pool of :func:`mutate_pool` on masks: BLEND every submask of
    ``held`` then each arrived blend not among them, FSG the singletons
    of ``held``; ``check`` comes before every 256th submask from the
    first."""
    if mode is Mode.FSG:
        pool = [1 << b for b in range(held.bit_length()) if (held >> b) & 1]
    else:
        pool = []
        sub = held
        while sub:
            if check is not None and len(pool) % 256 == 0:
                check()
            pool.append(sub)
            sub = (sub - 1) & held
        pool += [b for b in arrived if b & ~held]
    pool.sort(key=_sort_key)
    return pool


def _grant_mask(held: int, policy: Policy, cost: int, count: int) -> int:
    if count == 0:
        return 0
    if policy is Policy.FRESH:
        # every index up to the cost is issued
        return ((1 << count) - 1) << cost
    granted = 0
    got = 0
    b = 0
    while got < count:
        if not (held >> b) & 1:
            granted |= 1 << b
            got += 1
        b += 1
    return granted


def _check_vertex(state: ProcessState, vertex: int) -> None:
    if vertex < 0 or vertex >= state.digraph.graph.n:
        raise ValueError(f"no vertex {vertex}")


def mutate_pool(
    state: ProcessState,
    vertex: int,
    check: Callable[[], None] | None = None,
) -> tuple[ColourSet, ...]:
    """Colour sets the vertex could dispatch right now, without augmenting.

    BLEND: every non-empty subset of the present primaries plus every
    arrived blend; FSG: singletons of the present primaries.  Sorted by
    weight, then cardinality, then members.  ``check``, if given, is
    called at the first subset built and every 256th after it, and may
    raise to abandon the pool, as a search's deadline does.
    """
    _check_vertex(state, vertex)
    if state.mode is Mode.BRUSH:
        raise ValueError("anonymous brush tokens form no colour pool")
    held = sum(1 << (p - 1) for p in state.primaries_present[vertex])
    arrived = {c.mask(): c for c in state.arrived_blends[vertex]}
    # an arrived blend is passed on as it came; a key ends in its members
    return tuple([
        arrived.get(mask) or ColourSet(_sort_key(mask)[2])
        for mask in _pool_masks(held, arrived, state.mode, check)
    ])


def _normalise_assignment(
    assignment: Mapping[int, ColourSet] | Iterable[tuple[int, ColourSet]] | None,
) -> list[tuple[int, ColourSet]]:
    if assignment is None:
        return []
    if isinstance(assignment, Mapping):
        items = list(assignment.items())
    else:
        items = list(assignment)
    # by arc alone: colour sets have no order, and a repeated arc is
    # reported by ``fire``
    return sorted(items, key=itemgetter(0))


def fire(
    state: ProcessState,
    vertex: int,
    assignment: Mapping[int, ColourSet] | Iterable[tuple[int, ColourSet]] | None = None,
) -> ProcessState:
    """Fire a ready vertex, tattooing all of its untattooed out-arcs.

    For FSG and BLEND the assignment maps every untattooed out-arc to a
    distinct colour set.  Sets that name primaries the vertex lacks
    trigger an augmentation; the policy dictates which indices those new
    primaries must carry, and the assignment must match them exactly.
    For BRUSH no assignment is given: each arc takes one anonymous
    token, and missing tokens are augmented automatically.
    """
    d = state.digraph
    _check_vertex(state, vertex)
    for i in d.in_arcs(vertex):
        if state.arc_status[i] is None:
            raise NotReadyError(f"vertex {vertex} still has untattooed in-arc {i}")
    untat = state.untattooed_out(vertex)
    if not untat:
        raise NotReadyError(f"vertex {vertex} has no untattooed out-arc")

    if state.mode is Mode.BRUSH:
        if assignment:
            raise ValueError("brush firing takes no colour assignment")
        return _fire_brush(state, vertex, untat)

    items = _normalise_assignment(assignment)
    if tuple(i for i, _ in items) != untat:
        raise IncompleteAssignmentError(
            f"vertex {vertex} must tattoo arcs {list(untat)}, "
            f"assignment covers {[i for i, _ in items]}"
        )
    sets = [c for _, c in items]
    if len(set(sets)) != len(sets):
        raise InjectivityError(f"vertex {vertex} repeats a colour set")

    present = set(state.primaries_present[vertex])
    arrived = set(state.arrived_blends[vertex])
    new_needed: set[int] = set()
    for c in sets:
        if c in arrived:
            continue
        if state.mode is Mode.FSG and c.is_blend:
            raise UnavailableColourSetError(
                f"{c} is a blend; blending is not allowed in this mode"
            )
        new_needed.update(set(c.members) - present)
    if new_needed:
        # every non-arrived set becomes formable once these are granted
        held = sum(1 << (p - 1) for p in present)
        grant = _grant_mask(held, state.policy, state.cost, len(new_needed))
        # compared as members: a mask is as wide as the largest primary
        granted = _sort_key(grant)[2]
        if tuple(sorted(new_needed)) != granted:
            raise UnavailableColourSetError(
                f"vertex {vertex} names new primaries {sorted(new_needed)}; "
                f"{state.policy.value} policy grants {list(granted)}"
            )

    status = list(state.arc_status)
    pres = [set(p) for p in state.primaries_present]
    blends = [set(b) for b in state.arrived_blends]
    for i, c in items:
        status[i] = c
        h = d.head(i)
        if c.is_blend:
            blends[h].add(c)
        else:
            pres[h].add(c.members[0])
    pres[vertex].update(new_needed)
    return ProcessState(
        digraph=d,
        mode=state.mode,
        policy=state.policy,
        arc_status=tuple(status),
        primaries_present=tuple(tuple(sorted(p)) for p in pres),
        arrived_blends=tuple(
            tuple(sorted(b, key=ColourSet.sort_key)) for b in blends
        ),
        brush_tokens=state.brush_tokens,
        cost=state.cost + len(new_needed),
    )


def _fire_brush(
    state: ProcessState, vertex: int, untat: tuple[int, ...]
) -> ProcessState:
    d = state.digraph
    have = state.brush_tokens[vertex]
    need = len(untat)
    aug = max(0, need - have)
    tokens = list(state.brush_tokens)
    tokens[vertex] = have + aug - need
    status = list(state.arc_status)
    token_label = ColourSet.single(1)
    for i in untat:
        status[i] = token_label
        tokens[d.head(i)] += 1
    return ProcessState(
        digraph=d,
        mode=state.mode,
        policy=state.policy,
        arc_status=tuple(status),
        primaries_present=state.primaries_present,
        arrived_blends=state.arrived_blends,
        brush_tokens=tuple(tokens),
        cost=state.cost + aug,
    )


def replay(graph: Graph, mode: Mode, witness: Witness) -> Outcome:
    """Re-run a witness from scratch; raise ReplayError if it stalls.

    Rule violations raise from :func:`fire`.  The outcome's witness is
    the one given, with its orientation code trimmed to the graph's
    edges and its initial allocation sorted.
    """
    digraph = orient(graph, witness.orientation)
    plan = AllocationPlan(witness.initial, witness.policy)
    state = initial_state(digraph, mode, plan)
    for ev in witness.events:
        state = fire(state, ev.vertex, ev.assignment or None)
    if not state.complete:
        raise ReplayError("witness schedule deadlocks")
    m, label_sum = graph.m, state.label_sum
    return Outcome(
        mode=mode,
        cost=state.cost,
        label_sum=label_sum,
        raw_ratio=Fraction(m, label_sum),
        index=Fraction(m, state.cost * label_sum),
        witness=Witness(
            digraph.bits(), plan.policy, plan.initial, tuple(witness.events)
        ),
    )
