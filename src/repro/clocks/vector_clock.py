"""Fidge/Mattern vector clocks.

A :class:`VectorClock` is an immutable, fixed-width vector of event
counters, one entry per trace.  The protocol implemented by the
simulation substrate (``repro.simulation``) and POET plugins is the
classic one:

* every trace ``i`` keeps a current clock, initially all zeros;
* on every event of trace ``i`` the clock is advanced: ``V[i] += 1``;
* every message carries the sender's clock at the send event;
* a receive event first merges (component-wise max) the carried clock
  into the local clock, then advances its own component.

With this convention, for an event ``a`` on trace ``i`` the component
``Va[i]`` is the 1-based index of ``a`` on its own trace, and for any
remote trace ``t``, ``Va[t]`` is the index of the *greatest
predecessor* of ``a`` on ``t`` — the most recent event on ``t`` that
happens before ``a`` (0 if none).  The OCEP matcher's domain pruning
(paper, Figures 4 and 5) relies on exactly this property.

Instances are immutable and hashable so they can be freely shared
between events, pattern-tree histories, and partial matches
without defensive copying.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple


class VectorClock:
    """An immutable vector timestamp over a fixed number of traces.

    Parameters
    ----------
    components:
        Iterable of non-negative integers, one per trace.

    Examples
    --------
    >>> a = VectorClock([1, 0, 0])
    >>> b = a.tick(1)
    >>> b
    VectorClock(1, 1, 0)
    >>> a < b
    False
    >>> a.merge(b).tick(2)
    VectorClock(1, 1, 1)
    """

    __slots__ = ("_components", "_hash")

    def __init__(self, components: Iterable[int]):
        comps = tuple(int(c) for c in components)
        for c in comps:
            if c < 0:
                raise ValueError(f"vector clock components must be >= 0, got {c}")
        self._components: Tuple[int, ...] = comps
        self._hash: Optional[int] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def _trusted(cls, comps: Tuple[int, ...]) -> "VectorClock":
        """Internal constructor for components already known valid.

        :meth:`tick` and :meth:`merge` derive their output from clocks
        that passed full validation, so re-running the per-component
        checks (and the eager rehash the public constructor used to do)
        on every event is pure overhead — on the hot path it showed up
        as O(width) redundant work per tick.  Callers must pass a tuple
        of non-negative ints.
        """
        clock = cls.__new__(cls)
        clock._components = comps
        clock._hash = None
        return clock

    @classmethod
    def zero(cls, width: int) -> "VectorClock":
        """Return the all-zero clock over ``width`` traces."""
        if width <= 0:
            raise ValueError(f"clock width must be positive, got {width}")
        return cls((0,) * width)

    def tick(self, trace: int) -> "VectorClock":
        """Return a new clock with the ``trace`` component advanced by one.

        Raises
        ------
        ValueError
            If ``trace`` is not a valid 0-based trace number for this
            clock's width.  (A negative index would silently wrap to
            the last trace under tuple indexing, corrupting causality
            for that trace.)
        """
        if not 0 <= trace < len(self._components):
            raise ValueError(
                f"trace must be in [0, {len(self._components)}), got {trace}"
            )
        comps = list(self._components)
        comps[trace] += 1
        return VectorClock._trusted(tuple(comps))

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Return the component-wise maximum of two clocks (message join)."""
        if len(other) != len(self):
            raise ValueError(
                f"cannot merge clocks of widths {len(self)} and {len(other)}"
            )
        return VectorClock._trusted(
            tuple(map(max, self._components, other.components))
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def components(self) -> Tuple[int, ...]:
        """The raw component tuple."""
        return self._components

    @property
    def knowledge(self) -> Tuple[int, ...]:
        """Remote-knowledge view of the clock — for a full vector clock
        this is just the component tuple (readers of the knowledge row
        never look at the owner's own position, so no normalization is
        needed; the encoded backend returns its interned row here
        without materializing a vector)."""
        return self._components

    def __len__(self) -> int:
        return len(self._components)

    def __getitem__(self, trace: int) -> int:
        return self._components[trace]

    def __iter__(self) -> Iterator[int]:
        return iter(self._components)

    # ------------------------------------------------------------------
    # Causality comparisons
    # ------------------------------------------------------------------

    def __le__(self, other: "VectorClock") -> bool:
        """Component-wise ``<=`` — the clock partial order.

        Works against any clock-like exposing ``components`` (e.g. an
        :class:`~repro.clocks.encoded.EncodedClock`), so mixed-backend
        comparisons agree with the full-vector semantics.
        """
        self._check_width(other)
        return all(a <= b for a, b in zip(self._components, other.components))

    def __lt__(self, other: "VectorClock") -> bool:
        """Strictly less in the clock partial order (``<=`` and not equal)."""
        return self <= other and self._components != tuple(other.components)

    def __ge__(self, other: "VectorClock") -> bool:
        self._check_width(other)
        return all(a >= b for a, b in zip(self._components, other.components))

    def __gt__(self, other: "VectorClock") -> bool:
        return self >= other and self._components != tuple(other.components)

    def concurrent_with(self, other: "VectorClock") -> bool:
        """True when neither clock dominates the other (incomparable)."""
        return not (self <= other) and not (self >= other)

    def _check_width(self, other: "VectorClock") -> None:
        if len(other) != len(self):
            raise ValueError(
                f"cannot compare clocks of widths {len(self)} and {len(other)}"
            )

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VectorClock):
            return self._components == other._components
        components = getattr(other, "components", None)
        if components is not None:
            return self._components == tuple(components)
        return NotImplemented

    def __hash__(self) -> int:
        # Computed on first use: most clocks on the hot path are never
        # hashed (events hash by identity), so hashing eagerly in every
        # tick/merge was wasted O(width) work.
        h = self._hash
        if h is None:
            h = self._hash = hash(self._components)
        return h

    def __repr__(self) -> str:
        return f"VectorClock({', '.join(map(str, self._components))})"
