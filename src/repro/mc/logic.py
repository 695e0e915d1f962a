"""Birkhoff-von Neumann quantum logic over subspaces.

The paper's motivating specification language ([14] in its reference
list) treats atomic propositions as closed subspaces of the state
space: conjunction is the lattice meet, disjunction the join, and
negation the orthocomplement.  This module is the AST of that
specification language:

* **state formulas** (:class:`Proposition`): :class:`Atomic` (a
  subspace given directly), :class:`Name` (an atom resolved against a
  model's registered subspaces, see
  :meth:`~repro.systems.qts.QuantumTransitionSystem.register_subspace`),
  and the connectives :class:`Meet` (``&``), :class:`Join` (``|``),
  :class:`Not` (``~``);
* **temporal formulas**: :class:`Always` (``AG φ`` — every reachable
  state satisfies φ) and :class:`Eventually` (``EF φ`` — the reachable
  space overlaps φ).

A pure state ``|ψ⟩`` *satisfies* a proposition φ iff ``|ψ⟩`` lies in
the denoted subspace — the standard BvN satisfaction relation,
``prop.denote(space).contains_state(state)``.

Specs are checked through the one front door,
:meth:`repro.mc.checker.ModelChecker.check`, which works identically
on the symbolic and dense backends.  The text syntax
(``"AG (inv & ~bad)"``) lives in :mod:`repro.mc.specs`.
"""

from __future__ import annotations

from repro.errors import SpecError
from repro.subspace.subspace import StateSpace, Subspace


class Proposition:
    """A quantum-logic state formula; ``denote(space)`` yields its subspace."""

    def denote(self, space: StateSpace) -> Subspace:
        raise NotImplementedError

    # connective sugar -------------------------------------------------
    def __and__(self, other: "Proposition") -> "Proposition":
        return Meet(self, other)

    def __or__(self, other: "Proposition") -> "Proposition":
        return Join(self, other)

    def __invert__(self) -> "Proposition":
        return Not(self)


class Atomic(Proposition):
    """An atomic proposition: a subspace given directly."""

    def __init__(self, subspace: Subspace, name: str = "p") -> None:
        self.subspace = subspace
        self.name = name

    def denote(self, space: StateSpace) -> Subspace:
        if self.subspace.space is not space:
            raise ValueError(f"atomic {self.name!r} denotes a subspace of "
                             f"a different state space")
        return self.subspace

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return (isinstance(other, Atomic)
                and other.subspace is self.subspace
                and other.name == self.name)

    def __hash__(self) -> int:
        return hash((Atomic, id(self.subspace), self.name))


class Name(Proposition):
    """An atom referenced by name, resolved against a model's registry.

    A :class:`Name` cannot be denoted directly — it is bound to a
    concrete subspace by :func:`repro.mc.specs.resolve` (which
    :meth:`~repro.mc.checker.ModelChecker.check` calls for you),
    looking the name up in the model's registered subspaces.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def denote(self, space: StateSpace) -> Subspace:
        raise SpecError(
            f"atom {self.name!r} is unresolved; resolve the spec against "
            f"a model first (ModelChecker.check does this automatically)")

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return isinstance(other, Name) and other.name == self.name

    def __hash__(self) -> int:
        return hash((Name, self.name))


class Meet(Proposition):
    """Conjunction: the lattice meet (subspace intersection)."""

    def __init__(self, left: Proposition, right: Proposition) -> None:
        self.left = left
        self.right = right

    def denote(self, space: StateSpace) -> Subspace:
        return self.left.denote(space).meet(self.right.denote(space))

    def __repr__(self) -> str:
        return f"({self.left!r} & {self.right!r})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Meet) and other.left == self.left
                and other.right == self.right)

    def __hash__(self) -> int:
        return hash((Meet, self.left, self.right))


class Join(Proposition):
    """Disjunction: the lattice join (closed span of the union)."""

    def __init__(self, left: Proposition, right: Proposition) -> None:
        self.left = left
        self.right = right

    def denote(self, space: StateSpace) -> Subspace:
        return self.left.denote(space).join(self.right.denote(space))

    def __repr__(self) -> str:
        return f"({self.left!r} | {self.right!r})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Join) and other.left == self.left
                and other.right == self.right)

    def __hash__(self) -> int:
        return hash((Join, self.left, self.right))


class Not(Proposition):
    """Negation: the orthocomplement."""

    def __init__(self, inner: Proposition) -> None:
        self.inner = inner

    def denote(self, space: StateSpace) -> Subspace:
        return self.inner.denote(space).complement()

    def __repr__(self) -> str:
        return f"~{self.inner!r}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Not) and other.inner == self.inner

    def __hash__(self) -> int:
        return hash((Not, self.inner))


# ----------------------------------------------------------------------
# temporal operators
# ----------------------------------------------------------------------
class TemporalSpec:
    """A top-level temporal formula over one state formula.

    ``bound`` is the optional step bound of the *bounded* operators
    ``AG[<=k]`` / ``EF[<=k]``: the property is evaluated over the
    space reachable within at most ``k`` transitions instead of the
    full fixpoint.  ``None`` (the default) is the unbounded operator.
    """

    #: the text-syntax keyword ("AG" / "EF")
    keyword: str = "?"

    def __init__(self, inner: Proposition,
                 bound: "int | None" = None) -> None:
        if isinstance(inner, TemporalSpec):
            raise SpecError(f"temporal operators do not nest; "
                            f"{self.keyword} must be outermost")
        if bound is not None and (not isinstance(bound, int) or bound < 1):
            raise SpecError(f"temporal bound must be a positive integer, "
                            f"got {bound!r}")
        self.inner = inner
        self.bound = bound

    def _prefix(self) -> str:
        if self.bound is None:
            return self.keyword
        return f"{self.keyword}[<={self.bound}]"

    def __repr__(self) -> str:
        return f"{self._prefix()} {self.inner!r}"

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and other.inner == self.inner
                and other.bound == self.bound)

    def __hash__(self) -> int:
        return hash((type(self), self.inner, self.bound))


class Always(TemporalSpec):
    """``AG φ``: every reachable state satisfies φ.

    The bounded form ``AG[<=k] φ`` (``Always(phi, bound=k)``) asserts
    it only for states reachable within ``k`` transitions.
    """

    keyword = "AG"


class Eventually(TemporalSpec):
    """``EF φ``-style: the reachable space overlaps ``[[φ]]``.

    True iff the reachable space is not orthogonal to the denoted
    subspace (a necessary condition for EF φ; exact for 1-dimensional
    reachable spaces).  The bounded form ``EF[<=k] φ``
    (``Eventually(phi, bound=k)``) asks for an overlap within ``k``
    transitions.
    """

    keyword = "EF"

