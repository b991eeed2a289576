"""Pointer kinds and qualifier variables (nodes).

CCured's inference "associates a qualifier variable with each syntactic
occurrence of the ``*`` pointer-type constructor".  Here, a
:class:`Node` is such a variable; it is stored into the ``node`` slot of
the corresponding :class:`repro.cil.TPtr` occurrence.  Constraints are
recorded as flags and edges on nodes, and
:mod:`repro.core.solver` computes the final :class:`PointerKind` of each.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.cil import types as T
from repro.obs.provenance import Provenance, describe


class PointerKind(enum.Enum):
    """The CCured pointer kinds (paper Sections 1–3).

    Ordering reflects capability/cost: SAFE < SEQ < RTTI < WILD.
    """

    SAFE = "SAFE"
    SEQ = "SEQ"
    #: forward-only sequence: pointer + end bound (2 words).  Present
    #: in the CCured implementation (not in the paper's Figure 1);
    #: enabled by ``CureOptions.use_fseq`` as an extension/ablation.
    FSEQ = "FSEQ"
    RTTI = "RTTI"
    WILD = "WILD"


class Node:
    """A qualifier variable attached to one pointer-type occurrence.

    Flags record the *atomic* constraints the program imposes:

    * ``arith`` — the pointer is used in pointer arithmetic, so its kind
      must be SEQ (or WILD).
    * ``wild`` — seeded by bad casts; spread by the solver along
      ``compat`` edges and into base types.
    * ``rtti_needed`` — seeded by downcasts (the pointer is the *source*
      of a checked downcast); spread backwards along ``rtti_back`` edges.
    * ``interface`` — the pointer crosses the boundary to uninstrumented
      library code (used by the SPLIT inference and wrapper checks).

    Edges:

    * ``compat`` — the pointer flows to/from the other node (cast or
      assignment); if either end is WILD both must be.
    * ``same`` — representation equality (nested pointer positions);
      handled by union-find in the solver, kinds must be identical.
    * ``rtti_back`` — RTTI propagates from this node *backwards against
      the dataflow* to the listed nodes (paper Section 3.2).
    """

    __slots__ = ("id", "ptr_type", "where", "arith", "neg_arith", "wild",
                 "rtti_needed", "interface", "split", "has_meta", "compat",
                 "same", "rtti_back", "seq_back", "flow_out", "from_int",
                 "seq_casts", "kind", "solved", "prov")

    _next_id = 0

    @classmethod
    def reset_ids(cls) -> None:
        """Restart the id counter.  Called at the start of every
        :class:`repro.core.constraints.Analysis` so node ids — and
        everything keyed on them, like blame-graph serialization — are
        deterministic across same-process runs."""
        cls._next_id = 0

    def __init__(self, ptr_type: Optional[T.TPtr],
                 where: str = "?") -> None:
        self.id = Node._next_id
        Node._next_id += 1
        self.ptr_type = ptr_type
        self.where = where
        # atomic constraint flags
        self.arith = False
        #: arithmetic that can move the pointer backwards (p-i, p-q,
        #: negative constant offsets): rules out the FSEQ kind.
        self.neg_arith = False
        self.wild = False
        self.rtti_needed = False
        self.interface = False
        self.split = False
        self.has_meta = False
        # edges
        self.compat: list[Node] = []
        self.same: list[Node] = []
        self.rtti_back: list[Node] = []
        self.seq_back: list[Node] = []
        self.flow_out: list[Node] = []
        #: the pointer may hold a non-zero integer disguised as a
        #: pointer (int-to-pointer cast): it can never be SAFE, and the
        #: taint follows the value forward along flows.
        self.from_int = False
        # conditional SEQ-cast obligations: (other-node, t_this, t_other)
        self.seq_casts: list[tuple[Node, T.CType, T.CType]] = []
        # solver results
        self.kind: PointerKind = PointerKind.SAFE
        self.solved = False
        #: provenance records, at most one per state (WILD/RTTI/SEQ),
        #: recorded only when `CureOptions.provenance` is on
        self.prov: list[Provenance] = []

    def add_prov(self, state: str, cause: str, via: str = "",
                 src: Optional[int] = None, where: str = "") -> bool:
        """Record entering ``state`` unless already explained."""
        for p in self.prov:
            if p.state == state:
                return False
        self.prov.append(Provenance(state, cause, via, src, where))
        return True

    def prov_for(self, state: str) -> Optional[Provenance]:
        for p in self.prov:
            if p.state == state:
                return p
        return None

    @property
    def reason(self) -> str:
        """Why the solver chose this kind — derived from the
        provenance record of the final kind's state, so the one-line
        reason and the blame graph can never disagree.  Empty when
        provenance recording was off or the node is SAFE."""
        p = None
        if self.solved and self.kind is not PointerKind.SAFE:
            state = ("SEQ" if self.kind in (PointerKind.SEQ,
                                            PointerKind.FSEQ)
                     else self.kind.name)
            p = self.prov_for(state)
        if p is None and self.prov:
            p = self.prov[0]
        return describe(p) if p is not None else ""

    def add_compat(self, other: "Node") -> None:
        self.compat.append(other)
        other.compat.append(self)

    def add_same(self, other: "Node") -> None:
        self.same.append(other)
        other.same.append(self)

    def add_rtti_back(self, other: "Node") -> None:
        """If ``self`` ends up RTTI, ``other`` must be RTTI too."""
        self.rtti_back.append(other)

    def add_seq_back(self, other: "Node") -> None:
        """If ``self`` ends up SEQ, ``other`` must be SEQ too: bounds
        must *originate* somewhere, so every pointer flowing into a SEQ
        pointer has to carry bounds itself (the backwards propagation
        of the original CCured inference).  The inverse direction is
        recorded as a forward flow edge for int-taint spreading."""
        self.seq_back.append(other)
        other.flow_out.append(self)

    def base_type(self) -> Optional[T.CType]:
        return self.ptr_type.base if self.ptr_type is not None else None

    def __repr__(self) -> str:
        k = self.kind.name if self.solved else "?"
        return f"<node {self.id} {k} @{self.where}>"


def ensure_node(t: T.TPtr, where: str = "?") -> Node:
    """Get or create the qualifier node of a pointer occurrence."""
    if t.node is None:
        t.node = Node(t, where)
    return t.node  # type: ignore[return-value]


def node_of(t: T.CType) -> Optional[Node]:
    """The qualifier node of ``t`` if it is a pointer type."""
    u = T.unroll(t)
    if isinstance(u, T.TPtr):
        return u.node  # type: ignore[return-value]
    return None
