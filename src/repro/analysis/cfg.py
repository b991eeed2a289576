"""Control-flow graphs over the CIL statement tree.

The curing pipeline keeps function bodies as structured statement
trees (``If``/``Loop``/``Break``/``Continue``), which is the right
shape for instrumentation and printing but the wrong shape for
dataflow.  This module flattens a :class:`repro.cil.stmt.Fundec` body
into basic blocks of *instruction references* — the blocks alias the
very ``Instr`` objects stored in the tree, so a fact proven for a
block instruction can be mapped back to its tree position by identity
when the eliminator rewrites the body.

Edges preserve what the dataflow needs:

* branch edges carry the ``If`` condition plus a polarity, so the
  solver can refine facts per arm (``if (p)`` proves ``NonNull(p)``
  on the true edge);
* loop back-edges are marked, both for reporting and so a reader of
  ``repro analyze`` output can see where fixpoint iteration happened;
* ``continue_runs_trailing`` (the frontend's encoding of ``for``
  increments) is honoured: ``continue`` targets the block holding the
  trailing statements, not the loop header, exactly as both engines
  execute it.

Unreachable statements (code after ``return``/``break``) land in
predecessor-less blocks; the solver treats those as having *no* proven
facts, so nothing is ever eliminated on the strength of being dead.
"""

from __future__ import annotations

from typing import Optional

from repro.cil import expr as E
from repro.cil import stmt as S


class Edge:
    """A CFG edge, optionally carrying branch conditions.

    ``conds`` is the list of ``(cond, polarity, loc)`` refinements the
    edge asserts.  Builder-produced edges carry at most one; forwarding
    an empty join block (see :func:`_forward_empty_joins`) composes the
    conditions of the two edges it replaces, which is what lets the
    must-analysis see through the frontend's short-circuit lowering.
    ``cond``/``polarity`` remain as views of the first entry.
    """

    __slots__ = ("src", "dst", "conds", "back")

    def __init__(self, src: "BasicBlock", dst: "BasicBlock",
                 cond: Optional[E.Exp] = None,
                 polarity: Optional[bool] = None,
                 back: bool = False,
                 conds: Optional[list] = None,
                 loc: Optional[tuple] = None) -> None:
        self.src = src
        self.dst = dst
        if conds is not None:
            self.conds: list[tuple] = list(conds)
        elif cond is not None:
            self.conds = [(cond, polarity, loc)]
        else:
            self.conds = []
        self.back = back          # loop back-edge

    @property
    def cond(self) -> Optional[E.Exp]:
        """First branch condition (None on plain edges)."""
        return self.conds[0][0] if self.conds else None

    @property
    def polarity(self) -> Optional[bool]:
        """Polarity of the first condition: True = then-edge."""
        return self.conds[0][1] if self.conds else None

    def __repr__(self) -> str:
        c = "".join(f" [{'' if pol else '!'}{cond!r}]"
                    for cond, pol, _ in self.conds)
        b = " (back)" if self.back else ""
        return f"b{self.src.bid}->b{self.dst.bid}{c}{b}"


class BasicBlock:
    """A maximal straight-line run of instructions."""

    __slots__ = ("bid", "instrs", "succs", "preds")

    def __init__(self, bid: int) -> None:
        self.bid = bid
        self.instrs: list[S.Instr] = []
        self.succs: list[Edge] = []
        self.preds: list[Edge] = []

    def __repr__(self) -> str:
        return f"<block b{self.bid}: {len(self.instrs)} instrs>"


class CFG:
    """The control-flow graph of one function."""

    def __init__(self, fundec: S.Fundec) -> None:
        self.fundec = fundec
        self.blocks: list[BasicBlock] = []
        self.entry = self.new_block()
        self.exit = self.new_block()

    def new_block(self) -> BasicBlock:
        b = BasicBlock(len(self.blocks))
        self.blocks.append(b)
        return b

    def add_edge(self, src: BasicBlock, dst: BasicBlock,
                 cond: Optional[E.Exp] = None,
                 polarity: Optional[bool] = None,
                 back: bool = False,
                 conds: Optional[list] = None,
                 loc: Optional[tuple] = None) -> Edge:
        e = Edge(src, dst, cond, polarity, back, conds=conds, loc=loc)
        src.succs.append(e)
        dst.preds.append(e)
        return e

    @property
    def n_edges(self) -> int:
        return sum(len(b.succs) for b in self.blocks)

    @property
    def n_back_edges(self) -> int:
        return sum(1 for b in self.blocks for e in b.succs if e.back)

    def rpo(self) -> list[BasicBlock]:
        """Blocks in reverse postorder from the entry, followed by any
        unreachable blocks (in creation order)."""
        seen: set[int] = set()
        post: list[BasicBlock] = []

        def dfs(root: BasicBlock) -> None:
            stack: list[tuple[BasicBlock, int]] = [(root, 0)]
            seen.add(root.bid)
            while stack:
                b, i = stack.pop()
                if i < len(b.succs):
                    stack.append((b, i + 1))
                    nxt = b.succs[i].dst
                    if nxt.bid not in seen:
                        seen.add(nxt.bid)
                        stack.append((nxt, 0))
                else:
                    post.append(b)

        dfs(self.entry)
        order = list(reversed(post))
        order.extend(b for b in self.blocks if b.bid not in seen)
        return order


class _Builder:
    def __init__(self, fd: S.Fundec) -> None:
        self.cfg = CFG(fd)
        #: enclosing loops: (break target, continue target, header)
        self._loops: list[tuple[BasicBlock, BasicBlock,
                                BasicBlock]] = []

    def build(self) -> CFG:
        end = self._stmts(self.cfg.fundec.body.stmts, self.cfg.entry)
        if end is not None:  # implicit return at the end of the body
            self.cfg.add_edge(end, self.cfg.exit)
        return self.cfg

    def _stmts(self, stmts: list[S.Stmt],
               cur: Optional[BasicBlock]) -> Optional[BasicBlock]:
        for s in stmts:
            if cur is None:
                # Code after return/break/continue: park it in a
                # predecessor-less block so its checks are never
                # "proven" by the must-analysis.
                cur = self.cfg.new_block()
            cur = self._stmt(s, cur)
        return cur

    def _stmt(self, s: S.Stmt,
              cur: BasicBlock) -> Optional[BasicBlock]:
        if isinstance(s, S.InstrStmt):
            cur.instrs.extend(s.instrs)
            return cur
        if isinstance(s, S.Return):
            self.cfg.add_edge(cur, self.cfg.exit)
            return None
        if isinstance(s, S.Break):
            if not self._loops:  # defensive: treat as function exit
                self.cfg.add_edge(cur, self.cfg.exit)
            else:
                self.cfg.add_edge(cur, self._loops[-1][0])
            return None
        if isinstance(s, S.Continue):
            if not self._loops:
                self.cfg.add_edge(cur, self.cfg.exit)
            else:
                _, cont, header = self._loops[-1]
                self.cfg.add_edge(cur, cont, back=(cont is header))
            return None
        if isinstance(s, S.Block):
            return self._stmts(s.stmts, cur)
        if isinstance(s, S.If):
            return self._if(s, cur)
        if isinstance(s, S.Loop):
            return self._loop(s, cur)
        return cur  # unknown statement kinds: straight through

    def _if(self, s: S.If, cur: BasicBlock) -> Optional[BasicBlock]:
        then_b = self.cfg.new_block()
        else_b = self.cfg.new_block()
        loc = getattr(s, "loc", None)
        self.cfg.add_edge(cur, then_b, cond=s.cond, polarity=True,
                          loc=loc)
        self.cfg.add_edge(cur, else_b, cond=s.cond, polarity=False,
                          loc=loc)
        t_end = self._stmts(s.then.stmts, then_b)
        e_end = self._stmts(s.els.stmts, else_b)
        if t_end is None and e_end is None:
            return None
        join = self.cfg.new_block()
        if t_end is not None:
            self.cfg.add_edge(t_end, join)
        if e_end is not None:
            self.cfg.add_edge(e_end, join)
        return join

    def _loop(self, s: S.Loop,
              cur: BasicBlock) -> Optional[BasicBlock]:
        header = self.cfg.new_block()
        self.cfg.add_edge(cur, header)
        after = self.cfg.new_block()
        stmts = s.body.stmts
        n = min(s.continue_runs_trailing, len(stmts))
        tail_entry: Optional[BasicBlock] = None
        if n:
            # ``continue`` executes the trailing n statements (the
            # ``for`` increment) before re-testing the loop.
            tail_entry = self.cfg.new_block()
            cont: BasicBlock = tail_entry
        else:
            cont = header
        self._loops.append((after, cont, header))
        end = self._stmts(stmts[:len(stmts) - n], header)
        if tail_entry is not None:
            if end is not None:
                self.cfg.add_edge(end, tail_entry)
            end = self._stmts(stmts[len(stmts) - n:], tail_entry)
        self._loops.pop()
        if end is not None:
            self.cfg.add_edge(end, header, back=True)
        # a loop with no break never reaches the code after it
        return after if after.preds else None


#: forwarding an empty join multiplies edges (preds × succs); bail out
#: beyond this product so pathological chains stay linear.
_MAX_FORWARD_FANOUT = 8


def _forward_empty_joins(cfg: CFG) -> None:
    """Bypass instruction-less join blocks whose successors branch.

    The frontend lowers ``a || b`` / ``a && b`` through a compiler
    temp: a diamond assigns ``__cil_scN`` per arm, the arms meet in an
    empty join, and the *next* ``If`` branches on the temp.  A meet at
    the join intersects away everything the arms knew, so branch
    refinement on the temp learns nothing.  Re-routing each pred edge
    directly to each successor — composing the two edges' condition
    lists — lets the solver refine each arm's out-set separately and
    prune arm/branch combinations that are contradictory (the arm that
    set ``__cil_scN = 1`` cannot reach the ``__cil_scN == 0`` edge).
    The meet still happens, at the successor, over exactly the same
    set of execution paths, so the transformation is must-sound; it is
    purely a precision (path-sensitivity) device.
    """
    changed = True
    while changed:
        changed = False
        for b in cfg.blocks:
            if b is cfg.entry or b is cfg.exit or b.instrs:
                continue
            if len(b.preds) < 2 or not b.succs:
                continue
            if not any(e.conds for e in b.succs):
                continue  # nothing downstream to refine
            if any(e.back or e.src is b for e in b.preds) \
                    or any(e.back or e.dst is b for e in b.succs):
                continue  # keep loop structure intact
            if len(b.preds) * len(b.succs) > _MAX_FORWARD_FANOUT:
                continue
            preds, succs = list(b.preds), list(b.succs)
            for pe in preds:
                pe.src.succs.remove(pe)
            for se in succs:
                se.dst.preds.remove(se)
            b.preds.clear()
            b.succs.clear()
            for pe in preds:
                for se in succs:
                    cfg.add_edge(pe.src, se.dst,
                                 conds=pe.conds + se.conds)
            changed = True


def build_cfg(fd: S.Fundec) -> CFG:
    """Build the CFG of one function definition."""
    cfg = _Builder(fd).build()
    _forward_empty_joins(cfg)
    return cfg
