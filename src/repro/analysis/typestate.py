"""Interprocedural latch/pin type-state over the call graph.

PR 5's linter proved release-on-all-paths *lexically* — an acquisition
had to sit inside a ``try/finally`` or ``with`` to be believed.  Every
place the protocol hands a latched frame across a call boundary
(crabbing in ``gist/tree.py``, the coupling baseline, redescend
helpers) needed a suppression.  This pass replaces that with an
abstract interpreter per function plus composable summaries:

* Each acquisition site creates a *resource id* (rid).  A state maps
  variables to rids and rids to a mask over ``HELD | RELEASED | NONE``
  (``NONE`` = the optional-acquire case, e.g. a helper that returns a
  latched frame or ``None``).
* Aliasing (``best = frame``, ``current = nxt``) is tracked with a
  per-state union-find; ``is`` / ``is not`` guards refine it — a
  ``current is not best`` branch where both names map to the same
  non-phi rid is *infeasible*, which is exactly what makes the chain
  hand-over-hand loops verify.
* Joins create memoized *phi* rids keyed by the frozenset of base
  members they may denote, so loop fixpoints converge.
* Function summaries record per-parameter effects (``borrow`` /
  ``consume`` / ``mixed``) and whether the return value carries a held
  resource (``no`` / ``yes`` / ``optional``, with tuple positions) —
  ``transfers-ownership-to-caller`` in the issue's vocabulary.
  Summaries are computed bottom-up over Tarjan SCCs; recursive cliques
  (``_search_coupled``) iterate to a fixpoint from neutral summaries.

Checked exits are normal returns, fall-through, and *top-level*
``raise`` statements.  Implicit exception propagation is deliberately
out of scope — that path is owned at runtime by ``OpEnvelope``'s
fault-cleanup sweep and the lockdep leak ledger (see DESIGN.md §15).

Findings reuse the PR 5 rule ids (``latch-release``, ``pin-balance``)
so suppression markers and the fixture battery stay stable; a site is
only flagged when it is *both* lexically unprotected *and* not proven
balanced here, so the pass strictly retires suppressions, never adds
obligations to code the old linter accepted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.common import (
    Finding,
    SuppressionIndex,
    build_parent_map,
    call_attr,
    enclosing_function_lines,
    is_false_const,
    is_latch_acquire,
    is_pin,
    keyword_arg,
    receiver_text,
    structurally_protected,
)

HELD = 1
RELEASED = 2
NONE = 4

MAX_LOOP_ITERS = 8
MAX_SCC_ITERS = 4

#: intrinsic call attrs the engine models directly (never via summary)
_INTRINSIC_ATTRS = {
    "fix",
    "unfix",
    "pin",
    "unpin",
    "acquire",
    "release",
    "release_thread_fixes",
    "fixed",
}


@dataclass
class Resource:
    rid: int
    kind: str  # "frame" | "latch" | "pin"
    line: int
    label: str
    argtext: str = ""
    protected: bool = False
    is_param: bool = False


@dataclass
class Summary:
    """Composable per-function effect summary."""

    qname: str
    #: param name -> "borrow" | "consume" | "mixed"
    param_effects: dict[str, str] = field(default_factory=dict)
    returns_held: str = "no"  # "no" | "yes" | "optional"
    #: held positions when every held return is a tuple literal
    return_positions: tuple[int, ...] | None = None
    returns_kind: str = "frame"
    #: acquisition sites in this function (for bench/reporting)
    acquisition_sites: int = 0

    def key(self) -> tuple:
        return (
            tuple(sorted(self.param_effects.items())),
            self.returns_held,
            self.return_positions,
        )


class _State:
    """Abstract state: env (var -> rid), union-find, rid -> mask."""

    __slots__ = ("env", "parent", "mask")

    def __init__(self) -> None:
        self.env: dict[str, int] = {}
        self.parent: dict[int, int] = {}
        self.mask: dict[int, int] = {}

    def copy(self) -> "_State":
        st = _State()
        st.env = dict(self.env)
        st.parent = dict(self.parent)
        st.mask = dict(self.mask)
        return st

    def find(self, rid: int) -> int:
        root = rid
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(rid, rid) != rid:
            self.parent[rid], rid = root, self.parent[rid]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        self.parent[ra] = rb
        ma = self.mask.pop(ra, 0)
        self.mask[rb] = self.mask.get(rb, 0) | ma
        return rb

    def get_mask(self, rid: int) -> int:
        return self.mask.get(self.find(rid), 0)

    def set_mask(self, rid: int, mask: int) -> None:
        self.mask[self.find(rid)] = mask


class _Loop:
    __slots__ = ("breaks", "continues")

    def __init__(self) -> None:
        self.breaks: list[_State] = []
        self.continues: list[_State] = []


@dataclass
class _Exit:
    """Snapshot of obligations at one function exit."""

    kind: str  # "return" | "raise" | "fall"
    line: int
    #: (member frozenset, mask, returned?) per live rid root
    entries: list[tuple[frozenset, int, bool]]
    #: shape of the returned value, for summary computation
    returned_held: bool = False
    returned_positions: tuple[int, ...] | None = None
    returned_is_tuple: bool = False
    returns_none: bool = False


class _FunctionAnalysis:
    """One abstract interpretation of a single function body."""

    def __init__(
        self,
        engine: "TypeStateEngine",
        fn: FunctionInfo,
        parents: dict[ast.AST, ast.AST],
        supp: SuppressionIndex,
    ) -> None:
        self.engine = engine
        self.fn = fn
        self.ast_parents = parents
        self.supp = supp
        self.resources: dict[int, Resource] = {}
        self.members: dict[int, frozenset] = {}
        self.escaped: set[int] = set()
        self.released: set[int] = set()
        #: rids discharged by a thread-wide sweep (release_thread_fixes)
        self.swept: set[int] = set()
        self.exits: list[_Exit] = []
        self.param_rids: dict[str, int] = {}
        self.phi_memo: dict[frozenset, int] = {}
        self.site_rids: dict[tuple[int, int], int] = {}
        self.acquisitions = 0
        self._next = 0
        qname = fn.qname
        self.callsites = engine.callsites.get(qname, {})
        self.in_handler = 0
        self.finally_stack: list[tuple[str, list | None]] = []
        self.loops: list[_Loop] = []

    # -- rid bookkeeping ------------------------------------------------
    def _new_rid(self) -> int:
        self._next += 1
        return self._next

    def new_resource(
        self,
        kind: str,
        node: ast.AST,
        label: str,
        argtext: str = "",
        is_param: bool = False,
    ) -> int:
        key = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
        if not is_param and key in self.site_rids:
            rid = self.site_rids[key]
        else:
            rid = self._new_rid()
            if not is_param:
                self.site_rids[key] = rid
            self.resources[rid] = Resource(
                rid=rid,
                kind=kind,
                line=getattr(node, "lineno", 0),
                label=label,
                argtext=argtext,
                protected=not is_param
                and structurally_protected(node, self.ast_parents),
                is_param=is_param,
            )
            self.members[rid] = frozenset({rid})
        return rid

    def phi(self, a: int, b: int, st: _State) -> int:
        mem = self.members[a] | self.members[b]
        rid = self.phi_memo.get(mem)
        if rid is None:
            rid = self._new_rid()
            self.phi_memo[mem] = rid
            self.members[rid] = mem
        return rid

    def mark_escaped(self, rid: int, st: _State) -> None:
        self.escaped.update(self.members.get(st.find(rid), {rid}))

    def mark_released(self, rid: int, st: _State) -> None:
        self.released.update(self.members.get(st.find(rid), {rid}))
        st.set_mask(rid, RELEASED)

    def escape_env_name(self, name: str, st: _State) -> None:
        rid = st.env.get(name)
        if rid is not None:
            self.mark_escaped(rid, st)
        prefix = name + "."
        for key, rid in st.env.items():
            if key.startswith(prefix):
                self.mark_escaped(rid, st)

    # -- state join -----------------------------------------------------
    def canon(self, st: _State) -> tuple:
        env = tuple(
            sorted(
                (
                    var,
                    tuple(
                        sorted(
                            self.members.get(
                                st.find(rid), frozenset({rid})
                            )
                        )
                    ),
                )
                for var, rid in st.env.items()
            )
        )
        masks = tuple(
            sorted(
                (
                    tuple(
                        sorted(
                            self.members.get(root, frozenset({root}))
                        )
                    ),
                    st.mask[root],
                )
                for root in {st.find(r) for r in st.mask}
            )
        )
        return (env, masks)

    def join(self, a: _State | None, b: _State | None) -> _State | None:
        if a is None:
            return b
        if b is None:
            return a
        out = _State()
        # masks first, keyed by member-set so union-finds don't leak
        masks: dict[frozenset, int] = {}
        for st in (a, b):
            roots = {st.find(r) for r in st.mask}
            for root in roots:
                mem = self.members.get(root, frozenset({root}))
                masks[mem] = masks.get(mem, 0) | st.mask[root]
        rep: dict[frozenset, int] = {}

        def rid_for(mem: frozenset) -> int:
            if mem in rep:
                return rep[mem]
            if len(mem) == 1:
                rid = next(iter(mem))
            else:
                rid = self.phi_memo.get(mem)
                if rid is None:
                    rid = self._new_rid()
                    self.phi_memo[mem] = rid
                    self.members[rid] = mem
            rep[mem] = rid
            return rid

        for mem, mask in masks.items():
            out.mask[rid_for(mem)] = mask
        for var in set(a.env) | set(b.env):
            ra = a.env.get(var)
            rb = b.env.get(var)
            if ra is not None and rb is not None:
                ma = self.members.get(a.find(ra), frozenset({ra}))
                mb = self.members.get(b.find(rb), frozenset({rb}))
                mem = ma | mb
                rid = rid_for(mem)
                if mem not in masks:
                    mask = 0
                    for st, m in ((a, ma), (b, mb)):
                        for root in {st.find(r) for r in st.mask}:
                            if self.members.get(
                                root, frozenset({root})
                            ) & m:
                                mask |= st.mask[root]
                    out.mask[rid] = mask
                out.env[var] = rid
            else:
                st = a if ra is not None else b
                rid = ra if ra is not None else rb
                root = st.find(rid)
                mem = self.members.get(root, frozenset({rid}))
                out.env[var] = rid_for(mem)
        return out

    def join_all(self, *states) -> _State | None:
        out = None
        for st in states:
            out = self.join(out, st)
        return out

    # -- finally / exits ------------------------------------------------
    def _run_finallys(self, st: _State, until_loop: bool) -> _State:
        for marker, body in reversed(self.finally_stack):
            if marker == "loop":
                if until_loop:
                    break
                continue
            saved = self.finally_stack
            self.finally_stack = []
            nxt = self.exec_block(body, st)
            self.finally_stack = saved
            if nxt is None:
                break
            st = nxt
        return st

    def record_exit(
        self,
        kind: str,
        node: ast.AST,
        st: _State,
        returned_roots: set[int] | None = None,
        returned_held: bool = False,
        returned_positions: tuple[int, ...] | None = None,
        returned_is_tuple: bool = False,
        returns_none: bool = False,
    ) -> None:
        returned_roots = returned_roots or set()
        returned_members: set[int] = set()
        for rid in returned_roots:
            returned_members |= self.members.get(
                st.find(rid), frozenset({rid})
            )
        entries = []
        for root in {st.find(r) for r in list(st.mask)}:
            mem = self.members.get(root, frozenset({root}))
            entries.append(
                (mem, st.mask[root], bool(mem & returned_members))
            )
        self.exits.append(
            _Exit(
                kind=kind,
                line=getattr(node, "lineno", self.fn.lineno),
                entries=entries,
                returned_held=returned_held,
                returned_positions=returned_positions,
                returned_is_tuple=returned_is_tuple,
                returns_none=returns_none,
            )
        )

    # -- expression evaluation ------------------------------------------
    def eval_expr(self, expr, st: _State) -> int | None:
        if expr is None:
            return None
        if isinstance(expr, ast.Await):
            return self.eval_expr(expr.value, st)
        if isinstance(expr, ast.Name):
            return st.env.get(expr.id)
        if isinstance(expr, ast.Call):
            return self.eval_call(expr, st)
        if isinstance(expr, (ast.Tuple, ast.List)):
            for elt in expr.elts:
                self.eval_expr(elt, st)
            return None
        if isinstance(expr, ast.BoolOp):
            for v in expr.values:
                self.eval_expr(v, st)
            return None
        if isinstance(expr, (ast.BinOp, ast.Compare)):
            for node in ast.walk(expr):
                if isinstance(node, ast.Call):
                    self.eval_call(node, st)
            return None
        if isinstance(expr, ast.IfExp):
            self.eval_expr(expr.test, st)
            a = self.eval_expr(expr.body, st)
            b = self.eval_expr(expr.orelse, st)
            if a is not None:
                self.mark_escaped(a, st)
            if b is not None:
                self.mark_escaped(b, st)
            return None
        # other expression shapes: evaluate nested calls for effects
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self.eval_call(node, st)
        return None

    def _arg_rid(self, arg, st: _State) -> int | None:
        if isinstance(arg, ast.Name):
            return st.env.get(arg.id)
        return None

    def _release_by_argtext(self, text: str, st: _State) -> bool:
        for rid, res in list(self.resources.items()):
            if res.argtext and res.argtext == text:
                mask = st.get_mask(rid)
                if mask & HELD:
                    self.mark_released(rid, st)
                    return True
        return False

    def eval_call(self, call: ast.Call, st: _State) -> int | None:
        attr = call_attr(call)
        # evaluate nested calls inside arguments first
        arg_rids: list[int | None] = []
        for arg in call.args:
            if isinstance(arg, ast.Call):
                self.eval_call(arg, st)
            arg_rids.append(self._arg_rid(arg, st))
        kw_rids: dict[str, int | None] = {}
        for kw in call.keywords:
            if isinstance(kw.value, ast.Call):
                self.eval_call(kw.value, st)
            if kw.arg:
                kw_rids[kw.arg] = self._arg_rid(kw.value, st)

        # ---- intrinsics ----
        if attr == "fix":
            nowait = keyword_arg(call, "nowait")
            if nowait is not None and not is_false_const(nowait):
                return None
            self.acquisitions += 1
            return self._acquire(call, "frame", st)
        if attr == "pin" and is_pin(call):
            self.acquisitions += 1
            text = ""
            if call.args:
                try:
                    text = ast.unparse(call.args[0])
                except Exception:
                    text = ""
            return self._acquire(call, "pin", st, argtext=text)
        if is_latch_acquire(call):
            nowait = keyword_arg(call, "nowait")
            if nowait is not None and not is_false_const(nowait):
                return None
            self.acquisitions += 1
            recv = receiver_text(call)
            rid = self._acquire(call, "latch", st, argtext=recv)
            st.env[recv] = rid
            return None  # latch acquire returns bool, not a handle
        if attr == "unfix":
            if call.args:
                rid = self._arg_rid(call.args[0], st)
                if rid is not None:
                    self.mark_released(rid, st)
                else:
                    try:
                        text = ast.unparse(call.args[0])
                    except Exception:
                        text = ""
                    self._release_by_argtext(text, st)
            return None
        if attr == "release":
            recv = receiver_text(call)
            rid = st.env.get(recv)
            if rid is not None:
                self.mark_released(rid, st)
            else:
                self._release_by_argtext(recv, st)
            return None
        if attr == "unpin":
            if call.args:
                try:
                    text = ast.unparse(call.args[0])
                except Exception:
                    text = ""
                if not self._release_by_argtext(text, st):
                    rid = self._arg_rid(call.args[0], st)
                    if rid is not None:
                        self.mark_released(rid, st)
            return None
        if attr == "release_thread_fixes":
            for rid in list(self.resources):
                if st.get_mask(rid) & HELD:
                    self.mark_released(rid, st)
                self.swept.update(
                    self.members.get(st.find(rid), {rid})
                )
            return None

        # ---- summaries ----
        key = (call.lineno, call.col_offset)
        callee = self.callsites.get(key)
        if callee is not None and attr not in _INTRINSIC_ATTRS:
            return self._apply_summary(call, callee, arg_rids, kw_rids, st)

        # unresolved (or intrinsic-named but unmodelled): any resource
        # passed as an argument escapes — the callee may own it now
        for rid in arg_rids + list(kw_rids.values()):
            if rid is not None:
                self.mark_escaped(rid, st)
        return None

    def _acquire(
        self, call: ast.Call, kind: str, st: _State, argtext: str = ""
    ) -> int:
        rid = self.new_resource(
            kind,
            call,
            label=f"{kind} acquired",
            argtext=argtext,
        )
        root = st.find(rid)
        prev = st.mask.get(root, 0)
        if prev & HELD and prev == HELD:
            # loop-carried re-acquisition: only a leak if nothing else
            # still names the previous instance
            mem = self.members.get(root, frozenset({rid}))
            aliased = any(
                self.members.get(st.find(r), frozenset({r})) & mem
                for r in st.env.values()
            )
            if not aliased and not (mem & self.escaped):
                self.exits.append(
                    _Exit(
                        kind="reacquire",
                        line=call.lineno,
                        entries=[(mem, HELD, False)],
                    )
                )
        st.set_mask(rid, HELD)
        return rid

    def _apply_summary(
        self,
        call: ast.Call,
        callee: str,
        arg_rids: list[int | None],
        kw_rids: dict[str, int | None],
        st: _State,
    ) -> int | None:
        summ = self.engine.summaries.get(callee)
        info = self.engine.graph.functions.get(callee)
        if summ is None or info is None:
            for rid in arg_rids + list(kw_rids.values()):
                if rid is not None:
                    self.mark_escaped(rid, st)
            return None
        params = [a.arg for a in info.node.args.args]
        if params and params[0] in ("self", "cls"):
            params = params[1:]
        for idx, rid in enumerate(arg_rids):
            if rid is None or idx >= len(params):
                continue
            effect = summ.param_effects.get(params[idx], "borrow")
            if effect in ("consume", "mixed"):
                self.mark_released(rid, st)
        for name, rid in kw_rids.items():
            if rid is None:
                continue
            effect = summ.param_effects.get(name, "borrow")
            if effect in ("consume", "mixed"):
                self.mark_released(rid, st)
        if summ.returns_held == "no":
            return None
        rid = self.new_resource(
            summ.returns_kind,
            call,
            label=f"held result of {callee.rsplit('.', 1)[-1]}()",
        )
        mask = HELD if summ.returns_held == "yes" else HELD | NONE
        st.set_mask(rid, mask)
        return rid

    # -- refinement -----------------------------------------------------
    def refine(self, test, st: _State, branch: bool) -> _State | None:
        """Refine ``st`` along the ``branch`` arm of ``test``.

        Returns None when the branch is statically infeasible.
        """
        if test is None:
            return st
        if isinstance(test, ast.UnaryOp) and isinstance(
            test.op, ast.Not
        ):
            return self.refine(test.operand, st, not branch)
        if isinstance(test, ast.Name):
            rid = st.env.get(test.id)
            if rid is not None:
                return self._refine_noneness(rid, st, is_none=not branch)
            return st
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.IsNot))
        ):
            left, right = test.left, test.comparators[0]
            is_op = isinstance(test.ops[0], ast.Is)
            same = is_op == branch  # truth of "left is right"
            l_rid = self._arg_rid(left, st)
            r_rid = self._arg_rid(right, st)
            l_none = isinstance(left, ast.Constant) and left.value is None
            r_none = (
                isinstance(right, ast.Constant) and right.value is None
            )
            if r_none and l_rid is not None:
                return self._refine_noneness(l_rid, st, is_none=same)
            if l_none and r_rid is not None:
                return self._refine_noneness(r_rid, st, is_none=same)
            if l_rid is not None and r_rid is not None:
                ra, rb = st.find(l_rid), st.find(r_rid)
                base = (
                    len(self.members.get(ra, frozenset({ra}))) == 1
                    and len(self.members.get(rb, frozenset({rb}))) == 1
                )
                if same:
                    if ra != rb:
                        st.union(l_rid, r_rid)
                    return st
                if ra == rb and base:
                    return None  # "x is not x" branch: infeasible
                return st
        held_probe = self._held_by_me_rid(test, st)
        if held_probe is not None:
            rid, truth_means_held = held_probe
            held_branch = truth_means_held == branch
            if not held_branch:
                # latch not held by this thread: the release obligation
                # is discharged on this arm (this is the guarded-release
                # idiom — `if f.latch.held_by_me(): pool.unfix(f)`)
                mask = st.get_mask(rid) & ~HELD
                st.set_mask(rid, mask or RELEASED)
            return st
        # opaque test: evaluate for call effects, no refinement
        self.eval_expr(test, st)
        return st

    def _held_by_me_rid(
        self, test, st: _State
    ) -> tuple[int, bool] | None:
        """Match ``x.latch.held_by_me()`` probes (bare or compared with
        ``None``); returns (rid of x, truthiness-means-held)."""
        call = None
        truth_means_held = True
        if isinstance(test, ast.Call):
            call = test
        elif (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.IsNot))
            and isinstance(test.left, ast.Call)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            call = test.left
            truth_means_held = isinstance(test.ops[0], ast.IsNot)
        if call is None or call_attr(call) != "held_by_me":
            return None
        recv = receiver_text(call)
        base = recv.split(".", 1)[0]
        rid = st.env.get(base)
        if rid is None:
            rid = st.env.get(recv)
        if rid is None:
            return None
        return rid, truth_means_held

    def _refine_noneness(
        self, rid: int, st: _State, is_none: bool
    ) -> _State | None:
        mask = st.get_mask(rid)
        if mask == 0:
            return st
        if is_none:
            if not mask & NONE:
                return st  # not an optional resource; don't refine away
            st.set_mask(rid, NONE)
            return st
        new = mask & ~NONE
        if new == 0:
            return None
        st.set_mask(rid, new)
        return st

    # -- statements -----------------------------------------------------
    def exec_block(self, stmts, st: _State | None) -> _State | None:
        for stmt in stmts:
            if st is None:
                return None
            st = self.exec_stmt(stmt, st)
        return st

    def exec_stmt(self, stmt, st: _State) -> _State | None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return st  # nested defs: not interpreted
        if isinstance(stmt, ast.Return):
            return self._exec_return(stmt, st)
        if isinstance(stmt, ast.Raise):
            st = self._run_finallys(st.copy(), until_loop=False)
            if not self.in_handler:
                self.record_exit("raise", stmt, st)
            return None
        if isinstance(stmt, ast.Break):
            st = self._run_finallys(st.copy(), until_loop=True)
            if self.loops:
                self.loops[-1].breaks.append(st)
            return None
        if isinstance(stmt, ast.Continue):
            st = self._run_finallys(st.copy(), until_loop=True)
            if self.loops:
                self.loops[-1].continues.append(st)
            return None
        if isinstance(stmt, ast.Assign):
            return self._exec_assign(stmt, st)
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                fake = ast.Assign(targets=[stmt.target], value=stmt.value)
                ast.copy_location(fake, stmt)
                return self._exec_assign(fake, st)
            return st
        if isinstance(stmt, ast.AugAssign):
            self.eval_expr(stmt.value, st)
            if isinstance(stmt.target, ast.Name):
                st.env.pop(stmt.target.id, None)
            return st
        if isinstance(stmt, ast.Expr):
            rid = self.eval_expr(stmt.value, st)
            # a held result discarded on the floor stays an obligation:
            # the rid remains unbound and will be flagged at exits
            _ = rid
            return st
        if isinstance(stmt, ast.If):
            return self._exec_if(stmt, st)
        if isinstance(stmt, (ast.While,)):
            return self._exec_while(stmt, st)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._exec_for(stmt, st)
        if isinstance(stmt, ast.Try):
            return self._exec_try(stmt, st)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._exec_with(stmt, st)
        if isinstance(stmt, (ast.Assert, ast.Delete)):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    self.eval_call(node, st)
            if isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        st.env.pop(target.id, None)
            return st
        if isinstance(stmt, (ast.Pass, ast.Import, ast.ImportFrom)):
            return st
        if isinstance(stmt, ast.Global) or isinstance(
            stmt, ast.Nonlocal
        ):
            return st
        # anything else: evaluate calls for effects
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                self.eval_call(node, st)
        return st

    def _held_nonparam(self, rid: int, st: _State) -> bool:
        """Held, and ownership originates in this function (not a
        parameter passed straight back — pass-throughs do not create a
        new caller obligation)."""
        if not st.get_mask(rid) & HELD:
            return False
        mem = self.members.get(st.find(rid), frozenset({rid}))
        return any(
            b in self.resources and not self.resources[b].is_param
            for b in mem
        )

    def _exec_return(self, stmt: ast.Return, st: _State) -> None:
        value = stmt.value
        st = st.copy()
        returned_roots: set[int] = set()
        returned_held = False
        returned_positions: list[int] = []
        returned_is_tuple = isinstance(value, ast.Tuple)
        returns_none = value is None or (
            isinstance(value, ast.Constant) and value.value is None
        )
        if value is not None:
            rid = self.eval_expr(value, st)
            if rid is not None and self._held_nonparam(rid, st):
                returned_held = True
            if returned_is_tuple:
                for idx, elt in enumerate(value.elts):
                    erid = self._arg_rid(elt, st)
                    if erid is not None and self._held_nonparam(
                        erid, st
                    ):
                        returned_positions.append(idx)
                        returned_held = True
            # escape every name reachable from the returned expression
            for node in ast.walk(value):
                if isinstance(node, ast.Name):
                    self.escape_env_name(node.id, st)
                    r = st.env.get(node.id)
                    if r is not None:
                        returned_roots.add(r)
            if rid is not None:
                self.mark_escaped(rid, st)
                returned_roots.add(rid)
        st = self._run_finallys(st, until_loop=False)
        self.record_exit(
            "return",
            stmt,
            st,
            returned_roots=returned_roots,
            returned_held=returned_held,
            returned_positions=tuple(returned_positions) or None,
            returned_is_tuple=returned_is_tuple,
            returns_none=returns_none,
        )
        return None

    def _note_lost(
        self, name: str, stmt: ast.AST, st: _State, new_rid: int | None
    ) -> None:
        """Rebinding ``name`` drops the last reference to a held frame:
        nothing can release it any more (short of a thread-wide sweep),
        so record the loss as a pending obligation."""
        old = st.env.get(name)
        if old is None or old == new_rid:
            return
        root = st.find(old)
        if st.mask.get(root, 0) != HELD:
            return
        mem = self.members.get(root, frozenset({old}))
        bases = [b for b in mem if b in self.resources]
        if not bases or any(
            self.resources[b].is_param
            or self.resources[b].kind != "frame"
            or self.resources[b].protected
            for b in bases
        ):
            return
        for var, rid in st.env.items():
            if var == name:
                continue
            if (
                self.members.get(st.find(rid), frozenset({rid})) & mem
            ):
                return
        self.exits.append(
            _Exit(
                kind="lost",
                line=getattr(stmt, "lineno", 0),
                entries=[(mem, HELD, False)],
            )
        )

    def _exec_assign(self, stmt: ast.Assign, st: _State) -> _State:
        value = stmt.value
        rid = self.eval_expr(value, st)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                name = target.id
                self._note_lost(name, stmt, st, rid)
                # rebinding invalidates derived pseudo-keys (frame.latch)
                for key in [
                    k for k in st.env if k.startswith(name + ".")
                ]:
                    del st.env[key]
                if rid is not None:
                    st.env[name] = rid
                elif isinstance(value, ast.Name):
                    src = st.env.get(value.id)
                    if src is not None:
                        st.env[name] = src
                    else:
                        st.env.pop(name, None)
                else:
                    st.env.pop(name, None)
            elif isinstance(target, ast.Tuple) and isinstance(
                value, ast.Call
            ):
                self._bind_tuple_call(target, value, st)
            elif isinstance(target, ast.Tuple) and isinstance(
                value, ast.Tuple
            ):
                for t, v in zip(target.elts, value.elts):
                    if isinstance(t, ast.Name):
                        vr = self._arg_rid(v, st)
                        if vr is not None:
                            st.env[t.id] = vr
                        else:
                            st.env.pop(t.id, None)
            else:
                # attribute/subscript target: the value escapes
                if rid is not None:
                    self.mark_escaped(rid, st)
                elif isinstance(value, ast.Name):
                    self.escape_env_name(value.id, st)
        return st

    def _bind_tuple_call(
        self, target: ast.Tuple, call: ast.Call, st: _State
    ) -> None:
        key = (call.lineno, call.col_offset)
        callee = self.callsites.get(key)
        summ = self.engine.summaries.get(callee) if callee else None
        for t in target.elts:
            if isinstance(t, ast.Name):
                self._note_lost(t.id, call, st, None)
                st.env.pop(t.id, None)
        if (
            summ is None
            or summ.returns_held == "no"
            or summ.return_positions is None
        ):
            return
        for pos in summ.return_positions:
            if pos < len(target.elts) and isinstance(
                target.elts[pos], ast.Name
            ):
                rid = self.new_resource(
                    summ.returns_kind,
                    call,
                    label=(
                        "held result of "
                        f"{callee.rsplit('.', 1)[-1]}() [pos {pos}]"
                    ),
                )
                mask = (
                    HELD if summ.returns_held == "yes" else HELD | NONE
                )
                st.set_mask(rid, mask)
                st.env[target.elts[pos].id] = rid

    def _exec_if(self, stmt: ast.If, st: _State) -> _State | None:
        t_st = self.refine(stmt.test, st.copy(), branch=True)
        f_st = self.refine(stmt.test, st.copy(), branch=False)
        t_out = (
            self.exec_block(stmt.body, t_st) if t_st is not None else None
        )
        f_out = (
            self.exec_block(stmt.orelse, f_st)
            if f_st is not None
            else None
        )
        return self.join(t_out, f_out)

    def _exec_while(self, stmt: ast.While, st: _State) -> _State | None:
        loop = _Loop()
        self.loops.append(loop)
        self.finally_stack.append(("loop", None))
        st0 = st.copy()
        in_st = st.copy()
        always_true = (
            isinstance(stmt.test, ast.Constant) and bool(stmt.test.value)
        )
        prev_canon = None
        for _ in range(MAX_LOOP_ITERS):
            loop.continues = []
            body_in = self.refine(stmt.test, in_st.copy(), branch=True)
            out = (
                self.exec_block(stmt.body, body_in)
                if body_in is not None
                else None
            )
            tail = self.join_all(out, *loop.continues)
            if tail is None:
                break
            new_in = self.join(st0.copy(), tail)
            canon = self.canon(new_in)
            if canon == prev_canon:
                in_st = new_in
                break
            prev_canon = canon
            in_st = new_in
        self.finally_stack.pop()
        self.loops.pop()
        exits: list[_State] = []
        if not always_true:
            f_st = self.refine(stmt.test, in_st.copy(), branch=False)
            if f_st is not None:
                f_st = self.exec_block(stmt.orelse, f_st)
            if f_st is not None:
                exits.append(f_st)
        exits.extend(loop.breaks)
        return self.join_all(*exits) if exits else None

    def _exec_for(self, stmt, st: _State) -> _State | None:
        self.eval_expr(stmt.iter, st)
        loop = _Loop()
        self.loops.append(loop)
        self.finally_stack.append(("loop", None))
        st0 = st.copy()
        in_st = st.copy()
        prev_canon = None
        for _ in range(MAX_LOOP_ITERS):
            loop.continues = []
            body_in = in_st.copy()
            if isinstance(stmt.target, ast.Name):
                body_in.env.pop(stmt.target.id, None)
            out = self.exec_block(stmt.body, body_in)
            tail = self.join_all(out, *loop.continues)
            if tail is None:
                break
            new_in = self.join(st0.copy(), tail)
            canon = self.canon(new_in)
            if canon == prev_canon:
                in_st = new_in
                break
            prev_canon = canon
            in_st = new_in
        self.finally_stack.pop()
        self.loops.pop()
        exits: list[_State] = [in_st]
        exits.extend(loop.breaks)
        out = self.join_all(*exits)
        if out is not None:
            out = self.exec_block(stmt.orelse, out)
        return out

    def _exec_try(self, stmt: ast.Try, st: _State) -> _State | None:
        if stmt.finalbody:
            self.finally_stack.append(("finally", stmt.finalbody))
        entry = st.copy()
        body_out = self.exec_block(stmt.body, st)
        if body_out is not None:
            body_out = self.exec_block(stmt.orelse, body_out)
        handler_outs: list[_State | None] = []
        for handler in stmt.handlers:
            h_st = self.join(entry.copy(), body_out)
            if h_st is None:
                h_st = entry.copy()
            else:
                h_st = h_st.copy()
            self.in_handler += 1
            try:
                handler_outs.append(
                    self.exec_block(handler.body, h_st)
                )
            finally:
                self.in_handler -= 1
        merged = self.join_all(body_out, *handler_outs)
        if stmt.finalbody:
            self.finally_stack.pop()
            if merged is not None:
                merged = self.exec_block(stmt.finalbody, merged)
        return merged

    def _exec_with(self, stmt, st: _State) -> _State | None:
        scoped: list[int] = []
        for item in stmt.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                attr = call_attr(expr)
                if attr == "fixed":
                    rid = self.new_resource(
                        "frame", expr, label="frame via fixed()"
                    )
                    st.set_mask(rid, HELD)
                    scoped.append(rid)
                    if isinstance(item.optional_vars, ast.Name):
                        st.env[item.optional_vars.id] = rid
                    continue
                self.eval_call(expr, st)
            else:
                self.eval_expr(expr, st)
        out = self.exec_block(stmt.body, st)
        if out is not None:
            for rid in scoped:
                self.mark_released(rid, out)
        return out

    # -- driver ---------------------------------------------------------
    def run(self) -> None:
        st = _State()
        node = self.fn.node
        for arg in node.args.args + node.args.kwonlyargs:
            if arg.arg in ("self", "cls"):
                continue
            rid = self.new_resource(
                "frame", arg, label=f"param {arg.arg}", is_param=True
            )
            self.param_rids[arg.arg] = rid
            st.env[arg.arg] = rid
            st.set_mask(rid, HELD | NONE)
        out = self.exec_block(node.body, st)
        if out is not None:
            self.record_exit("fall", node, out, returns_none=True)

    # -- summary + findings ---------------------------------------------
    def summary(self) -> Summary:
        summ = Summary(qname=self.fn.qname)
        summ.acquisition_sites = self.acquisitions
        normal = [e for e in self.exits if e.kind in ("return", "fall")]
        for name, rid in self.param_rids.items():
            touched = rid in self.released or rid in self.escaped
            held_somewhere = False
            for exit_ in normal:
                for mem, mask, _ in exit_.entries:
                    if rid in mem and mask & HELD:
                        held_somewhere = True
            if not touched:
                summ.param_effects[name] = "borrow"
            elif not held_somewhere:
                summ.param_effects[name] = "consume"
            else:
                summ.param_effects[name] = "mixed"
        returns = [e for e in self.exits if e.kind == "return"]
        held_returns = [e for e in returns if e.returned_held]
        if held_returns:
            non_held = [e for e in returns if not e.returned_held]
            if non_held or any(
                e.returns_none for e in returns
            ):
                summ.returns_held = "optional"
            else:
                summ.returns_held = "yes"
            if all(e.returned_is_tuple for e in held_returns):
                positions: set[int] = set()
                for e in held_returns:
                    positions.update(e.returned_positions or ())
                summ.return_positions = tuple(sorted(positions))
        return summ

    def findings(self) -> list[Finding]:
        out: list[Finding] = []
        flagged: set[int] = set()
        for exit_ in self.exits:
            for mem, mask, returned in exit_.entries:
                if not mask & HELD or returned:
                    continue
                if mem & self.escaped:
                    continue
                if exit_.kind in ("lost", "reacquire") and (
                    mem & self.swept
                ):
                    continue
                for base in mem:
                    res = self.resources.get(base)
                    if res is None or res.is_param or res.protected:
                        continue
                    if base in flagged:
                        continue
                    flagged.add(base)
                    rule = (
                        "pin-balance"
                        if res.kind == "pin"
                        else "latch-release"
                    )
                    if exit_.kind == "reacquire":
                        msg = (
                            f"{res.label} at line {res.line} may still "
                            "be held when the site re-acquires on the "
                            "next loop iteration"
                        )
                    elif exit_.kind == "lost":
                        msg = (
                            f"{res.label} at line {res.line} is still "
                            "held when its last reference is rebound "
                            f"at line {exit_.line}"
                        )
                    else:
                        what = (
                            "pin is not unpinned"
                            if res.kind == "pin"
                            else "latch/frame is not released"
                        )
                        msg = (
                            f"{res.label} at line {res.line}: {what} on "
                            f"the path reaching line {exit_.line} "
                            "(interprocedural)"
                        )
                    out.append(
                        Finding(
                            path=str(self.fn.path),
                            line=res.line,
                            rule=rule,
                            message=msg,
                        )
                    )
        return out


class TypeStateEngine:
    """Bottom-up summary computation + per-function verification."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.summaries: dict[str, Summary] = {}
        #: caller qname -> {(lineno, col) -> callee qname}
        self.callsites: dict[str, dict[tuple[int, int], str]] = {}
        for qname, sites in graph.edges.items():
            table = self.callsites.setdefault(qname, {})
            for site in sites:
                table[(site.lineno, site.col)] = site.callee
        self._parents: dict[str, dict] = {}
        self._supp: dict[Path, SuppressionIndex] = {}
        self.functions_analyzed = 0
        self.summaries_computed = 0

    def _file_ctx(
        self, fn: FunctionInfo
    ) -> tuple[dict, SuppressionIndex]:
        # the parent map must index the same AST objects the callgraph
        # indexed, so it is built from fn.node itself (the structural
        # checks never need to walk above the enclosing def)
        if fn.qname not in self._parents:
            self._parents[fn.qname] = build_parent_map(fn.node)
        if fn.path not in self._supp:
            self._supp[fn.path] = SuppressionIndex(fn.path.read_text())
        return self._parents[fn.qname], self._supp[fn.path]

    def _analyze_fn(self, qname: str) -> _FunctionAnalysis | None:
        fn = self.graph.functions.get(qname)
        if fn is None:
            return None
        parents, supp = self._file_ctx(fn)
        analysis = _FunctionAnalysis(self, fn, parents, supp)
        analysis.run()
        self.functions_analyzed += 1
        return analysis

    def compute_summaries(self) -> None:
        for comp in self.graph.sccs():
            for qname in comp:
                self.summaries.setdefault(qname, Summary(qname=qname))
            for _ in range(MAX_SCC_ITERS):
                changed = False
                for qname in comp:
                    analysis = self._analyze_fn(qname)
                    if analysis is None:
                        continue
                    summ = analysis.summary()
                    self.summaries_computed += 1
                    if summ.key() != self.summaries[qname].key():
                        self.summaries[qname] = summ
                        changed = True
                    else:
                        self.summaries[qname] = summ
                if not changed:
                    break

    def verify(self) -> list[Finding]:
        """Final pass: re-interpret every function, collect findings."""
        findings: list[Finding] = []
        for qname, fn in self.graph.functions.items():
            analysis = self._analyze_fn(qname)
            if analysis is None:
                continue
            parents, supp = self._file_ctx(fn)
            for finding in analysis.findings():
                lines = enclosing_function_lines(fn.node, parents)
                res_lines = [finding.line] + lines
                if supp.allows(finding.rule, res_lines):
                    continue
                findings.append(finding)
        return findings


def check_paths(paths: list[Path], graph: CallGraph | None = None):
    """Build (or reuse) the call graph, run the engine, return
    ``(findings, engine)``."""
    from repro.analysis import callgraph as cg

    if graph is None:
        graph = cg.build(paths)
    engine = TypeStateEngine(graph)
    engine.compute_summaries()
    findings = engine.verify()
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, engine
