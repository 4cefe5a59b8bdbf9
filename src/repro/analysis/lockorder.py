"""Static lock-order extraction and cycle-freedom proof.

The runtime lockdep witness (:mod:`repro.analysis.lockdep`) learns the
acquisition graph from *executed* interleavings; this pass derives the
same graph from source, so the global latch order of the paper (root →
leaf, left → right along rightlinks, child → parent only in the
back-up phase, buffer shard mutexes innermost, lock-manager waits
never under a latch unless ``wait=False``) is proved over **all**
acquisition sites, not just the ones a test happened to drive.

Every acquisition site is labeled with a *role*, namespaced by the
owning class (or module stem) so that the GiST protocol's child→parent
back-up edge and the coupling baseline's deliberate parent→child hold
cannot alias into a false cycle:

* ``GiST:root`` / ``GiST:node`` / ``GiST:chain`` / ``GiST:parent`` /
  ``GiST:probe`` — ``pool.fix`` sites classified by argument text and
  enclosing-function name;
* ``BufferPool:shard`` — the per-shard clock mutex (modelled as
  acquired-and-released *inside* every ``fix``/``pin``, which is why
  the graph has latch→shard edges but never shard→latch);
* ``LockManager:wait`` — transactional lock calls (the lexical linter
  separately enforces ``wait=False`` under latches);
* ``<Class>:<attr>`` — named mutexes (``self._mutex``, partition
  locks, ...).

Edges are emitted (a) between lexically nested acquisitions inside one
function and (b) at call sites, from every held role to every role in
the callee's transitive may-acquire summary (computed bottom-up over
the call-graph SCCs).  Holding knowledge crosses call boundaries in
the other direction too: a helper whose type-state summary says it
*returns a held frame* (``transfers-ownership-to-caller``) pushes its
role onto the caller's held stack at the binding site.

A cycle in the resulting graph fails verification unless it matches a
*blessed* entry — a cycle the runtime witness has validated is ordered
by a key the static roles cannot see (pid order along a rightlink
chain, ascending partition index, top-down tree order in the coupling
baseline).  The graph is emitted as a JSON artifact so CI can diff it.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.common import (
    Finding,
    call_attr,
    is_false_const,
    keyword_arg,
    receiver_text,
)

#: cycles the runtime witness has blessed: (roles, ordering key).
#: a detected cycle passes iff its role set is a subset of a blessed set
BLESSED_CYCLES: list[tuple[frozenset, str]] = [
    (
        frozenset({"GiST:node", "GiST:parent"}),
        "split back-up holds the child while latching its parent "
        "(Figure 4), strictly bottom-up by tree level; the descent "
        "never couples latches (rightlinks instead of crabbing) and "
        "chain walks go strictly left-to-right in pid order, so no "
        "top-down hold can oppose it (paper §4.2; runtime witness: "
        "lockdep latch edges under the insert battery)",
    ),
    (
        frozenset({"LinkTree:node", "LinkTree:parent"}),
        "link-baseline split propagation is strictly bottom-up: "
        "_split_internal_link re-fixes the grandparent only while "
        "holding the (lower-level) parent",
    ),
    (
        frozenset({"_HeldPathTree:node"}),
        "the coupling/subtree baselines hold the whole root-to-leaf "
        "path by design, ordered strictly top-down by tree level "
        "(their defining behavior; never mixed with the link "
        "protocol's bottom-up back-up in one pool)",
    ),
    (
        frozenset({"maintenance:node"}),
        "vacuum drain fixes left sibling, victim, then parent — "
        "within-level left-to-right, then bottom-up, consistent with "
        "splits (comment at maintenance._try_delete_node)",
    ),
    (
        frozenset({"PartitionedDatabase:_locks"}),
        "per-partition scatter locks are acquired in ascending "
        "partition index (targets are sorted before the acquire loop)",
    ),
]


@dataclass
class LockOrderGraph:
    #: (src, dst) -> sample sites "path:line"
    edges: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    nodes: set = field(default_factory=set)

    def add_edge(self, src: str, dst: str, site: str) -> None:
        self.nodes.add(src)
        self.nodes.add(dst)
        sites = self.edges.setdefault((src, dst), [])
        if len(sites) < 8 and site not in sites:
            sites.append(site)

    def successors(self, node: str) -> list[str]:
        return [d for (s, d) in self.edges if s == node]

    def cycles(self) -> list[frozenset]:
        """Strongly connected components with an internal edge (a
        multi-node SCC or a self-loop) — each is a cycle witness."""
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set = set()
        stack: list[str] = []
        out: list[frozenset] = []
        counter = [0]
        for root in sorted(self.nodes):
            if root in index:
                continue
            work = [(root, iter(self.successors(root)))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for nxt in it:
                    if nxt not in index:
                        index[nxt] = low[nxt] = counter[0]
                        counter[0] += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, iter(self.successors(nxt))))
                        advanced = True
                        break
                    if nxt in on_stack:
                        low[node] = min(low[node], index[nxt])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        comp.append(member)
                        if member == node:
                            break
                    if len(comp) > 1 or (
                        (comp[0], comp[0]) in self.edges
                    ):
                        out.append(frozenset(comp))
        return out

    def unblessed_cycles(self) -> list[frozenset]:
        bad = []
        for cycle in self.cycles():
            if not any(
                cycle <= blessed for blessed, _why in BLESSED_CYCLES
            ):
                bad.append(cycle)
        return bad

    def kind_projection(self) -> set:
        """Project role edges to (kind, kind) — the granularity the
        runtime lockdep witness records — for the superset cross-check."""

        def kind(role: str) -> str:
            if role.endswith(":shard"):
                return "shard"
            if role.startswith("LockManager:"):
                return "lock"
            return "latch"

        return {(kind(s), kind(d)) for (s, d) in self.edges}

    def to_json(self) -> dict:
        return {
            "nodes": sorted(self.nodes),
            "edges": [
                {"src": s, "dst": d, "sites": sites}
                for (s, d), sites in sorted(self.edges.items())
            ],
            "blessed": [
                {"roles": sorted(roles), "why": why}
                for roles, why in BLESSED_CYCLES
            ],
            "cycles": [sorted(c) for c in self.cycles()],
            "unblessed_cycles": [
                sorted(c) for c in self.unblessed_cycles()
            ],
        }


# ----------------------------------------------------------------------
# role classification
# ----------------------------------------------------------------------


def _namespace(fn: FunctionInfo) -> str:
    if fn.cls:
        return fn.cls
    return fn.module.rsplit(".", 1)[-1]


def _fix_role(fn: FunctionInfo, call: ast.Call) -> str:
    ns = _namespace(fn)
    argtext = ""
    if call.args:
        try:
            argtext = ast.unparse(call.args[0]).lower()
        except Exception:
            argtext = ""
    if "root" in argtext:
        return f"{ns}:root"
    if any(t in argtext for t in ("link", "chain", "next", "right")):
        return f"{ns}:chain"
    name = fn.name
    if name.startswith("_fix_parent") or name in (
        "_expand_up",
        "_update_bp",
    ):
        return f"{ns}:parent"
    if name.startswith(("_redescend", "_descend")):
        return f"{ns}:probe"
    return f"{ns}:node"


def _return_role(info: FunctionInfo | None) -> str:
    """Role of the held frame a summary-transferring helper returns."""
    if info is None:
        return "frame:node"
    ns = _namespace(info)
    name = info.name
    if name.startswith("_fix_parent") or name.startswith("_redescend"):
        return f"{ns}:parent"
    if "chain" in name or "follow" in name:
        return f"{ns}:chain"
    return f"{ns}:node"


def _is_lockmanager_call(call: ast.Call) -> bool:
    if call_attr(call) != "acquire":
        return False
    recv = receiver_text(call)
    last = recv.rsplit(".", 1)[-1].lower()
    return last in ("locks", "lock_manager") or recv.lower().endswith(
        "lock_manager"
    )


def _is_shard_mutex(expr: ast.expr) -> bool:
    """``with shard.lock:`` — the buffer pool's hot paths take the shard
    mutex directly instead of through ``_locked(shard)``."""
    return (
        isinstance(expr, ast.Attribute)
        and expr.attr == "lock"
        and "shard" in ast.unparse(expr.value).lower()
    )


def _mutex_role(fn: FunctionInfo, recv: str) -> str:
    ns = _namespace(fn)
    # strip a self./subscript prefix down to the salient attribute
    name = recv
    if "[" in name:
        name = name.split("[", 1)[0]
    name = name.rsplit(".", 1)[-1] or name
    return f"{ns}:{name}"


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------


class LockOrderAnalyzer:
    """Walks every function with a lexical held-stack of roles; callee
    may-acquire summaries and held-return transfers cross the call
    boundary."""

    def __init__(self, graph: CallGraph, ts_engine=None) -> None:
        self.graph = graph
        self.ts = ts_engine
        self.may_acquire: dict[str, set] = {}
        self.order = LockOrderGraph()
        #: caller qname -> {(lineno, col) -> callee qname}
        self.callsites: dict[str, dict[tuple[int, int], str]] = {}
        for qname, sites in graph.edges.items():
            table = self.callsites.setdefault(qname, {})
            for site in sites:
                table[(site.lineno, site.col)] = site.callee

    # -- phase 1: transitive may-acquire summaries ----------------------
    def compute_summaries(self) -> None:
        for comp in self.graph.sccs():
            for qname in comp:
                self.may_acquire.setdefault(qname, set())
            for _ in range(4):
                changed = False
                for qname in comp:
                    fn = self.graph.functions.get(qname)
                    if fn is None:
                        continue
                    roles = self._own_roles(fn)
                    for site in self.graph.edges.get(qname, ()):
                        roles |= self.may_acquire.get(
                            site.callee, set()
                        )
                    if roles != self.may_acquire[qname]:
                        self.may_acquire[qname] = roles
                        changed = True
                if not changed:
                    break

    def _own_roles(self, fn: FunctionInfo) -> set:
        roles: set = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.With) and any(
                _is_shard_mutex(item.context_expr) for item in node.items
            ):
                roles.add("BufferPool:shard")
            if not isinstance(node, ast.Call):
                continue
            role = self._acquire_role(fn, node)
            if role is not None:
                roles.add(role)
                if role.split(":", 1)[-1] in (
                    "root",
                    "node",
                    "chain",
                    "parent",
                    "probe",
                ):
                    # every fix pins through the buffer shard mutex
                    roles.add("BufferPool:shard")
        return roles

    def _acquire_role(
        self, fn: FunctionInfo, call: ast.Call
    ) -> str | None:
        attr = call_attr(call)
        if attr in ("fix", "fixed"):
            return _fix_role(fn, call)
        if _is_lockmanager_call(call):
            return "LockManager:wait"
        if attr in ("acquire", "_locked", "locked"):
            recv = receiver_text(call)
            low = recv.lower()
            if attr == "_locked" or "shard" in low:
                return "BufferPool:shard"
            if attr == "acquire" and any(
                t in low for t in ("latch", "lock", "mutex", "cond")
            ):
                if "latch" in low:
                    return f"{_namespace(fn)}:node"
                return _mutex_role(fn, recv)
        return None

    # -- phase 2: per-function edge extraction --------------------------
    def extract(self) -> LockOrderGraph:
        for qname, fn in self.graph.functions.items():
            self._scan_function(qname, fn)
        return self.order

    def _scan_function(self, qname: str, fn: FunctionInfo) -> None:
        held: list[tuple[str, str | None]] = []  # (role, bound var)
        self._scan_block(qname, fn, fn.node.body, held)

    def _site(self, fn: FunctionInfo, node: ast.AST) -> str:
        return f"{fn.path}:{getattr(node, 'lineno', fn.lineno)}"

    def _push(
        self,
        fn: FunctionInfo,
        node: ast.AST,
        held: list,
        role: str,
        var: str | None,
    ) -> None:
        site = self._site(fn, node)
        for held_role, _var in held:
            self.order.add_edge(held_role, role, site)
        # a fix reaches through the shard mutex while latches are held
        if role.split(":", 1)[-1] in (
            "root",
            "node",
            "chain",
            "parent",
            "probe",
        ):
            for held_role, _var in held:
                self.order.add_edge(
                    held_role, "BufferPool:shard", site
                )
        held.append((role, var))

    def _pop_var(self, held: list, var: str | None) -> None:
        if var is not None:
            for i in range(len(held) - 1, -1, -1):
                if held[i][1] == var:
                    del held[i]
                    return
        if held:
            held.pop()

    def _scan_block(
        self, qname: str, fn: FunctionInfo, stmts, held: list
    ) -> None:
        for stmt in stmts:
            self._scan_stmt(qname, fn, stmt, held)

    def _scan_stmt(self, qname, fn, stmt, held: list) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            entered = 0
            for item in stmt.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    role = self._acquire_role(fn, expr)
                    if role is not None:
                        var = (
                            item.optional_vars.id
                            if isinstance(item.optional_vars, ast.Name)
                            else None
                        )
                        self._push(fn, expr, held, role, var)
                        entered += 1
                        continue
                    self._scan_call(qname, fn, expr, held)
                else:
                    try:
                        text = ast.unparse(expr).lower()
                    except Exception:
                        text = ""
                    if _is_shard_mutex(expr):
                        self._push(fn, expr, held, "BufferPool:shard", None)
                        entered += 1
                    elif any(
                        text.endswith(s)
                        for s in ("lock", "mutex", "cond", "_cv")
                    ):
                        self._push(
                            fn,
                            expr,
                            held,
                            _mutex_role(fn, text),
                            None,
                        )
                        entered += 1
            self._scan_block(qname, fn, stmt.body, held)
            for _ in range(entered):
                if held:
                    held.pop()
            return
        if isinstance(stmt, ast.Try):
            self._scan_block(qname, fn, stmt.body, held)
            for handler in stmt.handlers:
                self._scan_block(qname, fn, handler.body, held)
            self._scan_block(qname, fn, stmt.orelse, held)
            self._scan_block(qname, fn, stmt.finalbody, held)
            return
        if isinstance(stmt, ast.If):
            self._scan_expr(qname, fn, stmt.test, held)
            self._scan_block(qname, fn, stmt.body, held)
            self._scan_block(qname, fn, stmt.orelse, held)
            return
        if isinstance(stmt, ast.While):
            self._scan_expr(qname, fn, stmt.test, held)
            self._scan_block(qname, fn, stmt.body, held)
            self._scan_block(qname, fn, stmt.body, held)
            self._scan_block(qname, fn, stmt.orelse, held)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(qname, fn, stmt.iter, held)
            # scan the body twice: an acquire the first pass leaves
            # held (e.g. the partition-lock scatter loop) meets its
            # own next-iteration instance on the second pass, which
            # surfaces loop-carried multi-acquisition as a self-edge
            self._scan_block(qname, fn, stmt.body, held)
            self._scan_block(qname, fn, stmt.body, held)
            self._scan_block(qname, fn, stmt.orelse, held)
            return
        if isinstance(stmt, ast.Assign) and isinstance(
            stmt.value, ast.Call
        ):
            var = (
                stmt.targets[0].id
                if len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                else None
            )
            self._scan_call(qname, fn, stmt.value, held, bind=var)
            return
        self._scan_expr(qname, fn, stmt, held)

    def _scan_expr(self, qname, fn, node, held: list) -> None:
        if node is None:
            return
        calls = [
            n for n in ast.walk(node) if isinstance(n, ast.Call)
        ]
        calls.sort(key=lambda c: (c.lineno, c.col_offset))
        for call in calls:
            self._scan_call(qname, fn, call, held)

    def _scan_call(
        self, qname, fn, call: ast.Call, held: list, bind=None
    ) -> None:
        attr = call_attr(call)
        role = self._acquire_role(fn, call)
        if role is not None:
            nowait = keyword_arg(call, "nowait")
            if attr == "fix" and (
                nowait is None or is_false_const(nowait)
            ):
                self._push(fn, call, held, role, bind)
                return
            if attr == "acquire" and role != "LockManager:wait":
                recv = receiver_text(call)
                self._push(fn, call, held, role, recv or bind)
                return
            if role == "LockManager:wait":
                site = self._site(fn, call)
                for held_role, _var in held:
                    self.order.add_edge(
                        held_role, "LockManager:wait", site
                    )
                return
        if attr == "unfix":
            var = None
            if call.args and isinstance(call.args[0], ast.Name):
                var = call.args[0].id
            self._pop_var(held, var)
            return
        if attr == "release":
            recv = receiver_text(call)
            for i in range(len(held) - 1, -1, -1):
                if held[i][1] == recv:
                    del held[i]
                    return
            low = recv.lower()
            if any(
                t in low for t in ("latch", "lock", "mutex", "cond")
            ):
                self._pop_var(held, None)
            return
        if attr == "release_thread_fixes":
            held.clear()
            return
        # plain call: compose the callee's may-acquire roles
        key = (call.lineno, call.col_offset)
        callee = self.callsites.get(qname, {}).get(key)
        if callee is not None and held:
            site = self._site(fn, call)
            for role2 in sorted(self.may_acquire.get(callee, ())):
                for held_role, _var in held:
                    self.order.add_edge(held_role, role2, site)
        # ownership transfer: helper returns a held frame
        if callee is not None and bind is not None and self.ts:
            summ = self.ts.summaries.get(callee)
            if summ is not None and summ.returns_held in (
                "yes",
                "optional",
            ):
                info = self.graph.functions.get(callee)
                held.append((_return_role(info), bind))


def analyze(
    paths: list[Path],
    graph: CallGraph | None = None,
    ts_engine=None,
) -> LockOrderGraph:
    from repro.analysis import callgraph as cg
    from repro.analysis.typestate import TypeStateEngine

    if graph is None:
        graph = cg.build(paths)
    if ts_engine is None:
        # held-return transfers (``parent = self._fix_parent(...)``)
        # only cross the call boundary through type-state summaries;
        # without them the back-up edges would silently vanish
        ts_engine = TypeStateEngine(graph)
        ts_engine.compute_summaries()
    analyzer = LockOrderAnalyzer(graph, ts_engine)
    analyzer.compute_summaries()
    return analyzer.extract()


def findings_for(graph: LockOrderGraph) -> list[Finding]:
    out = []
    for cycle in graph.unblessed_cycles():
        roles = sorted(cycle)
        sample = ""
        for (s, d), sites in sorted(graph.edges.items()):
            if s in cycle and d in cycle:
                sample = sites[0] if sites else ""
                break
        out.append(
            Finding(
                path=sample.rsplit(":", 1)[0] if sample else "<graph>",
                line=int(sample.rsplit(":", 1)[1]) if sample else 0,
                rule="lock-order-cycle",
                message=(
                    "static acquisition cycle not blessed by the "
                    f"runtime witness: {' -> '.join(roles)}"
                ),
            )
        )
    return out


def write_artifact(graph: LockOrderGraph, path: Path) -> None:
    path.write_text(json.dumps(graph.to_json(), indent=2) + "\n")
