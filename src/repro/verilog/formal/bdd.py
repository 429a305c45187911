"""A small hash-consed ROBDD engine for exact bit-level checking.

The formal checker bit-blasts the synthesizable two-valued subset of an
elaborated design into reduced ordered binary decision diagrams.  BDDs
give *canonical* function representations: two circuits compute the
same function iff their output nodes are the same integer, so
equivalence is pointer comparison and property checking is "is the
node the TRUE terminal".  No external solver is involved.

Nodes live in one arena per :class:`BDDManager`:

* node ``0`` is FALSE, node ``1`` is TRUE;
* every other node is ``(var, lo, hi)`` — test ``var``, follow ``lo``
  when it is 0 and ``hi`` when it is 1 — interned in a unique table so
  structurally equal functions share one node;
* ``ite`` (if-then-else) is the single connective everything else is
  built from, memoised in a computed table.  It is one kernel, a
  closure over the arena's tables built once per manager, that reads
  cofactors straight from the node tuples and interns inline; its
  hi-then-lo recursion creates the same nodes, in the same order, as
  the textbook definition.  The closure does not pickle: a manager
  lives and dies inside the process that runs its check.

Variable order is allocation order.  The manager enforces a node
budget: crossing it raises :class:`BDDBudgetError`, which the checker
reports as an *unsupported* verdict — never a wrong one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

#: Terminal node ids.
FALSE = 0
TRUE = 1

#: Default node budget; generous for the dataset's small synthesizable
#: modules, small enough to keep a pathological multiplier from eating
#: the curation run.
DEFAULT_NODE_BUDGET = 200_000


class BDDBudgetError(Exception):
    """The node budget was exceeded; the check is unsupported, not wrong."""


class BDDManager:
    """One BDD arena: unique table, computed table, variable order."""

    def __init__(self, node_budget: int = DEFAULT_NODE_BUDGET) -> None:
        self.node_budget = node_budget
        #: node id -> (var, lo, hi); slots 0/1 are terminal placeholders.
        self._nodes: List[Tuple[int, int, int]] = [(-1, 0, 0), (-1, 1, 1)]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self.n_vars = 0
        #: if ``f`` then ``g`` else ``h`` — the universal connective.
        self.ite: Callable[[int, int, int], int] = self._ite_kernel()

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def var_of(self, node: int) -> int:
        return self._nodes[node][0]

    # -- construction ---------------------------------------------------

    def new_var(self) -> int:
        """Allocate the next variable and return its positive literal."""
        index = self.n_vars
        self.n_vars += 1
        return self._mk(index, FALSE, TRUE)

    def _mk(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        found = self._unique.get(key)
        if found is not None:
            return found
        if len(self._nodes) >= self.node_budget:
            raise BDDBudgetError(
                f"BDD node budget exceeded ({self.node_budget} nodes)")
        node = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = node
        return node

    def constant(self, value: bool) -> int:
        return TRUE if value else FALSE

    # -- the connective -------------------------------------------------

    def _ite_kernel(self) -> Callable[[int, int, int], int]:
        """``ite`` as one closure over the arena's tables: terminal
        cases, the computed table, then a split of every operand on the
        top variable (an operand that does not test it, terminals
        included, is its own cofactor), hi before lo, and the result
        interned as :meth:`_mk` would."""
        nodes, budget = self._nodes, self.node_budget
        computed, computed_get = self._ite_cache, self._ite_cache.get
        unique, unique_get = self._unique, self._unique.get

        def ite(f: int, g: int, h: int) -> int:
            # TRUE and FALSE as literals: no global lookups per call.
            if f == 1:
                return g
            if f == 0:
                return h
            if g == h:
                return g
            if g == 1 and h == 0:
                return f
            key = (f, g, h)
            found = computed_get(key)
            if found is not None:
                return found
            f_var, f0, f1 = nodes[f]
            g_var, g0, g1 = nodes[g]
            h_var, h0, h1 = nodes[h]
            # Terminals carry variable -1: never the top variable.
            var = f_var
            if 0 <= g_var < var:
                var = g_var
            if 0 <= h_var < var:
                var = h_var
            if f_var != var:
                f0 = f1 = f
            if g_var != var:
                g0 = g1 = g
            if h_var != var:
                h0 = h1 = h
            hi = ite(f1, g1, h1)
            lo = ite(f0, g0, h0)
            if lo == hi:
                result = lo
            else:
                node = (var, lo, hi)
                result = unique_get(node)
                if result is None:
                    result = len(nodes)
                    if result >= budget:
                        raise BDDBudgetError(
                            f"BDD node budget exceeded ({budget} nodes)")
                    nodes.append(node)
                    unique[node] = result
            computed[key] = result
            return result

        return ite

    # -- boolean algebra ------------------------------------------------

    def not_(self, f: int) -> int:
        return self.ite(f, FALSE, TRUE)

    def and_(self, f: int, g: int) -> int:
        return self.ite(f, g, FALSE)

    def or_(self, f: int, g: int) -> int:
        return self.ite(f, TRUE, g)

    def xor_(self, f: int, g: int) -> int:
        return self.ite(f, self.not_(g), g)

    def xnor_(self, f: int, g: int) -> int:
        return self.ite(f, g, self.not_(g))

    def and_all(self, nodes) -> int:
        result = TRUE
        for node in nodes:
            result = self.and_(result, node)
            if result == FALSE:
                return FALSE
        return result

    def or_all(self, nodes) -> int:
        result = FALSE
        for node in nodes:
            result = self.or_(result, node)
            if result == TRUE:
                return TRUE
        return result

    # -- models ---------------------------------------------------------

    def sat_one(self, f: int) -> Optional[Dict[int, bool]]:
        """One satisfying assignment ``{var: bool}``, or None when
        ``f`` is FALSE.  Variables absent from the result are
        don't-cares."""
        if f == FALSE:
            return None
        assignment: Dict[int, bool] = {}
        node = f
        while node != TRUE:
            var, lo, hi = self._nodes[node]
            if hi != FALSE:
                assignment[var] = True
                node = hi
            else:
                assignment[var] = False
                node = lo
        return assignment

    def eval_node(self, f: int, assignment: Dict[int, bool]) -> bool:
        """Evaluate ``f`` under a total-enough assignment (missing
        variables read as False)."""
        node = f
        while node not in (FALSE, TRUE):
            var, lo, hi = self._nodes[node]
            node = hi if assignment.get(var, False) else lo
        return node == TRUE
