"""Netlist container: named nodes, branch unknowns and element instances.

Modified nodal analysis: unknowns are the non-ground node voltages plus one
branch current per voltage-source-like element.  A :class:`Circuit` only
records topology and parameters; :class:`~repro.circuits.mna.stack.
CircuitStack` compiles one or more same-topology circuits into the
linearized systems that DC, sweep and transient analyses solve.
"""

from __future__ import annotations

import numpy as np

GROUND = "0"

#: Names that all denote the ground node (index ``-1``).
_GROUND_ALIASES = (GROUND, "gnd", "GND")


class Circuit:
    """A flat netlist: named nodes plus a list of element instances."""

    def __init__(self, title: str = "") -> None:
        self.title = title
        self._node_index: dict[str, int] = {}
        self.elements: list = []
        self._n_branches = 0

    # -- topology ------------------------------------------------------------

    def intern_node(self, name: str) -> int:
        """Index of node ``name``, creating it on first use.

        Only element binding (:meth:`add`) calls this; lookups go through
        :meth:`node`, which never grows the netlist.
        """
        if name in _GROUND_ALIASES:
            return -1
        if name not in self._node_index:
            self._node_index[name] = len(self._node_index)
        return self._node_index[name]

    def node(self, name: str) -> int:
        """Index of the existing node ``name``; ``-1`` for ground.

        Raises :class:`KeyError` naming the known nodes when ``name`` is not
        in the netlist.
        """
        if name in _GROUND_ALIASES:
            return -1
        try:
            return self._node_index[name]
        except KeyError:
            raise KeyError(
                f"{self!r} has no node {name!r}; known nodes: "
                f"{', '.join(self.node_names())}"
            ) from None

    @property
    def n_nodes(self) -> int:
        return len(self._node_index)

    @property
    def n_branches(self) -> int:
        return self._n_branches

    @property
    def size(self) -> int:
        return self.n_nodes + self._n_branches

    def node_names(self) -> list[str]:
        names = [""] * self.n_nodes
        for name, idx in self._node_index.items():
            names[idx] = name
        return names

    def add(self, element):
        """Register an element; resolves its node names and branch index."""
        element.bind(self)
        if element.N_BRANCHES:
            element.branch = self._n_branches
            self._n_branches += element.N_BRANCHES
        self.elements.append(element)
        return element

    def voltage(self, x: np.ndarray, name: str) -> float:
        """Node voltage of ``name`` in a solution vector (0.0 for ground)."""
        idx = self.node(name)
        return 0.0 if idx < 0 else float(x[idx])

    def __repr__(self) -> str:
        return (
            f"Circuit({self.title!r}, nodes={self.n_nodes}, "
            f"elements={len(self.elements)})"
        )
