"""Technology-independent logic networks (the BLIF ``.names`` level).

MCNC benchmarks are multilevel networks of single-output nodes, each
defined by a sum-of-products cover.  A :class:`LogicNetwork` is the
mapper's input; after technology mapping it becomes a
:class:`~repro.circuit.netlist.Circuit` of library gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..boolean.truthtable import TruthTable

__all__ = ["Cube", "LogicNode", "LogicNetwork", "LogicError"]


class LogicError(ValueError):
    """Raised for malformed logic networks or covers."""


@dataclass(frozen=True)
class Cube:
    """One product term: a pattern over the node inputs ('0', '1', '-')."""

    pattern: str

    def __post_init__(self):
        bad = set(self.pattern) - {"0", "1", "-"}
        if bad:
            raise LogicError(f"invalid cube characters {sorted(bad)} in {self.pattern!r}")

    def matches(self, values: Sequence[bool]) -> bool:
        if len(values) != len(self.pattern):
            raise LogicError("cube arity mismatch")
        for char, value in zip(self.pattern, values):
            if char == "1" and not value:
                return False
            if char == "0" and value:
                return False
        return True

    def to_truthtable(self, variables: Sequence[str]) -> TruthTable:
        tt = TruthTable.constant(variables, True)
        for char, var in zip(self.pattern, variables):
            if char == "1":
                tt = tt & TruthTable.variable(variables, var)
            elif char == "0":
                tt = tt & ~TruthTable.variable(variables, var)
        return tt

    def __len__(self) -> int:
        return len(self.pattern)


@dataclass
class LogicNode:
    """A single-output node: ``output = OR of cubes`` (or its complement).

    ``phase`` follows BLIF: ``True`` means the cover lists the ON-set
    (output column '1'), ``False`` the OFF-set (output column '0', the
    function is the complement of the cover).
    """

    name: str
    inputs: Tuple[str, ...]
    cubes: Tuple[Cube, ...]
    phase: bool = True

    def __post_init__(self):
        for cube in self.cubes:
            if len(cube) != len(self.inputs):
                raise LogicError(
                    f"node {self.name}: cube {cube.pattern!r} arity != {len(self.inputs)}"
                )

    def is_constant(self) -> bool:
        return len(self.inputs) == 0

    def constant_value(self) -> bool:
        if not self.is_constant():
            raise LogicError(f"node {self.name} is not constant")
        has_cube = len(self.cubes) > 0
        return has_cube if self.phase else not has_cube

    def evaluate(self, values: Mapping[str, bool]) -> bool:
        ordered = [bool(values[i]) for i in self.inputs]
        covered = any(cube.matches(ordered) for cube in self.cubes)
        return covered if self.phase else not covered

    def function(self) -> TruthTable:
        """The node function as a truth table over its own inputs."""
        tt = TruthTable.constant(self.inputs, False)
        for cube in self.cubes:
            tt = tt | cube.to_truthtable(self.inputs)
        return tt if self.phase else ~tt


class LogicNetwork:
    """A DAG of :class:`LogicNode` with primary inputs and outputs."""

    def __init__(self, name: str):
        self.name = name
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self._nodes: Dict[str, LogicNode] = {}

    # ------------------------------------------------------------------
    def add_input(self, net: str) -> None:
        if net in self.inputs:
            raise LogicError(f"duplicate primary input {net!r}")
        self.inputs.append(net)

    def add_output(self, net: str) -> None:
        if net in self.outputs:
            raise LogicError(f"duplicate primary output {net!r}")
        self.outputs.append(net)

    def add_node(self, node: LogicNode) -> LogicNode:
        if node.name in self._nodes:
            raise LogicError(f"net {node.name!r} has multiple drivers")
        if node.name in self.inputs:
            raise LogicError(f"net {node.name!r} is a primary input")
        self._nodes[node.name] = node
        return node

    def add_cover(self, name: str, inputs: Sequence[str],
                  patterns: Iterable[str], phase: bool = True) -> LogicNode:
        """Convenience: build and add a node from pattern strings."""
        cubes = tuple(Cube(p) for p in patterns)
        return self.add_node(LogicNode(name, tuple(inputs), cubes, phase))

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[LogicNode, ...]:
        return tuple(self._nodes.values())

    def node(self, name: str) -> LogicNode:
        return self._nodes[name]

    def __len__(self) -> int:
        return len(self._nodes)

    def topological_nodes(self) -> List[LogicNode]:
        """Nodes in dependency order (Kahn's algorithm)."""
        from collections import deque

        indegree: Dict[str, int] = {}
        dependents: Dict[str, List[str]] = {}
        for node in self._nodes.values():
            count = 0
            for net in set(node.inputs):
                if net in self._nodes:
                    count += 1
                    dependents.setdefault(net, []).append(node.name)
                elif net not in self.inputs:
                    raise LogicError(f"node {node.name}: net {net!r} has no driver")
            indegree[node.name] = count
        order_index = {name: i for i, name in enumerate(self._nodes)}
        queue = deque(
            sorted((n for n, d in indegree.items() if d == 0), key=order_index.get)
        )
        order: List[LogicNode] = []
        while queue:
            name = queue.popleft()
            order.append(self._nodes[name])
            for dep in sorted(dependents.get(name, ()), key=order_index.get):
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    queue.append(dep)
        if len(order) != len(self._nodes):
            raise LogicError("logic network contains a cycle")
        return order

    def validate(self) -> None:
        """Check that every referenced net is driven and the DAG is acyclic."""
        self.topological_nodes()
        for net in self.outputs:
            if net not in self._nodes and net not in self.inputs:
                raise LogicError(f"primary output {net!r} has no driver")

    # ------------------------------------------------------------------
    def evaluate(self, input_values: Mapping[str, bool]) -> Dict[str, bool]:
        """Evaluate every net for one input vector."""
        values: Dict[str, bool] = {n: bool(input_values[n]) for n in self.inputs}
        for node in self.topological_nodes():
            values[node.name] = node.evaluate(values)
        return values

    def evaluate_outputs(self, input_values: Mapping[str, bool]) -> Dict[str, bool]:
        values = self.evaluate(input_values)
        return {o: values[o] for o in self.outputs}

    def __repr__(self) -> str:
        return (
            f"LogicNetwork({self.name!r}, inputs={len(self.inputs)}, "
            f"outputs={len(self.outputs)}, nodes={len(self._nodes)})"
        )
