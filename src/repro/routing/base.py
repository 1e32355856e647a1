"""Shared machinery of the mesh routing functions.

All mesh routing functions in this library are defined at the *port* level,
like the paper's ``Rxy`` (Section V.3):

* applied to an **out-port**, the next hop is the in-port it is physically
  connected to (``next_in``);
* applied to an **in-port** of the destination node, the next hop is the
  local out-port (delivery);
* applied to any other in-port, the next hop is one (or, for adaptive
  functions, several) of the node's out-ports chosen by the concrete
  algorithm.

The helper :func:`occurring_pairs` computes which (port, destination) pairs
can actually occur on routes that start at local in-ports; it is used as the
``s R d`` reachability predicate for the partially adaptive routing
functions, whose port-level definition is only meaningful on occurring
pairs.

:class:`RoutingTable` tabulates a routing function once per destination:
reachability, the dependency graph and the (V-1) coverage check all read
the same table, so ``next_hops`` is evaluated at most once per
(resource, destination) pair.
"""

from __future__ import annotations

import abc
import weakref
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.cache import instance_cache
from repro.core.constituents import RoutingFunction
from repro.core.errors import RoutingError
from repro.network.mesh import Mesh2D
from repro.network.port import Direction, Port, PortName, next_in, trans
from repro.network.topology import Topology


class MeshRoutingFunction(RoutingFunction):
    """Base class of port-level routing functions over a 2D mesh."""

    def __init__(self, mesh: Mesh2D) -> None:
        self._mesh = mesh

    @property
    def topology(self) -> Mesh2D:
        return self._mesh

    @property
    def mesh(self) -> Mesh2D:
        return self._mesh

    # -- the out-port and delivery cases shared by every algorithm -----------------
    def next_hops(self, current: Port, destination: Port) -> List[Port]:
        self._check_destination(destination)
        if current == destination:
            return []
        if current.direction is Direction.OUT:
            if current.name is PortName.LOCAL:
                raise RoutingError(
                    f"cannot route from local out-port {current}: it is a "
                    f"network sink")
            return [next_in(current)]
        if current.node == destination.node:
            return [trans(current, PortName.LOCAL, Direction.OUT)]
        return self._route_from_in_port(current, destination)

    @abc.abstractmethod
    def _route_from_in_port(self, current: Port,
                            destination: Port) -> List[Port]:
        """The algorithm-specific case: an in-port of a non-destination node."""

    # -- reachability ------------------------------------------------------------------
    def reachable(self, source: Port, destination: Port) -> bool:
        """Default ``s R d``: any port except foreign local out-ports.

        Deterministic minimal routing reaches any local out-port from any
        port of the mesh, so the only exclusions are destinations that are
        not local out-ports and sources that are themselves network sinks.
        """
        if not self._is_valid_destination(destination):
            return False
        if not self._mesh.has_port(source):
            return False
        if source == destination:
            return True
        if source.name is PortName.LOCAL and source.direction is Direction.OUT:
            return False
        return True

    def _is_valid_destination(self, destination: Port) -> bool:
        return (destination.name is PortName.LOCAL
                and destination.direction is Direction.OUT
                and self._mesh.has_port(destination))

    def _check_destination(self, destination: Port) -> None:
        if not self._is_valid_destination(destination):
            raise RoutingError(
                f"{destination} is not a valid destination (destinations are "
                f"local out-ports of the mesh)")

    # -- helpers for the concrete algorithms ----------------------------------------------
    def _minimal_directions(self, current: Port,
                            destination: Port) -> List[PortName]:
        """Cardinal directions that reduce the distance to the destination."""
        directions: List[PortName] = []
        if destination.x < current.x:
            directions.append(PortName.WEST)
        elif destination.x > current.x:
            directions.append(PortName.EAST)
        if destination.y < current.y:
            directions.append(PortName.NORTH)
        elif destination.y > current.y:
            directions.append(PortName.SOUTH)
        return directions

    def _out_port(self, current: Port, name: PortName) -> Port:
        port = trans(current, name, Direction.OUT)
        if not self._mesh.has_port(port):
            raise RoutingError(
                f"routing wants out-port {port}, which does not exist "
                f"(node at the mesh boundary)")
        return port


#: One destination column of a :class:`RoutingTable`: per resource index,
#: the indices of its next hops, or ``None`` where the pair is not
#: enumerated (the destination itself, or a resource it is not reachable
#: from).
Column = List[Optional[Tuple[int, ...]]]


class RoutingTable:
    """A routing function evaluated once per (resource, destination) pair.

    The resources are the topology's ports, numbered densely in topology
    port order (``resources`` / ``index``).  Each destination gets one
    :data:`Column`, built on first request in a single pass, with each
    next-hop tuple in ``next_hops`` order:

    * a routing whose ``s R d`` is the occurring-pairs predicate (it sets
      ``explored_reachability``) is explored from the local in-ports, and
      the same exploration records the reached resources that answer its
      :class:`OccurringPairsReachability`;
    * any other routing is scanned: ``next_hops`` for every resource its
      closed-form ``reachable`` admits.

    Tables are shared through
    :meth:`repro.core.cache.InstanceCache.routing_table`, which drops each
    table once its dependency graph (and, for VC relations, its (V-1)
    report) exists.  A table refers to its routing
    only weakly, so the cache's weak key stays collectable.
    """

    def __init__(self, routing: RoutingFunction,
                 explore: Optional[bool] = None) -> None:
        reachability = routing.explored_reachability
        if explore is None:
            explore = reachability is not None
        self._routing = weakref.ref(routing)
        self.resources: List[Port] = routing.topology.ports
        self.index: Dict[Port, int] = {
            resource: position
            for position, resource in enumerate(self.resources)}
        self.destinations: List[Port] = routing.destinations()
        self._explores = explore
        # destination -> reached resources; shared with the routing's
        # reachability predicate so it outlives the table.
        self._reached: Dict[Port, FrozenSet[Port]] = (
            reachability.reached if explore and reachability is not None
            else {})
        self._columns: Dict[Port, Column] = {
            destination: None for destination in self.destinations}

    def column(self, destination: Port) -> Optional[Column]:
        """The column of ``destination`` (``None`` for a non-destination)."""
        if destination not in self._columns:
            return None
        column = self._columns[destination]
        if column is None:
            routing = self._routing()
            column = (self._explore(routing, destination) if self._explores
                      else self._scan(routing, destination))
            self._columns[destination] = column
        return column

    def reached(self, destination: Port) -> FrozenSet[Port]:
        """Resources that routes from local in-ports to ``destination`` visit.

        Only exploring tables record them; the destination itself is
        included when some route arrives.
        """
        found = self._reached.get(destination)
        if found is None:
            self.column(destination)
            found = self._reached.get(destination, frozenset())
        return found

    def _hops(self, routing: RoutingFunction, resource: Port,
              destination: Port) -> Tuple[int, ...]:
        hops = routing.next_hops(resource, destination)
        try:
            return tuple([self.index[hop] for hop in hops])
        except KeyError as missing:
            raise RoutingError(
                f"{routing.name()} routes {resource} to {missing.args[0]}, "
                f"which is not a port of its topology") from None

    def _scan(self, routing: RoutingFunction, destination: Port) -> Column:
        column: Column = [None] * len(self.resources)
        target = self.index[destination]
        for position, resource in enumerate(self.resources):
            if position != target and routing.reachable(resource,
                                                        destination):
                column[position] = self._hops(routing, resource, destination)
        return column

    def _explore(self, routing: RoutingFunction, destination: Port) -> Column:
        resources = self.resources
        column: Column = [None] * len(resources)
        target = self.index[destination]
        seen = bytearray(len(resources))
        frontier = [self.index[source]
                    for source in routing.topology.local_in_ports()]
        while frontier:
            position = frontier.pop()
            if seen[position]:
                continue
            seen[position] = 1
            if position == target:
                continue
            hops = self._hops(routing, resources[position], destination)
            column[position] = hops
            frontier.extend(hop for hop in hops if not seen[hop])
        self._reached[destination] = frozenset(
            resource for resource, mark in zip(resources, seen) if mark)
        return column


def occurring_pairs(routing: RoutingFunction,
                    ) -> FrozenSet[Tuple[Port, Port]]:
    """All (port, destination) pairs that occur on routes from local in-ports.

    For every local in-port ``s`` and every destination ``d``, follow every
    adaptive branch of the routing function and collect the (visited port,
    ``d``) pairs.  The result is the natural ``s R d`` predicate for
    partially adaptive routing functions whose port-level definition is only
    exercised on ports a packet can actually be at.

    A view of the routing's :class:`RoutingTable` when the routing explores
    anyway; closed-form routings get a private exploring table.
    """
    table = (instance_cache().routing_table(routing)
             if routing.explored_reachability is not None
             else RoutingTable(routing, explore=True))
    return frozenset((resource, destination)
                     for destination in table.destinations
                     for resource in table.reached(destination))


class OccurringPairsReachability:
    """A ``reachable`` predicate backed by :func:`occurring_pairs`.

    Answered from the reached resources that the routing table's
    exploration records (one destination at a time); they stay here after
    the table itself is dropped.
    """

    def __init__(self, routing: RoutingFunction) -> None:
        self._routing = routing
        #: destination -> reached resources (filled by routing tables)
        self.reached: Dict[Port, FrozenSet[Port]] = {}

    def __call__(self, source: Port, destination: Port) -> bool:
        if source == destination:
            return True
        reached = self.reached.get(destination)
        if reached is None:
            reached = instance_cache().routing_table(
                self._routing).reached(destination)
        return source in reached
