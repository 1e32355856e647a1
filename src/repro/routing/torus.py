"""Dimension-order routing on a 2D torus.

Plain XY routing lifted to the torus: route along the x-ring first (taking
the shorter arc, ties going East), then along the y-ring (ties going South).
Because the wrap-around links are used, the port dependency graph contains
the textbook ring cycles in every row and column -- this is the
deadlock-prone baseline that dateline escape channels
(:mod:`repro.routing.escape`) repair at VC granularity.
"""

from __future__ import annotations

from typing import List

from repro.core.errors import RoutingError
from repro.network.port import Direction, Port, PortName, trans
from repro.network.torus import Torus2D
from repro.routing.base import OccurringPairsReachability
from repro.core.constituents import RoutingFunction


class TorusXYRouting(RoutingFunction):
    """Deterministic minimal dimension-order (XY) routing on a torus."""

    def __init__(self, torus: Torus2D) -> None:
        self._torus = torus
        self.explored_reachability = OccurringPairsReachability(self)

    @property
    def topology(self) -> Torus2D:
        return self._torus

    @property
    def torus(self) -> Torus2D:
        return self._torus

    def name(self) -> str:
        return "Rxy-torus"

    # -- the routing relation ------------------------------------------------
    def next_hops(self, current: Port, destination: Port) -> List[Port]:
        self._check_destination(destination)
        if current == destination:
            return []
        if current.direction is Direction.OUT:
            if current.name is PortName.LOCAL:
                raise RoutingError(
                    f"cannot route from local out-port {current}: it is a "
                    f"network sink")
            target = self._torus.link_target(current)
            assert target is not None  # every cardinal torus port is linked
            return [target]
        if current.node == destination.node:
            return [trans(current, PortName.LOCAL, Direction.OUT)]
        return [trans(current, self.direction_towards(current, destination),
                      Direction.OUT)]

    def direction_towards(self, current: Port, destination: Port) -> PortName:
        """The dimension-order direction choice (shorter arc, ties E/S)."""
        if destination.x != current.x:
            east = (destination.x - current.x) % self._torus.width
            west = (current.x - destination.x) % self._torus.width
            return PortName.EAST if east <= west else PortName.WEST
        south = (destination.y - current.y) % self._torus.height
        north = (current.y - destination.y) % self._torus.height
        return PortName.SOUTH if south <= north else PortName.NORTH

    # -- reachability --------------------------------------------------------
    def reachable(self, source: Port, destination: Port) -> bool:
        if not self._is_valid_destination(destination):
            return False
        if not self._torus.has_port(source):
            return False
        if source == destination:
            return True
        if source.name is PortName.LOCAL and source.direction is Direction.OUT:
            return False
        return self.explored_reachability(source, destination)

    def _is_valid_destination(self, destination: Port) -> bool:
        return (destination.name is PortName.LOCAL
                and destination.direction is Direction.OUT
                and self._torus.has_port(destination))

    def _check_destination(self, destination: Port) -> None:
        if not self._is_valid_destination(destination):
            raise RoutingError(
                f"{destination} is not a valid destination (destinations are "
                f"local out-ports of the torus)")


class TorusAdaptiveMinimalRouting(TorusXYRouting):
    """All minimal directions allowed at every hop of a torus.

    The torus analogue of
    :class:`~repro.routing.adaptive.FullyAdaptiveMinimalRouting`: at every
    in-port, any direction along a shorter (or tied) arc of an unfinished
    dimension is allowed.  Deadlock-prone on its own; used as the adaptive
    VC class of the torus escape-channel instantiations.
    """

    def name(self) -> str:
        return "Radaptive-torus"

    @property
    def is_deterministic(self) -> bool:
        return False

    def next_hops(self, current: Port, destination: Port) -> List[Port]:
        self._check_destination(destination)
        if current == destination:
            return []
        if current.direction is Direction.OUT:
            return super().next_hops(current, destination)
        if current.node == destination.node:
            return [trans(current, PortName.LOCAL, Direction.OUT)]
        return [trans(current, name, Direction.OUT)
                for name in self.minimal_directions(current, destination)]

    def minimal_directions(self, current: Port,
                           destination: Port) -> List[PortName]:
        """Directions along a shortest (or tied-shortest) arc per dimension."""
        names: List[PortName] = []
        if destination.x != current.x:
            east = (destination.x - current.x) % self._torus.width
            west = (current.x - destination.x) % self._torus.width
            if east <= west:
                names.append(PortName.EAST)
            if west <= east:
                names.append(PortName.WEST)
        if destination.y != current.y:
            south = (destination.y - current.y) % self._torus.height
            north = (current.y - destination.y) % self._torus.height
            if south <= north:
                names.append(PortName.SOUTH)
            if north <= south:
                names.append(PortName.NORTH)
        return names
