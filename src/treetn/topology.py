"""Tree bookkeeping for bond-labelled tensor networks.

A network over ``N`` sites has ``Nt = N - 2`` three-leg tensors and
``2 Nt + 1`` bonds labelled ``0 .. 2 Nt``. Labels below ``N`` are physical
(bare sites); the rest are auxiliary. Each tensor stores a triple
``(e1, e2, e3)``; the canonical center is the unique bond appearing as the
third slot of exactly two tensors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import InvariantViolation

__all__ = [
    "Topology",
    "tree_shape",
    "set_distance",
    "candidate_edge_indices",
    "local_two_tensor",
    "build_mpn",
    "build_pbt",
    "build_initial_topology",
    "subtree_sites",
    "audit_topology",
]


@dataclass
class Topology:
    """Edge-label bookkeeping for a tree of three-leg tensors."""

    n_sites: int
    edges: list[list[int]]
    center: int
    origin: int = field(default=-1)

    def __post_init__(self):
        if self.origin < 0:
            self.origin = self.center

    @property
    def n_tensors(self) -> int:
        return len(self.edges)

    @property
    def n_bonds(self) -> int:
        return 2 * self.n_tensors + 1

    @property
    def bonds(self) -> range:
        return range(self.n_bonds)

    def is_physical(self, bond: int) -> bool:
        return 0 <= bond < self.n_sites

    def auxiliary_bonds(self) -> list[int]:
        return list(range(self.n_sites, self.n_bonds))

    def owners(self) -> dict[int, list[int]]:
        """The tensors whose slot 3 is each bond, ascending: two at the
        center, one at every other auxiliary bond."""
        return _slot3_owners(self.edges)

    def walk(self, bonds, owners: dict[int, list[int]], near=()) -> list[int]:
        """Tensors behind ``bonds``, away from the tensors ``near``, children
        before parents (the subtree of slot 1 before that of slot 2, the
        owner last). A bond leads to its slot-3 owner outside ``near`` and on
        through that tensor's slots 1-2; ``owners`` is ``owners()``. The walk
        is iterative, so a long chain does not reach the recursion limit.
        """
        order: list[int] = []
        n, edges = self.n_sites, self.edges
        stack = list(bonds)
        while stack:
            b = stack.pop()
            if b < n:  # a physical bond ends the walk
                continue
            found = owners.get(b, ())
            if len(found) != 1 or found[0] in near:  # the center has two owners
                found = [i for i in found if i not in near]
                if len(found) != 1:
                    raise InvariantViolation(f"bond {b} has slot-3 owners {found}, want one")
            if len(order) == len(edges):
                raise InvariantViolation(f"walk passes every tensor by bond {b}: a cycle")
            order.append(found[0])
            stack += edges[found[0]][:2]
        order.reverse()
        return order

    def center_tensors(self) -> tuple[int, int]:
        """The unique pair of tensors sharing the canonical center in slot 3."""
        pair = self.owners().get(self.center, [])
        if len(pair) != 2:
            raise InvariantViolation(
                f"canonical center {self.center} owned by {len(pair)} tensors"
            )
        return pair[0], pair[1]

    def tensors_of_bond(self, bond: int) -> list[int]:
        return [i for i, e in enumerate(self.edges) if bond in e]

    def copy(self) -> "Topology":
        return Topology(
            n_sites=self.n_sites,
            edges=[list(e) for e in self.edges],
            center=self.center,
            origin=self.origin,
        )

    def snapshot(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(tuple(e) for e in self.edges)

    def to_graph_lines(self) -> str:
        return "".join(f"{e[0]} {e[1]} {e[2]}\n" for e in self.edges)

    @classmethod
    def from_graph_lines(cls, text: str, n_sites: int) -> "Topology":
        edges = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                edge = [int(p) for p in line.split()]
            except ValueError:
                edge = []
            if len(edge) != 3:
                raise InvariantViolation(f"malformed graph line: {line!r}")
            edges.append(edge)
        center = _find_center(edges)
        return cls(n_sites=n_sites, edges=edges, center=center)


def tree_shape(edges) -> tuple[tuple[int, ...], ...]:
    """Slot-order-free form of per-tensor bond triples (edges or a
    ``snapshot()``): each tensor's bond labels sorted. Invariant under center
    relocation, changed only by actual reconnection."""
    return tuple(tuple(sorted(e)) for e in edges)


def _slot3_owners(edges) -> dict[int, list[int]]:
    owners: dict[int, list[int]] = {}
    for i, e in enumerate(edges):
        owners.setdefault(e[2], []).append(i)
    return owners


def _find_center(edges) -> int:
    centers = [b for b, o in _slot3_owners(edges).items() if len(o) == 2]
    if len(centers) != 1:
        raise InvariantViolation(f"expected one shared slot-3 bond, found {centers}")
    return centers[0]


def bond_adjacency(topology: Topology) -> dict[int, set[int]]:
    """Bonds adjacent to each bond (sharing a tensor)."""
    adj: dict[int, set[int]] = {b: set() for b in topology.bonds}
    for e in topology.edges:
        for a in e:
            for b in e:
                if a != b:
                    adj[a].add(b)
    return adj


def set_distance(topology: Topology, root: int) -> dict[int, int]:
    """Breadth-first distances of every bond from ``root``.

    The distance counts the minimum number of tensors traversed.
    """
    if root not in topology.bonds:
        raise ValueError(f"root bond {root} out of range")
    adj = bond_adjacency(topology)
    dist = {root: 0}
    queue = deque([root])
    while queue:
        e = queue.popleft()
        for u in adj[e]:
            if u not in dist:
                dist[u] = dist[e] + 1
                queue.append(u)
    if len(dist) != topology.n_bonds:
        raise InvariantViolation("topology is disconnected")
    return dist


def candidate_edge_indices(
    topology: Topology, e_c: int, flags: dict[int, int]
) -> list[int]:
    """Unflagged bonds in slots 1-2 of the tensors whose slot 3 is ``e_c``.

    Returned in ascending label order.
    """
    pair = topology.owners().get(e_c, ())
    return sorted({c for i in pair for c in topology.edges[i][:2] if flags[c] == 0})


def local_two_tensor(
    topology: Topology, e_c: int, flags: dict[int, int], path: list[int]
) -> tuple[int, int, int, int]:
    """One step of the walk from the center ``e_c``; ``path`` lists the bonds
    from the origin to ``e_c`` and follows the move. The next center is the
    unflagged candidate farthest from the origin, smallest label first: a
    child facing away, else the bond beside the way back ``path[-2]``, else
    the way back. ``e_c`` is flagged once the subtree left behind is complete,
    never at the origin. ``t`` holds both centers, ``t_conn`` only the next,
    ``t_prev`` only the current.
    """
    edges = topology.edges
    # one pass over the tensors collects the slot-3 bonds; the searches run in C
    slot3 = [e[2] for e in edges]
    pair = []
    if slot3.count(e_c) == 2:
        first = slot3.index(e_c)
        pair = [first, slot3.index(e_c, first + 1)]
    back = path[-2] if len(path) > 1 else None
    beside = [c for i in pair if back in edges[i][:2] for c in edges[i][:2]]
    cands = sorted(c for i in pair for c in edges[i][:2] if flags[c] == 0)
    if not cands:
        raise InvariantViolation(f"no candidate bonds at {e_c} ({slot3.count(e_c)} owners)")
    e_new = min(cands, key=lambda c: (c in beside) + (c == back))
    t, t_prev = pair if e_new in edges[pair[0]] else pair[::-1]
    if e_new not in slot3:
        raise InvariantViolation(f"no tensor points at the next center {e_new}")
    t_conn = slot3.index(e_new)
    if back is not None and all(flags[e] == 1 for e in edges[t_prev][:2]):
        flags[e_c] = 1
    if e_new in beside:  # a move across or back leaves the old center
        path.pop()
    if path[-1] != e_new:
        path.append(e_new)
    return e_new, t, t_conn, t_prev


def build_mpn(n_sites: int) -> Topology:
    """Chain-shaped network with the center on the middle auxiliary bond."""
    if n_sites < 4:
        raise ValueError(f"need at least 4 sites, got {n_sites}")
    n = n_sites
    nt = n - 2
    p = (nt - 1) // 2  # left tensor of the center pair
    edges: list[list[int]] = []
    for t in range(nt):
        if t == 0:
            edges.append([0, 1, n])
        elif t == nt - 1:
            edges.append([n - 2, n - 1, n + nt - 2])
        elif t <= p:
            edges.append([n + t - 1, t + 1, n + t])
        else:
            edges.append([n + t, t + 1, n + t - 1])
    return Topology(n_sites=n, edges=edges, center=n + p)


def build_pbt(n_sites: int) -> Topology:
    """Perfect binary tree over ``n_sites = 2**d`` leaves, center at the root."""
    if n_sites < 4 or n_sites & (n_sites - 1) != 0:
        raise ValueError(f"perfect binary tree needs a power-of-2 size, got {n_sites}")
    edges: list[list[int]] = []
    next_aux = [n_sites]

    def grow(lo: int, hi: int, parent: int | None) -> int:
        if hi - lo == 1:
            return lo
        mid = (lo + hi) // 2
        left = grow(lo, mid, None)
        right = grow(mid, hi, None)
        if parent is None:
            parent = next_aux[0]
            next_aux[0] += 1
        edges.append([left, right, parent])
        return parent

    half = n_sites // 2
    center = grow(0, half, None)
    grow(half, n_sites, center)
    return Topology(n_sites=n_sites, edges=edges, center=center)


def build_initial_topology(n_sites: int, kind: str = "mpn") -> Topology:
    """Initial network layout; falls back to the chain when a perfect
    binary tree is requested for a size that is not a power of two."""
    if n_sites < 4:
        raise ValueError(f"fewer than two tensors: n_sites={n_sites}")
    kind = kind.lower()
    if kind not in ("mpn", "pbt"):
        raise ValueError(f"unknown initial topology kind {kind!r}")
    if kind == "pbt" and n_sites & (n_sites - 1) == 0:
        return build_pbt(n_sites)
    return build_mpn(n_sites)


def subtree_sites(topology: Topology, bond: int, via_tensor: int) -> tuple[int, ...]:
    """Physical sites reachable from ``bond`` through ``via_tensor``,
    never crossing ``bond`` again. Sorted ascending."""
    if topology.is_physical(bond):
        return (bond,)
    edges, owners = topology.edges, topology.owners()
    down = edges[via_tensor][2] == bond  # the far side hangs below via_tensor
    if down:
        below = topology.walk(edges[via_tensor][:2], owners) + [via_tensor]
    else:
        below = topology.walk([bond], owners)
    sites = {c for i in below for c in edges[i][:2] if topology.is_physical(c)}
    return tuple(sorted(sites if down else set(range(topology.n_sites)) - sites))


def audit_topology(topology: Topology) -> None:
    """Validate connectivity, acyclicity, label ranges, and the center rule.

    Raises InvariantViolation on the first failed check.
    """
    n, nt = topology.n_sites, topology.n_tensors
    if nt != n - 2:
        raise InvariantViolation(f"expected {n - 2} tensors, found {nt}")
    usage: dict[int, int] = {b: 0 for b in topology.bonds}
    for e in topology.edges:
        if len(set(e)) != 3:
            raise InvariantViolation(f"repeated bond label within tensor: {e}")
        for b in e:
            if not 0 <= b < topology.n_bonds:
                raise InvariantViolation(f"bond label {b} out of range")
            usage[b] += 1

    owners = topology.owners()
    centers = [b for b, o in owners.items() if len(o) == 2]
    if centers != [topology.center]:
        raise InvariantViolation(
            f"canonical center mismatch: recorded {topology.center}, found {centers}"
        )
    if topology.is_physical(topology.center):
        raise InvariantViolation("canonical center on a physical bond")

    for b in topology.bonds:
        expected = 1 if topology.is_physical(b) else 2
        if usage[b] != expected:
            raise InvariantViolation(f"bond {b} used {usage[b]} times, want {expected}")
        if not topology.is_physical(b) and b != topology.center:
            if len(owners.get(b, ())) != 1:
                raise InvariantViolation(f"auxiliary bond {b} lacks a slot-3 owner")

    # connected and therefore acyclic, since edge count matches a tree
    set_distance(topology, topology.center)
