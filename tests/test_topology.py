"""Tests for tree bookkeeping: distances, candidates, builders, audits."""

import numpy as np
import pytest

from treetn.errors import InvariantViolation
from treetn.factorize import (
    FactorizeConfig,
    normalize_target,
    reconstruct_sweep,
    sequential_svd_to_mpn,
)
from treetn.state import to_dense
from treetn.topology import (
    Topology,
    audit_topology,
    build_initial_topology,
    build_mpn,
    build_pbt,
    candidate_edge_indices,
    local_two_tensor,
    set_distance,
    subtree_sites,
)


def flags_all_physical(topo):
    return {e: 1 if topo.is_physical(e) else 0 for e in topo.bonds}


class TestSetDistance:
    def test_two_tensor_tree(self):
        topo = Topology(n_sites=4, edges=[[0, 1, 4], [2, 3, 4]], center=4)
        d = set_distance(topo, 4)
        assert d == {4: 0, 0: 1, 1: 1, 2: 1, 3: 1}

    def test_mpn_six_from_center(self):
        topo = build_mpn(6)
        d = set_distance(topo, topo.center)
        ends = [0, 1, 4, 5]
        assert all(d[e] == max(d.values()) for e in ends)

    def test_root_on_physical_bond(self):
        topo = Topology(n_sites=4, edges=[[0, 1, 4], [2, 3, 4]], center=4)
        d = set_distance(topo, 0)
        assert d[0] == 0
        assert d[1] == d[4] == 1
        assert d[2] == d[3] == 2

    def test_disconnected_detected(self):
        topo = Topology(n_sites=4, edges=[[0, 1, 4], [2, 3, 4]], center=4)
        topo.edges[1] = [2, 3, 3]  # mangles connectivity
        with pytest.raises(InvariantViolation):
            set_distance(topo, 4)


class TestCandidates:
    def test_all_flagged_empty(self):
        topo = Topology(n_sites=4, edges=[[0, 1, 4], [2, 3, 4]], center=4)
        assert candidate_edge_indices(topo, 4, flags_all_physical(topo)) == []

    def test_single_unflagged(self):
        topo = Topology(n_sites=4, edges=[[0, 1, 4], [2, 3, 4]], center=4)
        flags = flags_all_physical(topo)
        flags[2] = 0
        assert candidate_edge_indices(topo, 4, flags) == [2]

    def test_pbt_center_children(self):
        topo = build_pbt(8)
        flags = {e: 0 for e in topo.bonds}
        p, q = topo.center_tensors()
        expected = sorted(topo.edges[p][:2] + topo.edges[q][:2])
        assert candidate_edge_indices(topo, topo.center, flags) == expected


def fork():
    """Eight sites, center 9 one step from the origin 8. The center tensor
    facing away is [11, 12, 9]; the one holding the way back 8 also holds the
    sibling 10. Labels ascend against distance, so the label order alone
    would walk back."""
    edges = [[11, 12, 9], [8, 10, 9], [0, 1, 11], [2, 3, 12], [4, 5, 10], [6, 7, 8]]
    topo = Topology(n_sites=8, edges=edges, center=9, origin=8)
    audit_topology(topo)
    return topo, flags_all_physical(topo), [8, 9]


class TestLocalTwoTensor:
    def test_max_distance_wins(self):
        topo, flags, path = fork()
        d = set_distance(topo, path[0])
        assert candidate_edge_indices(topo, 9, flags) == [8, 10, 11, 12]
        e_new, *_ = local_two_tensor(topo, 9, flags, path)
        assert e_new == 11 and d[11] == max(d[c] for c in (8, 10, 11, 12))
        assert path == [8, 9, 11]

    @pytest.mark.parametrize(
        "flagged, e_new, path",
        [((11,), 12, [8, 9, 12]), ((11, 12), 10, [8, 10]), ((11, 12, 10), 8, [8])],
        ids=["other-away", "across", "back"],
    )
    def test_ranks_and_path(self, flagged, e_new, path):
        topo, flags, walk = fork()
        flags.update(dict.fromkeys(flagged, 1))
        assert local_two_tensor(topo, 9, flags, walk)[0] == e_new
        assert walk == path

    def test_tie_breaks_to_smaller_label(self):
        topo = build_pbt(8)
        flags = flags_all_physical(topo)
        path = [topo.center]
        d = set_distance(topo, topo.center)
        cands = candidate_edge_indices(topo, topo.center, flags)
        assert len({d[c] for c in cands}) == 1
        e_new, *_ = local_two_tensor(topo, topo.center, flags, path)
        assert e_new == min(cands)
        assert path == [topo.center, e_new]

    @pytest.mark.parametrize(
        "flagged, raised",
        [((), False), ((10,), False), ((11, 12), True), ((11, 12, 10), True)],
        ids=["away", "sibling-done", "across", "back"],
    )
    def test_flag_only_when_subtree_left_behind_is_complete(self, flagged, raised):
        topo, flags, path = fork()
        flags.update(dict.fromkeys(flagged, 1))
        local_two_tensor(topo, 9, flags, path)
        assert flags[9] == raised

    def test_never_flags_the_origin(self):
        topo, flags, _ = fork()
        topo.origin = 9
        flags.update({11: 1, 12: 1})
        e_new, t, _, t_prev = local_two_tensor(topo, 9, flags, [9])
        assert e_new == 8 and topo.edges[t_prev] == [11, 12, 9]
        assert flags[9] == 0

    def test_roles_resolved_by_membership(self):
        for flagged in [(), (11, 12), (11, 12, 10)]:  # away, across, back
            topo, flags, path = fork()
            flags.update(dict.fromkeys(flagged, 1))
            e_new, t, t_conn, t_prev = local_two_tensor(topo, 9, flags, path)
            assert e_new in topo.edges[t][:2] and topo.edges[t][2] == 9
            assert topo.edges[t_conn][2] == e_new and 9 not in topo.edges[t_conn]
            assert topo.edges[t_prev][2] == 9 and e_new not in topo.edges[t_prev]

    def test_empty_candidates_rejected(self):
        topo, _, path = fork()
        flags = {e: 1 for e in topo.bonds}
        with pytest.raises(InvariantViolation):
            local_two_tensor(topo, 9, flags, path)

    def test_unresolved_tensors_rejected(self):
        topo, flags, path = fork()
        with pytest.raises(InvariantViolation):
            local_two_tensor(topo, 10, flags, [8, 10])  # 10 is not a center
        topo.edges[2] = [0, 1, 13]  # nothing points at 11 any more
        with pytest.raises(InvariantViolation):
            local_two_tensor(topo, 9, flags, path)


class TestBuilders:
    def test_smallest_mpn(self):
        topo = build_mpn(4)
        assert [list(e) for e in topo.edges] == [[0, 1, 4], [2, 3, 4]]
        assert topo.center == 4
        audit_topology(topo)

    @pytest.mark.parametrize("n", [4, 5, 6, 9, 12, 17])
    def test_mpn_valid(self, n):
        topo = build_mpn(n)
        audit_topology(topo)
        assert topo.n_tensors == n - 2

    def test_pbt_eight(self):
        topo = build_pbt(8)
        audit_topology(topo)
        d = set_distance(topo, topo.center)
        phys_d = [d[b] for b in range(8)]
        aux_d = [d[b] for b in topo.auxiliary_bonds() if b != topo.center]
        assert set(phys_d) == {max(d.values())}
        assert max(aux_d) < max(phys_d)

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_pbt_valid(self, n):
        audit_topology(build_pbt(n))

    def test_pbt_fallback_to_mpn(self):
        topo = build_initial_topology(6, "pbt")
        assert topo.snapshot() == build_mpn(6).snapshot()

    def test_pbt_requested_power_of_two(self):
        topo = build_initial_topology(8, "pbt")
        assert topo.snapshot() == build_pbt(8).snapshot()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_initial_topology(3, "mpn")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_initial_topology(8, "ring")


class TestSiteSets:
    def test_subtree_sides(self):
        topo = build_mpn(6)
        b = topo.center
        t_left, t_right = topo.tensors_of_bond(b)
        left = subtree_sites(topo, b, t_left)
        right = subtree_sites(topo, b, t_right)
        assert sorted(left + right) == list(range(6))
        assert not set(left) & set(right)


def sites_by_search(topo, bond, via_tensor):
    """Brute force: every physical leg reached from ``via_tensor`` through
    shared bonds other than ``bond``."""
    seen, stack, sites = {via_tensor}, [via_tensor], set()
    while stack:
        i = stack.pop()
        for leg in topo.edges[i]:
            if leg == bond:
                continue
            if topo.is_physical(leg):
                sites.add(leg)
            for j, e in enumerate(topo.edges):
                if leg in e and j not in seen:
                    seen.add(j)
                    stack.append(j)
    return tuple(sorted(sites))


def reconnected(seed=4, n_sites=12):
    """A full-rank factorization of a random target after mode-1
    reconstruction sweeps have reshaped its tree."""
    rng = np.random.default_rng(seed)
    target = normalize_target(rng.standard_normal((2,) * n_sites))
    state = sequential_svd_to_mpn(target, 2 ** (n_sites // 2))
    config = FactorizeConfig(chi_init=2 ** (n_sites // 2), opt_mode=1, seed=seed, n_max=3)
    state, _ = reconstruct_sweep(state, config)
    assert state.topology.shape_snapshot() != build_mpn(n_sites).shape_snapshot()
    return target, state


class TestWalk:
    def test_owners(self):
        topo = build_pbt(8)
        owners = topo.owners()
        assert owners[topo.center] == list(topo.center_tensors())
        for b in topo.auxiliary_bonds():
            if b != topo.center:
                assert len(owners[b]) == 1 and topo.edges[owners[b][0]][2] == b

    def test_children_before_parents(self):
        topo = build_pbt(16)
        p, q = topo.center_tensors()
        order = topo.walk(topo.edges[p][:2], topo.owners())
        assert len(order) == 6
        for k, i in enumerate(order):
            parents = [j for j in order if topo.edges[i][2] in topo.edges[j][:2]]
            assert all(order.index(j) > k for j in parents)

    @pytest.mark.parametrize("which", ["pbt16", "reconnected"])
    def test_subtree_sites_match_search_from_both_tensors(self, which):
        topo = build_pbt(16) if which == "pbt16" else reconnected()[1].topology
        for b in topo.auxiliary_bonds():
            for via in topo.tensors_of_bond(b):
                assert subtree_sites(topo, b, via) == sites_by_search(topo, b, via)

    def test_to_dense_of_reconnected_tree(self):
        target, state = reconnected()
        assert np.max(np.abs(to_dense(state) - target.data)) < 1e-12

    def test_long_chain_center(self):
        topo = build_mpn(2048)
        p, q = topo.center_tensors()
        assert subtree_sites(topo, topo.center, p) == tuple(range(1024))
        assert subtree_sites(topo, topo.center, q) == tuple(range(1024, 2048))

    def test_missing_owner_raises(self):
        topo = build_pbt(8)
        leaf = next(i for i, e in enumerate(topo.edges) if e[:2] == [0, 1])
        bond = topo.edges[leaf][2]
        parent = next(i for i in topo.tensors_of_bond(bond) if i != leaf)
        topo.edges[leaf] = [bond, 1, 0]  # the bond now has no slot-3 owner
        with pytest.raises(InvariantViolation, match="slot-3 owners"):
            subtree_sites(topo, bond, parent)
        with pytest.raises(InvariantViolation):
            topo.walk([bond], topo.owners())

    def test_cycle_raises(self):
        topo = Topology(n_sites=5, edges=[[5, 0, 6], [6, 1, 5], [2, 3, 4]], center=4)
        with pytest.raises(InvariantViolation, match="cycle"):
            topo.walk([6], topo.owners())


class TestGraphSerialization:
    def test_round_trip(self):
        topo = build_pbt(8)
        text = topo.to_graph_lines()
        back = Topology.from_graph_lines(text, n_sites=8)
        assert back.snapshot() == topo.snapshot()
        assert back.center == topo.center

    def test_format_exact(self):
        assert build_mpn(4).to_graph_lines() == "0 1 4\n2 3 4\n"


class TestAudit:
    def test_detects_wrong_center(self):
        topo = build_mpn(6)
        topo.center = topo.center + 1
        with pytest.raises(InvariantViolation):
            audit_topology(topo)

    def test_detects_duplicate_label(self):
        topo = build_mpn(6)
        topo.edges[0][0] = topo.edges[0][1]
        with pytest.raises(InvariantViolation):
            audit_topology(topo)
