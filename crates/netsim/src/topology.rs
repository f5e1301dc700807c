//! Multi-rooted tree (fat-tree) topology with the DAG split of Figure 3.
//!
//! Every physical switch becomes two logical nodes — an *uplink* switch and
//! a *downlink* switch — joined by a high-speed virtual "loopback" link that
//! carries traffic turning around at that switch. The resulting routing
//! graph is acyclic, which is the property 1Pipe's hierarchical barrier
//! aggregation needs.

use crate::engine::Sim;
use crate::link::LinkParams;
use onepipe_types::ids::{HostId, NodeId};

/// Role of a node in the fat-tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRole {
    /// A server NIC.
    Host(HostId),
    /// Uplink half of a top-of-rack switch (`pod`, `idx` within pod).
    TorUp {
        /// Pod index.
        pod: u32,
        /// ToR index within the pod.
        idx: u32,
    },
    /// Downlink half of a top-of-rack switch.
    TorDown {
        /// Pod index.
        pod: u32,
        /// ToR index within the pod.
        idx: u32,
    },
    /// Uplink half of a spine (aggregation) switch.
    SpineUp {
        /// Pod index.
        pod: u32,
        /// Spine index within the pod.
        idx: u32,
    },
    /// Downlink half of a spine switch.
    SpineDown {
        /// Pod index.
        pod: u32,
        /// Spine index within the pod.
        idx: u32,
    },
    /// A core switch (the turn-around point for inter-pod traffic).
    Core {
        /// Core switch index.
        idx: u32,
    },
}

impl NodeRole {
    /// Whether this node is a switch (any kind).
    pub fn is_switch(&self) -> bool {
        !matches!(self, NodeRole::Host(_))
    }
}

/// Parameters of the fat-tree builder.
#[derive(Clone, Debug)]
pub struct FatTreeParams {
    /// Number of pods.
    pub pods: u32,
    /// ToR switches per pod.
    pub tors_per_pod: u32,
    /// Spine switches per pod.
    pub spines_per_pod: u32,
    /// Core switches (each core `c` attaches to spine `c % spines_per_pod`
    /// in every pod).
    pub cores: u32,
    /// Servers per rack.
    pub hosts_per_tor: u32,
    /// Host ↔ ToR link parameters.
    pub host_link: LinkParams,
    /// Switch ↔ switch link parameters.
    pub fabric_link: LinkParams,
    /// Up-half → down-half virtual loopback link inside a physical switch.
    pub virtual_link: LinkParams,
    /// Oversubscription ratio (≥ 1.0): fabric bandwidth is divided by this,
    /// reproducing the Figure 12b sweep.
    pub oversubscription: f64,
}

impl FatTreeParams {
    /// The paper's testbed: 4 ToR + 4 spine + 2 core, 32 servers, 100 Gbps,
    /// no oversubscription (§7.1).
    pub fn testbed() -> Self {
        FatTreeParams {
            pods: 2,
            tors_per_pod: 2,
            spines_per_pod: 2,
            cores: 2,
            hosts_per_tor: 8,
            host_link: LinkParams { prop_delay_ns: 500, ..LinkParams::default() },
            fabric_link: LinkParams { prop_delay_ns: 500, ..LinkParams::default() },
            virtual_link: LinkParams {
                bandwidth_bps: 1_000_000_000_000, // switch backplane
                prop_delay_ns: 50,
                buffer_bytes: 2_000_000,
                ecn_threshold_bytes: 2_000_000,
                loss_rate: 0.0,
            },
            oversubscription: 1.0,
        }
    }

    /// A single-rack topology (hosts + one ToR), the paper's ≤8-process
    /// configuration.
    pub fn single_rack(hosts: u32) -> Self {
        FatTreeParams {
            pods: 1,
            tors_per_pod: 1,
            spines_per_pod: 1,
            cores: 1,
            hosts_per_tor: hosts,
            ..Self::testbed()
        }
    }

    /// Total number of hosts.
    pub fn total_hosts(&self) -> u32 {
        self.pods * self.tors_per_pod * self.hosts_per_tor
    }
}

/// The ECMP choice among `hops` for the flow `src → dst`: the flow's
/// hash-chosen hop while `viable` holds for it, else the hash rehashed
/// over the viable survivors (none: unroutable).
fn select_hop(
    hops: &[NodeId],
    src: HostId,
    dst: HostId,
    viable: impl Fn(usize) -> bool,
) -> Option<NodeId> {
    if hops.is_empty() {
        return None;
    }
    // Fibonacci-style mixing of the flow identifier.
    let h = (src.0 as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(dst.0 as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let first = bucket(h, hops.len());
    if viable(first) {
        return Some(hops[first]);
    }
    // Failover (rare): count the survivors, then select the k-th in a
    // second pass, so neither path allocates.
    let live = (0..hops.len()).filter(|&i| viable(i)).count();
    if live == 0 {
        return None;
    }
    (0..hops.len()).filter(|&i| viable(i)).nth(bucket(h, live)).map(|i| hops[i])
}

/// `h % n`. ECMP fan-outs are mostly one or a power of two, where the
/// 64-bit division this runs per forwarded packet is a mask.
fn bucket(h: u64, n: usize) -> usize {
    let n = n as u64;
    (if n.is_power_of_two() { h & (n - 1) } else { h % n }) as usize
}

/// A built topology: node ids, roles, and routing tables.
pub struct Topology {
    /// The parameters it was built from.
    pub params: FatTreeParams,
    /// Role of each node, indexed by `NodeId.0`.
    pub roles: Vec<NodeRole>,
    /// Host → node id.
    pub host_nodes: Vec<NodeId>,
    /// All switch node ids (both halves).
    pub switch_nodes: Vec<NodeId>,
    /// `hops[start..start + len]` are the ECMP next hops from `node`
    /// toward `dst`, for `(start, len) = spans[node * hosts + dst]`: one
    /// load into a dense table, then the hops themselves.
    spans: Vec<(u32, u32)>,
    /// Every node's next hops toward every host, back to back.
    hops: Vec<NodeId>,
}

impl Topology {
    /// Build the fat-tree inside `sim` and return the topology handle.
    pub fn build(sim: &mut Sim, params: FatTreeParams) -> Topology {
        let p = &params;
        assert!(p.pods >= 1 && p.tors_per_pod >= 1 && p.hosts_per_tor >= 1);
        assert!(p.spines_per_pod >= 1 && p.cores >= 1);
        assert!(p.oversubscription >= 1.0);

        let mut roles = Vec::new();
        let add = |sim: &mut Sim, roles: &mut Vec<NodeRole>, role: NodeRole| {
            let id = sim.add_node();
            roles.push(role);
            id
        };

        // Hosts first so HostId == index order.
        let mut host_nodes = Vec::new();
        for pod in 0..p.pods {
            for tor in 0..p.tors_per_pod {
                for _ in 0..p.hosts_per_tor {
                    let h = HostId(host_nodes.len() as u32);
                    host_nodes.push(add(sim, &mut roles, NodeRole::Host(h)));
                    let _ = (pod, tor);
                }
            }
        }

        let mut tor_up = vec![vec![NodeId(0); p.tors_per_pod as usize]; p.pods as usize];
        let mut tor_down = tor_up.clone();
        let mut spine_up = vec![vec![NodeId(0); p.spines_per_pod as usize]; p.pods as usize];
        let mut spine_down = spine_up.clone();
        let mut cores = Vec::new();
        for pod in 0..p.pods {
            for idx in 0..p.tors_per_pod {
                tor_up[pod as usize][idx as usize] =
                    add(sim, &mut roles, NodeRole::TorUp { pod, idx });
                tor_down[pod as usize][idx as usize] =
                    add(sim, &mut roles, NodeRole::TorDown { pod, idx });
            }
            for idx in 0..p.spines_per_pod {
                spine_up[pod as usize][idx as usize] =
                    add(sim, &mut roles, NodeRole::SpineUp { pod, idx });
                spine_down[pod as usize][idx as usize] =
                    add(sim, &mut roles, NodeRole::SpineDown { pod, idx });
            }
        }
        for idx in 0..p.cores {
            cores.push(add(sim, &mut roles, NodeRole::Core { idx }));
        }

        let fabric = LinkParams {
            bandwidth_bps: (p.fabric_link.bandwidth_bps as f64 / p.oversubscription) as u64,
            ..p.fabric_link
        };

        // Host <-> ToR.
        let rack_of_host = |h: u32| -> (u32, u32) {
            let rack = h / p.hosts_per_tor;
            (rack / p.tors_per_pod, rack % p.tors_per_pod)
        };
        for (h, &hn) in host_nodes.iter().enumerate() {
            let (pod, tor) = rack_of_host(h as u32);
            sim.add_link(hn, tor_up[pod as usize][tor as usize], p.host_link);
            sim.add_link(tor_down[pod as usize][tor as usize], hn, p.host_link);
        }
        // ToR <-> spine within a pod, and the virtual loopbacks.
        for pod in 0..p.pods as usize {
            for tor in 0..p.tors_per_pod as usize {
                sim.add_link(tor_up[pod][tor], tor_down[pod][tor], p.virtual_link);
                for sp in 0..p.spines_per_pod as usize {
                    sim.add_link(tor_up[pod][tor], spine_up[pod][sp], fabric);
                    sim.add_link(spine_down[pod][sp], tor_down[pod][tor], fabric);
                }
            }
            for sp in 0..p.spines_per_pod as usize {
                sim.add_link(spine_up[pod][sp], spine_down[pod][sp], p.virtual_link);
            }
        }
        // Spine <-> core.
        for (c, &cn) in cores.iter().enumerate() {
            let sp = c % p.spines_per_pod as usize;
            for pod in 0..p.pods as usize {
                sim.add_link(spine_up[pod][sp], cn, fabric);
                sim.add_link(cn, spine_down[pod][sp], fabric);
            }
        }

        // Routing tables.
        let n_nodes = roles.len();
        let n_hosts = host_nodes.len();
        let mut spans = vec![(0, 0); n_nodes * n_hosts];
        let mut flat = Vec::new();
        for dst in 0..n_hosts as u32 {
            let (dpod, dtor) = rack_of_host(dst);
            for (node_idx, role) in roles.iter().enumerate() {
                let hops: Vec<NodeId> = match *role {
                    NodeRole::Host(h) => {
                        if h.0 == dst {
                            Vec::new() // local delivery, no next hop
                        } else {
                            let (pod, tor) = rack_of_host(h.0);
                            vec![tor_up[pod as usize][tor as usize]]
                        }
                    }
                    NodeRole::TorUp { pod, idx } => {
                        if pod == dpod && idx == dtor {
                            vec![tor_down[pod as usize][idx as usize]]
                        } else {
                            spine_up[pod as usize].clone()
                        }
                    }
                    NodeRole::TorDown { pod, idx } => {
                        if pod == dpod && idx == dtor {
                            vec![host_nodes[dst as usize]]
                        } else {
                            Vec::new() // unreachable from here
                        }
                    }
                    NodeRole::SpineUp { pod, idx } => {
                        if pod == dpod {
                            vec![spine_down[pod as usize][idx as usize]]
                        } else {
                            cores
                                .iter()
                                .enumerate()
                                .filter(|(c, _)| c % p.spines_per_pod as usize == idx as usize)
                                .map(|(_, &cn)| cn)
                                .collect()
                        }
                    }
                    NodeRole::SpineDown { pod, .. } => {
                        if pod == dpod {
                            vec![tor_down[pod as usize][dtor as usize]]
                        } else {
                            Vec::new()
                        }
                    }
                    NodeRole::Core { idx } => {
                        let sp = idx as usize % p.spines_per_pod as usize;
                        vec![spine_down[dpod as usize][sp]]
                    }
                };
                spans[node_idx * n_hosts + dst as usize] = (flat.len() as u32, hops.len() as u32);
                flat.extend(hops);
            }
        }

        let switch_nodes = roles
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_switch())
            .map(|(i, _)| NodeId(i as u32))
            .collect();

        Topology { params, roles, host_nodes, switch_nodes, spans, hops: flat }
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.host_nodes.len()
    }

    /// Node id of a host.
    pub fn host_node(&self, h: HostId) -> NodeId {
        self.host_nodes[h.0 as usize]
    }

    /// The host a node represents, if it is a host.
    pub fn host_of(&self, n: NodeId) -> Option<HostId> {
        match self.roles[n.0 as usize] {
            NodeRole::Host(h) => Some(h),
            _ => None,
        }
    }

    /// Role of a node.
    pub fn role(&self, n: NodeId) -> NodeRole {
        self.roles[n.0 as usize]
    }

    /// ECMP next hops from `at` toward `dst`. Empty when `at` is the
    /// destination host or the destination is unreachable from `at`.
    #[inline]
    pub fn next_hops(&self, at: NodeId, dst: HostId) -> &[NodeId] {
        let (start, len) = self.spans[at.0 as usize * self.host_nodes.len() + dst.0 as usize];
        &self.hops[start as usize..(start + len) as usize]
    }

    /// Pick one ECMP next hop by flow hash (stable per src/dst pair).
    pub fn route(&self, at: NodeId, src: HostId, dst: HostId) -> Option<NodeId> {
        self.route_live(at, src, dst, |_, _| true)
    }

    /// ECMP with failure awareness: `up` is a global directed-link-state
    /// oracle (the converged view a routing protocol would distribute).
    /// A next hop is *viable* when its link is up and the destination is
    /// still reachable through it — so a ToR skips a spine whose only
    /// core died even though the ToR→spine link itself is healthy. The
    /// flow keeps its hash-chosen path while that path is viable (no
    /// reordering in the fault-free case) and fails over — rehashed over
    /// the viable survivors — when it is not. Models the paper's
    /// assumption that routing reroutes around failed links (§4.2).
    pub fn route_live(
        &self,
        at: NodeId,
        src: HostId,
        dst: HostId,
        up: impl Fn(NodeId, NodeId) -> bool,
    ) -> Option<NodeId> {
        let hops = self.next_hops(at, dst);
        select_hop(hops, src, dst, |i| self.hop_viable(at, hops[i], dst, &up))
    }

    /// Which of `next_hops(at, dst)` are viable under `up`, as a bit mask
    /// over their positions: what [`route_live`](Self::route_live) finds
    /// out hop by hop, computed once so a switch can keep it for as long
    /// as no link changes state.
    pub fn viable_hops(&self, at: NodeId, dst: HostId, up: impl Fn(NodeId, NodeId) -> bool) -> u64 {
        let hops = self.next_hops(at, dst);
        assert!(hops.len() <= 64, "ECMP fan-out exceeds the viability mask");
        hops.iter()
            .enumerate()
            .filter(|&(_, &hop)| self.hop_viable(at, hop, dst, &up))
            .fold(0, |mask, (i, _)| mask | 1 << i)
    }

    /// [`route_live`](Self::route_live) with the link-state oracle
    /// replaced by a [`viable_hops`](Self::viable_hops) mask taken under
    /// it: the same choice, without walking the tree.
    #[inline]
    pub fn route_masked(
        &self,
        at: NodeId,
        src: HostId,
        dst: HostId,
        viable: u64,
    ) -> Option<NodeId> {
        select_hop(self.next_hops(at, dst), src, dst, |i| viable >> i & 1 == 1)
    }

    /// Whether forwarding `at → hop` can still deliver to `dst`: the
    /// immediate link is up and some all-up path continues from `hop`.
    /// Fat-tree routes form a DAG per destination (up-phase then
    /// down-phase), so the recursion terminates; depth is bounded by the
    /// tree height (≤ 4 hops).
    fn hop_viable(
        &self,
        at: NodeId,
        hop: NodeId,
        dst: HostId,
        up: &impl Fn(NodeId, NodeId) -> bool,
    ) -> bool {
        if !up(at, hop) {
            return false;
        }
        if hop == self.host_nodes[dst.0 as usize] {
            return true;
        }
        self.next_hops(hop, dst).iter().any(|&n| self.hop_viable(hop, n, dst, up))
    }

    /// The ToR uplink switch a host attaches to (its first hop).
    pub fn tor_up_of(&self, h: HostId) -> NodeId {
        let p = &self.params;
        let rack = h.0 / p.hosts_per_tor;
        let pod = rack / p.tors_per_pod;
        let tor = rack % p.tors_per_pod;
        // Node layout: hosts first, then per pod: (tor_up, tor_down)*,
        // (spine_up, spine_down)*.
        let hosts = self.host_nodes.len() as u32;
        let per_pod = 2 * p.tors_per_pod + 2 * p.spines_per_pod;
        NodeId(hosts + pod * per_pod + 2 * tor)
    }

    /// All hosts in the same rack as `h` (including `h`).
    pub fn rack_members(&self, h: HostId) -> Vec<HostId> {
        let p = &self.params;
        let rack = h.0 / p.hosts_per_tor;
        (rack * p.hosts_per_tor..(rack + 1) * p.hosts_per_tor).map(HostId).collect()
    }

    /// Hop count (number of links) on the path from `src` to `dst` hosts.
    pub fn path_len(&self, src: HostId, dst: HostId) -> usize {
        if src == dst {
            return 0;
        }
        let mut at = self.host_node(src);
        let mut hops = 0;
        while let Some(next) = self.route(at, src, dst) {
            at = next;
            hops += 1;
            assert!(hops < 16, "routing loop");
        }
        assert_eq!(self.host_of(at), Some(dst), "route did not reach destination");
        hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_testbed() -> (Sim, Topology) {
        let mut sim = Sim::new(0);
        let topo = Topology::build(&mut sim, FatTreeParams::testbed());
        (sim, topo)
    }

    #[test]
    fn testbed_shape() {
        let (_sim, topo) = build_testbed();
        assert_eq!(topo.num_hosts(), 32);
        // 4 ToR + 4 spine (two halves each) + 2 cores = 18 switch nodes.
        assert_eq!(topo.switch_nodes.len(), 18);
    }

    #[test]
    fn all_pairs_are_routable() {
        let (_sim, topo) = build_testbed();
        for s in 0..32u32 {
            for d in 0..32u32 {
                if s == d {
                    continue;
                }
                let hops = topo.path_len(HostId(s), HostId(d));
                assert!(hops >= 3, "src={s} dst={d} hops={hops}");
            }
        }
    }

    #[test]
    fn hop_counts_match_locality() {
        let (_sim, topo) = build_testbed();
        // Same rack: host → torup → tordown → host = 3 links.
        assert_eq!(topo.path_len(HostId(0), HostId(1)), 3);
        // Same pod, different rack: + spineup + spinedown = 5 links.
        assert_eq!(topo.path_len(HostId(0), HostId(8)), 5);
        // Different pod: + core, replacing the spine virtual hop = 6 links.
        assert_eq!(topo.path_len(HostId(0), HostId(16)), 6);
    }

    #[test]
    fn tor_up_of_matches_roles() {
        let (_sim, topo) = build_testbed();
        for h in 0..32u32 {
            let tor = topo.tor_up_of(HostId(h));
            match topo.role(tor) {
                NodeRole::TorUp { pod, idx } => {
                    let rack = h / 8;
                    assert_eq!(pod, rack / 2);
                    assert_eq!(idx, rack % 2);
                }
                other => panic!("expected TorUp, got {other:?}"),
            }
        }
    }

    #[test]
    fn routes_are_dag_like() {
        // No node should ever route back toward a host through itself;
        // path_len's loop guard (16) catches cycles for all pairs.
        let (_sim, topo) = build_testbed();
        for s in 0..32u32 {
            for d in 0..32u32 {
                if s != d {
                    topo.path_len(HostId(s), HostId(d));
                }
            }
        }
    }

    /// Walk every host pair hop by hop as a switch forwards — the
    /// viable-hop mask, then [`Topology::route_masked`] — with the
    /// directed link `down` (if any) cut. Each walk must reach its
    /// destination on live links within two hops of the all-up path.
    fn walk_all_pairs(topo: &Topology, down: Option<(NodeId, NodeId)>) {
        let up = |a: NodeId, b: NodeId| Some((a, b)) != down;
        let hosts = topo.num_hosts();
        let mut viable = vec![None; topo.roles.len() * hosts];
        for s in 0..hosts as u32 {
            for d in 0..hosts as u32 {
                let (src, dst) = (HostId(s), HostId(d));
                let bound = topo.path_len(src, dst) + 2;
                let mut at = topo.host_node(src);
                let mut hops = 0;
                while at != topo.host_node(dst) {
                    let mask = viable[at.0 as usize * hosts + d as usize]
                        .get_or_insert_with(|| topo.viable_hops(at, dst, up));
                    let next = topo.route_masked(at, src, dst, *mask);
                    let next = next.unwrap_or_else(|| panic!("{s} → {d} stuck at {at:?}"));
                    assert!(up(at, next), "{s} → {d} took the cut link");
                    at = next;
                    hops += 1;
                    assert!(hops <= bound, "{s} → {d} took more than {bound} hops");
                }
            }
        }
    }

    #[test]
    fn every_pair_is_walkable_with_all_links_up_and_a_core_link_down() {
        // The testbed, which also carries Figure 8's 512 processes, and a
        // 512-host tree with four-way ECMP at each ToR and two-way at
        // each spine.
        let wide = FatTreeParams {
            pods: 4,
            tors_per_pod: 4,
            spines_per_pod: 4,
            cores: 8,
            hosts_per_tor: 32,
            ..FatTreeParams::testbed()
        };
        for params in [FatTreeParams::testbed(), wide] {
            let mut sim = Sim::new(0);
            let topo = Topology::build(&mut sim, params);
            walk_all_pairs(&topo, None);
            // The first core's link down into the last pod.
            let core = (0..topo.roles.len() as u32)
                .map(NodeId)
                .find(|&n| matches!(topo.role(n), NodeRole::Core { .. }))
                .unwrap();
            let last = HostId(topo.num_hosts() as u32 - 1);
            let spine = topo.next_hops(core, last)[0];
            assert!(matches!(topo.role(spine), NodeRole::SpineDown { .. }));
            walk_all_pairs(&topo, Some((core, spine)));
        }
    }

    #[test]
    fn ecmp_uses_multiple_spines() {
        let (_sim, topo) = build_testbed();
        // Inter-pod flows from different sources should spread over spines.
        let mut seen = std::collections::HashSet::new();
        for s in 0..8u32 {
            let tor = topo.tor_up_of(HostId(s));
            if let Some(hop) = topo.route(tor, HostId(s), HostId(31)) {
                seen.insert(hop);
            }
        }
        assert!(seen.len() > 1, "ECMP never spread: {seen:?}");
    }

    #[test]
    fn single_rack_topology() {
        let mut sim = Sim::new(0);
        let topo = Topology::build(&mut sim, FatTreeParams::single_rack(8));
        assert_eq!(topo.num_hosts(), 8);
        assert_eq!(topo.path_len(HostId(0), HostId(7)), 3);
    }

    #[test]
    fn rack_members_listed() {
        let (_sim, topo) = build_testbed();
        let members = topo.rack_members(HostId(3));
        assert_eq!(members, (0..8).map(HostId).collect::<Vec<_>>());
        let members = topo.rack_members(HostId(20));
        assert_eq!(members, (16..24).map(HostId).collect::<Vec<_>>());
    }

    #[test]
    fn oversubscription_scales_fabric_bandwidth() {
        let mut sim = Sim::new(0);
        let mut params = FatTreeParams::testbed();
        params.oversubscription = 4.0;
        let topo = Topology::build(&mut sim, params);
        let tor = topo.tor_up_of(HostId(0));
        let spine = topo.next_hops(tor, HostId(31)).first().copied().unwrap();
        let link = sim.link(onepipe_types::ids::LinkId::new(tor, spine)).unwrap();
        assert_eq!(link.params.bandwidth_bps, 25_000_000_000);
        // Host links stay at full speed.
        let host_link =
            sim.link(onepipe_types::ids::LinkId::new(topo.host_node(HostId(0)), tor)).unwrap();
        assert_eq!(host_link.params.bandwidth_bps, 100_000_000_000);
    }
}
