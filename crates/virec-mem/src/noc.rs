//! Fault-tolerant 2D-mesh network-on-chip (DESIGN §4k).
//!
//! The [`crate::Fabric`] grows from the idealised single-hop crossbar into a
//! configurable mesh behind [`FabricTopology`]: cores and the memory
//! controller occupy mesh nodes with real coordinates, requests traverse
//! XY-routed hops with per-link bandwidth, bounded per-node buffers under
//! credit-based flow control (one virtual channel per message class, so
//! requests and responses can never deadlock each other), and a CRC-16
//! checked at every hop.
//!
//! ## Fault tolerance
//!
//! * **Link-level CRC/retransmission** — a flit corrupted on a link fails
//!   its CRC check at the receiving router, which nacks it; the sender keeps
//!   the flit buffered and retransmits after a bounded geometric backoff
//!   ([`LinkRetryPolicy`], echoing the sweep layer's `RetryPolicy` shape).
//! * **Adaptive route-around** — a link the RAS layer retires is removed
//!   from service and per-destination routes are recomputed over the
//!   surviving links (BFS trees explored in the fixed E,S,W,N order, the
//!   XY turn preference, so the route set stays cycle-free per
//!   destination); in-flight flits pick up the new table at their next hop.
//! * **Degraded-link fencing** — when retiring a link would disconnect a
//!   node from the memory controller, the link is *fenced* instead: it
//!   stays in service at half bandwidth with the defect masked by the
//!   degraded encoding, trading throughput for availability.
//! * **NoC watchdog** — every flit carries its injection cycle; a flit
//!   older than [`MAX_FLIT_AGE`] (or one that exhausts its retransmission
//!   budget) latches a fault the run loop surfaces as a typed `SimError`,
//!   so a routing bug or a dead link can never hang a run silently.
//!
//! Everything is exact-cycle: retransmission timers, credit returns and hop
//! arrivals all surface through
//! [`Fabric::next_event`](crate::Fabric::next_event), so the event-driven
//! run loops stay byte-identical to the dense reference loop.

use crate::fabric::{FabricStats, PortId, ReqToken};
use std::str::FromStr;

/// Interconnect topology of the [`crate::Fabric`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FabricTopology {
    /// The idealised single-hop crossbar — the default, byte-identical to
    /// the pre-NoC simulator.
    #[default]
    Crossbar,
    /// A `cols` × `rows` 2D mesh. The memory controller occupies the
    /// highest-numbered node; cores are distributed over the remaining
    /// nodes round-robin (both cache ports of a core share its node).
    Mesh {
        /// Mesh width (≥ 1; `cols * rows` must be ≥ 2).
        cols: usize,
        /// Mesh height (≥ 1).
        rows: usize,
    },
}

impl std::fmt::Display for FabricTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricTopology::Crossbar => f.write_str("crossbar"),
            FabricTopology::Mesh { cols, rows } => write!(f, "mesh{cols}x{rows}"),
        }
    }
}

impl FromStr for FabricTopology {
    type Err = String;
    fn from_str(s: &str) -> Result<FabricTopology, String> {
        if s == "crossbar" {
            return Ok(FabricTopology::Crossbar);
        }
        let dims = s.strip_prefix("mesh").unwrap_or(s);
        if let Some((c, r)) = dims.split_once('x') {
            if let (Ok(cols), Ok(rows)) = (c.parse::<usize>(), r.parse::<usize>()) {
                if cols >= 1 && rows >= 1 && cols * rows >= 2 {
                    return Ok(FabricTopology::Mesh { cols, rows });
                }
            }
        }
        Err(format!(
            "unknown topology '{s}' (expected 'crossbar' or 'mesh<C>x<R>' with C*R >= 2, \
             e.g. mesh2x2)"
        ))
    }
}

/// Bounded retransmission policy for nacked flits: geometric backoff from
/// `timeout`, doubling per retry up to `timeout * scale_cap`, at most
/// `max_retries` attempts before the NoC watchdog declares the link dead.
/// Echoes the shape of the sweep layer's `RetryPolicy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkRetryPolicy {
    /// Retransmissions allowed per hop before the watchdog fires.
    pub max_retries: u32,
    /// Base retransmission timeout in cycles.
    pub timeout: u64,
    /// Cap on the geometric backoff multiplier.
    pub scale_cap: u64,
}

impl Default for LinkRetryPolicy {
    fn default() -> LinkRetryPolicy {
        LinkRetryPolicy {
            max_retries: 8,
            timeout: 32,
            scale_cap: 8,
        }
    }
}

impl LinkRetryPolicy {
    /// Backoff before retry `n` (1-based): `timeout * min(2^(n-1), scale_cap)`.
    pub fn backoff(&self, retry: u32) -> u64 {
        let scale = 1u64
            .checked_shl(retry.saturating_sub(1))
            .unwrap_or(self.scale_cap)
            .min(self.scale_cap);
        self.timeout * scale
    }
}

/// In-flight flit age (cycles) beyond which the NoC watchdog latches a
/// deadlock/livelock fault — generous against worst-case backoff chains,
/// tiny against run budgets.
pub const MAX_FLIT_AGE: u64 = 100_000;

/// Per-node input-buffer capacity in flits for each virtual channel (the
/// credit pool a sender draws from). Requests and responses ride separate
/// virtual channels with independent pools, which breaks the classic
/// request/response protocol deadlock on a congested mesh.
pub const NODE_BUF_FLITS: u32 = 4;

/// CRC-16/CCITT-FALSE over `data` — the per-flit check the receiving
/// router recomputes at every hop.
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xffff;
    for &b in data {
        crc ^= (b as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// How a link retirement was absorbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkRetireOutcome {
    /// The link left service and traffic was re-routed over surviving
    /// links (route tables recomputed).
    Rerouted,
    /// Removing the link would disconnect a node from the memory
    /// controller: the link is fenced instead — half bandwidth, defect
    /// masked — and stays in service.
    Fenced,
}

/// Link-population health counts (for availability accounting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkHealth {
    /// Fully healthy in-service links.
    pub healthy: usize,
    /// Retired (routed-around, out of service) links.
    pub retired: usize,
    /// Fenced (in service at half bandwidth) links.
    pub fenced: usize,
    /// Total directed links in the mesh.
    pub total: usize,
}

/// Direction encoding: the fixed E,S,W,N exploration order is the XY turn
/// preference and keeps route recomputation deterministic.
const DIRS: usize = 4;
const EAST: usize = 0;
const SOUTH: usize = 1;
const WEST: usize = 2;
const NORTH: usize = 3;

#[derive(Clone, Copy, Debug)]
struct Link {
    from: usize,
    to: usize,
    /// Channel occupied through this cycle (bandwidth: one flit per
    /// `1` cycle healthy, per `2` cycles fenced).
    busy_until: u64,
    /// Outstanding injected upsets: each corrupts one flit crossing the
    /// link (consumed at traversal, caught by the receiver's CRC).
    corrupt_pending: u32,
    retired: bool,
    fenced: bool,
}

#[derive(Clone, Copy, Debug)]
struct Flit {
    seq: u64,
    token: ReqToken,
    addr: u64,
    is_write: bool,
    is_resp: bool,
    port: PortId,
    dest: usize,
    at_node: usize,
    next_action: u64,
    born: u64,
    retries: u32,
    crc: u16,
    /// True while the flit sits starved of a downstream buffer credit
    /// (the only state that would otherwise poll per-cycle). A parked
    /// flit is skipped with one comparison per tick until
    /// `parked_until`, or sooner if any of the generation stamps below
    /// go stale — every event that could unblock it (a credit released
    /// at the starved next-hop or at its destination, a link retired or
    /// fenced, a pending upset consumed) bumps the matching counter.
    blocked: bool,
    /// Exact earliest cycle the parked flit could possibly act again
    /// (see [`Noc::blocked_bound`]); the poll resumes there.
    parked_until: u64,
    /// `occupied` index of the starved next-hop buffer at park time.
    park_hop: usize,
    /// [`Noc::occ_gen`] stamps for the next-hop and destination buffers,
    /// and the [`Noc::topo_gen`] stamp, captured at park time.
    park_gen_hop: u64,
    park_gen_dest: u64,
    park_gen_topo: u64,
}

impl Flit {
    fn payload(&self) -> [u8; 18] {
        let mut p = [0u8; 18];
        p[..8].copy_from_slice(&self.token.to_le_bytes());
        p[8..16].copy_from_slice(&self.addr.to_le_bytes());
        p[16] = self.is_write as u8;
        p[17] = self.is_resp as u8;
        p
    }
}

/// A response scheduled for injection at the memory-controller node once
/// its DRAM data burst completes.
#[derive(Clone, Copy, Debug)]
struct RespInjection {
    at: u64,
    token: ReqToken,
    addr: u64,
    port: PortId,
}

/// A request flit delivered to the memory controller, ready for bank
/// scheduling.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DeliveredReq {
    pub token: ReqToken,
    pub addr: u64,
    pub is_write: bool,
    pub port: PortId,
    pub submitted: u64,
}

/// The mesh NoC state machine embedded in [`crate::Fabric`] when the
/// topology is [`FabricTopology::Mesh`].
#[derive(Clone)]
pub(crate) struct Noc {
    cols: usize,
    rows: usize,
    hop_latency: u64,
    retry: LinkRetryPolicy,
    links: Vec<Link>,
    /// Per node, link id leaving in each direction (E,S,W,N).
    adj: Vec<[Option<usize>; DIRS]>,
    /// Recomputed route table (`route[src * nnodes + dst]` = direction),
    /// used only after the first retirement; `255` = unroutable.
    route: Vec<u8>,
    /// False until the first retirement: defect-free meshes route pure XY.
    rerouted: bool,
    flits: Vec<Flit>,
    resp_inj: Vec<RespInjection>,
    /// Per-node, per-virtual-channel input-buffer occupancy (the credit
    /// state), indexed `node * 2 + vc` with vc 0 = request, 1 = response.
    /// Separate credit pools per message class break the classic
    /// request/response protocol deadlock: requests parked toward the
    /// memory controller can never starve the responses draining away
    /// from it of buffer space, and vice versa.
    occupied: Vec<u32>,
    /// Release-generation stamp per `occupied` slot: bumped whenever the
    /// slot's occupancy drops (a credit frees). Parked flits compare
    /// their captured stamps to detect exactly the events that could
    /// unblock them.
    occ_gen: Vec<u64>,
    /// Topology-generation stamp: bumped on link retirement/fencing
    /// (route tables change) and on a pending upset being consumed (the
    /// express window can open early). Any bump resumes parked polls.
    topo_gen: u64,
    next_seq: u64,
    /// Cached earliest effective wake across flits and pending response
    /// injections: `Some(w)` proves [`Noc::tick`] is a no-op for every
    /// cycle before `w` (`u64::MAX` = nothing in flight), so the
    /// per-wakeup fabric tick skips the flit scan entirely when the
    /// wakeup belongs to another component. `None` = state changed,
    /// rescan. Interior-mutable so `next_event(&self)` can refresh it.
    wake: std::cell::Cell<Option<u64>>,
    /// Latched watchdog fault (flit age cap or retry exhaustion).
    fault: Option<String>,
    pub(crate) delivered_req: Vec<DeliveredReq>,
    pub(crate) delivered_resp: Vec<(ReqToken, u64)>,
}

impl Noc {
    pub(crate) fn new(cols: usize, rows: usize, xbar_latency: u32) -> Noc {
        assert!(
            cols >= 1 && rows >= 1 && cols * rows >= 2,
            "mesh needs at least 2 nodes (got {cols}x{rows})"
        );
        let n = cols * rows;
        let mut links = Vec::new();
        let mut adj = vec![[None; DIRS]; n];
        for (node, slots) in adj.iter_mut().enumerate() {
            let (x, y) = (node % cols, node / cols);
            let mut push = |dir: usize, to: usize| {
                slots[dir] = Some(links.len());
                links.push(Link {
                    from: node,
                    to,
                    busy_until: 0,
                    corrupt_pending: 0,
                    retired: false,
                    fenced: false,
                });
            };
            if x + 1 < cols {
                push(EAST, node + 1);
            }
            if y + 1 < rows {
                push(SOUTH, node + cols);
            }
            if x > 0 {
                push(WEST, node - 1);
            }
            if y > 0 {
                push(NORTH, node - cols);
            }
        }
        Noc {
            cols,
            rows,
            // The crossbar's one-way hop is amortised over the mesh
            // diameter ((cols-1) + (rows-1) hops corner to corner) so the
            // farthest node sees the crossbar's unloaded latency and
            // closer nodes proportionally less.
            hop_latency: (xbar_latency as u64 / ((cols + rows).saturating_sub(2) as u64).max(1))
                .max(1),
            retry: LinkRetryPolicy::default(),
            links,
            adj,
            route: vec![255u8; n * n],
            rerouted: false,
            flits: Vec::new(),
            resp_inj: Vec::new(),
            occupied: vec![0; n * 2],
            occ_gen: vec![0; n * 2],
            topo_gen: 0,
            next_seq: 0,
            wake: std::cell::Cell::new(None),
            fault: None,
            delivered_req: Vec::new(),
            delivered_resp: Vec::new(),
        }
    }

    fn nnodes(&self) -> usize {
        self.cols * self.rows
    }

    /// The memory controller's node (highest-numbered).
    pub(crate) fn mc_node(&self) -> usize {
        self.nnodes() - 1
    }

    /// Mesh node of a cache port: both ports of core `c` (`2c`, `2c+1`)
    /// share core `c`'s node, cores round-robin over the non-MC nodes.
    pub(crate) fn node_of_port(&self, port: PortId) -> usize {
        let core_nodes = self.nnodes() - 1;
        if core_nodes == 0 {
            0
        } else {
            (port / 2) % core_nodes
        }
    }

    /// `(x, y)` mesh coordinate of `node`.
    pub(crate) fn coord(&self, node: usize) -> (usize, usize) {
        (node % self.cols, node / self.cols)
    }

    pub(crate) fn fault(&self) -> Option<&str> {
        self.fault.as_deref()
    }

    pub(crate) fn link_health(&self) -> LinkHealth {
        let mut h = LinkHealth {
            total: self.links.len(),
            ..LinkHealth::default()
        };
        for l in &self.links {
            if l.retired {
                h.retired += 1;
            } else if l.fenced {
                h.fenced += 1;
            } else {
                h.healthy += 1;
            }
        }
        h
    }

    /// Number of flits currently inside the network (for tests).
    pub(crate) fn in_network(&self) -> usize {
        self.flits.len()
    }

    /// Total buffered-flit credits currently held (must drain to zero).
    pub(crate) fn credits_held(&self) -> u32 {
        self.occupied.iter().sum()
    }

    #[allow(clippy::too_many_arguments)]
    fn spawn(
        &mut self,
        now: u64,
        token: ReqToken,
        addr: u64,
        is_write: bool,
        is_resp: bool,
        port: PortId,
        at_node: usize,
        dest: usize,
        stats: &mut FabricStats,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut f = Flit {
            seq,
            token,
            addr,
            is_write,
            is_resp,
            port,
            dest,
            at_node,
            next_action: now + 1,
            born: now,
            retries: 0,
            crc: 0,
            blocked: false,
            parked_until: 0,
            park_hop: 0,
            park_gen_hop: 0,
            park_gen_dest: 0,
            park_gen_topo: 0,
        };
        f.crc = crc16(&f.payload());
        self.occupied[at_node * 2 + is_resp as usize] += 1;
        self.flits.push(f);
        self.wake.set(None);
        // A flit born onto a clean, idle path leaves immediately — one
        // run-loop wakeup at its destination instead of one per hop.
        let idx = self.flits.len() - 1;
        self.try_express(idx, now, stats);
    }

    /// Tries to express-route flit `i` at cycle `now`: when every link on
    /// its remaining path is healthy (not fenced), idle, and carrying no
    /// pending upset, and the destination buffer has a credit, the whole
    /// path is reserved in one action — each link's bandwidth window is
    /// claimed at the cycle the flit would have entered it hop by hop —
    /// and the flit wakes only at its destination. Returns whether the
    /// reservation committed; any contention, fenced link, or pending
    /// corruption leaves the flit to exact per-hop stepping, where the
    /// CRC/retransmission machinery lives.
    fn try_express(&mut self, i: usize, now: u64, stats: &mut FabricStats) -> bool {
        let f = self.flits[i];
        let vc = f.is_resp as usize;
        if f.at_node == f.dest || self.occupied[f.dest * 2 + vc] >= NODE_BUF_FLITS {
            return false;
        }
        // Two allocation-free walks over the route: validate the whole
        // path, then (only on success) reserve it. Both follow the same
        // tables, so they visit identical links.
        let mut node = f.at_node;
        let mut len = 0usize;
        while node != f.dest {
            if len > self.nnodes() {
                return false;
            }
            let Some(dir) = self.dir_toward(node, f.dest) else {
                return false;
            };
            let lid = self.adj[node][dir].expect("route follows an existing link");
            let link = &self.links[lid];
            if link.fenced || link.corrupt_pending != 0 || link.busy_until > now {
                return false;
            }
            node = link.to;
            len += 1;
        }
        if len == 0 {
            return false;
        }
        let mut node = f.at_node;
        let mut k = 0u64;
        while node != f.dest {
            let dir = self.dir_toward(node, f.dest).expect("validated walk");
            let lid = self.adj[node][dir].expect("route follows an existing link");
            self.links[lid].busy_until = now + k * self.hop_latency + 1;
            node = self.links[lid].to;
            k += 1;
        }
        let path_len = len;
        self.occupied[f.dest * 2 + vc] += 1;
        self.occupied[f.at_node * 2 + vc] -= 1;
        self.occ_gen[f.at_node * 2 + vc] += 1;
        stats.noc_hops += path_len as u64;
        self.flits[i].at_node = f.dest;
        self.flits[i].retries = 0;
        self.flits[i].next_action = now + path_len as u64 * self.hop_latency;
        self.flits[i].blocked = false;
        true
    }

    pub(crate) fn inject_request(
        &mut self,
        now: u64,
        port: PortId,
        token: ReqToken,
        addr: u64,
        is_write: bool,
        stats: &mut FabricStats,
    ) {
        let (src, dst) = (self.node_of_port(port), self.mc_node());
        self.spawn(now, token, addr, is_write, false, port, src, dst, stats);
    }

    pub(crate) fn schedule_response(&mut self, at: u64, token: ReqToken, addr: u64, port: PortId) {
        self.resp_inj.push(RespInjection {
            at,
            token,
            addr,
            port,
        });
        self.wake.set(None);
    }

    /// Injects one upset onto the link selected by `index` (modulo the link
    /// population). Returns the link id, or `None` when the link is already
    /// out of service (retired) or masked (fenced) — nothing to corrupt.
    pub(crate) fn inject_link_fault(&mut self, index: u64) -> Option<usize> {
        if self.links.is_empty() {
            return None;
        }
        let l = (index % self.links.len() as u64) as usize;
        if self.links[l].retired || self.links[l].fenced {
            return None;
        }
        self.links[l].corrupt_pending += 1;
        self.wake.set(None);
        Some(l)
    }

    /// Retires `link` (route-around) or fences it (half bandwidth) when no
    /// surviving route exists. Idempotent.
    pub(crate) fn retire_link(
        &mut self,
        link: usize,
        stats: &mut FabricStats,
    ) -> LinkRetireOutcome {
        let link = link % self.links.len().max(1);
        if self.links[link].retired {
            return LinkRetireOutcome::Rerouted;
        }
        if self.links[link].fenced {
            return LinkRetireOutcome::Fenced;
        }
        self.links[link].retired = true;
        self.topo_gen += 1;
        self.wake.set(None);
        if self.fully_connected() {
            self.links[link].corrupt_pending = 0;
            self.recompute_routes();
            self.rerouted = true;
            stats.noc_links_retired += 1;
            LinkRetireOutcome::Rerouted
        } else {
            // No surviving route: fence instead — the link keeps carrying
            // traffic at half bandwidth with the defect masked by the
            // degraded encoding.
            self.links[link].retired = false;
            self.links[link].fenced = true;
            self.links[link].corrupt_pending = 0;
            stats.noc_links_fenced += 1;
            LinkRetireOutcome::Fenced
        }
    }

    /// Every node can still reach every other over non-retired links.
    fn fully_connected(&self) -> bool {
        let n = self.nnodes();
        for dst in 0..n {
            let reach = self.bfs_to(dst);
            if (0..n).any(|u| u != dst && reach[u] == 255) {
                return false;
            }
        }
        true
    }

    /// BFS in-tree toward `dst`: for every node, the direction of its
    /// first hop on a shortest surviving path (255 = unreachable).
    /// Deterministic: nodes are expanded in discovery order and neighbors
    /// probed in the fixed E,S,W,N order.
    fn bfs_to(&self, dst: usize) -> Vec<u8> {
        let n = self.nnodes();
        let mut dir_of = vec![255u8; n];
        let mut queue = std::collections::VecDeque::new();
        let mut seen = vec![false; n];
        seen[dst] = true;
        queue.push_back(dst);
        while let Some(v) = queue.pop_front() {
            // Incoming edges u -> v: u is v's neighbor in direction d, and
            // the edge from u back toward v is the reverse direction.
            for d in [EAST, SOUTH, WEST, NORTH] {
                let Some(out) = self.adj[v][d] else { continue };
                let u = self.links[out].to;
                if seen[u] {
                    continue;
                }
                let back = [WEST, NORTH, EAST, SOUTH][d];
                let Some(into_v) = self.adj[u][back] else {
                    continue;
                };
                if self.links[into_v].retired {
                    continue;
                }
                seen[u] = true;
                dir_of[u] = back as u8;
                queue.push_back(u);
            }
        }
        dir_of
    }

    fn recompute_routes(&mut self) {
        let n = self.nnodes();
        for dst in 0..n {
            let tree = self.bfs_to(dst);
            for (u, &d) in tree.iter().enumerate() {
                self.route[u * n + dst] = d;
            }
        }
    }

    /// Next-hop direction from `at` toward `dst`: pure XY while the mesh is
    /// defect-free, the recomputed table after the first retirement.
    fn dir_toward(&self, at: usize, dst: usize) -> Option<usize> {
        if self.rerouted {
            let d = self.route[at * self.nnodes() + dst];
            return (d != 255).then_some(d as usize);
        }
        let ((ax, ay), (dx, dy)) = (self.coord(at), self.coord(dst));
        if ax < dx {
            Some(EAST)
        } else if ax > dx {
            Some(WEST)
        } else if ay < dy {
            Some(SOUTH)
        } else if ay > dy {
            Some(NORTH)
        } else {
            None
        }
    }

    /// The full remaining link path from `at` to `dst` along the current
    /// route tables, or `None` if any step is unroutable (or the tables
    /// are somehow cyclic — bounded by the node count).
    fn path_to(&self, at: usize, dst: usize) -> Option<Vec<usize>> {
        let mut path = Vec::with_capacity(self.cols + self.rows);
        let mut node = at;
        while node != dst {
            if path.len() > self.nnodes() {
                return None;
            }
            let dir = self.dir_toward(node, dst)?;
            let lid = self.adj[node][dir].expect("route follows an existing link");
            path.push(lid);
            node = self.links[lid].to;
        }
        Some(path)
    }

    /// Advances the NoC to cycle `now`: spawns due responses, then gives
    /// every flit whose action time has arrived one step (forward a hop,
    /// retry after a nack, or deliver). A flit whose whole remaining path
    /// is healthy, idle and un-sabotaged instead reserves every link in
    /// one action (express virtual cut-through) and wakes only at the
    /// destination — same per-link bandwidth windows, far fewer run-loop
    /// wakeups. Deterministic: flits act in sequence order, and every
    /// state change is keyed to absolute cycles, so dense and
    /// event-driven loops are byte-identical.
    pub(crate) fn tick(&mut self, now: u64, stats: &mut FabricStats) {
        // The fabric ticks the NoC at *every* system wakeup, most of
        // which belong to banks or cores. When the cached wake proves no
        // flit or response injection is due yet, the whole scan is a
        // no-op — return without touching anything.
        if let Some(w) = self.wake.get() {
            if now < w {
                return;
            }
        }
        let mut i = 0;
        while i < self.resp_inj.len() {
            if self.resp_inj[i].at <= now {
                let r = self.resp_inj.remove(i);
                let dest = self.node_of_port(r.port);
                let mc = self.mc_node();
                self.spawn(r.at, r.token, r.addr, false, true, r.port, mc, dest, stats);
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.flits.len() {
            if self.flits[i].next_action > now {
                i += 1;
                continue;
            }
            {
                // Parked fast path: a credit-starved flit whose stamps are
                // intact provably cannot act before `parked_until` — skip
                // the full routing retry (which is what makes per-cycle
                // credit polling affordable at mesh scale).
                let f = &self.flits[i];
                if f.blocked
                    && now < f.parked_until
                    && self.occ_gen[f.park_hop] == f.park_gen_hop
                    && self.occ_gen[f.dest * 2 + f.is_resp as usize] == f.park_gen_dest
                    && self.topo_gen == f.park_gen_topo
                {
                    i += 1;
                    continue;
                }
            }
            let f = self.flits[i];
            if now.saturating_sub(f.born) > MAX_FLIT_AGE && self.fault.is_none() {
                self.fault = Some(format!(
                    "noc watchdog: flit {} (token {}) aged {} cycles at node {} (dest {})",
                    f.seq,
                    f.token,
                    now - f.born,
                    f.at_node,
                    f.dest
                ));
            }
            if f.at_node == f.dest {
                // Egress: deliver and release the buffer credit.
                let slot = f.at_node * 2 + f.is_resp as usize;
                self.occupied[slot] -= 1;
                self.occ_gen[slot] += 1;
                if f.is_resp {
                    self.delivered_resp.push((f.token, now));
                } else {
                    self.delivered_req.push(DeliveredReq {
                        token: f.token,
                        addr: f.addr,
                        is_write: f.is_write,
                        port: f.port,
                        submitted: f.born,
                    });
                }
                self.flits.remove(i);
                continue;
            }
            if self.try_express(i, now, stats) {
                i += 1;
                continue;
            }
            let Some(dir) = self.dir_toward(f.at_node, f.dest) else {
                // Unroutable (should be unreachable: fencing preserves
                // connectivity) — park and let the watchdog surface it.
                self.flits[i].next_action = now + self.retry.timeout;
                self.flits[i].blocked = false;
                i += 1;
                continue;
            };
            let lid = self.adj[f.at_node][dir].expect("route follows an existing link");
            let link = self.links[lid];
            let span: u64 = if link.fenced { 2 } else { 1 };
            if link.busy_until > now {
                // Channel occupied: wake exactly when it frees.
                self.flits[i].next_action = link.busy_until;
                self.flits[i].blocked = false;
                i += 1;
                continue;
            }
            if self.occupied[link.to * 2 + f.is_resp as usize] >= NODE_BUF_FLITS {
                // No credit downstream: park until the earliest cycle the
                // retry could possibly succeed. The generation stamps
                // resume the poll immediately if any relevant state
                // changes first, so this is exactly the per-cycle poll
                // with the provably fruitless retries skipped.
                let hop_slot = link.to * 2 + f.is_resp as usize;
                let dest_slot = f.dest * 2 + f.is_resp as usize;
                self.flits[i].next_action = now + 1;
                self.flits[i].blocked = true;
                self.flits[i].parked_until = self.blocked_bound(&f, now);
                self.flits[i].park_hop = hop_slot;
                self.flits[i].park_gen_hop = self.occ_gen[hop_slot];
                self.flits[i].park_gen_dest = self.occ_gen[dest_slot];
                self.flits[i].park_gen_topo = self.topo_gen;
                i += 1;
                continue;
            }
            if self.links[lid].corrupt_pending > 0 {
                // The link corrupts the flit in transit; the receiving
                // router's CRC catches it and nacks. The sender keeps its
                // copy and retransmits after a bounded backoff.
                self.links[lid].corrupt_pending -= 1;
                self.topo_gen += 1;
                let mut received = f.payload();
                received[8 + ((f.seq as usize) % 8)] ^= 1 << (f.seq.wrapping_mul(7) % 8);
                if crc16(&received) != f.crc {
                    stats.noc_crc_detected += 1;
                    stats.noc_retransmissions += 1;
                    self.links[lid].busy_until = now + span;
                    let retries = f.retries + 1;
                    self.flits[i].retries = retries;
                    if retries > self.retry.max_retries && self.fault.is_none() {
                        self.fault = Some(format!(
                            "noc watchdog: flit {} exhausted {} retransmissions on link {} \
                             ({} -> {})",
                            f.seq, self.retry.max_retries, lid, link.from, link.to
                        ));
                    }
                    self.flits[i].next_action = now + span + self.retry.backoff(retries);
                    self.flits[i].blocked = false;
                    i += 1;
                    continue;
                }
                // A flip the CRC cannot see (never for a single-bit upset;
                // kept for model honesty): the corrupted flit goes through.
            }
            // Clean traversal: occupy the channel, take the downstream
            // credit, release the upstream one, arrive after the hop.
            self.links[lid].busy_until = now + span;
            let from_slot = f.at_node * 2 + f.is_resp as usize;
            self.occupied[link.to * 2 + f.is_resp as usize] += 1;
            self.occupied[from_slot] -= 1;
            self.occ_gen[from_slot] += 1;
            stats.noc_hops += 1;
            self.flits[i].at_node = link.to;
            self.flits[i].retries = 0;
            self.flits[i].next_action = now + span.max(self.hop_latency);
            self.flits[i].blocked = false;
            i += 1;
        }
        self.wake.set(Some(self.raw_wake(now)));
    }

    /// Earliest cycle at which the flits on node `node` (message class
    /// `is_resp`) could next act — the only moments the node's buffer
    /// occupancy can drop between polls (nothing can *start* moving
    /// toward a starved node: its would-be senders are starved too, and
    /// a flit spawned onto it cannot take occupancy below the starvation
    /// level by leaving again).
    fn earliest_departure(&self, node: usize, is_resp: bool) -> u64 {
        self.flits
            .iter()
            .filter(|g| g.at_node == node && g.is_resp == is_resp)
            .map(|g| g.next_action)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Exact earliest cycle a credit-starved flit's retry could succeed,
    /// computed at park time: the earliest of a same-class departure from
    /// the starved next-hop node (frees the credit), the express window
    /// opening (every path link free by timeout, with a destination
    /// credit — link busy windows only ever grow, so this is a true lower
    /// bound), and the age watchdog needing to fire. Any *other* event
    /// that could unblock the flit bumps a generation stamp the parked
    /// fast path checks, which resumes the per-cycle poll immediately.
    fn blocked_bound(&self, f: &Flit, now: u64) -> u64 {
        let vc = f.is_resp as usize;
        let hop = match self.dir_toward(f.at_node, f.dest) {
            Some(dir) => match self.adj[f.at_node][dir] {
                Some(lid) => self.earliest_departure(self.links[lid].to, f.is_resp),
                None => now + 1,
            },
            None => now + 1,
        };
        let express = if self.occupied[f.dest * 2 + vc] >= NODE_BUF_FLITS {
            self.earliest_departure(f.dest, f.is_resp)
        } else {
            match self.path_to(f.at_node, f.dest) {
                Some(path)
                    if !path.is_empty()
                        && path.iter().all(|&l| {
                            !self.links[l].fenced && self.links[l].corrupt_pending == 0
                        }) =>
                {
                    path.iter()
                        .map(|&l| self.links[l].busy_until)
                        .max()
                        .unwrap()
                }
                _ => u64::MAX,
            }
        };
        let age = f.born + MAX_FLIT_AGE + 1;
        hop.min(express).min(age).max(now + 1)
    }

    /// Earliest effective wake across flits and pending response
    /// injections, clamped strictly future (`u64::MAX` = nothing in
    /// flight). This is the value the wake cache stores: every item is
    /// clamped to at least `now + 1`, so no event due at or before `now`
    /// can hide behind a cached early-return.
    fn raw_wake(&self, now: u64) -> u64 {
        let flit_next = self
            .flits
            .iter()
            .map(|f| {
                if f.blocked
                    && self.occ_gen[f.park_hop] == f.park_gen_hop
                    && self.occ_gen[f.dest * 2 + f.is_resp as usize] == f.park_gen_dest
                    && self.topo_gen == f.park_gen_topo
                {
                    f.parked_until.max(now + 1)
                } else {
                    f.next_action.max(now + 1)
                }
            })
            .min()
            .unwrap_or(u64::MAX);
        let resp_next = self
            .resp_inj
            .iter()
            .map(|r| r.at.max(now + 1))
            .min()
            .unwrap_or(u64::MAX);
        flit_next.min(resp_next)
    }

    /// Earliest future cycle at which [`Noc::tick`] could do anything.
    /// Call after `tick(now)`.
    pub(crate) fn next_event(&self, now: u64) -> Option<u64> {
        let w = match self.wake.get() {
            // A cached wake still in the future is exact; one at or
            // behind `now` was clamped under an older cycle and must be
            // recomputed against the current one.
            Some(w) if w > now => w,
            _ => {
                let w = self.raw_wake(now);
                self.wake.set(Some(w));
                w
            }
        };
        (w != u64::MAX).then_some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> FabricStats {
        FabricStats::default()
    }

    #[test]
    fn topology_parses_and_round_trips() {
        assert_eq!(
            "crossbar".parse::<FabricTopology>().unwrap(),
            FabricTopology::Crossbar
        );
        assert_eq!(
            "mesh2x2".parse::<FabricTopology>().unwrap(),
            FabricTopology::Mesh { cols: 2, rows: 2 }
        );
        assert_eq!(
            "4x2".parse::<FabricTopology>().unwrap(),
            FabricTopology::Mesh { cols: 4, rows: 2 }
        );
        for t in [
            FabricTopology::Crossbar,
            FabricTopology::Mesh { cols: 3, rows: 2 },
        ] {
            assert_eq!(t.to_string().parse::<FabricTopology>().unwrap(), t);
        }
        assert!("mesh1x1".parse::<FabricTopology>().is_err());
        assert!("ring8".parse::<FabricTopology>().is_err());
    }

    #[test]
    fn crc16_detects_any_single_bit_flip() {
        let data = [0xde, 0xad, 0xbe, 0xef, 0x01, 0x23];
        let crc = crc16(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut d = data;
                d[byte] ^= 1 << bit;
                assert_ne!(crc16(&d), crc, "flip at {byte}.{bit} must change the CRC");
            }
        }
        // Known CRC-16/CCITT-FALSE check value for "123456789".
        assert_eq!(crc16(b"123456789"), 0x29b1);
    }

    #[test]
    fn backoff_is_geometric_and_capped() {
        let p = LinkRetryPolicy::default();
        assert_eq!(p.backoff(1), 32);
        assert_eq!(p.backoff(2), 64);
        assert_eq!(p.backoff(4), 256);
        assert_eq!(p.backoff(10), 32 * 8); // capped
    }

    #[test]
    fn request_reaches_mc_and_response_returns() {
        let mut noc = Noc::new(2, 2, 18);
        let mut st = stats();
        noc.inject_request(0, 0, 7, 0x1000, false, &mut st);
        let mut now = 0;
        while noc.delivered_req.is_empty() {
            now += 1;
            noc.tick(now, &mut st);
            assert!(now < 1000);
        }
        let d = noc.delivered_req.pop().unwrap();
        assert_eq!(d.token, 7);
        assert_eq!(d.addr, 0x1000);
        noc.schedule_response(now + 10, 7, 0x1000, 0);
        while noc.delivered_resp.is_empty() {
            now += 1;
            noc.tick(now, &mut st);
            assert!(now < 2000);
        }
        assert_eq!(noc.delivered_resp[0].0, 7);
        assert_eq!(noc.credits_held(), 0, "credits fully returned after drain");
        assert!(st.noc_hops >= 4, "2 hops each way on a 2x2 corner trip");
    }

    #[test]
    fn corrupted_flit_retransmits_and_still_arrives() {
        let mut noc = Noc::new(2, 2, 18);
        let mut st = stats();
        // Corrupt the first link on node 0's XY path (east, link id 0).
        assert_eq!(noc.inject_link_fault(0), Some(0));
        noc.inject_request(0, 0, 1, 0x40, false, &mut st);
        let mut now = 0;
        while noc.delivered_req.is_empty() {
            now += 1;
            noc.tick(now, &mut st);
            assert!(now < 10_000);
        }
        assert_eq!(st.noc_retransmissions, 1);
        assert_eq!(st.noc_crc_detected, 1);
        assert!(noc.fault().is_none());
    }

    #[test]
    fn retired_link_routes_around() {
        let mut noc = Noc::new(2, 2, 18);
        let mut st = stats();
        // Node 0's east link (0 -> 1) carries its XY traffic to MC node 3.
        assert_eq!(noc.retire_link(0, &mut st), LinkRetireOutcome::Rerouted);
        assert_eq!(st.noc_links_retired, 1);
        noc.inject_request(0, 0, 9, 0x80, false, &mut st);
        let mut now = 0;
        while noc.delivered_req.is_empty() {
            now += 1;
            noc.tick(now, &mut st);
            assert!(now < 10_000, "route-around must still deliver");
        }
        assert!(noc.fault().is_none());
        // Faults on a retired link have nothing to corrupt.
        assert_eq!(noc.inject_link_fault(0), None);
    }

    #[test]
    fn cutting_last_route_fences_instead() {
        // 2x1 mesh: node 0 (core) -- node 1 (MC). Retire 0->1, then the
        // reverse 1->0: the second retirement must fence (half bandwidth)
        // because node 0 would otherwise be unreachable.
        let mut noc = Noc::new(2, 1, 18);
        let mut st = stats();
        let fwd = noc.adj[0][EAST].unwrap();
        let back = noc.adj[1][WEST].unwrap();
        assert_eq!(noc.retire_link(fwd, &mut st), LinkRetireOutcome::Fenced);
        assert_eq!(st.noc_links_fenced, 1);
        assert_eq!(noc.retire_link(back, &mut st), LinkRetireOutcome::Fenced);
        // Fenced links still deliver.
        noc.inject_request(0, 0, 3, 0x40, true, &mut st);
        let mut now = 0;
        while noc.delivered_req.is_empty() {
            now += 1;
            noc.tick(now, &mut st);
            assert!(now < 10_000);
        }
        let h = noc.link_health();
        assert_eq!(h.fenced, 2);
        assert_eq!(h.retired, 0);
        assert_eq!(h.healthy + h.fenced + h.retired, h.total);
    }

    #[test]
    fn next_event_skips_idle_hop_spans() {
        let mut noc = Noc::new(2, 2, 400);
        let mut st = stats();
        noc.inject_request(0, 0, 1, 0, false, &mut st);
        noc.tick(1, &mut st); // first hop departs at cycle 1
        let wake = noc.next_event(1).expect("flit in flight");
        assert!(
            wake > 1 + 50,
            "long-hop mesh must expose a far wakeup, got {wake}"
        );
        assert!(noc.next_event(1).unwrap() > 1);
    }

    #[test]
    fn port_to_node_mapping_shares_core_node() {
        let noc = Noc::new(2, 2, 18);
        assert_eq!(noc.mc_node(), 3);
        assert_eq!(
            noc.node_of_port(0),
            noc.node_of_port(1),
            "one node per core"
        );
        assert_eq!(noc.node_of_port(2), 1);
        assert_eq!(noc.node_of_port(6), 0, "cores wrap round-robin");
        assert_eq!(noc.coord(3), (1, 1));
    }
}
