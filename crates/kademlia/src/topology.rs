//! Overlay topologies: node address sets plus all routing tables.
//!
//! Topologies are built statically from a seed (the paper's setup) but — to
//! support dynamic-membership experiments — also expose mutation APIs:
//! [`Topology::remove_node`] takes a node offline and incrementally repairs
//! every routing table that referenced it, and [`Topology::add_node`] brings
//! it back (Swarm nodes keep their overlay address across sessions). Both
//! operations are deterministic, preserve the structural invariants checked
//! by [`Topology::validate`], and cost a small fraction of a full rebuild
//! (see [`Topology::rebuilt_naive`] and the `churn` bench).

use std::collections::HashSet;
use std::fmt;
use std::ops::Range;

use fairswap_simcore::rng::{domain, sub_seed};
use fairswap_simcore::{derive_rng, Executor, SimRng};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use crate::address::{AddressSpace, OverlayAddress};
use crate::error::KademliaError;
use crate::routing_table::{Entry, OwnerFill, TableArena, TableRef};

/// Index of a node in a [`Topology`].
///
/// Node ids are dense (`0..topology.len()`) so simulations can keep per-node
/// statistics in plain vectors. Ids stay stable across [`Topology::remove_node`]
/// / [`Topology::add_node`]: an offline node keeps its slot (and address) and
/// is simply not part of the live overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying dense index.
    #[inline]
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// How large each routing-table bucket is.
///
/// The paper compares Swarm's default `k = 4` with Kademlia's classic
/// `k = 20` uniformly; its §V future work asks what happens "if we only
/// increase the k for a particular bucket, e.g., bucket zero" — which
/// [`BucketSizing::with_override`] expresses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketSizing {
    default: usize,
    overrides: Vec<(u32, usize)>,
}

impl BucketSizing {
    /// Uniform bucket size `k` for every bucket.
    pub fn uniform(k: usize) -> Self {
        Self {
            default: k,
            overrides: Vec::new(),
        }
    }

    /// Overrides the capacity of one bucket index, keeping the default for
    /// the rest. Later overrides of the same bucket win.
    #[must_use]
    pub fn with_override(mut self, bucket: u32, k: usize) -> Self {
        self.overrides.push((bucket, k));
        self
    }

    /// The default (non-overridden) bucket size.
    pub fn default_k(&self) -> usize {
        self.default
    }

    /// Expands to one capacity per bucket for a `bits`-bit space.
    pub fn capacities(&self, bits: u32) -> Vec<usize> {
        let mut caps = vec![self.default; bits as usize];
        for &(bucket, k) in &self.overrides {
            if let Some(slot) = caps.get_mut(bucket as usize) {
                *slot = k;
            }
        }
        caps
    }

    fn validate(&self, bits: u32) -> Result<(), KademliaError> {
        if self.capacities(bits).contains(&0) {
            return Err(KademliaError::ZeroBucketSize);
        }
        Ok(())
    }
}

/// Builder for a [`Topology`].
///
/// ```
/// use fairswap_kademlia::{AddressSpace, TopologyBuilder};
///
/// let space = AddressSpace::new(16)?;
/// let topology = TopologyBuilder::new(space)
///     .nodes(1000)
///     .bucket_size(4)
///     .seed(0xFA12)
///     .build()?;
/// assert_eq!(topology.len(), 1000);
/// # Ok::<(), fairswap_kademlia::KademliaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    space: AddressSpace,
    nodes: usize,
    explicit_addresses: Option<Vec<u64>>,
    sizing: BucketSizing,
    seed: u64,
    threads: usize,
}

impl TopologyBuilder {
    /// Starts a builder over the given address space with the paper's
    /// defaults: 1000 nodes, uniform `k = 4`, seed `0xFA12`, single-threaded
    /// construction.
    pub fn new(space: AddressSpace) -> Self {
        Self {
            space,
            nodes: 1000,
            explicit_addresses: None,
            sizing: BucketSizing::uniform(4),
            seed: 0xFA12,
            threads: 1,
        }
    }

    /// Number of nodes to place at uniformly random distinct addresses.
    #[must_use]
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Uses an explicit list of raw node addresses instead of sampling.
    #[must_use]
    pub fn explicit_addresses<I: IntoIterator<Item = u64>>(mut self, addresses: I) -> Self {
        self.explicit_addresses = Some(addresses.into_iter().collect());
        self
    }

    /// Uniform bucket size `k`.
    #[must_use]
    pub fn bucket_size(mut self, k: usize) -> Self {
        self.sizing = BucketSizing::uniform(k);
        self
    }

    /// Full control over per-bucket capacities.
    #[must_use]
    pub fn bucket_sizing(mut self, sizing: BucketSizing) -> Self {
        self.sizing = sizing;
        self
    }

    /// RNG seed. The same seed always produces the same topology (paper:
    /// "random numbers are generated using the same seed to ensure
    /// consistency throughout all experiments").
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads used to fill routing tables (`0` = one per CPU core).
    ///
    /// Every node's buckets are sampled from its own seed-derived RNG
    /// stream, so the built topology is identical for any thread count —
    /// this knob only trades wall-clock for cores on large-`N` builds.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builds the topology: sample addresses, then fill every node's buckets
    /// by choosing `min(k_i, |candidates|)` peers uniformly without
    /// replacement from the exact-prefix candidate set.
    ///
    /// Candidate sets are located through a sorted-address index (the peers
    /// at proximity exactly `b` from an owner are the set difference of two
    /// contiguous prefix ranges), so construction costs
    /// `O(n · bits · log n)` instead of the quadratic all-pairs scan — the
    /// difference between minutes and milliseconds at 10⁵ nodes.
    ///
    /// # Errors
    ///
    /// * [`KademliaError::TooFewNodes`] for fewer than 2 nodes.
    /// * [`KademliaError::SpaceExhausted`] if the space cannot hold that many
    ///   distinct addresses.
    /// * [`KademliaError::ZeroBucketSize`] if any bucket capacity is 0.
    /// * [`KademliaError::AddressOutOfRange`] /
    ///   [`KademliaError::DuplicateAddress`] for bad explicit addresses.
    pub fn build(&self) -> Result<Topology, KademliaError> {
        self.sizing.validate(self.space.bits())?;
        let mut rng = ChaCha12Rng::seed_from_u64(self.seed);

        let addresses: Vec<OverlayAddress> = match &self.explicit_addresses {
            Some(raws) => {
                let mut seen = HashSet::with_capacity(raws.len());
                let mut out = Vec::with_capacity(raws.len());
                for &raw in raws {
                    if !seen.insert(raw) {
                        return Err(KademliaError::DuplicateAddress { raw });
                    }
                    out.push(self.space.address(raw)?);
                }
                out
            }
            None => sample_distinct_addresses(self.space, self.nodes, &mut rng)?,
        };
        if addresses.len() < 2 {
            return Err(KademliaError::TooFewNodes {
                requested: addresses.len(),
            });
        }

        let capacities = self.sizing.capacities(self.space.bits());
        let n = addresses.len();

        let index = SortedAddressIndex::new(&addresses);
        // Each owner samples its buckets from its own derived stream, so
        // neither construction order nor thread count can influence the
        // result.
        let table_seed = sub_seed(self.seed, domain::TOPOLOGY);
        let executor = Executor::new(self.threads);
        // Hand each worker a contiguous owner range; results concatenate in
        // owner order, keeping node i's buckets at arena slot i. A serial
        // build takes one range, which the arena adopts without a copy.
        let chunk = if executor.threads() == 1 {
            n
        } else {
            n.div_ceil(executor.threads() * 8).max(64)
        };
        let owner_ranges: Vec<Range<usize>> = (0..n)
            .step_by(chunk)
            .map(|start| start..(start + chunk).min(n))
            .collect();
        // Expected entries per owner, for one up-front reservation per
        // range buffer: bucket b sees ~n/2^(b+1) candidates.
        let est_per_owner: usize = capacities
            .iter()
            .enumerate()
            .map(|(b, &cap)| cap.min(n >> ((b + 1).min(63))))
            .sum();
        let bits = self.space.bits() as usize;
        let fills: Vec<OwnerFill> = executor.run(owner_ranges, |_, owners| {
            let mut fill = OwnerFill::new();
            fill.lens.reserve(owners.len() * bits);
            let entries = owners.len() * est_per_owner;
            fill.entries.reserve(entries + entries / 8 + 64);
            for owner in owners {
                let mut owner_rng = derive_rng(table_seed, owner, 0);
                fill_table_sampled(
                    &addresses,
                    &index,
                    &capacities,
                    owner,
                    &mut owner_rng,
                    &mut fill,
                );
            }
            fill
        });
        let arena = TableArena::assemble(self.space.bits(), fills);

        let trie = AddressTrie::build(self.space, &addresses);
        let knowers = build_knowers(&arena, n);
        Ok(Topology {
            space: self.space,
            live: vec![true; n],
            live_count: n,
            addresses,
            arena,
            capacities,
            trie,
            knowers,
            sizing: self.sizing.clone(),
            seed: self.seed,
        })
    }
}

fn sample_distinct_addresses(
    space: AddressSpace,
    nodes: usize,
    rng: &mut ChaCha12Rng,
) -> Result<Vec<OverlayAddress>, KademliaError> {
    if (nodes as u128) > space.capacity() {
        return Err(KademliaError::SpaceExhausted {
            requested: nodes,
            capacity: space.capacity(),
        });
    }
    let mut seen = HashSet::with_capacity(nodes);
    let mut out = Vec::with_capacity(nodes);
    while out.len() < nodes {
        let raw = rng.gen_range(0..=space.max_raw());
        if seen.insert(raw) {
            out.push(space.address(raw).expect("sampled in range"));
        }
    }
    Ok(out)
}

/// Node slots sorted by raw address, supporting binary-search prefix
/// narrowing: the addresses sharing a given `p`-bit prefix occupy one
/// contiguous range, so the candidates at proximity exactly `b` from an
/// owner are `range(b) \ range(b + 1)` — two contiguous pieces found in
/// `O(log n)` instead of scanning all `n` addresses.
struct SortedAddressIndex {
    /// Node indices in ascending address order.
    nodes: Vec<u32>,
    /// Raw addresses in the same order.
    raws: Vec<u64>,
}

impl SortedAddressIndex {
    fn new(addresses: &[OverlayAddress]) -> Self {
        let mut nodes: Vec<u32> = (0..addresses.len() as u32).collect();
        nodes.sort_unstable_by_key(|&i| addresses[i as usize].raw());
        let raws = nodes.iter().map(|&i| addresses[i as usize].raw()).collect();
        Self { nodes, raws }
    }

    #[inline]
    fn node_at(&self, pos: usize) -> usize {
        self.nodes[pos] as usize
    }

    /// Splits `range` — all sorted positions sharing the first `depth`
    /// bits with `addr` — on bit `depth`: returns `(same, sibling)` where
    /// `same` continues `addr`'s prefix and `sibling` holds exactly the
    /// positions at proximity `depth` from `addr`. One `partition_point`
    /// per level (the shared prefix makes the bit split a contiguous cut),
    /// and the sibling side comes out as a single ascending range.
    fn split(
        &self,
        range: &Range<usize>,
        addr: OverlayAddress,
        depth: u32,
    ) -> (Range<usize>, Range<usize>) {
        debug_assert!(depth < addr.bits());
        let shift = addr.bits() - 1 - depth;
        let slice = &self.raws[range.clone()];
        let cut = range.start + slice.partition_point(|&raw| (raw >> shift) & 1 == 0);
        let zeros = range.start..cut;
        let ones = cut..range.end;
        if (addr.raw() >> shift) & 1 == 0 {
            (zeros, ones)
        } else {
            (ones, zeros)
        }
    }
}

/// Fills one owner's routing table, sampling `min(k_b, |candidates_b|)`
/// peers uniformly without replacement from each exact-prefix candidate
/// range of the sorted index, appending into the worker's shared range
/// fill. The per-bucket count doubles as the bucket's arena reservation:
/// `min(k_b, |candidates_b|)` is the most entries the bucket can ever
/// hold, under any later churn, so every initial bucket is exactly full.
fn fill_table_sampled(
    addresses: &[OverlayAddress],
    index: &SortedAddressIndex,
    capacities: &[usize],
    owner: usize,
    rng: &mut SimRng,
    fill: &mut OwnerFill,
) {
    let owner_addr = addresses[owner];
    // Sparse partial Fisher–Yates state, reused across buckets: at most
    // `k` swap records, so sampling never allocates O(candidates).
    let mut swaps: Vec<(usize, usize)> = Vec::new();
    let lookup = |swaps: &[(usize, usize)], i: usize| {
        swaps
            .iter()
            .find(|&&(at, _)| at == i)
            .map_or(i, |&(_, value)| value)
    };
    // `range` holds the sorted positions sharing the first `bucket` bits
    // with the owner; it narrows monotonically and ends at the owner alone.
    let mut range = 0..addresses.len();
    for (bucket, &capacity) in capacities.iter().enumerate() {
        // Proximity exactly `bucket`: the sibling side of the bit split.
        let (same, sibling) = index.split(&range, owner_addr, bucket as u32);
        let candidates = sibling.len();
        let take = capacity.min(candidates);
        swaps.clear();
        for i in 0..take {
            let j = rng.gen_range(i..candidates);
            let pick = lookup(&swaps, j);
            let displaced = lookup(&swaps, i);
            if let Some(entry) = swaps.iter_mut().find(|(at, _)| *at == j) {
                entry.1 = displaced;
            } else {
                swaps.push((j, displaced));
            }
            let peer = index.node_at(sibling.start + pick);
            fill.entries.push(Entry {
                raw: addresses[peer].raw(),
                id: peer as u32,
            });
        }
        fill.lens.push(take as u32);
        range = same;
    }
    debug_assert_eq!(range.len(), 1, "final range must be the owner itself");
}

/// Reverse index: for each node, which owners currently list it.
///
/// Two passes: count in-degrees first so every per-node list is allocated
/// exactly once — tens of millions of entries at large `N`, where growth
/// reallocation used to dominate.
fn build_knowers(arena: &TableArena, n: usize) -> Vec<Vec<u32>> {
    let mut counts = vec![0u32; n];
    for owner in 0..n {
        for peer in arena.node_peers(owner) {
            counts[peer as usize] += 1;
        }
    }
    let mut knowers: Vec<Vec<u32>> = counts
        .iter()
        .map(|&c| Vec::with_capacity(c as usize))
        .collect();
    for owner in 0..n {
        for peer in arena.node_peers(owner) {
            knowers[peer as usize].push(owner as u32);
        }
    }
    // Owners are visited in ascending order, so every list is born sorted
    // — no sort pass over the (tens of millions at large `N`) entries.
    debug_assert!(knowers.iter().all(|list| list.is_sorted()));
    knowers
}

fn knowers_insert(list: &mut Vec<u32>, owner: u32) {
    if let Err(pos) = list.binary_search(&owner) {
        list.insert(pos, owner);
    }
}

fn knowers_remove(list: &mut Vec<u32>, owner: u32) {
    if let Ok(pos) = list.binary_search(&owner) {
        list.remove(pos);
    }
}

/// A forwarding-Kademlia overlay: every node's address and routing table,
/// a live-membership set, and an index for global closest-live-node queries.
///
/// Routing tables live in one contiguous arena (structure of arrays,
/// one `(offset, len)` slot range per bucket) and are read through
/// borrowed [`TableRef`] views; see `docs/ARCHITECTURE.md` for the
/// layout and why it never reallocates under churn.
#[derive(Debug, Clone)]
pub struct Topology {
    space: AddressSpace,
    addresses: Vec<OverlayAddress>,
    /// Whether each slot is currently part of the overlay.
    live: Vec<bool>,
    live_count: usize,
    /// All routing tables, arena-backed.
    arena: TableArena,
    /// Configured per-bucket capacities, shared by every node.
    capacities: Vec<usize>,
    trie: AddressTrie,
    /// `knowers[i]`: owners whose routing table currently lists node `i`
    /// (kept sorted). Makes departures O(holders) instead of O(n).
    knowers: Vec<Vec<u32>>,
    sizing: BucketSizing,
    seed: u64,
}

impl Topology {
    /// The address space of this overlay.
    #[inline]
    pub fn space(&self) -> AddressSpace {
        self.space
    }

    /// Number of node slots (live and offline).
    #[inline]
    pub fn len(&self) -> usize {
        self.addresses.len()
    }

    /// Whether the overlay has no nodes (never true for built topologies).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.addresses.is_empty()
    }

    /// Number of currently live nodes.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Whether `node` is currently part of the overlay.
    #[inline]
    pub fn is_live(&self, node: NodeId) -> bool {
        self.live.get(node.0).copied().unwrap_or(false)
    }

    /// The bucket sizing used to build this topology.
    pub fn sizing(&self) -> &BucketSizing {
        &self.sizing
    }

    /// The seed used to build this topology.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Iterate over all node ids (live and offline), `n0, n1, ...`.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.addresses.len()).map(NodeId)
    }

    /// Iterate over the currently live node ids, ascending.
    pub fn live_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter(|(_, &alive)| alive)
            .map(|(i, _)| NodeId(i))
    }

    /// The overlay address of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of this topology; use
    /// [`Topology::try_address`] for a fallible lookup.
    pub fn address(&self, node: NodeId) -> OverlayAddress {
        self.addresses[node.0]
    }

    /// Fallible address lookup.
    pub fn try_address(&self, node: NodeId) -> Result<OverlayAddress, KademliaError> {
        self.addresses
            .get(node.0)
            .copied()
            .ok_or(KademliaError::UnknownNode { index: node.0 })
    }

    /// The routing table of `node` (empty for offline nodes).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of this topology.
    pub fn table(&self, node: NodeId) -> TableRef<'_> {
        TableRef::new(
            node,
            self.addresses[node.0],
            self.space,
            &self.arena,
            &self.capacities,
        )
    }

    /// All routing tables, in node-id order. Views compare by content, so
    /// `a.tables().eq(b.tables())` checks two topologies table-for-table.
    pub fn tables(&self) -> impl Iterator<Item = TableRef<'_>> + '_ {
        (0..self.addresses.len()).map(|i| self.table(NodeId(i)))
    }

    /// The known peer of `from` strictly closest (XOR) to `target`, if one
    /// beats `from`'s own distance — the forwarding-Kademlia relay choice.
    ///
    /// Reads the arena directly, skipping view construction: this is the
    /// innermost call of every routed chunk. See [`TableRef::next_hop`]
    /// for the search itself.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not part of this topology.
    #[inline]
    pub fn next_hop(&self, from: NodeId, target: OverlayAddress) -> Option<NodeId> {
        self.next_hop_raw(from, self.addresses[from.0].raw(), target)
            .map(|(next, _)| next)
    }

    /// [`Topology::next_hop`] for a caller that already holds `from`'s raw
    /// address, returning the chosen peer's raw address with its id.
    ///
    /// A routing walk carries each hop's raw address into the next call
    /// instead of reloading it from the address table, saving one
    /// dependent cache miss per hop on overlays that outgrow the caches.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not part of this topology. `from_raw` must be
    /// `from`'s own address (checked in debug builds).
    #[inline]
    pub fn next_hop_raw(
        &self,
        from: NodeId,
        from_raw: u64,
        target: OverlayAddress,
    ) -> Option<(NodeId, u64)> {
        debug_assert_eq!(
            from_raw,
            self.addresses[from.0].raw(),
            "stale raw for {from}"
        );
        self.arena
            .next_hop(from.0, from_raw, target.raw())
            .map(|(id, raw)| (NodeId(id as usize), raw))
    }

    /// The known peers of `from` strictly closer (XOR) to `target` than
    /// `from` itself, nearest first, at most `limit` entries — appended to
    /// `out` (which is cleared first).
    ///
    /// The first entry (when any exists) is exactly
    /// [`Topology::next_hop`]'s choice; the rest are the fallback relays a
    /// capacity-detour routing policy may try when the greedy hop is
    /// saturated. Every entry strictly improves on `from`'s own distance,
    /// so a walk that only ever takes hops from this list still terminates.
    /// Unlike `next_hop` this scans the whole table — it is meant for the
    /// saturated slow path, not the per-hop common case.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not part of this topology.
    pub fn next_hops_into(
        &self,
        from: NodeId,
        target: OverlayAddress,
        limit: usize,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        if limit == 0 {
            return;
        }
        let target_raw = target.raw();
        let own = self.addresses[from.0].raw() ^ target_raw;
        if own == 0 {
            // `from` sits on the target address; nothing is closer.
            return;
        }
        let bits = self.space.bits() as usize;

        // Realistic limits (a detour policy asks for a handful of
        // fallbacks) keep the whole selection on the stack: a sorted
        // insertion window, O(entries × limit) with limit ≤ 16 — no
        // allocation per call, which matters because the detour slow path
        // invokes this once per saturated hop.
        const STACK_LIMIT: usize = 16;
        if limit <= STACK_LIMIT {
            let mut best = [(u64::MAX, 0u32); STACK_LIMIT];
            let mut len = 0usize;
            for bucket in 0..bits {
                for &Entry { raw, id } in self.arena.bucket_entries(from.0, bucket) {
                    let d = raw ^ target_raw;
                    if d >= own || (len == limit && d >= best[limit - 1].0) {
                        continue;
                    }
                    // Shift the tail right and insert in sorted position
                    // (XOR distances to distinct addresses are unique, so
                    // the order is total).
                    let mut pos = len.min(limit - 1);
                    while pos > 0 && best[pos - 1].0 > d {
                        best[pos] = best[pos - 1];
                        pos -= 1;
                    }
                    best[pos] = (d, id);
                    len = (len + 1).min(limit);
                }
            }
            out.extend(best[..len].iter().map(|&(_, id)| NodeId(id as usize)));
            return;
        }

        let mut ranked: Vec<(u64, u32)> = Vec::new();
        for bucket in 0..bits {
            for &Entry { raw, id } in self.arena.bucket_entries(from.0, bucket) {
                let d = raw ^ target_raw;
                if d < own {
                    ranked.push((d, id));
                }
            }
        }
        // XOR distances to distinct addresses are unique, so the order is
        // total and the partial selection reproduces the full sort's prefix.
        if ranked.len() > limit {
            ranked.select_nth_unstable(limit);
            ranked.truncate(limit);
        }
        ranked.sort_unstable();
        out.extend(ranked.iter().map(|&(_, id)| NodeId(id as usize)));
    }

    /// The live node whose address is globally closest (XOR metric) to
    /// `target`.
    ///
    /// XOR distances from a fixed target to distinct addresses are unique, so
    /// the closest node is unambiguous. The paper stores each chunk at
    /// exactly this node; under churn, responsibility migrates to the
    /// closest *live* node.
    pub fn closest_node(&self, target: OverlayAddress) -> NodeId {
        self.trie.closest(target)
    }

    /// Total connections maintained across all nodes (each table entry is an
    /// open connection in the §V overhead model).
    pub fn total_connections(&self) -> usize {
        self.arena.total_connections()
    }

    /// Takes `node` offline: removes it from the live set, the closest-node
    /// index, and every routing table that listed it, then incrementally
    /// refills each affected bucket with the closest eligible live peer so
    /// the "full whenever candidates exist" invariant survives.
    ///
    /// Each refill is one descent of the address trie that enters the
    /// nearer child only when its live count exceeds the bucket entries
    /// under it, so it never backtracks over peers the bucket already
    /// lists. That is `O(bits × k)` per refill, and `O(1)` when the bucket
    /// already holds every live candidate, so a departure costs
    /// `O(holders × bits × k)` — the node's typical in-degree is a few
    /// dozen — whatever the population or subtree sizes.
    ///
    /// # Errors
    ///
    /// * [`KademliaError::UnknownNode`] for out-of-range ids.
    /// * [`KademliaError::NodeNotLive`] if the node is already offline.
    /// * [`KademliaError::TooFewLiveNodes`] if fewer than 3 nodes are live.
    pub fn remove_node(&mut self, node: NodeId) -> Result<(), KademliaError> {
        let index = node.0;
        if index >= self.addresses.len() {
            return Err(KademliaError::UnknownNode { index });
        }
        if !self.live[index] {
            return Err(KademliaError::NodeNotLive { index });
        }
        if self.live_count <= 2 {
            return Err(KademliaError::TooFewLiveNodes {
                live: self.live_count,
            });
        }
        self.live[index] = false;
        self.live_count -= 1;
        self.trie.set_live(self.addresses[index], false);

        // Drop the departed node from every table that listed it, refilling
        // the vacated bucket where candidates remain.
        let holders = std::mem::take(&mut self.knowers[index]);
        let departed_addr = self.addresses[index];
        for owner in holders {
            let owner = owner as usize;
            let bucket = self
                .space
                .proximity(self.addresses[owner], departed_addr)
                .bucket_index();
            let removed = self.arena.remove(owner, bucket, index as u32);
            debug_assert!(removed, "knowers index out of sync");
            if let Some(replacement) = self.refill_candidate(owner, bucket) {
                let inserted = self.arena.insert(
                    owner,
                    bucket,
                    replacement as u32,
                    self.addresses[replacement].raw(),
                );
                debug_assert!(inserted, "refill candidate must fit");
                knowers_insert(&mut self.knowers[replacement], owner as u32);
            }
        }

        // The departed node drops all of its own connections.
        for peer in self.arena.node_peers(index) {
            knowers_remove(&mut self.knowers[peer as usize], index as u32);
        }
        self.arena.clear_node(index);
        Ok(())
    }

    /// Brings an offline `node` back into the overlay at its original
    /// address: rebuilds its routing table from the live population
    /// (closest-per-bucket selection) and inserts it into every live
    /// bucket with spare capacity, restoring the fullness invariant.
    ///
    /// One trie descent along the joiner's path serves both halves. The
    /// table fill walks the `min(k, live)` nearest peers of each sibling
    /// subtree. The advertise step skips depth `b` outright when the
    /// joiner's own side already held `capacities[b]` live nodes — every
    /// owner across the split is then full, by the invariant
    /// [`Topology::validate`] checks — and otherwise links the joiner into
    /// every live owner there, each of which has room. A join therefore
    /// costs `O(bits × k × bits)` plus `O(bits)` per new inbound link,
    /// never a scan of the population.
    ///
    /// # Errors
    ///
    /// * [`KademliaError::UnknownNode`] for out-of-range ids.
    /// * [`KademliaError::NodeAlreadyLive`] if the node is already live.
    pub fn add_node(&mut self, node: NodeId) -> Result<(), KademliaError> {
        let index = node.0;
        if index >= self.addresses.len() {
            return Err(KademliaError::UnknownNode { index });
        }
        if self.live[index] {
            return Err(KademliaError::NodeAlreadyLive { index });
        }
        self.live[index] = true;
        self.live_count += 1;
        let joiner_addr = self.addresses[index];
        self.trie.set_live(joiner_addr, true);
        let path = self.trie.path(joiner_addr);

        // 1. Rebuild the joiner's own table from the live population.
        Self::fill_table_closest(&mut self.arena, &self.trie, &self.addresses, &path, index);
        for peer in self.arena.node_peers(index) {
            knowers_insert(&mut self.knowers[peer as usize], index as u32);
        }

        // 2. Advertise the joiner to the rest of the overlay: every live
        //    node with spare capacity in the matching bucket links to it.
        //    An owner across the split at depth `b` has proximity `b` to
        //    the joiner, and its bucket `b` candidates are the joiner's own
        //    side, whose live count (less the joiner) fixes its occupancy.
        let mut knowers = std::mem::take(&mut self.knowers[index]);
        debug_assert!(knowers.is_empty(), "an offline node has no knowers");
        for (bucket, &capacity) in self.capacities.iter().enumerate() {
            let sibling = path.sibling[bucket];
            if sibling == NIL || (path.own_live[bucket] - 1) as usize >= capacity {
                continue;
            }
            for owner in self
                .trie
                .nearest_live(sibling, bucket as u32 + 1, joiner_addr)
            {
                let inserted = self
                    .arena
                    .insert(owner, bucket, index as u32, joiner_addr.raw());
                debug_assert!(inserted, "an under-full owner must accept the joiner");
                knowers.push(owner as u32);
            }
        }
        knowers.sort_unstable();
        self.knowers[index] = knowers;
        Ok(())
    }

    /// The closest eligible live peer for `owner`'s bucket `bucket`, if any:
    /// live, not the owner, proximity exactly `bucket`, not already listed.
    ///
    /// One count-pruned descent of the exact-proximity subtree,
    /// `O(bits × k)`; see [`AddressTrie::nearest_live_outside`].
    fn refill_candidate(&self, owner: usize, bucket: usize) -> Option<usize> {
        let owner_addr = self.addresses[owner];
        let subtree = self.trie.sibling_subtree(owner_addr, bucket as u32)?;
        // The subtree's first `bucket + 1` address bits: the owner's, with
        // the last one flipped.
        let prefix = (owner_addr.raw() >> (owner_addr.bits() - 1 - bucket as u32)) ^ 1;
        let members = self.arena.bucket_entries(owner, bucket);
        self.trie
            .nearest_live_outside(subtree, bucket as u32 + 1, prefix, owner_addr, members)
    }

    /// Refills `owner`'s buckets in place from the current live
    /// population: per bucket, the closest `min(k, |candidates|)` live
    /// peers by XOR distance (deterministic; distances to distinct
    /// addresses never tie). Shared by [`Topology::add_node`] and
    /// [`Topology::rebuilt_naive`] so the two maintenance paths can never
    /// drift apart in selection policy.
    ///
    /// The candidates of bucket `b` are the sibling subtree at depth `b` of
    /// the owner's trie `path`, each walked nearest-first, so filling a
    /// whole table costs `O(bits × k × bits)` instead of a population scan.
    /// An associated function over split borrows because it writes the
    /// arena while walking the trie.
    fn fill_table_closest(
        arena: &mut TableArena,
        trie: &AddressTrie,
        addresses: &[OverlayAddress],
        path: &TriePath,
        owner: usize,
    ) {
        arena.clear_node(owner);
        let owner_addr = addresses[owner];
        for bucket in 0..owner_addr.bits() {
            let sibling = path.sibling[bucket as usize];
            if sibling == NIL {
                continue;
            }
            // Reserved slots are min(capacity, all-time candidates), the
            // exact occupancy bound — live candidates can only be fewer.
            let reserved = arena.bucket_reserved(owner, bucket as usize);
            for peer in trie
                .nearest_live(sibling, bucket + 1, owner_addr)
                .take(reserved)
            {
                let inserted =
                    arena.insert(owner, bucket as usize, peer as u32, addresses[peer].raw());
                debug_assert!(inserted, "candidate must fit its bucket");
            }
        }
    }

    /// The live nodes whose addresses share the first `prefix_bits` bits
    /// with `anchor` — an address *region* in the sense of correlated
    /// failures (one datacenter, one jurisdiction, one /16). Returned in
    /// ascending node-id order.
    ///
    /// `prefix_bits = 0` selects the whole live population; a prefix longer
    /// than the address width selects at most the node at `anchor` itself.
    /// Answered by descending the address trie to the region's subtree and
    /// collecting its live leaves, so the cost is `O(prefix + answer)`.
    pub fn live_nodes_with_prefix(&self, anchor: OverlayAddress, prefix_bits: u32) -> Vec<NodeId> {
        let prefix_bits = prefix_bits.min(self.space.bits());
        let Some(subtree) = self.trie.prefix_subtree(anchor, prefix_bits) else {
            return Vec::new();
        };
        let mut nodes: Vec<NodeId> = self
            .trie
            .nearest_live(subtree, prefix_bits, anchor)
            .map(NodeId)
            .collect();
        nodes.sort_unstable();
        nodes
    }

    /// The `count` live nodes closest to `target` under the XOR metric, in
    /// ascending distance order (fewer if the live population is smaller).
    ///
    /// This is the selection primitive behind content-targeted scenarios:
    /// "the nodes responsible for (closest to) this popular address". A
    /// trie walk in exact distance order, `O(count × bits)`.
    pub fn closest_live_nodes(&self, target: OverlayAddress, count: usize) -> Vec<NodeId> {
        self.trie
            .nearest_live(0, 0, target)
            .take(count)
            .map(NodeId)
            .collect()
    }

    /// The `count` live nodes with the highest scores, ranked descending
    /// with ties broken by ascending node id (fewer if the live population
    /// is smaller).
    ///
    /// `scores` is any per-node metric indexed by node id — incomes for
    /// "take out the top earners", forwarded counts for "take out the
    /// hardest workers". Slots beyond `scores.len()` score 0, and
    /// non-finite scores rank lowest, so the selection is total and
    /// deterministic for any input.
    pub fn top_k_live_by_score(&self, scores: &[f64], count: usize) -> Vec<NodeId> {
        let mut ranked: Vec<NodeId> = self.live_ids().collect();
        let score = |n: NodeId| {
            let s = scores.get(n.index()).copied().unwrap_or(0.0);
            if s.is_finite() {
                s
            } else {
                f64::NEG_INFINITY
            }
        };
        ranked.sort_by(|&a, &b| {
            score(b)
                .partial_cmp(&score(a))
                .expect("non-finite scores mapped to -inf")
                .then_with(|| a.cmp(&b))
        });
        ranked.truncate(count);
        ranked
    }

    /// Rebuilds every routing table from scratch over the current live set
    /// (deterministic closest-per-bucket selection) — the naive `O(n²)`
    /// alternative to the incremental maintenance done by
    /// [`Topology::remove_node`] / [`Topology::add_node`]. Used by benches
    /// and tests as a correctness / cost baseline.
    pub fn rebuilt_naive(&self) -> Topology {
        let mut rebuilt = self.clone();
        for owner in 0..self.addresses.len() {
            if self.live[owner] {
                Self::fill_table_closest(
                    &mut rebuilt.arena,
                    &self.trie,
                    &self.addresses,
                    &self.trie.path(self.addresses[owner]),
                    owner,
                );
            } else {
                rebuilt.arena.clear_node(owner);
            }
        }
        rebuilt.knowers = build_knowers(&rebuilt.arena, rebuilt.addresses.len());
        rebuilt
    }

    /// Checks structural invariants; used by tests and debug assertions.
    ///
    /// Verified invariants: addresses are distinct; offline nodes have empty
    /// tables and appear in no live table; no table contains its owner;
    /// every entry is live and sits in the bucket matching its proximity
    /// order; no bucket exceeds its capacity; every bucket whose live
    /// candidate set is at least its capacity is full; the reverse
    /// (`knowers`) index matches the tables.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = HashSet::new();
        for addr in &self.addresses {
            if !seen.insert(addr.raw()) {
                return Err(format!("duplicate address {addr}"));
            }
        }
        if self.live.iter().filter(|&&alive| alive).count() != self.live_count {
            return Err("live_count out of sync".into());
        }
        let mut knowers_check: Vec<Vec<u32>> = vec![Vec::new(); self.addresses.len()];
        for owner in 0..self.addresses.len() {
            let table = self.table(NodeId(owner));
            if !self.live[owner] {
                if table.connection_count() != 0 {
                    return Err(format!("offline node {owner} has connections"));
                }
                continue;
            }
            let owner_addr = self.addresses[owner];
            // Count live candidates per proximity order for fullness check.
            let bits = self.space.bits() as usize;
            let mut candidate_counts = vec![0usize; bits];
            for (peer, &peer_addr) in self.addresses.iter().enumerate() {
                if peer != owner && self.live[peer] {
                    let p = self.space.proximity(owner_addr, peer_addr).bucket_index();
                    candidate_counts[p] += 1;
                }
            }
            for bucket in table.buckets() {
                if bucket.len() > bucket.capacity() {
                    return Err(format!("node {owner}: bucket {} overfull", bucket.index()));
                }
                let expected = bucket
                    .capacity()
                    .min(candidate_counts[bucket.index() as usize]);
                if bucket.len() != expected {
                    return Err(format!(
                        "node {owner}: bucket {} has {} entries, expected {}",
                        bucket.index(),
                        bucket.len(),
                        expected
                    ));
                }
                for (peer, peer_addr) in bucket.iter() {
                    if peer.0 == owner {
                        return Err(format!("node {owner} lists itself"));
                    }
                    if !self.live[peer.0] {
                        return Err(format!("node {owner} lists offline {peer}"));
                    }
                    if self.addresses[peer.0] != peer_addr {
                        return Err(format!("node {owner}: stale address for {peer}"));
                    }
                    let prox = self.space.proximity(owner_addr, peer_addr);
                    if prox.bucket_index() != bucket.index() as usize {
                        return Err(format!(
                            "node {owner}: {peer} in bucket {} but proximity {}",
                            bucket.index(),
                            prox
                        ));
                    }
                    knowers_check[peer.0].push(owner as u32);
                }
            }
        }
        for list in &mut knowers_check {
            list.sort_unstable();
        }
        if knowers_check != self.knowers {
            return Err("knowers reverse index out of sync with tables".into());
        }
        Ok(())
    }
}

/// Binary trie over the node addresses for O(bits) closest-live-node
/// queries under the XOR metric. Every subtree tracks how many live
/// addresses it contains so offline nodes are skipped in O(1).
///
/// Beyond global closest-node queries, the trie answers the routing-table
/// maintenance queries that used to need population scans: the peers at
/// proximity exactly `b` from an address are one subtree
/// ([`AddressTrie::sibling_subtree`]), [`AddressTrie::nearest_live`] walks
/// any subtree in ascending XOR distance, and
/// [`AddressTrie::nearest_live_outside`] finds a bucket's refill without
/// visiting the peers it already holds. Trie nodes are a compact 16-byte
/// representation (`u32` child indices with a sentinel) so million-node
/// tries stay cache- and memory-friendly.
///
/// A jump table indexed by the first `jump_bits` address bits lets
/// [`AddressTrie::closest`] skip the top of the walk: its root-to-depth
/// descent is one lookup instead of `jump_bits` dependent node loads.
#[derive(Debug, Clone)]
struct AddressTrie {
    space: AddressSpace,
    nodes: Vec<TrieNode>,
    /// `jump[p]`: the trie node at depth `jump_bits` holding the addresses
    /// whose first `jump_bits` bits are `p`, or [`NIL`] when none does.
    /// Nodes are never added or removed after build — churn only flips
    /// live counts — so the table never needs rebuilding.
    jump: Vec<u32>,
    /// `min(floor(log2 n), bits - 1)`: at most `n` table entries, and the
    /// jump always lands on a branch, never a leaf.
    jump_bits: u32,
}

/// Sentinel for an absent trie child.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
enum TrieNode {
    /// Leaf: index of the overlay node and whether it is live.
    Leaf {
        /// The overlay node stored at this address.
        node: u32,
        /// Whether the node currently counts for closest-node queries.
        live: bool,
    },
    /// Internal: child trie-node indices for bit = 0 / bit = 1 ([`NIL`] when
    /// no address lies in that subtree), plus the live count of the whole
    /// subtree.
    Branch { zero: u32, one: u32, live: u32 },
}

impl AddressTrie {
    fn build(space: AddressSpace, addresses: &[OverlayAddress]) -> Self {
        let mut trie = Self {
            space,
            nodes: vec![TrieNode::Branch {
                zero: NIL,
                one: NIL,
                live: 0,
            }],
            jump: Vec::new(),
            jump_bits: addresses.len().max(1).ilog2().min(space.bits() - 1),
        };
        for (i, addr) in addresses.iter().enumerate() {
            trie.insert(*addr, i);
        }
        trie.jump = trie.jump_table();
        trie
    }

    /// The depth-`jump_bits` subtree of every `jump_bits`-bit prefix, by
    /// one depth-first pass over the branches above that depth.
    fn jump_table(&self) -> Vec<u32> {
        let mut jump = vec![NIL; 1 << self.jump_bits];
        // `(node, depth, prefix)`; depth-first keeps the stack to `2 ×
        // jump_bits` entries.
        let mut stack = vec![(0u32, 0u32, 0usize)];
        while let Some((node, depth, prefix)) = stack.pop() {
            if depth == self.jump_bits {
                jump[prefix] = node;
                continue;
            }
            let TrieNode::Branch { zero, one, .. } = self.nodes[node as usize] else {
                unreachable!("leaves only exist at full depth");
            };
            for (child, bit) in [(zero, 0), (one, 1)] {
                if child != NIL {
                    stack.push((child, depth + 1, prefix << 1 | bit));
                }
            }
        }
        jump
    }

    fn subtree_live(&self, index: u32) -> u32 {
        match &self.nodes[index as usize] {
            TrieNode::Leaf { live, .. } => u32::from(*live),
            TrieNode::Branch { live, .. } => *live,
        }
    }

    fn insert(&mut self, addr: OverlayAddress, node_index: usize) {
        let bits = self.space.bits();
        let mut current = 0usize;
        for depth in 0..bits {
            // Inserted nodes start live: bump the subtree count on the way
            // down.
            match &mut self.nodes[current] {
                TrieNode::Branch { live, .. } => *live += 1,
                TrieNode::Leaf { .. } => {
                    unreachable!("leaves only exist at full depth; addresses are distinct")
                }
            }
            let bit = addr.bit(depth);
            let is_last = depth == bits - 1;
            let existing = match &self.nodes[current] {
                TrieNode::Branch { zero, one, .. } => {
                    if bit {
                        *one
                    } else {
                        *zero
                    }
                }
                TrieNode::Leaf { .. } => unreachable!(),
            };
            let next = if existing != NIL {
                existing as usize
            } else {
                let idx = self.nodes.len();
                assert!(idx < NIL as usize, "trie node index overflow");
                self.nodes.push(if is_last {
                    TrieNode::Leaf {
                        node: node_index as u32,
                        live: true,
                    }
                } else {
                    TrieNode::Branch {
                        zero: NIL,
                        one: NIL,
                        live: 0,
                    }
                });
                match &mut self.nodes[current] {
                    TrieNode::Branch { zero, one, .. } => {
                        if bit {
                            *one = idx as u32;
                        } else {
                            *zero = idx as u32;
                        }
                    }
                    TrieNode::Leaf { .. } => unreachable!(),
                }
                idx
            };
            current = next;
        }
        debug_assert!(
            matches!(self.nodes[current], TrieNode::Leaf { .. }),
            "insert must end on a leaf"
        );
    }

    /// Marks the leaf at `addr` live or offline, updating subtree counts.
    fn set_live(&mut self, addr: OverlayAddress, alive: bool) {
        let bits = self.space.bits();
        // Collect the root-to-leaf path first, then adjust counts. Depth is
        // bounded by the 64-bit address-space cap, so the path lives on the
        // stack.
        let mut path = [0u32; 64];
        let mut current = 0usize;
        for depth in 0..bits {
            path[depth as usize] = current as u32;
            current = match &self.nodes[current] {
                TrieNode::Branch { zero, one, .. } => {
                    let child = if addr.bit(depth) { *one } else { *zero };
                    debug_assert_ne!(child, NIL, "address was inserted at build time");
                    child as usize
                }
                TrieNode::Leaf { .. } => unreachable!("leaves only exist at full depth"),
            };
        }
        let delta: i64 = match &mut self.nodes[current] {
            TrieNode::Leaf { live, .. } => {
                if *live == alive {
                    0
                } else {
                    *live = alive;
                    if alive {
                        1
                    } else {
                        -1
                    }
                }
            }
            TrieNode::Branch { .. } => unreachable!("walked past all bits"),
        };
        if delta == 0 {
            return;
        }
        for &index in &path[..bits as usize] {
            match &mut self.nodes[index as usize] {
                TrieNode::Branch { live, .. } => {
                    *live = (i64::from(*live) + delta) as u32;
                }
                TrieNode::Leaf { .. } => unreachable!(),
            }
        }
    }

    /// Closest live stored address to `target`: walk preferring the
    /// target's own bit at each depth, falling into the sibling subtree
    /// when the preferred one holds no live address.
    ///
    /// Preferring the matching bit maximizes the shared prefix, and within a
    /// shared prefix the same rule minimizes every lower-order XOR bit, so
    /// the walk reaches the true XOR-closest live leaf.
    ///
    /// The walk starts at the jump table's subtree for the target's first
    /// `jump_bits` bits when that subtree holds a live address: the root
    /// walk would then follow the target's own bits down to it, so both
    /// reach the same leaf. Otherwise it starts at the root.
    ///
    /// # Panics
    ///
    /// Panics if the overlay has no live nodes (the mutation APIs keep at
    /// least two alive).
    fn closest(&self, target: OverlayAddress) -> NodeId {
        let bits = self.space.bits();
        let raw = target.raw();
        // Topologies hold at least two nodes, so `jump_bits` is 0 only in a
        // 1-bit space, and the shift stays under 64.
        let jumped = self.jump[(raw >> (bits - self.jump_bits)) as usize];
        let (mut current, mut depth) = if jumped != NIL && self.subtree_live(jumped) > 0 {
            (jumped, self.jump_bits)
        } else {
            (0, 0)
        };
        while depth < bits {
            let TrieNode::Branch { zero, one, .. } = self.nodes[current as usize] else {
                unreachable!("leaves only exist at full depth");
            };
            let (preferred, fallback) = if (raw >> (bits - 1 - depth)) & 1 == 1 {
                (one, zero)
            } else {
                (zero, one)
            };
            current = if preferred != NIL && self.subtree_live(preferred) > 0 {
                preferred
            } else {
                debug_assert!(
                    fallback != NIL && self.subtree_live(fallback) > 0,
                    "trie contains at least one live address"
                );
                fallback
            };
            depth += 1;
        }
        match self.nodes[current as usize] {
            TrieNode::Leaf { node, live } => {
                debug_assert!(live, "walk must stay inside live subtrees");
                NodeId(node as usize)
            }
            TrieNode::Branch { .. } => unreachable!("walked past all bits"),
        }
    }

    /// The subtree holding exactly the stored addresses sharing the first
    /// `prefix_bits` bits with `addr`: follow `addr`'s bits for
    /// `prefix_bits` levels. `None` when no stored address has that prefix.
    /// `prefix_bits = 0` is the whole trie.
    fn prefix_subtree(&self, addr: OverlayAddress, prefix_bits: u32) -> Option<u32> {
        let mut current = 0u32;
        for depth in 0..prefix_bits {
            current = match &self.nodes[current as usize] {
                TrieNode::Branch { zero, one, .. } => {
                    let child = if addr.bit(depth) { *one } else { *zero };
                    if child == NIL {
                        return None;
                    }
                    child
                }
                TrieNode::Leaf { .. } => unreachable!("leaves only exist at full depth"),
            };
        }
        Some(current)
    }

    /// The subtree holding exactly the stored addresses at proximity
    /// `bucket` from `addr`: follow `addr`'s bits for `bucket` levels, then
    /// take the opposite-bit child. `None` when no stored address diverges
    /// from `addr` at that depth.
    fn sibling_subtree(&self, addr: OverlayAddress, bucket: u32) -> Option<u32> {
        let mut current = 0usize;
        for depth in 0..bucket {
            current = match &self.nodes[current] {
                TrieNode::Branch { zero, one, .. } => {
                    let child = if addr.bit(depth) { *one } else { *zero };
                    if child == NIL {
                        return None;
                    }
                    child as usize
                }
                TrieNode::Leaf { .. } => unreachable!("leaves only exist at full depth"),
            };
        }
        match &self.nodes[current] {
            TrieNode::Branch { zero, one, .. } => {
                // The opposite bit: addresses diverging from `addr` exactly
                // at depth `bucket` share its first `bucket` bits and differ
                // in the next one.
                let child = if addr.bit(bucket) { *zero } else { *one };
                (child != NIL).then_some(child)
            }
            TrieNode::Leaf { .. } => unreachable!("leaves only exist at full depth"),
        }
    }

    /// `addr`'s root-to-leaf path, one entry per depth; see [`TriePath`].
    /// `addr` must be stored in the trie.
    fn path(&self, addr: OverlayAddress) -> TriePath {
        let mut path = TriePath {
            sibling: [NIL; 64],
            own_live: [0; 64],
        };
        let mut current = 0usize;
        for depth in 0..self.space.bits() {
            current = match &self.nodes[current] {
                TrieNode::Branch { zero, one, .. } => {
                    let (own, other) = if addr.bit(depth) {
                        (*one, *zero)
                    } else {
                        (*zero, *one)
                    };
                    debug_assert_ne!(own, NIL, "address was inserted at build time");
                    path.sibling[depth as usize] = other;
                    path.own_live[depth as usize] = self.subtree_live(own);
                    own as usize
                }
                TrieNode::Leaf { .. } => unreachable!("leaves only exist at full depth"),
            };
        }
        path
    }

    /// The live node indices stored under `subtree` (whose root sits at
    /// `depth`) in ascending XOR distance from `target`.
    ///
    /// The preferred-bit-first descent enumerates leaves in exact distance
    /// order, so "the k closest live peers" is an `O(k × bits)` walk.
    fn nearest_live(&self, subtree: u32, depth: u32, target: OverlayAddress) -> NearestLive<'_> {
        let mut walk = NearestLive {
            trie: self,
            target,
            pending: [(NIL, 0); 65],
            len: 0,
        };
        if self.subtree_live(subtree) > 0 {
            walk.pending[0] = (subtree, depth);
            walk.len = 1;
        }
        walk
    }

    /// The live node under `subtree` nearest (XOR) to `target` that is not
    /// one of `members`, if any.
    ///
    /// `subtree`'s root sits at `depth`, and `prefix` holds its addresses'
    /// first `depth` bits. `members` are a bucket's current entries: every
    /// raw among them must be a distinct live address inside the subtree. At each
    /// branch the walk compares the preferred child's live count with how
    /// many members share that child's prefix, and enters it only when it
    /// holds a live non-member. The walk therefore never backtracks: it
    /// costs `O(bits × members)`, and `O(1)` when the subtree's live nodes
    /// are all members.
    fn nearest_live_outside(
        &self,
        subtree: u32,
        depth: u32,
        prefix: u64,
        target: OverlayAddress,
        members: &[Entry],
    ) -> Option<usize> {
        // Members inside the current subtree; all of them are live.
        let mut inside = members.len() as u32;
        if self.subtree_live(subtree) <= inside {
            return None;
        }
        let bits = self.space.bits();
        let mut current = subtree;
        let mut prefix = prefix;
        for d in depth..bits {
            let TrieNode::Branch { zero, one, .. } = self.nodes[current as usize] else {
                unreachable!("leaves only exist at full depth");
            };
            let bit = target.bit(d);
            let (preferred, fallback) = if bit { (one, zero) } else { (zero, one) };
            let preferred_prefix = (prefix << 1) | u64::from(bit);
            let shift = bits - 1 - d;
            let in_preferred = if inside == 0 {
                0
            } else {
                members
                    .iter()
                    .filter(|&&Entry { raw, .. }| raw >> shift == preferred_prefix)
                    .count() as u32
            };
            // Invariant: `current` holds more live nodes than members, so
            // when the preferred child does not, the fallback does.
            if preferred != NIL && self.subtree_live(preferred) > in_preferred {
                current = preferred;
                prefix = preferred_prefix;
                inside = in_preferred;
            } else {
                current = fallback;
                prefix = preferred_prefix ^ 1;
                inside -= in_preferred;
            }
        }
        match self.nodes[current as usize] {
            TrieNode::Leaf { node, live } => {
                debug_assert!(live && inside == 0, "descent must end on a live non-member");
                Some(node as usize)
            }
            TrieNode::Branch { .. } => unreachable!("walked past all bits"),
        }
    }
}

/// One stored address's root-to-leaf trie path, indexed by depth `d`:
/// `sibling[d]` roots the subtree of addresses at proximity exactly `d`
/// from it ([`NIL`] when none diverges there), and `own_live[d]` counts the
/// live addresses sharing its first `d + 1` bits, itself included.
struct TriePath {
    sibling: [u32; 64],
    own_live: [u32; 64],
}

/// Iterator behind [`AddressTrie::nearest_live`]: a preferred-bit-first
/// descent with an explicit stack of deferred fallback subtrees.
struct NearestLive<'a> {
    trie: &'a AddressTrie,
    target: OverlayAddress,
    /// Deferred `(subtree, depth)` pairs, nearest on top; every entry holds
    /// a live node. Depths strictly increase up the stack, so it never
    /// holds more than `bits + 1` entries.
    pending: [(u32, u32); 65],
    len: usize,
}

impl Iterator for NearestLive<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let (mut current, mut depth) = self.pending[self.len];
        loop {
            match self.trie.nodes[current as usize] {
                TrieNode::Leaf { node, live } => {
                    debug_assert!(live, "only live subtrees are entered");
                    return Some(node as usize);
                }
                TrieNode::Branch { zero, one, .. } => {
                    let (preferred, fallback) = if self.target.bit(depth) {
                        (one, zero)
                    } else {
                        (zero, one)
                    };
                    let has_live = |child: u32| child != NIL && self.trie.subtree_live(child) > 0;
                    depth += 1;
                    current = if has_live(preferred) {
                        if has_live(fallback) {
                            self.pending[self.len] = (fallback, depth);
                            self.len += 1;
                        }
                        preferred
                    } else {
                        fallback
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn space(bits: u32) -> AddressSpace {
        AddressSpace::new(bits).unwrap()
    }

    #[test]
    fn build_paper_scale_topology() {
        let t = TopologyBuilder::new(space(16))
            .nodes(1000)
            .bucket_size(4)
            .seed(1)
            .build()
            .unwrap();
        assert_eq!(t.len(), 1000);
        assert_eq!(t.live_count(), 1000);
        t.validate().unwrap();
    }

    #[test]
    fn same_seed_same_topology() {
        let build = |seed| {
            TopologyBuilder::new(space(16))
                .nodes(200)
                .bucket_size(4)
                .seed(seed)
                .build()
                .unwrap()
        };
        let a = build(7);
        let b = build(7);
        let c = build(8);
        assert_eq!(
            a.node_ids().map(|n| a.address(n)).collect::<Vec<_>>(),
            b.node_ids().map(|n| b.address(n)).collect::<Vec<_>>()
        );
        assert!(a.tables().eq(b.tables()));
        assert_ne!(
            a.node_ids().map(|n| a.address(n)).collect::<Vec<_>>(),
            c.node_ids().map(|n| c.address(n)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn threaded_build_matches_serial_build() {
        let build = |threads| {
            TopologyBuilder::new(space(16))
                .nodes(400)
                .bucket_size(4)
                .seed(9)
                .threads(threads)
                .build()
                .unwrap()
        };
        let serial = build(1);
        let parallel = build(8);
        assert!(serial.tables().eq(parallel.tables()));
        parallel.validate().unwrap();
    }

    #[test]
    fn build_scales_past_the_16_bit_space() {
        // 3000 nodes in a 20-bit space: impossible under 16 bits, cheap
        // under the sorted-index builder.
        let t = TopologyBuilder::new(space(20))
            .nodes(3000)
            .bucket_size(4)
            .seed(2)
            .threads(2)
            .build()
            .unwrap();
        assert_eq!(t.len(), 3000);
        // Spot-check the trie against linear scans in the wider space.
        for raw in (0..(1u64 << 20)).step_by(99_991) {
            let target = t.space().address(raw).unwrap();
            let by_scan = t
                .node_ids()
                .min_by_key(|n| t.space().distance(t.address(*n), target))
                .unwrap();
            assert_eq!(t.closest_node(target), by_scan, "target {raw:#x}");
        }
    }

    #[test]
    fn explicit_addresses_respected() {
        let t = TopologyBuilder::new(space(8))
            .explicit_addresses([1, 2, 200, 250])
            .bucket_size(2)
            .build()
            .unwrap();
        assert_eq!(t.len(), 4);
        let raws: Vec<_> = t.node_ids().map(|n| t.address(n).raw()).collect();
        assert_eq!(raws, vec![1, 2, 200, 250]);
        t.validate().unwrap();
    }

    #[test]
    fn duplicate_explicit_addresses_rejected() {
        let err = TopologyBuilder::new(space(8))
            .explicit_addresses([1, 1])
            .build()
            .unwrap_err();
        assert_eq!(err, KademliaError::DuplicateAddress { raw: 1 });
    }

    #[test]
    fn too_few_nodes_rejected() {
        let err = TopologyBuilder::new(space(8)).nodes(1).build().unwrap_err();
        assert_eq!(err, KademliaError::TooFewNodes { requested: 1 });
    }

    #[test]
    fn space_exhaustion_detected() {
        let err = TopologyBuilder::new(space(2)).nodes(5).build().unwrap_err();
        assert!(matches!(err, KademliaError::SpaceExhausted { .. }));
    }

    #[test]
    fn zero_bucket_size_rejected() {
        let err = TopologyBuilder::new(space(8))
            .nodes(4)
            .bucket_size(0)
            .build()
            .unwrap_err();
        assert_eq!(err, KademliaError::ZeroBucketSize);
    }

    #[test]
    fn closest_node_matches_linear_scan() {
        let t = TopologyBuilder::new(space(16))
            .nodes(300)
            .bucket_size(4)
            .seed(11)
            .build()
            .unwrap();
        let s = t.space();
        for raw in (0..=0xFFFFu64).step_by(977) {
            let target = s.address(raw).unwrap();
            let by_trie = t.closest_node(target);
            let by_scan = t
                .node_ids()
                .min_by_key(|n| s.distance(t.address(*n), target))
                .unwrap();
            assert_eq!(by_trie, by_scan, "target {raw:#06x}");
        }
    }

    #[test]
    fn per_bucket_override_applies() {
        let sizing = BucketSizing::uniform(2).with_override(0, 8);
        assert_eq!(sizing.capacities(4), vec![8, 2, 2, 2]);
        let t = TopologyBuilder::new(space(16))
            .nodes(400)
            .bucket_sizing(sizing)
            .seed(3)
            .build()
            .unwrap();
        t.validate().unwrap();
        // Bucket 0 has ~200 candidates, so it should be filled to 8.
        let full_zero = t
            .node_ids()
            .filter(|n| t.table(*n).bucket(0).unwrap().len() == 8)
            .count();
        assert_eq!(full_zero, 400);
    }

    #[test]
    fn later_override_wins() {
        let sizing = BucketSizing::uniform(4)
            .with_override(1, 10)
            .with_override(1, 6);
        assert_eq!(sizing.capacities(3), vec![4, 6, 4]);
        assert_eq!(sizing.default_k(), 4);
    }

    #[test]
    fn connection_counts_grow_with_k() {
        let build = |k| {
            TopologyBuilder::new(space(16))
                .nodes(300)
                .bucket_size(k)
                .seed(5)
                .build()
                .unwrap()
                .total_connections()
        };
        assert!(build(20) > build(4));
    }

    #[test]
    fn try_address_unknown_node() {
        let t = TopologyBuilder::new(space(8))
            .nodes(4)
            .bucket_size(2)
            .seed(1)
            .build()
            .unwrap();
        assert!(t.try_address(NodeId(99)).is_err());
        assert!(t.try_address(NodeId(0)).is_ok());
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(17).to_string(), "n17");
    }

    // ---- dynamic membership ------------------------------------------

    fn dynamic_topology(nodes: usize, k: usize, seed: u64) -> Topology {
        TopologyBuilder::new(space(16))
            .nodes(nodes)
            .bucket_size(k)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn remove_node_keeps_every_surviving_table_consistent() {
        let mut t = dynamic_topology(200, 4, 21);
        for victim in [3usize, 77, 150, 9, 42] {
            t.remove_node(NodeId(victim)).unwrap();
            t.validate().unwrap();
            assert!(!t.is_live(NodeId(victim)));
            assert_eq!(t.table(NodeId(victim)).connection_count(), 0);
            // No surviving table dangles a reference to the departed node.
            for owner in t.live_ids() {
                assert!(!t.table(owner).knows(NodeId(victim)));
            }
        }
        assert_eq!(t.live_count(), 195);
    }

    #[test]
    fn closest_node_skips_offline_nodes() {
        let mut t = dynamic_topology(120, 4, 23);
        let target = t.space().address(0x4242).unwrap();
        let first = t.closest_node(target);
        t.remove_node(first).unwrap();
        let second = t.closest_node(target);
        assert_ne!(first, second);
        assert!(t.is_live(second));
        // Matches a linear scan over live nodes.
        let by_scan = t
            .live_ids()
            .min_by_key(|n| t.space().distance(t.address(*n), target))
            .unwrap();
        assert_eq!(second, by_scan);
    }

    #[test]
    fn add_node_restores_membership_and_invariants() {
        let mut t = dynamic_topology(150, 4, 29);
        let node = NodeId(60);
        t.remove_node(node).unwrap();
        t.add_node(node).unwrap();
        t.validate().unwrap();
        assert!(t.is_live(node));
        assert_eq!(t.live_count(), 150);
        // The rejoined node is routable again.
        let target = t.address(node);
        assert_eq!(t.closest_node(target), node);
    }

    #[test]
    fn churn_sequence_preserves_invariants() {
        let mut t = dynamic_topology(100, 3, 31);
        let sequence = [5usize, 17, 30, 44, 61, 83];
        for &node in &sequence {
            t.remove_node(NodeId(node)).unwrap();
        }
        t.validate().unwrap();
        for &node in &sequence[..3] {
            t.add_node(NodeId(node)).unwrap();
        }
        t.validate().unwrap();
        assert_eq!(t.live_count(), 100 - 3);
        // Closest-node queries agree with linear scans across the whole
        // address space.
        for raw in (0..=0xFFFFu64).step_by(2711) {
            let target = t.space().address(raw).unwrap();
            let by_scan = t
                .live_ids()
                .min_by_key(|n| t.space().distance(t.address(*n), target))
                .unwrap();
            assert_eq!(t.closest_node(target), by_scan, "target {raw:#06x}");
        }
    }

    #[test]
    fn mutation_errors() {
        let mut t = dynamic_topology(10, 2, 37);
        assert_eq!(
            t.remove_node(NodeId(99)).unwrap_err(),
            KademliaError::UnknownNode { index: 99 }
        );
        assert_eq!(
            t.add_node(NodeId(0)).unwrap_err(),
            KademliaError::NodeAlreadyLive { index: 0 }
        );
        t.remove_node(NodeId(0)).unwrap();
        assert_eq!(
            t.remove_node(NodeId(0)).unwrap_err(),
            KademliaError::NodeNotLive { index: 0 }
        );
        // Drain down to the floor.
        for i in 1..8 {
            t.remove_node(NodeId(i)).unwrap();
        }
        assert_eq!(
            t.remove_node(NodeId(8)).unwrap_err(),
            KademliaError::TooFewLiveNodes { live: 2 }
        );
    }

    #[test]
    fn incremental_maintenance_matches_naive_rebuild_occupancy() {
        let mut t = dynamic_topology(180, 4, 41);
        for node in [4usize, 90, 140] {
            t.remove_node(NodeId(node)).unwrap();
        }
        t.add_node(NodeId(90)).unwrap();
        let naive = t.rebuilt_naive();
        naive.validate().unwrap();
        // Selection policies differ, but per-bucket occupancy (and hence
        // the fullness invariant) must agree exactly.
        for owner in t.live_ids() {
            for (incremental, rebuilt) in t.table(owner).buckets().zip(naive.table(owner).buckets())
            {
                assert_eq!(
                    incremental.len(),
                    rebuilt.len(),
                    "owner {owner} bucket {}",
                    incremental.index()
                );
            }
        }
    }

    #[test]
    fn removal_is_deterministic() {
        let run = || {
            let mut t = dynamic_topology(150, 4, 43);
            t.remove_node(NodeId(12)).unwrap();
            t.remove_node(NodeId(99)).unwrap();
            t.add_node(NodeId(12)).unwrap();
            t
        };
        let a = run();
        let b = run();
        assert!(a.tables().eq(b.tables()));
    }

    #[test]
    fn prefix_selection_matches_linear_scan() {
        let mut t = dynamic_topology(300, 4, 51);
        t.remove_node(NodeId(17)).unwrap();
        let anchor = t.address(NodeId(0));
        for prefix_bits in [0u32, 1, 3, 6, 16, 99] {
            let effective = prefix_bits.min(16);
            let shift = 16 - effective;
            let expected: Vec<NodeId> = t
                .node_ids()
                .filter(|&n| {
                    t.is_live(n) && (t.address(n).raw() >> shift) == (anchor.raw() >> shift)
                })
                .collect();
            assert_eq!(
                t.live_nodes_with_prefix(anchor, prefix_bits),
                expected,
                "prefix_bits = {prefix_bits}"
            );
        }
        // The anchor owner itself always matches the full prefix.
        assert_eq!(t.live_nodes_with_prefix(anchor, 16), vec![NodeId(0)]);
    }

    #[test]
    fn closest_live_nodes_match_sorted_distances() {
        let mut t = dynamic_topology(200, 4, 53);
        t.remove_node(NodeId(5)).unwrap();
        let target = t.space().address(0x1A2B).unwrap();
        let got = t.closest_live_nodes(target, 10);
        let mut expected: Vec<NodeId> = t.live_ids().collect();
        expected.sort_by_key(|&n| t.space().distance(t.address(n), target).raw());
        expected.truncate(10);
        assert_eq!(got, expected);
        // Count 0 and oversized counts behave.
        assert!(t.closest_live_nodes(target, 0).is_empty());
        assert_eq!(t.closest_live_nodes(target, 10_000).len(), 199);
    }

    #[test]
    fn next_hops_ranking_matches_table_scan_and_leads_with_next_hop() {
        let t = dynamic_topology(200, 4, 59);
        let mut out = Vec::new();
        for raw in [0x0000u64, 0x1A2B, 0x7777, 0xFFFF, 0x00FF] {
            let target = t.space().address(raw).unwrap();
            for from in [NodeId(0), NodeId(7), NodeId(131)] {
                let own = t.space().distance(t.address(from), target);
                // Reference: every known peer strictly closer than the
                // owner, ranked by distance.
                let mut expected: Vec<NodeId> = t
                    .table(from)
                    .peers()
                    .filter(|(_, addr)| t.space().distance(*addr, target) < own)
                    .map(|(id, _)| id)
                    .collect();
                expected.sort_by_key(|&n| t.space().distance(t.address(n), target).raw());
                t.next_hops_into(from, target, usize::MAX, &mut out);
                assert_eq!(out, expected, "from {from} target {raw:#06x}");
                // The head of the ranking is the greedy next hop.
                assert_eq!(out.first().copied(), t.next_hop(from, target));
                // Truncation keeps the nearest prefix.
                t.next_hops_into(from, target, 2, &mut out);
                assert_eq!(out, expected[..expected.len().min(2)]);
                // Limit 0 clears the buffer.
                t.next_hops_into(from, target, 0, &mut out);
                assert!(out.is_empty());
            }
        }
    }

    #[test]
    fn top_k_by_score_ranks_live_nodes_deterministically() {
        let mut t = dynamic_topology(50, 4, 57);
        let mut scores = vec![1.0; 50];
        scores[7] = 100.0;
        scores[3] = 100.0;
        scores[20] = 50.0;
        scores[9] = f64::NAN;
        let top = t.top_k_live_by_score(&scores, 3);
        // Ties break toward the lower id.
        assert_eq!(top, vec![NodeId(3), NodeId(7), NodeId(20)]);
        // Offline nodes never rank.
        t.remove_node(NodeId(7)).unwrap();
        assert_eq!(
            t.top_k_live_by_score(&scores, 2),
            vec![NodeId(3), NodeId(20)]
        );
        // Short score vectors and oversized counts are total.
        let all = t.top_k_live_by_score(&scores[..10], 10_000);
        assert_eq!(all.len(), 49);
        // NaN ranks last.
        assert_eq!(all.last().copied(), Some(NodeId(9)));
    }

    // ---- churn maintenance against the reference walks -----------------

    /// The recursive nearest-first walk the maintenance layer used before
    /// the count-pruned descent: visits the live leaves under `subtree`
    /// (root at `depth`) in ascending XOR distance from `target` until
    /// `visit` returns `false`.
    fn reference_walk(
        trie: &AddressTrie,
        subtree: u32,
        depth: u32,
        target: OverlayAddress,
        visit: &mut dyn FnMut(usize) -> bool,
    ) -> bool {
        match &trie.nodes[subtree as usize] {
            TrieNode::Leaf { node, live } => !*live || visit(*node as usize),
            TrieNode::Branch { zero, one, live } => {
                if *live == 0 {
                    return true;
                }
                let (preferred, fallback) = if target.bit(depth) {
                    (*one, *zero)
                } else {
                    (*zero, *one)
                };
                for child in [preferred, fallback] {
                    if child != NIL
                        && trie.subtree_live(child) > 0
                        && !reference_walk(trie, child, depth + 1, target, visit)
                    {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Reference departure: each holder's bucket is refilled by walking its
    /// sibling subtree nearest-first and rejecting the bucket's members one
    /// `contains` at a time.
    fn reference_remove(t: &mut Topology, index: usize) {
        t.live[index] = false;
        t.live_count -= 1;
        t.trie.set_live(t.addresses[index], false);
        for owner in std::mem::take(&mut t.knowers[index]) {
            let owner = owner as usize;
            let owner_addr = t.addresses[owner];
            let bucket = t
                .space
                .proximity(owner_addr, t.addresses[index])
                .bucket_index();
            assert!(t.arena.remove(owner, bucket, index as u32));
            let mut found = None;
            if let Some(subtree) = t.trie.sibling_subtree(owner_addr, bucket as u32) {
                reference_walk(
                    &t.trie,
                    subtree,
                    bucket as u32 + 1,
                    owner_addr,
                    &mut |peer| {
                        if t.arena.contains(owner, bucket, peer as u32) {
                            true
                        } else {
                            found = Some(peer);
                            false
                        }
                    },
                );
            }
            if let Some(peer) = found {
                assert!(t
                    .arena
                    .insert(owner, bucket, peer as u32, t.addresses[peer].raw()));
                knowers_insert(&mut t.knowers[peer], owner as u32);
            }
        }
        let peers: Vec<u32> = t.arena.node_peers(index).collect();
        for peer in peers {
            knowers_remove(&mut t.knowers[peer as usize], index as u32);
        }
        t.arena.clear_node(index);
    }

    /// Reference join: one sibling-subtree descent and recursive walk per
    /// bucket for the fill, then a scan of every live owner for the
    /// advertise.
    fn reference_add(t: &mut Topology, index: usize) {
        t.live[index] = true;
        t.live_count += 1;
        let joiner = t.addresses[index];
        t.trie.set_live(joiner, true);
        t.arena.clear_node(index);
        for bucket in 0..t.space.bits() {
            let Some(subtree) = t.trie.sibling_subtree(joiner, bucket) else {
                continue;
            };
            let mut remaining = t.arena.bucket_reserved(index, bucket as usize);
            let (arena, addresses) = (&mut t.arena, &t.addresses);
            reference_walk(&t.trie, subtree, bucket + 1, joiner, &mut |peer| {
                assert!(arena.insert(index, bucket as usize, peer as u32, addresses[peer].raw()));
                remaining -= 1;
                remaining > 0
            });
        }
        let peers: Vec<u32> = t.arena.node_peers(index).collect();
        for peer in peers {
            knowers_insert(&mut t.knowers[peer as usize], index as u32);
        }
        for owner in 0..t.addresses.len() {
            if owner == index || !t.live[owner] {
                continue;
            }
            let bucket = t.space.proximity(t.addresses[owner], joiner).bucket_index();
            if t.arena.insert(owner, bucket, index as u32, joiner.raw()) {
                knowers_insert(&mut t.knowers[index], owner as u32);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Over random join/leave interleavings — a mixed phase, a drain to
        /// the live floor and a regrowth — the count-pruned refill, the
        /// capacity-bounded advertise and the one-descent fill choose
        /// exactly the reference walks' peers, in the same bucket order.
        #[test]
        fn churn_maintenance_matches_the_reference_walks(
            bits in 8u32..=16,
            k in 1usize..=8,
            overridden in (0u32..4, 1usize..=12),
            nodes in 6usize..=90,
            seed in 0u64..u64::MAX,
        ) {
            let (override_bucket, override_k) = overridden;
            // Odd seeds run uniform buckets, even ones a per-bucket
            // override (the advertise bound reads every capacity).
            let sizing = if seed % 2 == 0 {
                BucketSizing::uniform(k).with_override(override_bucket, override_k)
            } else {
                BucketSizing::uniform(k)
            };
            let mut fast = TopologyBuilder::new(space(bits))
                .nodes(nodes)
                .bucket_sizing(sizing)
                .seed(seed)
                .build()
                .unwrap();
            let mut reference = fast.clone();
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut floor_hits = 0;
            for (phase, remove_weight) in [(0, 50u32), (1, 90), (2, 15)] {
                for _ in 0..nodes * 2 {
                    let live: Vec<usize> = fast.live_ids().map(|n| n.index()).collect();
                    let offline: Vec<usize> =
                        (0..nodes).filter(|&i| !fast.is_live(NodeId(i))).collect();
                    let remove =
                        offline.is_empty() || rng.gen_range(0..100u32) < remove_weight;
                    if remove {
                        let victim = live[rng.gen_range(0..live.len())];
                        if live.len() <= 2 {
                            floor_hits += 1;
                            prop_assert_eq!(
                                fast.remove_node(NodeId(victim)),
                                Err(KademliaError::TooFewLiveNodes { live: 2 })
                            );
                            continue;
                        }
                        fast.remove_node(NodeId(victim)).unwrap();
                        reference_remove(&mut reference, victim);
                    } else {
                        let joiner = offline[rng.gen_range(0..offline.len())];
                        fast.add_node(NodeId(joiner)).unwrap();
                        reference_add(&mut reference, joiner);
                    }
                    prop_assert!(
                        fast.tables().eq(reference.tables()),
                        "phase {phase}: tables diverged"
                    );
                    prop_assert_eq!(&fast.knowers, &reference.knowers);
                    prop_assert_eq!(fast.validate(), Ok(()));
                }
            }
            prop_assert!(floor_hits > 0, "the drain must reach the live floor");
        }
    }

    // ---- closest-node jump table against a live scan -------------------

    /// The XOR-closest live node by scanning every slot.
    fn closest_by_scan(t: &Topology, target: OverlayAddress) -> NodeId {
        t.live_ids()
            .min_by_key(|n| t.space().distance(t.address(*n), target))
            .expect("at least two nodes stay live")
    }

    /// Non-power-of-two node counts from 5 to 511, so the jump depth
    /// `floor(log2 n)` leaves some prefixes empty or thinly populated.
    fn non_power_of_two_nodes() -> impl Strategy<Value = usize> {
        (2u32..=8, any::<usize>()).prop_map(|(j, r)| (1 << j) + 1 + r % ((1 << j) - 1))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// After every join, leave and prefix-wide outage — a mixed phase,
        /// a drain to the live floor and a regrowth — the jump-table walk
        /// returns exactly the live scan's closest node. Targets include
        /// addresses under the prefix of the last outage, whose jump
        /// subtree is then wholly offline and forces the root walk, and
        /// every node's own address.
        #[test]
        fn closest_node_matches_a_live_scan_under_churn(
            bits in 8u32..=22,
            nodes in non_power_of_two_nodes(),
            seed in 0u64..u64::MAX,
        ) {
            let nodes = nodes.min((1usize << bits) - 1);
            let mut t = TopologyBuilder::new(space(bits))
                .nodes(nodes)
                .bucket_size(2)
                .seed(seed)
                .build()
                .unwrap();
            let m = t.trie.jump_bits;
            prop_assert_eq!(m, (nodes.ilog2()).min(bits - 1));
            prop_assert!(t.trie.jump.len() <= nodes);
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut dark_prefix = 0u64;
            let mut outages = 0;
            let check = |t: &Topology, rng: &mut ChaCha12Rng, dark_prefix: u64| {
                let max = t.space().max_raw();
                let low_bits = bits - m;
                let mut targets: Vec<u64> = (0..6).map(|_| rng.gen_range(0..=max)).collect();
                targets.extend((0..6).map(|_| {
                    dark_prefix << low_bits | rng.gen_range(0..(1u64 << low_bits))
                }));
                for raw in targets {
                    let target = t.space().address(raw).unwrap();
                    if t.closest_node(target) != closest_by_scan(t, target) {
                        return Err(format!("target {raw:#x}"));
                    }
                }
                Ok(())
            };
            for (phase, ops, remove_weight) in [(0, 24usize, 50u32), (1, nodes, 100), (2, 24, 0)] {
                for _ in 0..ops {
                    let live: Vec<usize> = t.live_ids().map(|n| n.index()).collect();
                    let offline: Vec<usize> =
                        (0..nodes).filter(|&i| !t.is_live(NodeId(i))).collect();
                    let roll = rng.gen_range(0..100u32);
                    if offline.is_empty() || roll < remove_weight {
                        if live.len() <= 2 {
                            let victim = NodeId(live[0]);
                            prop_assert_eq!(
                                t.remove_node(victim),
                                Err(KademliaError::TooFewLiveNodes { live: 2 })
                            );
                        } else if roll % 4 == 0 {
                            // Outage: every live node under one jump prefix.
                            let anchor = t.address(NodeId(live[rng.gen_range(0..live.len())]));
                            dark_prefix = anchor.raw() >> (bits - m);
                            for node in live {
                                if t.live_count() > 2
                                    && t.address(NodeId(node)).raw() >> (bits - m) == dark_prefix
                                {
                                    t.remove_node(NodeId(node)).unwrap();
                                }
                            }
                            outages += 1;
                        } else {
                            let victim = live[rng.gen_range(0..live.len())];
                            t.remove_node(NodeId(victim)).unwrap();
                        }
                    } else {
                        let joiner = offline[rng.gen_range(0..offline.len())];
                        t.add_node(NodeId(joiner)).unwrap();
                    }
                    let checked = check(&t, &mut rng, dark_prefix);
                    prop_assert!(checked.is_ok(), "phase {}: {:?}", phase, checked);
                }
                if phase == 1 {
                    prop_assert_eq!(t.live_count(), 2, "the drain must reach the live floor");
                }
            }
            prop_assert!(outages > 0, "no prefix outage was exercised");
            for node in t.node_ids() {
                let target = t.address(node);
                prop_assert_eq!(t.closest_node(target), closest_by_scan(&t, target));
            }
        }
    }
}
