//! Seeded input generation. The engine only ever sees the operations
//! generated here; the same seed always yields the same operations.

use smdb::sim::NodeId;

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) / ((1u64 << 53) as f64) < p
    }
}

/// One generated operation of a serial transaction.
#[derive(Clone, Debug)]
pub enum Op {
    Read(u64),
    Update(u64, [u8; 8]),
    Insert(u64, [u8; 8]),
    Delete(u64),
}

/// The shape of a transaction mix.
#[derive(Clone, Copy, Debug)]
pub struct MixSpec {
    pub ops: usize,
    pub read_fraction: f64,
    /// Probability that a record operation targets the shared region
    /// rather than the executing node's private partition.
    pub sharing: f64,
    pub shared_slots: u64,
    /// Share of non-read operations that are index inserts or deletes.
    pub index_fraction: f64,
    /// Size of the index key space (0 without index operations).
    pub key_space: u64,
}

/// Record layout shared by the generator and the restart cycle: a shared
/// region `[0, shared)` followed by one private partition per node.
#[derive(Clone, Copy, Debug)]
pub struct Partitions {
    pub shared: u64,
    pub per_node: u64,
}

impl Partitions {
    pub fn new(records: u64, nodes: u16, shared: u64) -> Self {
        Partitions { shared, per_node: (records - shared) / u64::from(nodes) }
    }

    pub fn private_slot(&self, node: NodeId, offset: u64) -> u64 {
        self.shared + u64::from(node.0) * self.per_node + offset % self.per_node
    }
}

/// The set of committed index keys, with O(1) sampling and removal.
struct KeySet {
    live: Vec<u64>,
    /// Position of each key in `live`, or `u32::MAX` when absent.
    pos: Vec<u32>,
}

impl KeySet {
    fn new(space: u64) -> Self {
        KeySet { live: Vec::new(), pos: vec![u32::MAX; space as usize] }
    }

    fn contains(&self, k: u64) -> bool {
        self.pos[k as usize] != u32::MAX
    }

    fn add(&mut self, k: u64) {
        if !self.contains(k) {
            self.pos[k as usize] = self.live.len() as u32;
            self.live.push(k);
        }
    }

    fn remove(&mut self, k: u64) {
        let i = self.pos[k as usize];
        if i == u32::MAX {
            return;
        }
        let last = *self.live.last().expect("key present");
        self.live.swap_remove(i as usize);
        if last != k {
            self.pos[last as usize] = i;
        }
        self.pos[k as usize] = u32::MAX;
    }
}

/// Generates transactions for one workload from its seed.
pub struct Mix {
    pub spec: MixSpec,
    pub parts: Partitions,
    pub rng: Rng,
    keys: KeySet,
}

impl Mix {
    pub fn new(spec: MixSpec, records: u64, nodes: u16, seed: u64) -> Self {
        Mix {
            spec,
            parts: Partitions::new(records, nodes, spec.shared_slots),
            rng: Rng::new(seed),
            keys: KeySet::new(spec.key_space),
        }
    }

    pub fn value(&mut self) -> [u8; 8] {
        self.rng.next_u64().to_le_bytes()
    }

    pub fn pick_slot(&mut self, node: NodeId) -> u64 {
        if self.parts.shared > 0 && self.rng.chance(self.spec.sharing) {
            self.rng.below(self.parts.shared)
        } else {
            let off = self.rng.below(self.parts.per_node);
            self.parts.private_slot(node, off)
        }
    }

    /// A key for an index operation: a delete of a committed key with
    /// probability equal to the live share of the key space, otherwise an
    /// insert of a free key, so the tree's size hovers around half the key
    /// space and its page budget is never exhausted. `None` when the draw
    /// hits a key this transaction already touches.
    fn index_op(&mut self, touched: &[u64]) -> Option<Op> {
        let space = self.spec.key_space;
        let live = self.keys.live.len() as u64;
        if live > 0 && self.rng.below(space) < live {
            let k = self.keys.live[self.rng.below(live) as usize];
            (!touched.contains(&k)).then_some(Op::Delete(k))
        } else {
            let k = self.rng.below(space);
            (!self.keys.contains(k) && !touched.contains(&k)).then(|| Op::Insert(k, self.value()))
        }
    }

    pub fn txn(&mut self, node: NodeId) -> Vec<Op> {
        let mut ops = Vec::with_capacity(self.spec.ops);
        let mut touched: Vec<u64> = Vec::new();
        for _ in 0..self.spec.ops {
            if self.rng.chance(self.spec.read_fraction) {
                ops.push(Op::Read(self.pick_slot(node)));
                continue;
            }
            if self.spec.key_space > 0 && self.rng.chance(self.spec.index_fraction) {
                if let Some(op) = self.index_op(&touched) {
                    if let Op::Insert(k, _) | Op::Delete(k) = op {
                        touched.push(k);
                    }
                    ops.push(op);
                    continue;
                }
            }
            let slot = self.pick_slot(node);
            let v = self.value();
            ops.push(Op::Update(slot, v));
        }
        ops
    }

    /// Record a committed transaction's index effects.
    pub fn committed(&mut self, ops: &[Op]) {
        for op in ops {
            match op {
                Op::Insert(k, _) => self.keys.add(*k),
                Op::Delete(k) => self.keys.remove(*k),
                _ => {}
            }
        }
    }
}
