//! A generation-checked slab allocator for simulation entities.
//!
//! Models allocate short-lived entities (in-flight messages, jobs, pending
//! requests) at high rates; a slab gives O(1) insert/remove with stable keys
//! and no per-entity heap allocation. Generations catch use-after-free keys,
//! which in a simulator otherwise manifest as silent cross-talk between
//! unrelated transfers.
//!
//! An occupancy [`BitSet`] makes iteration cost O(len + capacity / 64)
//! instead of O(capacity): a slab that once held hundreds of entries and now
//! holds a handful walks only the handful. Iteration order stays ascending
//! slot order, which callers rely on for deterministic tie-breaking.

/// Key into a [`Slab`]; invalidated when its slot is reused.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SlotKey {
    index: u32,
    generation: u32,
}

impl SlotKey {
    #[inline]
    fn new(index: usize, generation: u32) -> Self {
        SlotKey {
            index: index as u32,
            generation,
        }
    }

    /// A key that never resolves (useful as a placeholder).
    pub const INVALID: SlotKey = SlotKey {
        index: u32::MAX,
        generation: u32::MAX,
    };

    /// Raw slot index (stable for the lifetime of the entry).
    #[inline]
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// Pack the key into a `u64` (for threading keys through `u64` tags).
    #[inline]
    pub fn to_bits(self) -> u64 {
        (self.index as u64) << 32 | self.generation as u64
    }

    /// Reconstruct a key packed by [`to_bits`](Self::to_bits).
    #[inline]
    pub fn from_bits(bits: u64) -> Self {
        SlotKey {
            index: (bits >> 32) as u32,
            generation: bits as u32,
        }
    }
}

enum Slot<T> {
    Occupied {
        generation: u32,
        value: T,
    },
    Free {
        generation: u32,
        next_free: Option<u32>,
    },
}

/// A slab with generation-checked keys.
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// The occupied slot indices.
    occupied: BitSet,
    free_head: Option<u32>,
    len: usize,
}

impl<T> Slab<T> {
    /// Create an empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            occupied: BitSet::default(),
            free_head: None,
            len: 0,
        }
    }

    /// Create an empty slab with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            occupied: BitSet::with_capacity(cap),
            free_head: None,
            len: 0,
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a value, returning its key.
    pub fn insert(&mut self, value: T) -> SlotKey {
        self.len += 1;
        let key = match self.free_head {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                let generation = match *slot {
                    Slot::Free {
                        generation,
                        next_free,
                    } => {
                        self.free_head = next_free;
                        generation.wrapping_add(1)
                    }
                    Slot::Occupied { .. } => unreachable!("free list points at occupied slot"),
                };
                *slot = Slot::Occupied { generation, value };
                SlotKey {
                    index: idx,
                    generation,
                }
            }
            None => {
                let index = u32::try_from(self.slots.len()).expect("slab exceeds u32 slots");
                self.slots.push(Slot::Occupied {
                    generation: 0,
                    value,
                });
                SlotKey {
                    index,
                    generation: 0,
                }
            }
        };
        self.occupied.insert(key.index());
        key
    }

    /// Remove and return the value for `key`, or `None` if stale/absent.
    pub fn remove(&mut self, key: SlotKey) -> Option<T> {
        let slot = self.slots.get_mut(key.index as usize)?;
        match slot {
            Slot::Occupied { generation, .. } if *generation == key.generation => {
                let old = std::mem::replace(
                    slot,
                    Slot::Free {
                        generation: key.generation,
                        next_free: self.free_head,
                    },
                );
                self.free_head = Some(key.index);
                self.occupied.remove(key.index());
                self.len -= 1;
                match old {
                    Slot::Occupied { value, .. } => Some(value),
                    Slot::Free { .. } => unreachable!(),
                }
            }
            _ => None,
        }
    }

    /// Shared access to the value for `key`.
    pub fn get(&self, key: SlotKey) -> Option<&T> {
        match self.slots.get(key.index as usize)? {
            Slot::Occupied { generation, value } if *generation == key.generation => Some(value),
            _ => None,
        }
    }

    /// Exclusive access to the value for `key`.
    pub fn get_mut(&mut self, key: SlotKey) -> Option<&mut T> {
        match self.slots.get_mut(key.index as usize)? {
            Slot::Occupied { generation, value } if *generation == key.generation => Some(value),
            _ => None,
        }
    }

    /// True if `key` refers to a live entry.
    pub fn contains(&self, key: SlotKey) -> bool {
        self.get(key).is_some()
    }

    /// Iterate over `(key, &value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotKey, &T)> {
        let slots = &self.slots;
        self.occupied.iter().map(move |i| match &slots[i] {
            Slot::Occupied { generation, value } => (SlotKey::new(i, *generation), value),
            Slot::Free { .. } => unreachable!("occupancy bit set on a free slot"),
        })
    }

    /// Iterate over `(key, &mut value)` pairs in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (SlotKey, &mut T)> {
        let mut slots = self.slots.iter_mut();
        let mut next = 0;
        self.occupied.iter().map(move |i| {
            // `nth` on a slice iterator skips the free run in O(1).
            let slot = slots.nth(i - next).expect("occupancy bit past the end");
            next = i + 1;
            match slot {
                Slot::Occupied { generation, value } => (SlotKey::new(i, *generation), value),
                Slot::Free { .. } => unreachable!("occupancy bit set on a free slot"),
            }
        })
    }
}

/// A set of small indices, one bit each (bit `i % 64` of word `i / 64`),
/// visited in ascending order: a slab's occupied slots, a device's busy
/// SMs.
#[derive(Default)]
pub struct BitSet(Vec<u64>);

impl BitSet {
    /// An empty set that holds indices below `n` without growing.
    pub fn with_capacity(n: usize) -> Self {
        BitSet(Vec::with_capacity(n.div_ceil(64)))
    }

    /// Add `i`, growing the set as needed.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.0.len() {
            self.0.resize(w + 1, 0);
        }
        self.0[w] |= 1 << (i % 64);
    }

    /// Remove `i`; an absent index is ignored.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        if let Some(word) = self.0.get_mut(i / 64) {
            *word &= !(1 << (i % 64));
        }
    }

    /// The members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        Members {
            words: &self.0,
            next_word: 0,
            bits: 0,
        }
    }

    /// Visit the members in ascending order, removing each one for which
    /// `keep` returns false.
    #[inline]
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (w, word) in self.0.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                if !keep(w * 64 + b as usize) {
                    *word &= !(1 << b);
                }
            }
        }
    }
}

/// [`BitSet::iter`].
struct Members<'a> {
    words: &'a [u64],
    next_word: usize,
    bits: u64,
}

impl Iterator for Members<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.bits = *self.words.get(self.next_word)?;
            self.next_word += 1;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((self.next_word - 1) * 64 + bit)
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.get(a), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn stale_keys_rejected_after_reuse() {
        let mut s = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        let b = s.insert(2);
        // Slot is reused but generation advanced.
        assert_eq!(a.index(), b.index());
        assert_eq!(s.get(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&2));
    }

    #[test]
    fn free_list_reuses_lifo() {
        let mut s = Slab::new();
        let keys: Vec<_> = (0..4).map(|i| s.insert(i)).collect();
        s.remove(keys[1]);
        s.remove(keys[3]);
        let k = s.insert(10);
        assert_eq!(k.index(), keys[3].index());
        let k2 = s.insert(11);
        assert_eq!(k2.index(), keys[1].index());
    }

    #[test]
    fn iteration_skips_free() {
        let mut s = Slab::new();
        let a = s.insert(1);
        let _b = s.insert(2);
        let c = s.insert(3);
        s.remove(a);
        s.remove(c);
        let vals: Vec<_> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![2]);
    }

    #[test]
    fn get_mut_mutates() {
        let mut s = Slab::new();
        let a = s.insert(5);
        *s.get_mut(a).unwrap() += 1;
        assert_eq!(s.get(a), Some(&6));
    }

    #[test]
    fn invalid_key_never_resolves() {
        let mut s: Slab<u8> = Slab::new();
        assert!(!s.contains(SlotKey::INVALID));
        assert_eq!(s.remove(SlotKey::INVALID), None);
    }
}
