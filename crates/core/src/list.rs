//! A PCB list stored as three parallel arrays in reverse list order.
//!
//! Every list-structured algorithm in the paper (BSD, move-to-front, the
//! send/receive cache, and each Sequent hash chain) needs the same
//! operations a kernel's `inpcb` queue provides: scan from the head
//! counting entries examined, unlink an entry once found, and insert at
//! the head. `PcbList` provides exactly that without links: the list is
//! the contents of three `Vec`s, a 32-bit key tag, the full
//! [`ConnectionKey`] and the [`PcbId`], with the *last* index holding the
//! list head. An entry at array index `i` sits at 1-based list position
//! `len − i`.
//!
//! The scan order is the *list* order, which is what the paper's analysis
//! is about: the cost of a lookup is the 1-based position of the key.
//!
//! # Why arrays, not links
//!
//! A linked walk cannot issue the load for entry `k + 1` until entry `k`'s
//! `next` index has arrived, so it runs at L1 load *latency* however short
//! each step is. Here a walk is a backward streaming scan over the
//! `tags` array in [`CHUNK`]-wide blocks: each block's tag comparisons
//! fold into one match flag (a shape the compiler vectorises), and the
//! full 96-bit key is compared only at tag matches inside a flagged
//! block, nearest-to-head first. No load depends on another, so the scan
//! runs at load *throughput*.
//!
//! The structural operations stay cheap because their work lies on the
//! part of the list the scan already covered: [`PcbList::push_front`] is
//! a `push`, [`PcbList::remove`] shifts down only the entries nearer the
//! head than the removed one, and [`PcbList::find_move_to_front`] rotates
//! that same suffix by one.
//!
//! The tag prefilter is invisible in the paper's cost model: a tag
//! comparison *is* the examination of that position, so `examined`
//! counts are identical to a full-key walk (a property test pins this
//! against a Vec-of-pairs oracle, and a crafted-collision test puts false
//! tag matches on both sides of each block boundary).

use tcpdemux_pcb::{ConnectionKey, PcbId};

// Additive-multiplicative mixer over the three key words. The weights are
// the usual odd 32-bit mixing constants; because each word contributes
// linearly (mod 2^32) the test suite can *craft* tag collisions
// deterministically with a modular inverse instead of birthday-searching.
const TAG_M0: u32 = 0x9E37_79B9;
const TAG_M1: u32 = 0x85EB_CA6B;
const TAG_M2: u32 = 0xC2B2_AE35;

/// Tags compared per block of the backward scan: sixteen 4-byte tags are
/// one 64-byte cache line.
const CHUNK: usize = 16;

/// The 32-bit prefilter tag stored for each entry. Equal keys always have
/// equal tags; unequal keys collide with probability ~2^-32, in which
/// case the scan falls back to the full-key comparison and stays correct.
#[inline]
fn key_tag(key: &ConnectionKey) -> u32 {
    let [w0, w1, w2] = key.as_words();
    w0.wrapping_mul(TAG_M0)
        .wrapping_add(w1.wrapping_mul(TAG_M1))
        .wrapping_add(w2.wrapping_mul(TAG_M2))
}

/// A list of `(ConnectionKey, PcbId)` pairs as parallel arrays, head
/// last: `tags[i]`, `keys[i]` and `ids[i]` describe list position
/// `len − i`.
#[derive(Debug, Clone, Default)]
pub struct PcbList {
    tags: Vec<u32>,
    keys: Vec<ConnectionKey>,
    ids: Vec<PcbId>,
}

impl PcbList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// The entry at the head, if any.
    pub fn front(&self) -> Option<(ConnectionKey, PcbId)> {
        Some((*self.keys.last()?, *self.ids.last()?))
    }

    /// Insert at the head (newest-first, the BSD convention).
    pub fn push_front(&mut self, key: ConnectionKey, id: PcbId) {
        self.tags.push(key_tag(&key));
        self.keys.push(key);
        self.ids.push(id);
    }

    /// The array index holding `key`, scanning from the head (the end of
    /// the arrays) in [`CHUNK`]-wide blocks, then the short remainder at
    /// the front of the arrays one tag at a time.
    ///
    /// A block's sixteen tag comparisons are OR-folded into one match
    /// flag, a branch-free shape the compiler vectorises; only a block
    /// whose flag is set is re-scanned entry by entry, head side first,
    /// comparing full keys at tag matches.
    #[inline]
    fn index_of(&self, key: &ConnectionKey) -> Option<usize> {
        let tag = key_tag(key);
        let blocks = self.tags.rchunks_exact(CHUNK);
        let rest = blocks.remainder().len();
        let mut end = self.tags.len();
        for block in blocks {
            end -= CHUNK;
            if block.iter().fold(0u32, |hit, &t| hit | u32::from(t == tag)) == 0 {
                continue;
            }
            if let Some(j) = (0..CHUNK)
                .rev()
                .find(|&j| block[j] == tag && self.keys[end + j] == *key)
            {
                return Some(end + j);
            }
        }
        (0..rest)
            .rev()
            .find(|&i| self.tags[i] == tag && self.keys[i] == *key)
    }

    /// The 1-based list position of array index `i`.
    #[inline]
    fn position(&self, i: usize) -> u32 {
        (self.tags.len() - i) as u32
    }

    /// Scan from the head for `key`. Returns the PCB handle and the
    /// 1-based position at which it was found (the number of entries
    /// examined), or `None` along with the full list length examined.
    pub fn find(&self, key: &ConnectionKey) -> (Option<PcbId>, u32) {
        match self.index_of(key) {
            Some(i) => (Some(self.ids[i]), self.position(i)),
            None => (None, self.len() as u32),
        }
    }

    /// Scan for `key`; if found, move it to the head (Crowcroft's
    /// move-to-front) by rotating the entries nearer the head down one
    /// place. Returns the handle and entries examined.
    pub fn find_move_to_front(&mut self, key: &ConnectionKey) -> (Option<PcbId>, u32) {
        let Some(i) = self.index_of(key) else {
            return (None, self.len() as u32);
        };
        let (id, examined) = (self.ids[i], self.position(i));
        self.tags[i..].rotate_left(1);
        self.keys[i..].rotate_left(1);
        self.ids[i..].rotate_left(1);
        (Some(id), examined)
    }

    /// Remove `key` from the list, returning its handle if present.
    pub fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId> {
        let i = self.index_of(key)?;
        self.tags.remove(i);
        self.keys.remove(i);
        Some(self.ids.remove(i))
    }

    /// Replace the handle stored for `key`, returning the old handle.
    /// Position in the list is unchanged.
    pub fn replace(&mut self, key: &ConnectionKey, id: PcbId) -> Option<PcbId> {
        let i = self.index_of(key)?;
        Some(core::mem::replace(&mut self.ids[i], id))
    }

    /// Iterate `(key, id)` in list order (head first).
    pub fn iter(&self) -> impl Iterator<Item = (ConnectionKey, PcbId)> + '_ {
        self.keys
            .iter()
            .copied()
            .zip(self.ids.iter().copied())
            .rev()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::key;
    use std::net::Ipv4Addr;
    use tcpdemux_pcb::{Pcb, PcbArena};
    use tcpdemux_testprop::check;

    fn ids(n: u32, arena: &mut PcbArena) -> Vec<PcbId> {
        (0..n).map(|i| arena.insert(Pcb::new(key(i)))).collect()
    }

    #[test]
    fn push_front_orders_newest_first() {
        let mut arena = PcbArena::new();
        let ids = ids(3, &mut arena);
        let mut list = PcbList::new();
        for i in 0..3 {
            list.push_front(key(i), ids[i as usize]);
        }
        let order: Vec<_> = list.iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec![key(2), key(1), key(0)]);
        assert_eq!(list.front().unwrap().0, key(2));
    }

    #[test]
    fn find_reports_position() {
        let mut arena = PcbArena::new();
        let ids = ids(5, &mut arena);
        let mut list = PcbList::new();
        for i in (0..5).rev() {
            list.push_front(key(i), ids[i as usize]); // order: 0,1,2,3,4
        }
        for i in 0..5u32 {
            let (found, examined) = list.find(&key(i));
            assert_eq!(found, Some(ids[i as usize]));
            assert_eq!(examined, i + 1);
        }
        let (missing, examined) = list.find(&key(99));
        assert_eq!(missing, None);
        assert_eq!(examined, 5);
    }

    #[test]
    fn move_to_front_reorders() {
        let mut arena = PcbArena::new();
        let ids = ids(4, &mut arena);
        let mut list = PcbList::new();
        for i in (0..4).rev() {
            list.push_front(key(i), ids[i as usize]); // order: 0,1,2,3
        }
        let (found, examined) = list.find_move_to_front(&key(2));
        assert_eq!(found, Some(ids[2]));
        assert_eq!(examined, 3);
        let order: Vec<_> = list.iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec![key(2), key(0), key(1), key(3)]);
        // Finding the head is 1 probe and leaves order unchanged.
        let (_, examined) = list.find_move_to_front(&key(2));
        assert_eq!(examined, 1);
        let order: Vec<_> = list.iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec![key(2), key(0), key(1), key(3)]);
        assert_eq!(list.len(), 4);
    }

    #[test]
    fn move_to_front_of_tail() {
        let mut arena = PcbArena::new();
        let ids = ids(3, &mut arena);
        let mut list = PcbList::new();
        for i in (0..3).rev() {
            list.push_front(key(i), ids[i as usize]); // order: 0,1,2
        }
        let (found, _) = list.find_move_to_front(&key(2));
        assert_eq!(found, Some(ids[2]));
        let order: Vec<_> = list.iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec![key(2), key(0), key(1)]);
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn remove_relinks() {
        let mut arena = PcbArena::new();
        let ids = ids(3, &mut arena);
        let mut list = PcbList::new();
        for i in (0..3).rev() {
            list.push_front(key(i), ids[i as usize]); // 0,1,2
        }
        assert_eq!(list.remove(&key(1)), Some(ids[1]));
        assert_eq!(list.len(), 2);
        let order: Vec<_> = list.iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec![key(0), key(2)]);
        assert_eq!(list.remove(&key(1)), None);
        // Remove head and tail.
        assert_eq!(list.remove(&key(0)), Some(ids[0]));
        assert_eq!(list.remove(&key(2)), Some(ids[2]));
        assert!(list.is_empty());
        assert_eq!(list.front(), None);
    }

    #[test]
    fn replace_keeps_position() {
        let mut arena = PcbArena::new();
        let ids = ids(3, &mut arena);
        let mut list = PcbList::new();
        for i in (0..3).rev() {
            list.push_front(key(i), ids[i as usize]);
        }
        let replacement = arena.insert(Pcb::new(key(1)));
        assert_eq!(list.replace(&key(1), replacement), Some(ids[1]));
        let (found, examined) = list.find(&key(1));
        assert_eq!(found, Some(replacement));
        assert_eq!(examined, 2);
        assert_eq!(list.replace(&key(42), replacement), None);
    }

    /// A list may hold one key twice (`SequentDemux::preload` allows it):
    /// every operation must act on the copy nearest the head, whether
    /// both copies share a scan block or the scalar remainder.
    #[test]
    fn duplicate_keys_resolve_head_first() {
        let mut arena = PcbArena::new();
        let mut model: Vec<(ConnectionKey, PcbId)> = (0..40)
            .map(|n| (key(n), arena.insert(Pcb::new(key(n)))))
            .collect();
        // Positions 3 and 9 share the first block; 34 and 38 the remainder.
        for (pos, n) in [(3, 100), (9, 100), (34, 101), (38, 101)] {
            model[pos - 1] = (key(n), arena.insert(Pcb::new(key(n))));
        }
        let mut list = PcbList::new();
        for &(k, id) in model.iter().rev() {
            list.push_front(k, id);
        }
        let head_most = |model: &[(ConnectionKey, PcbId)], k: ConnectionKey| {
            let pos = model.iter().position(|(mk, _)| *mk == k).unwrap();
            (pos, model[pos].1)
        };
        for n in [100, 101] {
            let (pos, id) = head_most(&model, key(n));
            assert_eq!(list.find(&key(n)), (Some(id), pos as u32 + 1));
            let fresh = arena.insert(Pcb::new(key(n)));
            assert_eq!(list.replace(&key(n), fresh), Some(id));
            model[pos].1 = fresh;
            assert_eq!(list.remove(&key(n)), Some(fresh));
            model.remove(pos);
            let (pos, id) = head_most(&model, key(n));
            assert_eq!(list.find_move_to_front(&key(n)), (Some(id), pos as u32 + 1));
            let entry = model.remove(pos);
            model.insert(0, entry);
            assert_eq!(list.iter().collect::<Vec<_>>(), model);
        }
    }

    /// Multiplicative inverse mod 2^32 of an odd `a`, by Newton
    /// iteration: each step doubles the number of correct low bits and
    /// `x = a` is already correct mod 8, so five steps reach 2^32.
    fn inv_u32(a: u32) -> u32 {
        assert!(a % 2 == 1);
        let mut x = a;
        for _ in 0..5 {
            x = x.wrapping_mul(2u32.wrapping_sub(a.wrapping_mul(x)));
        }
        assert_eq!(a.wrapping_mul(x), 1);
        x
    }

    /// `list` holds exactly `model` (head first), and every key in it is
    /// found at its model position.
    fn assert_matches(list: &PcbList, model: &[(ConnectionKey, PcbId)]) {
        assert_eq!(list.iter().collect::<Vec<_>>(), model);
        for (pos, &(k, id)) in model.iter().enumerate() {
            assert_eq!(list.find(&k), (Some(id), pos as u32 + 1), "{k:?}");
        }
    }

    /// Because the tag is linear in the key words (mod 2^32), keys with
    /// w2' = w2 + c and w1' = w1 - c·M2·M1⁻¹ all share one tag. The
    /// colliders are placed on both sides of the boundary between the
    /// first two scan blocks and of the boundary between the last block
    /// and the scalar remainder, so every search for one of them takes
    /// false tag hits in two blocks (or a block and the remainder) and
    /// must keep exact `examined` counts through each mutating path.
    #[test]
    fn crafted_tag_collision_walks_correctly() {
        let base = ConnectionKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            1521,
            Ipv4Addr::new(10, 0, 9, 9),
            40001,
        );
        let [w0, w1, w2] = base.as_words();
        let step = TAG_M2.wrapping_mul(inv_u32(TAG_M1));
        let collider = |c: u32| {
            let (w1c, w2c) = (w1.wrapping_sub(step.wrapping_mul(c)), w2.wrapping_add(c));
            ConnectionKey::new(
                Ipv4Addr::from(w0),
                (w2c >> 16) as u16,
                Ipv4Addr::from(w1c),
                w2c as u16,
            )
        };
        let colliders: Vec<_> = (0..6).map(collider).collect();
        assert_eq!(colliders[0], base);
        for (c, k) in colliders.iter().enumerate().skip(1) {
            assert_ne!(*k, base, "collider {c} must be a distinct key");
            assert_eq!(
                key_tag(k),
                key_tag(&base),
                "collider {c} must share the tag"
            );
        }

        // A 40-entry list: blocks cover positions 1–16 and 17–32, the
        // remainder 33–40. Colliders sit at positions 16 | 17 and 32 | 33,
        // the unplaced `colliders[5]` is a tag-colliding miss.
        let mut arena = PcbArena::new();
        let mut model: Vec<(ConnectionKey, PcbId)> = (0..35)
            .map(|n| (key(n), arena.insert(Pcb::new(key(n)))))
            .collect();
        for (pos, &k) in [
            (16, &colliders[1]),
            (17, &colliders[2]),
            (32, &colliders[3]),
            (33, &base),
        ] {
            model.insert(pos - 1, (k, arena.insert(Pcb::new(k))));
        }
        model.insert(39, (colliders[4], arena.insert(Pcb::new(colliders[4]))));
        assert_eq!(model.len(), 40);
        let mut list = PcbList::new();
        for &(k, id) in model.iter().rev() {
            list.push_front(k, id);
        }
        assert_matches(&list, &model);
        assert_eq!(list.find(&colliders[5]), (None, 40));

        // `replace` must write the matching entry, not a false tag hit.
        let fresh = arena.insert(Pcb::new(base));
        assert_eq!(list.replace(&base, fresh), Some(model[32].1));
        model[32].1 = fresh;
        assert_eq!(list.replace(&colliders[5], fresh), None);
        assert_matches(&list, &model);

        // Move-to-front across both boundaries: base (remainder) to the
        // head shifts every collider one place further back.
        assert_eq!(list.find_move_to_front(&base), (Some(fresh), 33));
        let entry = model.remove(32);
        model.insert(0, entry);
        assert_matches(&list, &model);
        assert_eq!(
            list.find_move_to_front(&colliders[2]),
            (Some(model[17].1), 18)
        );
        let entry = model.remove(17);
        model.insert(0, entry);
        assert_matches(&list, &model);
        assert_eq!(list.find_move_to_front(&colliders[5]), (None, 40));

        // Removal of colliders on both sides of each boundary.
        for c in [1, 3, 4] {
            let pos = model.iter().position(|(k, _)| *k == colliders[c]).unwrap();
            assert_eq!(list.remove(&colliders[c]), Some(model.remove(pos).1));
            assert_matches(&list, &model);
        }
        assert_eq!(list.remove(&colliders[5]), None);
        assert_eq!(list.find(&colliders[1]), (None, 37));
    }

    /// Model-based test: a sequence of operations on PcbList agrees
    /// with a Vec-based reference model, including scan positions.
    /// Each case first fills up to 71 entries, so lists regularly span
    /// three full scan blocks plus a remainder, then churns them with
    /// inserts, finds, move-to-front, replaces and removes.
    #[test]
    fn prop_matches_vec_model() {
        check("list_prop_matches_vec_model", |rng| {
            let fill = rng.u32_below(72);
            let ops = rng.vec_of(0, 200, |r| (r.u8_in(0, 5), r.u32_below(80)));
            let mut arena = PcbArena::new();
            let mut list = PcbList::new();
            let mut model: Vec<(ConnectionKey, PcbId)> = Vec::new();

            for (op, n) in (0..fill).map(|n| (0, n)).chain(ops) {
                let k = key(n);
                match op {
                    0 => {
                        // push_front if absent (lists hold unique keys here)
                        if !model.iter().any(|(mk, _)| *mk == k) {
                            let id = arena.insert(Pcb::new(k));
                            list.push_front(k, id);
                            model.insert(0, (k, id));
                        }
                    }
                    1 => {
                        let (got, examined) = list.find(&k);
                        match model.iter().position(|(mk, _)| *mk == k) {
                            Some(pos) => {
                                assert_eq!(got, Some(model[pos].1));
                                assert_eq!(examined as usize, pos + 1);
                            }
                            None => {
                                assert_eq!(got, None);
                                assert_eq!(examined as usize, model.len());
                            }
                        }
                    }
                    2 => {
                        let (got, examined) = list.find_move_to_front(&k);
                        match model.iter().position(|(mk, _)| *mk == k) {
                            Some(pos) => {
                                assert_eq!(got, Some(model[pos].1));
                                assert_eq!(examined as usize, pos + 1);
                                let entry = model.remove(pos);
                                model.insert(0, entry);
                            }
                            None => {
                                assert_eq!(got, None);
                                assert_eq!(examined as usize, model.len());
                            }
                        }
                    }
                    3 => {
                        let replacement = arena.insert(Pcb::new(k));
                        let got = list.replace(&k, replacement);
                        match model.iter().position(|(mk, _)| *mk == k) {
                            Some(pos) => {
                                assert_eq!(got, Some(model[pos].1));
                                model[pos].1 = replacement;
                            }
                            None => assert_eq!(got, None),
                        }
                    }
                    _ => {
                        let got = list.remove(&k);
                        match model.iter().position(|(mk, _)| *mk == k) {
                            Some(pos) => {
                                assert_eq!(got, Some(model.remove(pos).1));
                            }
                            None => assert_eq!(got, None),
                        }
                    }
                }
                assert_eq!(list.len(), model.len());
                let order: Vec<_> = list.iter().collect();
                assert_eq!(order, model.clone());
            }
        });
    }
}
