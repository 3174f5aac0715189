//! CONGEST edge-busy state sized by traffic, not by degree.
//!
//! The one-message-per-directed-edge rule needs, for every `(from, port)`
//! pair, the answer to "did this pair already carry a message this round?".
//! Two representations answer it:
//!
//! * A **dense page** per sender: `deg(v)` round stamps, one per port; port
//!   `p` is busy iff `page[p]` equals the current round stamp. One load,
//!   compare and store per send. Senders of degree at most
//!   [`DENSE_MAX_DEGREE`] get one on their first send.
//! * A **sparse set** ([`SparseBusy`]) for higher-degree senders: busy pairs
//!   live in an open-addressed table whose slots are tagged with the round
//!   that wrote them. A slot with any other tag counts as empty, so nothing
//!   is cleared between rounds, [`skip_rounds`](crate::Network::skip_rounds)
//!   needs no special case, and the table keeps its capacity across rounds.
//!   A sender of `K_n` that replies once therefore costs one slot, not
//!   `8·(n − 1)` bytes.
//!
//! A high-degree sender that sends more than
//! `max(DENSE_MAX_DEGREE, deg/16)` messages in one round **escalates** to a
//! dense page, which then costs at most 128 B per message it sent that
//! round. The ports it used earlier in the escalation round are copied from
//! the set into the new page, so they stay busy.
//!
//! Either way, every node's state for the current round sits in exactly one
//! place: its page if it has one, otherwise the sparse set of the shard that
//! owns it. Accept/reject decisions are therefore the same for every
//! representation and every shard count.

use crate::graph::{NodeId, Port};

/// Senders of at most this degree keep a dense stamp page from their first
/// send on; higher-degree senders start in the sparse set.
pub(crate) const DENSE_MAX_DEGREE: usize = 64;

/// A high-degree sender escalates to a dense page once it sends more than
/// this many messages in one round.
fn escalation_threshold(degree: usize) -> usize {
    (degree / 16).max(DENSE_MAX_DEGREE)
}

/// Packs two 32-bit values into one table key. Node ids and ports fit in
/// 32 bits because [`Network::new`](crate::Network::new) rejects larger
/// graphs.
fn pack(hi: usize, lo: usize) -> u64 {
    ((hi as u64) << 32) | lo as u64
}

/// The low half of a packed key.
const LOW: u64 = u32::MAX as u64;

/// One table slot: `key` is live only while `tag` equals the current round.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    tag: u64,
    key: u64,
}

/// An open-addressed, linearly probed table of round-tagged `u64` keys.
/// Keys are hashed and compared under `mask`, so bits outside it can carry
/// a value (the per-sender counts use this).
#[derive(Debug)]
struct RoundTable {
    /// Power-of-two length (or empty before the first insert).
    slots: Vec<Slot>,
    mask: u64,
    /// The round of the last insert, and how many slots it tagged.
    round: u64,
    live: usize,
}

impl RoundTable {
    fn new(mask: u64) -> Self {
        RoundTable {
            slots: Vec::new(),
            mask,
            round: 0,
            live: 0,
        }
    }

    /// The live slot matching `key`, or the empty slot where it would go.
    /// The multiplier mixes every key bit into the top bits the index is
    /// taken from, so consecutive ports of one sender scatter rather than
    /// forming one long probe run.
    fn find(&self, round: u64, key: u64) -> Result<usize, usize> {
        let wrap = self.slots.len() - 1;
        let key = key & self.mask;
        let hashed = (key ^ (key >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut i = (hashed >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            let slot = self.slots[i];
            if slot.tag != round {
                return Err(i);
            }
            if (slot.key ^ key) & self.mask == 0 {
                return Ok(i);
            }
            i = (i + 1) & wrap;
        }
    }

    fn contains(&self, round: u64, key: u64) -> bool {
        !self.slots.is_empty() && self.find(round, key).is_ok()
    }

    /// The live key matching `key`, inserted (as `key`) if absent; the flag
    /// says whether it was already there.
    fn entry(&mut self, round: u64, key: u64) -> (&mut u64, bool) {
        if self.round != round {
            self.round = round;
            self.live = 0;
        }
        if 2 * (self.live + 1) > self.slots.len() {
            self.grow();
        }
        match self.find(round, key) {
            Ok(i) => (&mut self.slots[i].key, true),
            Err(i) => {
                self.slots[i] = Slot { tag: round, key };
                self.live += 1;
                (&mut self.slots[i].key, false)
            }
        }
    }

    /// Doubles the capacity, carrying over only this round's slots.
    fn grow(&mut self) {
        let capacity = (2 * self.slots.len()).max(16);
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); capacity]);
        for slot in old.into_iter().filter(|s| s.tag == self.round) {
            if let Err(i) = self.find(self.round, slot.key) {
                self.slots[i] = slot;
            }
        }
    }
}

/// The busy `(from, port)` pairs of high-degree senders without a dense
/// page, plus how many messages each of them sent this round. Owned by the
/// network (one per shard), sized by the peak number of such sends in one
/// round.
#[derive(Debug)]
pub(crate) struct SparseBusy {
    /// Keys `from << 32 | port`.
    edges: RoundTable,
    /// Keys `from << 32 | sends this round`, matched on `from` alone.
    senders: RoundTable,
}

impl Default for SparseBusy {
    fn default() -> Self {
        SparseBusy {
            edges: RoundTable::new(u64::MAX),
            senders: RoundTable::new(!LOW),
        }
    }
}

impl SparseBusy {
    /// Marks `(from, port)` busy for `round`; `false` iff it already was.
    /// Moves `from` to a dense `page` when this send takes it past its
    /// escalation threshold.
    fn try_mark(
        &mut self,
        page: &mut Box<[u64]>,
        degree: usize,
        from: NodeId,
        port: Port,
        round: u64,
    ) -> bool {
        if self.edges.entry(round, pack(from, port)).1 {
            return false;
        }
        let sent = {
            let (key, _) = self.senders.entry(round, pack(from, 0));
            *key += 1;
            *key & LOW
        };
        if sent as usize > escalation_threshold(degree) {
            *page = self.dense_page(from, degree, round);
        }
        true
    }

    /// A fresh dense page for `from`, with the ports it already used this
    /// round (recorded here) stamped busy.
    pub(crate) fn dense_page(&self, from: NodeId, degree: usize, round: u64) -> Box<[u64]> {
        let mut page = vec![0u64; degree].into_boxed_slice();
        if degree > DENSE_MAX_DEGREE && self.senders.contains(round, pack(from, 0)) {
            for (port, stamp) in page.iter_mut().enumerate() {
                if self.edges.contains(round, pack(from, port)) {
                    *stamp = round;
                }
            }
        }
        page
    }
}

/// Marks the directed edge `(from, port)` busy for `round`, returning
/// `false` iff it already carried a message this round. `page` is `from`'s
/// dense page (empty if it has none); `sparse` is the set of the shard that
/// owns `from`. Shared by the sequential and sharded send paths so both
/// enforce CONGEST identically. The set and the degree are closures so a
/// sender with a page never pays for resolving either, and only the page
/// compare is inlined into the send path.
#[inline]
pub(crate) fn try_stamp<'s>(
    page: &mut Box<[u64]>,
    sparse: impl FnOnce() -> &'s mut SparseBusy,
    degree: impl FnOnce() -> usize,
    from: NodeId,
    port: Port,
    round: u64,
) -> bool {
    if page.is_empty() {
        return stamp_without_page(page, sparse(), degree(), from, port, round);
    }
    let stamp = &mut page[port];
    if *stamp == round {
        return false;
    }
    *stamp = round;
    true
}

/// The [`try_stamp`] path of a sender without a page: a low-degree sender
/// gets its page now, a high-degree one goes through the sparse set.
#[cold]
#[inline(never)]
fn stamp_without_page(
    page: &mut Box<[u64]>,
    sparse: &mut SparseBusy,
    degree: usize,
    from: NodeId,
    port: Port,
    round: u64,
) -> bool {
    if degree > DENSE_MAX_DEGREE {
        return sparse.try_mark(page, degree, from, port, round);
    }
    *page = vec![0u64; degree].into_boxed_slice();
    page[port] = round;
    true
}

/// Gives `from` its dense page before a batch of `sends` messages that would
/// escalate it anyway, so the batch skips the set. A no-op for senders that
/// already have a page and for batches below every escalation threshold.
#[inline]
pub(crate) fn reserve<'s>(
    page: &mut Box<[u64]>,
    sparse: impl FnOnce() -> &'s SparseBusy,
    degree: impl FnOnce() -> usize,
    from: NodeId,
    sends: usize,
    round: u64,
) {
    if sends > DENSE_MAX_DEGREE && page.is_empty() {
        let degree = degree();
        if sends > escalation_threshold(degree) {
            *page = sparse().dense_page(from, degree, round);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_tags_read_as_empty() {
        let mut table = RoundTable::new(u64::MAX);
        assert!(!table.entry(1, 7).1);
        assert!(table.entry(1, 7).1);
        assert!(table.contains(1, 7));
        assert!(!table.contains(2, 7));
        assert!(!table.entry(5, 7).1);
    }

    #[test]
    fn growth_keeps_only_live_keys() {
        let mut table = RoundTable::new(u64::MAX);
        for port in 0..100 {
            table.entry(1, pack(3, port));
        }
        for port in 0..100 {
            table.entry(2, pack(4, port));
        }
        assert!(table.slots.len() >= 200);
        assert!((0..100).all(|p| table.contains(2, pack(4, p))));
        assert!((0..100).all(|p| !table.contains(2, pack(3, p))));
        let capacity = table.slots.len();
        for port in 0..100 {
            table.entry(3, pack(5, port));
        }
        assert_eq!(
            table.slots.len(),
            capacity,
            "capacity is reused across rounds"
        );
    }

    #[test]
    fn masked_keys_carry_a_count() {
        let mut busy = SparseBusy::default();
        let mut page: Box<[u64]> = Box::default();
        for port in 0..10 {
            assert!(busy.try_mark(&mut page, 1000, 9, port, 1));
        }
        let (count, seen) = busy.senders.entry(1, pack(9, 0));
        assert!(seen);
        assert_eq!(*count & LOW, 10);
        assert!(page.is_empty());
    }

    #[test]
    fn escalation_carries_used_ports_into_the_page() {
        let mut busy = SparseBusy::default();
        let mut page: Box<[u64]> = Box::default();
        let degree = 2000;
        let threshold = escalation_threshold(degree);
        for port in 0..=threshold {
            assert!(page.is_empty());
            assert!(try_stamp(
                &mut page,
                || &mut busy,
                || degree,
                1,
                3 * port,
                4
            ));
        }
        assert_eq!(page.len(), degree);
        for port in 0..degree {
            assert_eq!(page[port] == 4, port % 3 == 0 && port <= 3 * threshold);
        }
    }
}
