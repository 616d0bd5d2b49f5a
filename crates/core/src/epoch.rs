//! In-tree epoch-based reclamation: the runtime that lets
//! [`crate::ConcurrentCuckooDemux`] retire a superseded table generation
//! while lock-free readers may still be probing it.
//!
//! McKenney's Sequent work on read-mostly data structures (the lineage
//! that became RCU) separates *removal* from *reclamation*: a writer may
//! unlink a node from a shared structure at any time, but the node's
//! storage may be reused only once every reader that could still hold a
//! reference has provably moved on. This module provides that proof
//! obligation as a small, dependency-free runtime — no `crossbeam-epoch`,
//! no `unsafe` (the workspace forbids it): protected objects are *index
//! tokens* into caller-owned arenas, so "reclamation" here means handing
//! a token back to the caller's free list, never freeing raw memory.
//!
//! # The protocol
//!
//! - Each participating thread owns one of [`MAX_THREADS`] **slots**. A
//!   thread enters a read-side critical section by [`EpochRuntime::pin`],
//!   which announces the current global epoch in its slot and returns a
//!   [`Guard`]; dropping the guard clears the announcement. Pins nest.
//! - The **global epoch** only advances ([`EpochRuntime::try_advance`])
//!   when every pinned slot has announced the *current* epoch. A thread
//!   pinned at epoch `e` therefore blocks the advance `e+1 → e+2`.
//! - A writer that has unlinked a node calls [`EpochRuntime::retire`]
//!   with its token; the runtime records the global epoch at retirement.
//! - [`EpochRuntime::drain`] hands back tokens whose retirement epoch `r`
//!   satisfies `global >= r + 2` — the two-epoch **grace period**.
//!
//! # Why the guard pins reclamation (safety argument)
//!
//! Epoch loads/stores, the pin *announce*, and the retire-side
//! operations are `SeqCst`, so a single total order `<` over them
//! exists. (The *unpin* is only `Release`: the scanner reading the
//! unpinned slot synchronizes-with it, so every critical-section read
//! happens-before any reclamation the unpin enables — and a scanner
//! that instead reads the stale pinned value merely delays the advance,
//! the safe direction.) Consider a node unlinked by a writer and a
//! reader that can still reach it. The reader's pin *announce* of
//! epoch `p` either precedes or follows the unlink in that order:
//!
//! 1. **Announce < unlink.** `retire` loads the global epoch *after* the
//!    unlink, so the recorded epoch `r >= p` is impossible to undercut:
//!    the epoch is monotonic and the reader's announce kept it at `p` or
//!    the reader observed `p` before announcing. Freeing needs
//!    `global >= r + 2 >= p + 2`, but advancing from `p + 1` to `p + 2`
//!    requires every pinned slot to announce `p + 1` — the reader is
//!    still pinned at `p`, so the advance (and thus the hand-back) waits
//!    for the reader's guard to drop.
//! 2. **Unlink < announce.** The reader pinned *after* the unlink. Its
//!    subsequent `SeqCst` load of the structure's entry point (the
//!    cuckoo table's current-generation index) reads a value no older
//!    than the unlinking store, so it never reaches the retired object.
//!
//! Either way, no token is handed back while a reader that could hold it
//! is pinned. The runtime never blocks: `try_advance` simply fails while
//! readers straddle epochs, and garbage waits on the deferred list (its
//! depth is capped in practice by draining a bounded batch on every
//! writer operation).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// Maximum number of threads that may simultaneously participate in one
/// runtime. Slots are recycled when threads exit, so long-lived programs
/// can run any number of threads over time; exceeding the *simultaneous*
/// limit panics with a clear message.
pub const MAX_THREADS: usize = 64;

/// Slot layout: the low [`COUNT_BITS`] bits hold the pin depth (0 =
/// unpinned), the high bits the announced epoch. Only the owning thread
/// writes its slot, so plain `SeqCst` loads and stores suffice.
const COUNT_BITS: u32 = 16;
const COUNT_MASK: u64 = (1 << COUNT_BITS) - 1;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // The runtime never panics while holding its internal locks (plain
    // arithmetic and `VecDeque` ops); map poisoning away like the rest
    // of the crate's concurrent code.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug, Clone, Copy)]
struct Retired {
    epoch: u64,
    token: u64,
}

#[derive(Debug)]
struct Inner {
    /// Distinguishes runtimes in thread-local slot registrations.
    id: u64,
    epoch: AtomicU64,
    /// Bitmap of claimed slots (bit `i` ⇒ `slots[i]` owned by a thread).
    claimed: AtomicU64,
    slots: [AtomicU64; MAX_THREADS],
    /// Deferred tokens in non-decreasing retirement-epoch order (the
    /// epoch is sampled under this lock, which makes it monotone).
    garbage: Mutex<VecDeque<Retired>>,
    retired: AtomicU64,
    reclaimed: AtomicU64,
}

static NEXT_RUNTIME_ID: AtomicU64 = AtomicU64::new(0);

struct Registration {
    inner: Weak<Inner>,
    runtime_id: u64,
    slot: usize,
}

/// Per-thread slot registrations; the `Drop` impl releases every claimed
/// slot when the thread exits so slots recycle across thread lifetimes.
#[derive(Default)]
struct Registry {
    regs: Vec<Registration>,
}

impl Drop for Registry {
    fn drop(&mut self) {
        for reg in &self.regs {
            if let Some(inner) = reg.inner.upgrade() {
                inner.slots[reg.slot].store(0, Ordering::SeqCst);
                inner
                    .claimed
                    .fetch_and(!(1u64 << reg.slot), Ordering::SeqCst);
            }
        }
    }
}

thread_local! {
    static REGISTRY: RefCell<Registry> = RefCell::new(Registry::default());
    /// One-entry cache of the most recent `(runtime id, slot)` pair, so
    /// the hot pin path skips the registry's `RefCell` + scan. Runtime
    /// ids are never reused and a thread's registration lives until the
    /// thread exits, so a cache hit can never name a stale slot.
    static LAST_SLOT: Cell<(u64, usize)> = const { Cell::new((u64::MAX, 0)) };
}

/// An epoch-based reclamation domain.
///
/// Cloning is cheap and shares the domain (an `Arc` internally): the
/// owning structure keeps one handle, and tests may keep another to
/// observe [`ReclamationStats`].
#[derive(Debug, Clone)]
pub struct EpochRuntime {
    inner: Arc<Inner>,
}

impl Default for EpochRuntime {
    fn default() -> Self {
        Self::new()
    }
}

/// A pinned read-side critical section; dropping it unpins.
///
/// While any guard from [`EpochRuntime::pin`] is alive on a thread, no
/// token retired *after* the pin can be handed back by `drain` — the
/// safety property the module docs argue. Guards nest: the slot stays
/// pinned at the outermost guard's epoch until every guard drops (drop
/// order does not matter).
#[derive(Debug)]
pub struct Guard<'a> {
    inner: &'a Inner,
    slot: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let s = &self.inner.slots[self.slot];
        // Only the owning thread writes its slot, so the load can be
        // relaxed; the store is `Release` so a scanner that observes the
        // unpin synchronizes-with it (every read this guard protected
        // happens-before any reclamation the unpin enables). No fence is
        // needed on this path — see the module safety argument.
        let cur = s.load(Ordering::Relaxed);
        debug_assert!(cur & COUNT_MASK >= 1, "guard dropped on unpinned slot");
        if cur & COUNT_MASK > 1 {
            s.store(cur - 1, Ordering::Release);
        } else {
            s.store(0, Ordering::Release);
        }
    }
}

/// A point-in-time view of one runtime's reclamation accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReclamationStats {
    /// Current global epoch (the number of successful advances).
    pub epoch: u64,
    /// Total tokens ever retired.
    pub retired: u64,
    /// Total tokens handed back to the caller.
    pub reclaimed: u64,
    /// Tokens currently waiting on the deferred list
    /// (`retired - reclaimed`).
    pub deferred: u64,
}

impl EpochRuntime {
    /// Create a fresh, independent reclamation domain.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                id: NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed),
                epoch: AtomicU64::new(0),
                claimed: AtomicU64::new(0),
                slots: std::array::from_fn(|_| AtomicU64::new(0)),
                garbage: Mutex::new(VecDeque::new()),
                retired: AtomicU64::new(0),
                reclaimed: AtomicU64::new(0),
            }),
        }
    }

    /// The slot this thread owns in this runtime, claiming one on first
    /// use. Panics if more than [`MAX_THREADS`] threads are registered
    /// simultaneously.
    fn thread_slot(&self) -> usize {
        let id = self.inner.id;
        LAST_SLOT.with(|cache| {
            let (cached_id, cached_slot) = cache.get();
            if cached_id == id {
                return cached_slot;
            }
            let slot = self.thread_slot_slow();
            cache.set((id, slot));
            slot
        })
    }

    /// Registry path of [`Self::thread_slot`]: find or claim this
    /// thread's slot registration.
    fn thread_slot_slow(&self) -> usize {
        REGISTRY.with(|registry| {
            let mut registry = registry.borrow_mut();
            if let Some(reg) = registry.regs.iter().find(|r| r.runtime_id == self.inner.id) {
                return reg.slot;
            }
            loop {
                let bits = self.inner.claimed.load(Ordering::SeqCst);
                let slot = (!bits).trailing_zeros() as usize;
                assert!(
                    slot < MAX_THREADS,
                    "epoch runtime: more than {MAX_THREADS} threads pinned simultaneously \
                     (slots recycle when threads exit)"
                );
                if self
                    .inner
                    .claimed
                    .compare_exchange(bits, bits | (1 << slot), Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    registry.regs.push(Registration {
                        inner: Arc::downgrade(&self.inner),
                        runtime_id: self.inner.id,
                        slot,
                    });
                    return slot;
                }
            }
        })
    }

    /// Enter a read-side critical section.
    ///
    /// Announces the current global epoch in this thread's slot (re-
    /// checking until the announcement and the epoch agree, so a stale
    /// announcement can never linger) and returns the [`Guard`] whose
    /// drop ends the section. Nested pins are cheap: they bump a depth
    /// count and keep the outermost announcement.
    pub fn pin(&self) -> Guard<'_> {
        let slot = self.thread_slot();
        let s = &self.inner.slots[slot];
        // Only the owning thread writes its slot: the nesting check and
        // the depth bump need no ordering (the announced epoch bits are
        // unchanged, so the scanner's decision is unaffected).
        let cur = s.load(Ordering::Relaxed);
        if cur & COUNT_MASK != 0 {
            assert!(
                cur & COUNT_MASK < COUNT_MASK,
                "epoch runtime: pin depth overflow"
            );
            s.store(cur + 1, Ordering::Relaxed);
            return Guard {
                inner: &self.inner,
                slot,
            };
        }
        let mut epoch = self.inner.epoch.load(Ordering::SeqCst);
        loop {
            s.store((epoch << COUNT_BITS) | 1, Ordering::SeqCst);
            // The epoch may have advanced between the load and the
            // announcement; re-announce until they agree so `try_advance`
            // never sees us pinned at an epoch we did not observe.
            let now = self.inner.epoch.load(Ordering::SeqCst);
            if now == epoch {
                break;
            }
            epoch = now;
        }
        Guard {
            inner: &self.inner,
            slot,
        }
    }

    /// Attempt to advance the global epoch by one.
    ///
    /// Succeeds only if every pinned slot has announced the current
    /// epoch; returns whether the epoch moved. Never blocks.
    pub fn try_advance(&self) -> bool {
        let epoch = self.inner.epoch.load(Ordering::SeqCst);
        for s in &self.inner.slots {
            let state = s.load(Ordering::SeqCst);
            if state & COUNT_MASK != 0 && (state >> COUNT_BITS) != epoch {
                return false;
            }
        }
        self.inner
            .epoch
            .compare_exchange(epoch, epoch + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Defer a token until two epochs have passed.
    ///
    /// Call *after* the object the token names has been unlinked from
    /// every shared path. A caller that is itself pinned only delays the
    /// token's own grace period, never the correctness.
    pub fn retire(&self, token: u64) {
        {
            let mut garbage = lock(&self.inner.garbage);
            // Sampling the epoch under the lock keeps the deque ordered
            // by retirement epoch, so `drain` can stop at the first entry
            // still in its grace period.
            let epoch = self.inner.epoch.load(Ordering::SeqCst);
            garbage.push_back(Retired { epoch, token });
        }
        self.inner.retired.fetch_add(1, Ordering::Relaxed);
    }

    /// Hand back up to `budget` tokens whose grace period has elapsed,
    /// oldest first, invoking `free` on each. Returns how many were
    /// handed back.
    ///
    /// `free` runs with the internal garbage lock held: it must not call
    /// [`EpochRuntime::retire`] on this runtime (wiping the object the
    /// token names, as the concurrent cuckoo table does, is the intended
    /// shape).
    pub fn drain(&self, budget: usize, mut free: impl FnMut(u64)) -> usize {
        if budget == 0 {
            return 0;
        }
        let epoch = self.inner.epoch.load(Ordering::SeqCst);
        let mut freed = 0;
        {
            let mut garbage = lock(&self.inner.garbage);
            while freed < budget {
                match garbage.front() {
                    Some(r) if r.epoch + 2 <= epoch => {
                        let token = garbage.pop_front().expect("front checked").token;
                        free(token);
                        freed += 1;
                    }
                    _ => break,
                }
            }
        }
        if freed > 0 {
            self.inner
                .reclaimed
                .fetch_add(freed as u64, Ordering::Relaxed);
        }
        freed
    }

    /// Current reclamation accounting.
    pub fn stats(&self) -> ReclamationStats {
        let retired = self.inner.retired.load(Ordering::Relaxed);
        let reclaimed = self.inner.reclaimed.load(Ordering::Relaxed);
        ReclamationStats {
            epoch: self.inner.epoch.load(Ordering::SeqCst),
            retired,
            reclaimed,
            deferred: retired - reclaimed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Advance and drain until the deferred list is empty or a pinned
    /// reader blocks the epoch; returns the number of tokens handed back.
    fn flush(rt: &EpochRuntime) -> usize {
        let mut total = 0;
        loop {
            rt.try_advance();
            let freed = rt.drain(usize::MAX, |_| {});
            total += freed;
            if rt.stats().deferred == 0 || (freed == 0 && !rt.try_advance()) {
                return total;
            }
        }
    }

    #[test]
    fn unpinned_tokens_flow_through_after_two_advances() {
        let rt = EpochRuntime::new();
        rt.retire(7);
        rt.retire(8);
        let mut out = Vec::new();
        assert_eq!(rt.drain(usize::MAX, |t| out.push(t)), 0, "no grace yet");
        assert!(rt.try_advance());
        assert_eq!(rt.drain(usize::MAX, |t| out.push(t)), 0, "one epoch in");
        assert!(rt.try_advance());
        assert_eq!(rt.drain(usize::MAX, |t| out.push(t)), 2);
        assert_eq!(out, vec![7, 8], "oldest first");
        let stats = rt.stats();
        assert_eq!(stats.retired, 2);
        assert_eq!(stats.reclaimed, 2);
        assert_eq!(stats.deferred, 0);
        assert_eq!(stats.epoch, 2);
    }

    #[test]
    fn a_pinned_guard_blocks_reclamation_until_dropped() {
        let rt = EpochRuntime::new();
        let guard = rt.pin();
        rt.retire(42);
        // One advance can still happen (we are pinned at the current
        // epoch), but the second — the one that would free our token —
        // cannot while the guard lives.
        assert_eq!(flush(&rt), 0);
        assert_eq!(rt.stats().deferred, 1);
        drop(guard);
        assert_eq!(flush(&rt), 1);
        assert_eq!(rt.stats().deferred, 0);
    }

    #[test]
    fn nested_pins_keep_the_slot_pinned_until_all_drop() {
        let rt = EpochRuntime::new();
        let outer = rt.pin();
        let inner = rt.pin();
        rt.retire(1);
        drop(outer); // dropping out of order must not unpin
        assert_eq!(flush(&rt), 0, "inner guard still pins");
        drop(inner);
        assert_eq!(flush(&rt), 1);
    }

    #[test]
    fn runtimes_are_independent_domains() {
        let a = EpochRuntime::new();
        let b = EpochRuntime::new();
        let _guard_a = a.pin();
        b.retire(9);
        // A guard on `a` must not stall reclamation on `b`.
        assert_eq!(flush(&b), 1);
    }

    #[test]
    fn slots_recycle_when_threads_exit() {
        // Far more sequential threads than MAX_THREADS: each registers,
        // pins, and exits; the registry Drop must release its slot.
        let rt = EpochRuntime::new();
        for i in 0..(MAX_THREADS * 2) {
            let rt = rt.clone();
            std::thread::spawn(move || {
                let _g = rt.pin();
                rt.retire(i as u64);
            })
            .join()
            .expect("thread");
        }
        assert_eq!(rt.stats().retired, (MAX_THREADS * 2) as u64);
        // Everyone has exited, so the whole backlog drains.
        assert_eq!(flush(&rt), MAX_THREADS * 2);
    }

    #[test]
    fn concurrent_readers_and_retirers_reach_quiescence() {
        let rt = EpochRuntime::new();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let rt = rt.clone();
                let stop = &stop;
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let _g = rt.pin();
                        std::hint::spin_loop();
                    }
                });
            }
            let writer = rt.clone();
            let stop = &stop;
            s.spawn(move || {
                for t in 0..5_000u64 {
                    writer.retire(t);
                    writer.try_advance();
                    writer.drain(32, |_| {});
                }
                stop.store(true, Ordering::Relaxed);
            });
        });
        let total = rt.stats().retired;
        assert_eq!(total, 5_000);
        flush(&rt);
        let stats = rt.stats();
        assert_eq!(stats.reclaimed, total, "all retired tokens reclaimed");
        assert_eq!(stats.deferred, 0);
        assert!(stats.epoch >= 2);
    }
}
