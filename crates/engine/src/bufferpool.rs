//! Shared-buffer pool with clock (second-chance) eviction, and the OS page
//! cache that sits beneath it.
//!
//! `shared_buffers` sets the pool's frame count; pages missing from the pool
//! may still hit the OS cache (tracked at 32 kB chunk granularity — the OS
//! reads ahead, so chunk-level residency is the honest model) before paying
//! for a disk read. Dirty frames evicted by a backend incur a foreground
//! write, which is what the background writer exists to prevent.
//!
//! A pool finds a page's frame through a page table indexed by the page's
//! table id and page number, not through a hash map: every simulated row
//! access looks a page up, and with the pool full every miss also unmaps
//! its victim. Table ids are small and dense (the engine numbers heap
//! tables `0..n` and their indexes `n..2n`), so the table is a directory
//! per table id of fixed-size blocks of entries, a block held only while
//! one of its pages is resident.

/// Identifies an 8 kB page: table id in the high bits, page number below.
pub type PageId = u64;

/// Bits of a [`PageId`] holding the page number.
const PAGE_BITS: u32 = 40;

/// Builds a [`PageId`] from a table id and page number.
pub fn page_id(table: u32, page_no: u64) -> PageId {
    ((table as u64) << PAGE_BITS) | (page_no & ((1 << PAGE_BITS) - 1))
}

/// Splits a [`PageId`] into its table id and page number.
fn split(page: PageId) -> (usize, usize) {
    ((page >> PAGE_BITS) as usize, (page & ((1 << PAGE_BITS) - 1)) as usize)
}

/// Result of a buffer-pool page access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Found in shared buffers.
    Hit,
    /// Missed shared buffers; a clean frame was (or could be) reclaimed.
    Miss {
        /// The eviction displaced a dirty page, forcing a foreground write.
        dirty_eviction: bool,
    },
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    page: PageId,
    referenced: bool,
}

/// Bits per word of the dirty bitmap.
const WORD: usize = u64::BITS as usize;

/// Page-table entries per block.
const BLOCK: usize = 64;

/// Where each resident page lives: the page table behind
/// [`BufferPool::access`].
///
/// `dirs[table][page_no / BLOCK]` is 1 + the number of the block covering
/// that page's range, 0 while none of its pages is resident; entry
/// `page_no % BLOCK` of that block, in `entries`, is 1 + the page's frame
/// slot, 0 while the page is not resident. A block is taken the first time
/// one of its pages is mapped and handed back when the last one is
/// unmapped, so there are never more blocks than resident pages, however
/// large the tables; a directory is as long as the highest page number
/// mapped in its table, divided by [`BLOCK`].
#[derive(Debug, Default)]
struct PageTable {
    dirs: Vec<Vec<u32>>,
    /// Block `b` is `entries[b * BLOCK..(b + 1) * BLOCK]`.
    entries: Vec<u32>,
    /// Resident pages per block.
    live: Vec<u32>,
    /// Blocks no directory points to, for the next range mapped.
    free: Vec<u32>,
}

impl PageTable {
    /// The frame slot holding `page`, if it is resident.
    fn get(&self, page: PageId) -> Option<u32> {
        let (table, page_no) = split(page);
        let block = *self.dirs.get(table)?.get(page_no / BLOCK)?;
        let block = block.checked_sub(1)? as usize;
        self.entries[block * BLOCK + page_no % BLOCK].checked_sub(1)
    }

    /// Maps `page`, which is not resident, to frame `slot`.
    fn insert(&mut self, page: PageId, slot: u32) {
        let (table, page_no) = split(page);
        if table >= self.dirs.len() {
            self.dirs.resize_with(table + 1, Vec::new);
        }
        let dir = &mut self.dirs[table];
        let d = page_no / BLOCK;
        if d >= dir.len() {
            dir.resize(d + 1, 0);
        }
        if dir[d] == 0 {
            let block = self.free.pop().unwrap_or_else(|| {
                self.entries.resize(self.entries.len() + BLOCK, 0);
                self.live.push(0);
                (self.live.len() - 1) as u32
            });
            dir[d] = block + 1;
        }
        let block = dir[d] as usize - 1;
        self.live[block] += 1;
        self.entries[block * BLOCK + page_no % BLOCK] = slot + 1;
    }

    /// Unmaps `page`, which is resident.
    fn remove(&mut self, page: PageId) {
        let (table, page_no) = split(page);
        let d = page_no / BLOCK;
        let block = self.dirs[table][d] as usize - 1;
        self.entries[block * BLOCK + page_no % BLOCK] = 0;
        self.live[block] -= 1;
        if self.live[block] == 0 {
            self.dirs[table][d] = 0;
            self.free.push(block as u32);
        }
    }
}

/// Clock buffer pool over 8 kB frames.
///
/// Whether a frame is dirty is recorded in one place: bit `slot % 64` of
/// word `slot / 64` of `dirty`, a bit per frame slot. [`access`], eviction
/// and [`clean_dirty`] all read and write that bitmap and nothing else
/// (`dirty_count` is its population count, kept beside it), so a writeback
/// pass costs a word per 64 frames instead of a visit to each.
///
/// [`access`]: BufferPool::access
/// [`clean_dirty`]: BufferPool::clean_dirty
#[derive(Debug)]
pub struct BufferPool {
    frames: Vec<Frame>,
    dirty: Vec<u64>,
    pages: PageTable,
    capacity: usize,
    hand: usize,
    dirty_count: usize,
}

impl BufferPool {
    /// Creates a pool with `capacity` frames (>= 16, like PostgreSQL).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(16);
        BufferPool {
            // Frames and the page table grow with what is touched
            // (`reserve` sizes the frames ahead of a known burst): a pool
            // can be far larger than the pages a short run reaches.
            frames: Vec::new(),
            dirty: vec![0; capacity.div_ceil(WORD)],
            pages: PageTable::default(),
            capacity,
            hand: 0,
            dirty_count: 0,
        }
    }

    /// Makes room for `pages` more resident pages (no more than fit), so
    /// that a burst of faults known in advance sizes the frames once
    /// instead of copying them at every doubling on the way. The page
    /// table is not sized: it holds a block per page range resident.
    pub fn reserve(&mut self, pages: usize) {
        let additional = pages.min(self.capacity - self.frames.len());
        self.frames.reserve(additional);
    }

    /// Number of frames currently holding pages.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// Configured capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of dirty frames.
    pub fn dirty(&self) -> usize {
        self.dirty_count
    }

    /// Marks `slot` dirty (idempotent).
    fn set_dirty(&mut self, slot: usize) {
        let bit = 1u64 << (slot % WORD);
        let word = &mut self.dirty[slot / WORD];
        self.dirty_count += usize::from(*word & bit == 0);
        *word |= bit;
    }

    /// Marks `slot` clean, returning whether it was dirty.
    fn take_dirty(&mut self, slot: usize) -> bool {
        let bit = 1u64 << (slot % WORD);
        let word = &mut self.dirty[slot / WORD];
        let was_dirty = *word & bit != 0;
        self.dirty_count -= usize::from(was_dirty);
        *word &= !bit;
        was_dirty
    }

    /// Accesses `page`, faulting it in on a miss; `write` marks it dirty.
    pub fn access(&mut self, page: PageId, write: bool) -> Access {
        if let Some(slot) = self.pages.get(page) {
            self.frames[slot as usize].referenced = true;
            if write {
                self.set_dirty(slot as usize);
            }
            return Access::Hit;
        }
        let mut dirty_eviction = false;
        let slot = if self.frames.len() < self.capacity {
            self.frames.push(Frame { page, referenced: true });
            self.frames.len() - 1
        } else {
            let victim = self.run_clock();
            self.pages.remove(self.frames[victim].page);
            dirty_eviction = self.take_dirty(victim);
            self.frames[victim] = Frame { page, referenced: true };
            victim
        };
        if write {
            self.set_dirty(slot);
        }
        self.pages.insert(page, slot as u32);
        Access::Miss { dirty_eviction }
    }

    /// Second-chance sweep returning the victim slot.
    fn run_clock(&mut self) -> usize {
        loop {
            let f = &mut self.frames[self.hand];
            if f.referenced {
                f.referenced = false;
                self.hand = (self.hand + 1) % self.frames.len();
            } else {
                let victim = self.hand;
                self.hand = (self.hand + 1) % self.frames.len();
                return victim;
            }
        }
    }

    /// Cleans up to `max_pages` dirty frames (background writer / checkpoint
    /// work), returning how many were written.
    ///
    /// The frames cleaned are the first `min(max_pages, dirty())` dirty
    /// ones in clock order — slots `hand..resident()`, then `0..hand` — the
    /// order eviction would find them, which is the LRU-ish set the
    /// bgwriter targets. The pass reads the bitmap a word at a time and
    /// stops as soon as nothing is left to clean.
    pub fn clean_dirty(&mut self, max_pages: usize) -> usize {
        let written = max_pages.min(self.dirty_count);
        let mut left = written;
        for (from, to) in [(self.hand, self.frames.len()), (0, self.hand)] {
            left = self.clean_slots(from, to, left);
        }
        debug_assert_eq!(left, 0, "the bitmap holds dirty_count set bits");
        self.dirty_count -= written;
        written
    }

    /// Clears the first `left` set bits of slots `from..to` in ascending
    /// order; returns how many of `left` remain.
    fn clean_slots(&mut self, from: usize, to: usize, mut left: usize) -> usize {
        if left == 0 || from >= to {
            return left;
        }
        let (first, last) = (from / WORD, (to - 1) / WORD);
        for w in first..=last {
            let mut mask = u64::MAX;
            if w == first {
                mask <<= from % WORD;
            }
            // Slots of this word below `to`: all 64 unless it is the last.
            let below_to = to - w * WORD;
            if below_to < WORD {
                mask &= (1u64 << below_to) - 1;
            }
            let mut candidates = self.dirty[w] & mask;
            let found = candidates.count_ones() as usize;
            if found > left {
                // Keep only the lowest `left` of them.
                let mut keep = 0u64;
                for _ in 0..left {
                    let lowest = candidates & candidates.wrapping_neg();
                    keep |= lowest;
                    candidates ^= lowest;
                }
                candidates = keep;
            }
            self.dirty[w] &= !candidates;
            left -= found.min(left);
            if left == 0 {
                break;
            }
        }
        left
    }
}

/// OS page cache tracked at 32 kB (4-page) chunk granularity with clock
/// eviction. Capacity is a fraction of whatever RAM the DBMS and other
/// processes leave free: random-access traffic wastes most of each
/// readahead chunk and competes with writeback and double buffering, so
/// only [`OS_CACHE_EFFECTIVE_FRAC`] of free memory acts as an effective
/// cache for the DBMS's random reads.
#[derive(Debug)]
pub struct OsCache {
    pool: BufferPool,
}

/// Pages per OS-cache chunk (32 kB / 8 kB).
pub const CHUNK_PAGES: u64 = 4;

/// Effective fraction of free RAM acting as page cache for random reads.
pub const OS_CACHE_EFFECTIVE_FRAC: f64 = 0.45;

impl OsCache {
    /// Creates a cache over `bytes` of free memory.
    pub fn new(bytes: u64) -> Self {
        let effective = (bytes as f64 * OS_CACHE_EFFECTIVE_FRAC) as u64;
        let chunks = (effective / (CHUNK_PAGES * 8 * 1024)).max(16);
        OsCache { pool: BufferPool::new(chunks as usize) }
    }

    /// Whether the chunk containing `page` is resident; touches it in
    /// either case (misses fault the chunk in).
    pub fn access(&mut self, page: PageId) -> bool {
        let (table, page_no) = split(page);
        let chunk = page_id(table as u32, page_no as u64 / CHUNK_PAGES);
        matches!(self.pool.access(chunk, false), Access::Hit)
    }

    /// Makes room for `chunks` more resident chunks; see
    /// [`BufferPool::reserve`].
    pub fn reserve(&mut self, chunks: usize) {
        self.pool.reserve(chunks);
    }

    /// Chunk capacity.
    pub fn capacity_chunks(&self) -> usize {
        self.pool.capacity()
    }
}

/// The pool as it was before the dirty bitmap — a `dirty` flag in every
/// frame and a `clean_dirty` that visits frames one by one from the clock
/// hand. Kept as the oracle [`BufferPool`] is held to, step for step.
#[cfg(test)]
mod reference {
    use super::{Access, PageId};
    use std::collections::HashMap;

    #[derive(Debug, Clone, Copy)]
    struct Frame {
        page: PageId,
        referenced: bool,
        dirty: bool,
    }

    #[derive(Debug)]
    pub struct BufferPool {
        frames: Vec<Frame>,
        map: HashMap<PageId, u32>,
        capacity: usize,
        hand: usize,
        dirty_count: usize,
    }

    impl BufferPool {
        pub fn new(capacity: usize) -> Self {
            let capacity = capacity.max(16);
            BufferPool {
                frames: Vec::new(),
                map: HashMap::new(),
                capacity,
                hand: 0,
                dirty_count: 0,
            }
        }

        pub fn resident(&self) -> usize {
            self.frames.len()
        }

        pub fn dirty(&self) -> usize {
            self.dirty_count
        }

        pub fn hand(&self) -> usize {
            self.hand
        }

        pub fn dirty_pages(&self) -> Vec<PageId> {
            let mut pages: Vec<PageId> =
                self.frames.iter().filter(|f| f.dirty).map(|f| f.page).collect();
            pages.sort_unstable();
            pages
        }

        pub fn access(&mut self, page: PageId, write: bool) -> Access {
            if let Some(&slot) = self.map.get(&page) {
                let f = &mut self.frames[slot as usize];
                f.referenced = true;
                if write && !f.dirty {
                    f.dirty = true;
                    self.dirty_count += 1;
                }
                return Access::Hit;
            }
            let mut dirty_eviction = false;
            let slot = if self.frames.len() < self.capacity {
                self.frames.push(Frame { page, referenced: true, dirty: write });
                self.frames.len() - 1
            } else {
                let victim = self.run_clock();
                let old = self.frames[victim];
                self.map.remove(&old.page);
                if old.dirty {
                    dirty_eviction = true;
                    self.dirty_count -= 1;
                }
                self.frames[victim] = Frame { page, referenced: true, dirty: write };
                victim
            };
            if write {
                self.dirty_count += 1;
            }
            self.map.insert(page, slot as u32);
            Access::Miss { dirty_eviction }
        }

        fn run_clock(&mut self) -> usize {
            loop {
                let f = &mut self.frames[self.hand];
                if f.referenced {
                    f.referenced = false;
                    self.hand = (self.hand + 1) % self.frames.len();
                } else {
                    let victim = self.hand;
                    self.hand = (self.hand + 1) % self.frames.len();
                    return victim;
                }
            }
        }

        pub fn clean_dirty(&mut self, max_pages: usize) -> usize {
            if self.dirty_count == 0 || max_pages == 0 {
                return 0;
            }
            let mut written = 0;
            let n = self.frames.len();
            for i in 0..n {
                if written >= max_pages {
                    break;
                }
                let idx = (self.hand + i) % n;
                let f = &mut self.frames[idx];
                if f.dirty {
                    f.dirty = false;
                    written += 1;
                }
            }
            self.dirty_count -= written;
            written
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hits_after_fault() {
        let mut bp = BufferPool::new(64);
        assert_eq!(bp.access(page_id(1, 0), false), Access::Miss { dirty_eviction: false });
        assert_eq!(bp.access(page_id(1, 0), false), Access::Hit);
        assert_eq!(bp.resident(), 1);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut bp = BufferPool::new(16);
        for i in 0..100 {
            bp.access(page_id(0, i), false);
        }
        assert_eq!(bp.resident(), 16);
    }

    #[test]
    fn minimum_capacity_clamped() {
        let bp = BufferPool::new(1);
        assert_eq!(bp.capacity(), 16);
    }

    #[test]
    fn clock_keeps_hot_pages() {
        let mut bp = BufferPool::new(16);
        // Fill the pool, keep page 0 hot.
        for i in 0..16 {
            bp.access(page_id(0, i), false);
        }
        for round in 0..50u64 {
            bp.access(page_id(0, 0), false); // hot page
            bp.access(page_id(0, 100 + round), false); // cold stream
        }
        // The hot page must still be resident.
        assert_eq!(bp.access(page_id(0, 0), false), Access::Hit);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut bp = BufferPool::new(16);
        for i in 0..16 {
            bp.access(page_id(0, i), true); // all dirty
        }
        assert_eq!(bp.dirty(), 16);
        // Next miss must evict a dirty page.
        match bp.access(page_id(0, 999), false) {
            Access::Miss { dirty_eviction } => assert!(dirty_eviction),
            Access::Hit => panic!("expected miss"),
        }
        assert_eq!(bp.dirty(), 15);
    }

    #[test]
    fn rewriting_dirty_page_counts_once() {
        let mut bp = BufferPool::new(16);
        bp.access(page_id(0, 1), true);
        bp.access(page_id(0, 1), true);
        assert_eq!(bp.dirty(), 1);
    }

    #[test]
    fn clean_dirty_reduces_dirty_count() {
        let mut bp = BufferPool::new(32);
        for i in 0..20 {
            bp.access(page_id(0, i), true);
        }
        let written = bp.clean_dirty(8);
        assert_eq!(written, 8);
        assert_eq!(bp.dirty(), 12);
        let written = bp.clean_dirty(100);
        assert_eq!(written, 12);
        assert_eq!(bp.dirty(), 0);
        assert_eq!(bp.clean_dirty(100), 0);
    }

    #[test]
    fn os_cache_chunk_locality() {
        let mut os = OsCache::new(1024 * 1024 * 1024);
        assert!(!os.access(page_id(0, 0)));
        // Neighbouring page in the same 4-page chunk now hits.
        assert!(os.access(page_id(0, 1)));
        // A page in a different chunk misses.
        assert!(!os.access(page_id(0, 64)));
    }

    #[test]
    fn os_cache_capacity_reflects_effective_fraction() {
        let os = OsCache::new(1 << 30);
        let expected =
            ((1u64 << 30) as f64 * OS_CACHE_EFFECTIVE_FRAC) as u64 / (CHUNK_PAGES * 8 * 1024);
        assert_eq!(os.capacity_chunks() as u64, expected);
    }

    #[test]
    fn os_cache_chunks_of_neighbouring_tables_never_alias() {
        let mut os = OsCache::new(1 << 30);
        // Every chunk of table 0's first 256 pages, and a far one.
        for k in 0..64 {
            assert!(!os.access(page_id(0, k * CHUNK_PAGES)));
        }
        assert!(!os.access(page_id(0, 1 << 20)));
        // Table 1's first chunk is not table 0's chunk 0, and table 2's
        // chunk at page 2^20 is not table 0's.
        assert!(!os.access(page_id(1, 0)));
        assert!(os.access(page_id(1, 3)));
        assert!(!os.access(page_id(2, 1 << 20)));
        assert!(os.access(page_id(0, 1)));
        assert!(os.access(page_id(0, (1 << 20) + 2)));
    }

    #[test]
    fn page_id_separates_tables() {
        assert_ne!(page_id(1, 7), page_id(2, 7));
        assert_ne!(page_id(1, 7), page_id(1, 8));
    }

    impl BufferPool {
        /// Panics unless the page table maps exactly the resident pages,
        /// each to its frame, and holds no block without one.
        fn check_page_table(&self) {
            let mapped = self.pages.entries.iter().filter(|&&e| e != 0).count();
            assert_eq!(mapped, self.resident(), "mapped entries");
            for (slot, frame) in self.frames.iter().enumerate() {
                assert_eq!(self.pages.get(frame.page), Some(slot as u32), "slot {slot}");
            }
            let blocks = self.pages.live.len() - self.pages.free.len();
            assert_eq!(self.pages.live.iter().filter(|&&n| n > 0).count(), blocks, "blocks");
        }

        fn dirty_pages(&self) -> Vec<PageId> {
            let mut pages: Vec<PageId> = (0..self.frames.len())
                .filter(|slot| self.dirty[slot / WORD] & (1 << (slot % WORD)) != 0)
                .map(|slot| self.frames[slot].page)
                .collect();
            pages.sort_unstable();
            pages
        }
    }

    /// One step of a pool's life.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Access(PageId, bool),
        Clean(usize),
    }

    /// Runs `ops` through the pool and the frame-by-frame reference,
    /// holding them equal after every step; returns the pool.
    fn run_against_reference(capacity: usize, ops: &[Op]) -> BufferPool {
        let mut pool = BufferPool::new(capacity);
        let mut oracle = reference::BufferPool::new(capacity);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Access(page, write) => {
                    assert_eq!(
                        pool.access(page, write),
                        oracle.access(page, write),
                        "step {step}: {op:?}"
                    );
                }
                Op::Clean(k) => {
                    assert_eq!(pool.clean_dirty(k), oracle.clean_dirty(k), "step {step}: {op:?}");
                }
            }
            assert_eq!(pool.dirty(), oracle.dirty(), "step {step}: {op:?}");
            assert_eq!(pool.resident(), oracle.resident(), "step {step}: {op:?}");
            assert_eq!(pool.hand, oracle.hand(), "step {step}: {op:?}");
            assert_eq!(pool.dirty_pages(), oracle.dirty_pages(), "step {step}: {op:?}");
            pool.check_page_table();
        }
        pool
    }

    #[test]
    fn clean_slots_stays_inside_its_range() {
        let mut bp = BufferPool::new(100);
        for p in 0..100 {
            bp.access(p, true);
        }
        // Both ends inside a word, then across the word boundary.
        assert_eq!(bp.clean_slots(10, 20, 100), 90);
        assert_eq!(bp.clean_slots(60, 70, 4), 0);
        let clean: Vec<PageId> = (10..20).chain(60..64).collect();
        let expected: Vec<PageId> = (0..100).filter(|p| !clean.contains(p)).collect();
        assert_eq!(bp.dirty_pages(), expected);
    }

    #[test]
    fn clean_dirty_wraps_through_slot_zero_from_a_hand_inside_a_word() {
        // 100 frames: the second word of the bitmap is partly used.
        let mut ops: Vec<Op> = (0..100).map(|p| Op::Access(p, true)).collect();
        // 40 misses: the first one laps the pool clearing reference bits,
        // each evicts a dirty frame, and the hand stops at slot 40.
        ops.extend((100..140).map(|p| Op::Access(p, false)));
        // Dirty again behind the hand: slots 0..10 and 40..100 are dirty.
        ops.extend((100..110).map(|p| Op::Access(p, true)));
        ops.push(Op::Clean(0));
        let pool = run_against_reference(100, &ops);
        assert_eq!((pool.hand, pool.dirty()), (40, 70));

        // Slots 40..100, then on through slot 0 to slots 0..5.
        ops.push(Op::Clean(65));
        let pool = run_against_reference(100, &ops);
        assert_eq!(pool.dirty_pages(), (105..110).collect::<Vec<PageId>>());

        ops.push(Op::Clean(1_000)); // five are left
        ops.push(Op::Clean(5)); // none is
        assert_eq!(run_against_reference(100, &ops).dirty(), 0);
    }

    proptest! {
        /// The bitmap pool and its page table against the frame-by-frame
        /// reference and its `HashMap` over random lives: the same `Access`
        /// (dirty evictions included), the same counts, the same hand and
        /// the same set of dirty pages after every step, and a page table
        /// that maps exactly the resident pages. Capacities from one partly
        /// used word to three words and a bit; a page universe 1.5x the
        /// pool, so hits, evictions and re-dirtyings all happen; `k` from 0
        /// to past the pool. The universe spreads over six table ids (the
        /// heap and index ids of three tables) and, per id, over page
        /// numbers `7j² + j`: dense in the first block, then a block apart
        /// and farther, so blocks are taken, handed back on eviction and
        /// reused, and directories regrow well past their first length.
        #[test]
        fn bitmap_pool_matches_the_reference_step_for_step(
            capacity in 16usize..=200,
            raw in proptest::collection::vec((0u32..8, any::<u64>(), any::<bool>()), 1..900),
        ) {
            const TABLE_IDS: u64 = 6;
            let universe = capacity as u64 * 3 / 2;
            let ops: Vec<Op> = raw
                .iter()
                .map(|&(kind, arg, write)| match kind {
                    0 => Op::Clean((arg % (capacity as u64 + 40)) as usize),
                    _ => {
                        let u = (arg >> 8) % universe;
                        let j = u / TABLE_IDS;
                        Op::Access(page_id((u % TABLE_IDS) as u32, 7 * j * j + j), write)
                    }
                })
                .collect();
            run_against_reference(capacity, &ops);
        }

        /// Invariants: resident <= capacity, dirty <= resident, and a page
        /// just accessed is always a hit on re-access.
        #[test]
        fn pool_invariants(ops in proptest::collection::vec((0u64..200, any::<bool>()), 1..300)) {
            let mut bp = BufferPool::new(32);
            for (page, write) in ops {
                bp.access(page_id(0, page), write);
                prop_assert!(bp.resident() <= bp.capacity());
                prop_assert!(bp.dirty() <= bp.resident());
                prop_assert_eq!(bp.access(page_id(0, page), false), Access::Hit);
            }
        }
    }
}
