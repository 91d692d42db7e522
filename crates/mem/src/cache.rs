//! Processor caches, physically or virtually addressed.
//!
//! Section 3.2: "Virtually addressed caches are attractive because they can
//! reduce cycle time … (1) the cache address tags are context dependent, and
//! therefore the cache must be flushed on a context switch, and (2) each cache
//! entry contains protection bits, so entries must be invalidated when a PTE
//! is changed." On the i860, 536 of the 559 instructions of a PTE change flush
//! the virtual cache.

use crate::addr::Asid;
use crate::pagetable::AccessKind;

/// Whether the cache is indexed/tagged with virtual or physical addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Addressing {
    /// Physical: immune to context switches and PTE changes.
    Physical,
    /// Virtual: context-dependent tags; PTE changes require a full search.
    Virtual,
}

/// Write policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Every store goes to memory (through the write buffer).
    Through,
    /// Stores dirty the cache line; memory is updated on eviction.
    Back,
}

/// Static cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size_bytes: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Associativity (1 = direct mapped).
    pub assoc: u32,
    /// Virtual or physical addressing.
    pub addressing: Addressing,
    /// Write policy.
    pub write_policy: WritePolicy,
    /// Extra cycles on a read miss (fill from memory).
    pub read_miss_penalty: u32,
    /// Extra cycles on a write miss (write-back allocate; write-through
    /// caches usually don't allocate, so this is often 0).
    pub write_miss_penalty: u32,
    /// Whether virtual tags carry address-space IDs (avoids switch flushes).
    pub tagged: bool,
    /// Cycles to examine/invalidate one line during a flush sweep.
    pub flush_cycles_per_line: u32,
}

impl CacheConfig {
    /// A physically addressed cache — the common case in the study.
    #[must_use]
    pub fn physical(
        size_bytes: u32,
        line_bytes: u32,
        write_policy: WritePolicy,
        read_miss_penalty: u32,
    ) -> CacheConfig {
        CacheConfig {
            size_bytes,
            line_bytes,
            assoc: 1,
            addressing: Addressing::Physical,
            write_policy,
            read_miss_penalty,
            write_miss_penalty: 0,
            tagged: false,
            flush_cycles_per_line: 1,
        }
    }

    /// A virtually addressed cache (i860-style).
    #[must_use]
    pub fn virtual_untagged(
        size_bytes: u32,
        line_bytes: u32,
        read_miss_penalty: u32,
    ) -> CacheConfig {
        CacheConfig {
            size_bytes,
            line_bytes,
            assoc: 2,
            addressing: Addressing::Virtual,
            write_policy: WritePolicy::Back,
            read_miss_penalty,
            write_miss_penalty: 2,
            tagged: false,
            flush_cycles_per_line: 2,
        }
    }

    /// Total number of lines.
    #[must_use]
    pub fn lines(&self) -> u32 {
        self.size_bytes / self.line_bytes
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u32 {
        (self.lines() / self.assoc).max(1)
    }
}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Extra cycles beyond the base instruction cost.
    pub extra_cycles: u32,
}

/// Hit/miss/flush counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Read hits.
    pub read_hits: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Write misses.
    pub write_misses: u64,
    /// Lines invalidated by flush operations.
    pub lines_flushed: u64,
    /// Cycles spent in flush sweeps.
    pub flush_cycles: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u32,
    asid: Option<Asid>,
    dirty: bool,
}

/// A set-associative tag store (no data is simulated — only timing and
/// occupancy matter for the paper's analysis).
///
/// All lines live in one flat `sets × assoc` array, way `w` of set `s` at
/// index `s * assoc + w`, so building a cache is one allocation however many
/// sets it has.
///
/// # Example
///
/// ```
/// use osarch_mem::{Cache, CacheConfig, WritePolicy, AccessKind, Asid};
///
/// let mut cache = Cache::new(CacheConfig::physical(8192, 16, WritePolicy::Through, 10));
/// let miss = cache.access(0x1000, Asid(0), AccessKind::Read);
/// assert!(!miss.hit);
/// let hit = cache.access(0x1004, Asid(0), AccessKind::Read);
/// assert!(hit.hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Option<Line>>,
    victim: Vec<usize>,
    stats: CacheStats,
}

impl Cache {
    /// An empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero lines or associativity).
    #[must_use]
    pub fn new(config: CacheConfig) -> Cache {
        assert!(
            config.line_bytes > 0 && config.size_bytes >= config.line_bytes,
            "degenerate cache geometry"
        );
        assert!(config.assoc > 0, "associativity must be positive");
        let sets = config.sets() as usize;
        Cache {
            config,
            lines: vec![None; sets * config.assoc as usize],
            victim: vec![0; sets],
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    fn index_and_tag(&self, addr: u32) -> (usize, u32) {
        let line_addr = addr / self.config.line_bytes;
        let set = (line_addr % self.config.sets()) as usize;
        let tag = line_addr / self.config.sets();
        (set, tag)
    }

    fn effective_asid(&self, asid: Asid) -> Option<Asid> {
        match (self.config.addressing, self.config.tagged) {
            (Addressing::Virtual, true) => Some(asid),
            _ => None,
        }
    }

    /// Access the line containing `addr` in context `asid`.
    pub fn access(&mut self, addr: u32, asid: Asid, kind: AccessKind) -> CacheOutcome {
        let (set, tag) = self.index_and_tag(addr);
        let ctx = self.effective_asid(asid);
        let assoc = self.config.assoc as usize;
        let ways = &mut self.lines[set * assoc..][..assoc];
        let hit_way = ways
            .iter()
            .position(|line| matches!(line, Some(l) if l.tag == tag && l.asid == ctx));
        let write = matches!(kind, AccessKind::Write);
        match hit_way {
            Some(way) => {
                if write {
                    self.stats.write_hits += 1;
                    if self.config.write_policy == WritePolicy::Back {
                        if let Some(line) = &mut ways[way] {
                            line.dirty = true;
                        }
                    }
                } else {
                    self.stats.read_hits += 1;
                }
                CacheOutcome {
                    hit: true,
                    extra_cycles: 0,
                }
            }
            None => {
                let penalty = if write {
                    self.stats.write_misses += 1;
                    self.config.write_miss_penalty
                } else {
                    self.stats.read_misses += 1;
                    self.config.read_miss_penalty
                };
                // Write-through caches don't allocate on write misses.
                let allocate = !write || self.config.write_policy == WritePolicy::Back;
                if allocate {
                    let way = match ways.iter().position(std::option::Option::is_none) {
                        Some(free) => free,
                        None => {
                            let victim = self.victim[set];
                            self.victim[set] = (victim + 1) % assoc;
                            victim
                        }
                    };
                    ways[way] = Some(Line {
                        tag,
                        asid: ctx,
                        dirty: write,
                    });
                }
                CacheOutcome {
                    hit: false,
                    extra_cycles: penalty,
                }
            }
        }
    }

    /// Warm the line containing `addr` without recording statistics — used to
    /// pre-condition measurements, as the paper's repeated-call methodology does.
    pub fn warm(&mut self, addr: u32, asid: Asid) {
        let (set, tag) = self.index_and_tag(addr);
        let ctx = self.effective_asid(asid);
        let assoc = self.config.assoc as usize;
        let ways = &mut self.lines[set * assoc..][..assoc];
        if ways
            .iter()
            .any(|line| matches!(line, Some(l) if l.tag == tag && l.asid == ctx))
        {
            return;
        }
        let way = ways
            .iter()
            .position(std::option::Option::is_none)
            .unwrap_or(0);
        ways[way] = Some(Line {
            tag,
            asid: ctx,
            dirty: false,
        });
    }

    /// Invalidate every line; returns the cycle cost of the sweep.
    ///
    /// This is the context-switch cost of an untagged virtually addressed
    /// cache ("cache flushing at context switch time can be extremely
    /// expensive").
    pub fn flush_all(&mut self) -> u32 {
        let flushed = self.lines.iter_mut().filter_map(Option::take).count();
        self.stats.lines_flushed += flushed as u64;
        let cycles = self.config.lines() * self.config.flush_cycles_per_line;
        self.stats.flush_cycles += u64::from(cycles);
        cycles
    }

    /// Invalidate every line of one page.
    ///
    /// For a *virtual* cache the whole cache must be searched ("any change to
    /// a page's protection requires a complete search of the cache"), so the
    /// cost is proportional to the cache size, not the page size. For a
    /// physical cache no invalidation is needed at all and the cost is zero.
    ///
    /// Returns `(lines_examined, cycles)`.
    pub fn flush_page(&mut self, page_addr: u32, asid: Asid) -> (u32, u32) {
        if self.config.addressing == Addressing::Physical {
            return (0, 0);
        }
        let page_base = page_addr & !(crate::addr::PAGE_SIZE - 1);
        let ctx = self.effective_asid(asid);
        let mut flushed = 0u64;
        let sets = self.lines.chunks_mut(self.config.assoc as usize);
        for (set_idx, set) in sets.enumerate() {
            for line in set.iter_mut() {
                if let Some(l) = line {
                    // Reconstruct the line's address from tag and set index.
                    let line_addr =
                        (l.tag * self.config.sets() + set_idx as u32) * self.config.line_bytes;
                    if line_addr & !(crate::addr::PAGE_SIZE - 1) == page_base && l.asid == ctx {
                        *line = None;
                        flushed += 1;
                    }
                }
            }
        }
        self.stats.lines_flushed += flushed;
        let examined = self.config.lines();
        let cycles = examined * self.config.flush_cycles_per_line;
        self.stats.flush_cycles += u64::from(cycles);
        (examined, cycles)
    }

    /// Number of valid lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.iter().filter(|line| line.is_some()).count()
    }

    /// True when no lines are valid.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics (contents untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn physical_cache() -> Cache {
        Cache::new(CacheConfig::physical(1024, 16, WritePolicy::Through, 12))
    }

    #[test]
    fn read_miss_then_hit() {
        let mut cache = physical_cache();
        let first = cache.access(0x40, Asid(0), AccessKind::Read);
        assert!(!first.hit);
        assert_eq!(first.extra_cycles, 12);
        let second = cache.access(0x44, Asid(0), AccessKind::Read);
        assert!(second.hit);
        assert_eq!(second.extra_cycles, 0);
    }

    #[test]
    fn write_through_does_not_allocate_on_write_miss() {
        let mut cache = physical_cache();
        cache.access(0x80, Asid(0), AccessKind::Write);
        let read = cache.access(0x80, Asid(0), AccessKind::Read);
        assert!(!read.hit, "write-through write miss must not allocate");
    }

    #[test]
    fn write_back_allocates_and_dirties() {
        let mut cache = Cache::new(CacheConfig {
            write_policy: WritePolicy::Back,
            ..CacheConfig::physical(1024, 16, WritePolicy::Back, 12)
        });
        cache.access(0x80, Asid(0), AccessKind::Write);
        let read = cache.access(0x80, Asid(0), AccessKind::Read);
        assert!(read.hit, "write-back allocates on write miss");
    }

    #[test]
    fn conflicting_lines_evict_in_direct_mapped() {
        let mut cache = physical_cache(); // 64 sets of 16B
        cache.access(0x0, Asid(0), AccessKind::Read);
        cache.access(0x400, Asid(0), AccessKind::Read); // same set (1024 apart)
        let back = cache.access(0x0, Asid(0), AccessKind::Read);
        assert!(!back.hit, "direct-mapped conflict must evict");
    }

    #[test]
    fn virtual_untagged_cache_separates_contexts_only_by_flush() {
        let mut cache = Cache::new(CacheConfig::virtual_untagged(1024, 16, 12));
        cache.access(0x100, Asid(1), AccessKind::Read);
        // Untagged virtual cache: same VA in another context *wrongly* hits
        // unless flushed — which is why the flush is mandatory.
        let aliased = cache.access(0x100, Asid(2), AccessKind::Read);
        assert!(aliased.hit);
        let cycles = cache.flush_all();
        assert!(cycles > 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn virtual_page_flush_searches_whole_cache() {
        let mut cache = Cache::new(CacheConfig::virtual_untagged(1024, 16, 12));
        for offset in (0..256).step_by(16) {
            cache.access(0x2000 + offset, Asid(1), AccessKind::Read);
        }
        cache.access(0x9000, Asid(1), AccessKind::Read);
        let (examined, cycles) = cache.flush_page(0x2000, Asid(1));
        assert_eq!(
            examined,
            cache.config().lines(),
            "virtual flush must examine every line"
        );
        assert!(cycles >= examined);
        // Lines of the flushed page are gone; the other page survives.
        assert!(!cache.access(0x2000, Asid(1), AccessKind::Read).hit);
        let survivor = cache.access(0x9000, Asid(1), AccessKind::Read);
        assert!(survivor.hit);
    }

    #[test]
    fn physical_page_flush_is_free() {
        let mut cache = physical_cache();
        cache.access(0x2000, Asid(0), AccessKind::Read);
        assert_eq!(cache.flush_page(0x2000, Asid(0)), (0, 0));
        assert!(cache.access(0x2000, Asid(0), AccessKind::Read).hit);
    }

    #[test]
    fn warm_preloads_without_stats() {
        let mut cache = physical_cache();
        cache.warm(0x300, Asid(0));
        assert_eq!(cache.stats().read_misses, 0);
        assert!(cache.access(0x300, Asid(0), AccessKind::Read).hit);
    }

    #[test]
    fn stats_accumulate() {
        let mut cache = physical_cache();
        cache.access(0x0, Asid(0), AccessKind::Read);
        cache.access(0x0, Asid(0), AccessKind::Read);
        cache.access(0x0, Asid(0), AccessKind::Write);
        let stats = cache.stats();
        assert_eq!(stats.read_misses, 1);
        assert_eq!(stats.read_hits, 1);
        assert_eq!(stats.write_hits, 1);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_size_cache_panics() {
        let _ = Cache::new(CacheConfig::physical(0, 16, WritePolicy::Through, 1));
    }
}
