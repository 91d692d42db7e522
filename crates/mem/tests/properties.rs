//! Property-based tests for the memory-hierarchy substrate.

use osarch_mem::{
    AccessKind, Addressing, Asid, Cache, CacheConfig, CacheOutcome, CacheStats, LinearPageTable,
    MultiLevelPageTable, PageTable, Protection, Pte, SoftwarePageTable, Tlb, TlbConfig, TlbEntry,
    VirtAddr, WriteBuffer, WriteBufferConfig, WritePolicy, PAGE_SIZE,
};
use proptest::prelude::*;

fn arb_prot() -> impl Strategy<Value = Protection> {
    prop_oneof![
        Just(Protection::READ),
        Just(Protection::WRITE),
        Just(Protection::RW),
        Just(Protection::RX),
        Just(Protection::RWX),
    ]
}

/// A model cache line: `(tag, asid, dirty)`.
type ModelLine = (u32, Option<Asid>, bool);

/// A reference cache that keeps one `Vec` of ways per set — the layout
/// `Cache` used before its lines moved into one flat array.
struct ModelCache {
    config: CacheConfig,
    sets: Vec<Vec<Option<ModelLine>>>,
    victim: Vec<usize>,
    stats: CacheStats,
}

impl ModelCache {
    fn new(config: CacheConfig) -> ModelCache {
        let sets = config.sets() as usize;
        ModelCache {
            config,
            sets: vec![vec![None; config.assoc as usize]; sets],
            victim: vec![0; sets],
            stats: CacheStats::default(),
        }
    }

    fn index_and_tag(&self, addr: u32, asid: Asid) -> (usize, u32, Option<Asid>) {
        let line_addr = addr / self.config.line_bytes;
        let ctx =
            (self.config.addressing == Addressing::Virtual && self.config.tagged).then_some(asid);
        (
            (line_addr % self.config.sets()) as usize,
            line_addr / self.config.sets(),
            ctx,
        )
    }

    fn access(&mut self, addr: u32, asid: Asid, kind: AccessKind) -> CacheOutcome {
        let (set, tag, ctx) = self.index_and_tag(addr, asid);
        let write = kind == AccessKind::Write;
        let back = self.config.write_policy == WritePolicy::Back;
        let ways = &mut self.sets[set];
        if let Some(way) = ways
            .iter()
            .position(|l| matches!(l, Some((t, a, _)) if *t == tag && *a == ctx))
        {
            if write {
                self.stats.write_hits += 1;
                if back {
                    ways[way] = ways[way].map(|(t, a, _)| (t, a, true));
                }
            } else {
                self.stats.read_hits += 1;
            }
            return CacheOutcome {
                hit: true,
                extra_cycles: 0,
            };
        }
        let extra_cycles = if write {
            self.stats.write_misses += 1;
            self.config.write_miss_penalty
        } else {
            self.stats.read_misses += 1;
            self.config.read_miss_penalty
        };
        if !write || back {
            let way = ways.iter().position(Option::is_none).unwrap_or_else(|| {
                let victim = self.victim[set];
                self.victim[set] = (victim + 1) % self.config.assoc as usize;
                victim
            });
            ways[way] = Some((tag, ctx, write));
        }
        CacheOutcome {
            hit: false,
            extra_cycles,
        }
    }

    fn warm(&mut self, addr: u32, asid: Asid) {
        let (set, tag, ctx) = self.index_and_tag(addr, asid);
        let ways = &mut self.sets[set];
        if ways
            .iter()
            .any(|l| matches!(l, Some((t, a, _)) if *t == tag && *a == ctx))
        {
            return;
        }
        let way = ways.iter().position(Option::is_none).unwrap_or(0);
        ways[way] = Some((tag, ctx, false));
    }

    fn flush_all(&mut self) -> u32 {
        for line in self.sets.iter_mut().flatten() {
            if line.take().is_some() {
                self.stats.lines_flushed += 1;
            }
        }
        let cycles = self.config.lines() * self.config.flush_cycles_per_line;
        self.stats.flush_cycles += u64::from(cycles);
        cycles
    }

    fn flush_page(&mut self, page_addr: u32, asid: Asid) -> (u32, u32) {
        if self.config.addressing == Addressing::Physical {
            return (0, 0);
        }
        let (_, _, ctx) = self.index_and_tag(page_addr, asid);
        let page_base = page_addr & !(PAGE_SIZE - 1);
        let sets = self.config.sets();
        for (set_idx, set) in self.sets.iter_mut().enumerate() {
            for line in set.iter_mut() {
                if let Some((tag, a, _)) = *line {
                    let line_addr = (tag * sets + set_idx as u32) * self.config.line_bytes;
                    if line_addr & !(PAGE_SIZE - 1) == page_base && a == ctx {
                        *line = None;
                        self.stats.lines_flushed += 1;
                    }
                }
            }
        }
        let examined = self.config.lines();
        let cycles = examined * self.config.flush_cycles_per_line;
        self.stats.flush_cycles += u64::from(cycles);
        (examined, cycles)
    }

    fn len(&self) -> usize {
        self.sets.iter().flatten().filter(|l| l.is_some()).count()
    }
}

/// A cache geometry and policy: size, associativity, addressing, tagging,
/// write policy and the three cycle charges.
fn arb_cache_config() -> impl Strategy<Value = CacheConfig> {
    (
        prop_oneof![Just(16u32), Just(48), Just(64), Just(1024), Just(4096)],
        prop_oneof![Just(1u32), Just(2), Just(4)],
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        (1u32..20, 0u32..5, 1u32..3),
    )
        .prop_map(
            |(size_bytes, assoc, virt, tagged, back, (read_miss, write_miss, flush))| CacheConfig {
                size_bytes,
                line_bytes: 16,
                assoc,
                addressing: if virt {
                    Addressing::Virtual
                } else {
                    Addressing::Physical
                },
                write_policy: if back {
                    WritePolicy::Back
                } else {
                    WritePolicy::Through
                },
                read_miss_penalty: read_miss,
                write_miss_penalty: write_miss,
                tagged,
                flush_cycles_per_line: flush,
            },
        )
}

/// One cache operation: a selector (mostly accesses, some warms, few
/// flushes), an address over four pages, an ASID and an access kind.
fn arb_cache_ops() -> impl Strategy<Value = Vec<(u32, u32, u16, u8)>> {
    proptest::collection::vec((0u32..42, 0u32..4 * PAGE_SIZE, 0u16..3, 0u8..3), 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The flat cache and the per-set reference model agree on every
    /// outcome, on occupancy and on every counter, over random access,
    /// warm and flush sequences.
    #[test]
    fn flat_cache_matches_per_set_model(config in arb_cache_config(), ops in arb_cache_ops()) {
        let mut cache = Cache::new(config);
        let mut model = ModelCache::new(config);
        for (step, &(op, addr, asid, kind)) in ops.iter().enumerate() {
            let asid = Asid(asid);
            match op {
                0..=29 => {
                    let kind = [AccessKind::Read, AccessKind::Write, AccessKind::Execute][kind as usize];
                    prop_assert_eq!(cache.access(addr, asid, kind), model.access(addr, asid, kind), "step {}", step);
                }
                30..=35 => {
                    cache.warm(addr, asid);
                    model.warm(addr, asid);
                }
                36..=40 => prop_assert_eq!(cache.flush_page(addr, asid), model.flush_page(addr, asid), "step {}", step),
                _ => prop_assert_eq!(cache.flush_all(), model.flush_all(), "step {}", step),
            }
            prop_assert_eq!(cache.len(), model.len(), "step {}", step);
            prop_assert_eq!(cache.stats(), model.stats, "step {}", step);
        }
    }

    /// A sparse linear table agrees with the software table under random
    /// map/unmap/protect sequences, and its `table_words` is the span a VAX
    /// would allocate: the highest slot ever mapped, plus one.
    #[test]
    fn sparse_linear_table_matches_software_table(ops in proptest::collection::vec(
        (
            0u8..3,
            prop_oneof![0u32..64, 0x7_fff0u32..0x8_0010, 0xf_fff0u32..0x10_0000],
            0u32..1000,
            arb_prot(),
            0u8..8,
        ),
        1..200,
    )) {
        let mut linear = LinearPageTable::new(0, true);
        let mut software = SoftwarePageTable::new();
        let mut highest: Option<u32> = None;
        for &(op, vpn, pfn, prot, valid) in &ops {
            let va = VirtAddr(vpn << 12);
            match op {
                0 => {
                    let pte = Pte { valid: valid != 0, ..Pte::new(pfn, prot) };
                    linear.map(va, pte);
                    software.map(va, pte);
                    highest = highest.max(Some(vpn));
                }
                1 => prop_assert_eq!(linear.unmap(va), software.unmap(va)),
                _ => prop_assert_eq!(linear.protect(va, prot), software.protect(va, prot)),
            }
            prop_assert_eq!(linear.mapped_pages(), software.mapped_pages());
            prop_assert_eq!(linear.table_words(), highest.map_or(0, |v| v as usize + 1));
        }
        for &(_, vpn, ..) in &ops {
            for va in [VirtAddr(vpn << 12), VirtAddr((vpn << 12) | 0xfff)] {
                prop_assert_eq!(linear.translate(va), software.translate(va));
                prop_assert_eq!(linear.walk_mem_refs(va), 2);
            }
        }
    }
}

proptest! {
    /// Every page table: map then translate returns the mapped PTE for any
    /// address on the same page.
    #[test]
    fn map_translate_roundtrip(vpn in 0u32..0x000f_ffff, offset in 0u32..4096, pfn in 0u32..1_000_000, prot in arb_prot()) {
        let va = VirtAddr((vpn << 12) | offset);
        let pte = Pte::new(pfn, prot);
        let tables: Vec<Box<dyn PageTable>> = vec![
            Box::new(LinearPageTable::new(0, false)),
            Box::new(MultiLevelPageTable::new()),
            Box::new(SoftwarePageTable::new()),
        ];
        for mut table in tables {
            table.map(va, pte);
            let got = table.translate(VirtAddr(vpn << 12)).expect("mapped page must translate");
            prop_assert_eq!(got.pfn, pfn);
            prop_assert_eq!(got.prot, prot);
            prop_assert_eq!(table.mapped_pages(), 1);
        }
    }

    /// Unmap always erases exactly the mapped page and nothing else.
    #[test]
    fn unmap_erases_only_target(vpns in proptest::collection::btree_set(0u32..4096, 2..20)) {
        let mut table = SoftwarePageTable::new();
        let vpns: Vec<u32> = vpns.into_iter().collect();
        for &vpn in &vpns {
            table.map(VirtAddr(vpn << 12), Pte::new(vpn, Protection::RW));
        }
        let victim = vpns[0];
        table.unmap(VirtAddr(victim << 12));
        prop_assert!(table.translate(VirtAddr(victim << 12)).is_none());
        for &vpn in &vpns[1..] {
            prop_assert!(table.translate(VirtAddr(vpn << 12)).is_some());
        }
    }

    /// TLB occupancy never exceeds capacity, and inserted pages are findable
    /// until evicted.
    #[test]
    fn tlb_never_overflows(entries in 1usize..64, inserts in proptest::collection::vec((0u32..512, 0u16..4), 1..200)) {
        let mut tlb = Tlb::new(TlbConfig::tagged(entries));
        for (vpn, asid) in inserts {
            tlb.insert(TlbEntry { vpn, asid: Some(Asid(asid)), pte: Pte::new(vpn, Protection::RW), locked: false });
            prop_assert!(tlb.len() <= tlb.capacity());
        }
    }

    /// A TLB lookup that hits always returns what was most recently inserted
    /// for that (vpn, asid).
    #[test]
    fn tlb_hit_returns_latest(vpn in 0u32..64, pfns in proptest::collection::vec(0u32..10_000, 1..10)) {
        let mut tlb = Tlb::new(TlbConfig::tagged(8));
        for &pfn in &pfns {
            tlb.insert(TlbEntry { vpn, asid: Some(Asid(1)), pte: Pte::new(pfn, Protection::RW), locked: false });
        }
        let got = tlb.lookup(vpn, Asid(1)).expect("present");
        prop_assert_eq!(got.pfn, *pfns.last().unwrap());
    }

    /// Flushing an ASID removes all and only that ASID's entries.
    #[test]
    fn tlb_flush_asid_is_exact(pairs in proptest::collection::vec((0u32..256, 0u16..3), 1..32)) {
        let mut tlb = Tlb::new(TlbConfig::tagged(64));
        for &(vpn, asid) in &pairs {
            tlb.insert(TlbEntry { vpn, asid: Some(Asid(asid)), pte: Pte::new(vpn, Protection::RW), locked: false });
        }
        tlb.flush_asid(Asid(0));
        for &(vpn, asid) in &pairs {
            if asid == 0 {
                prop_assert!(tlb.probe(vpn, Asid(0)).is_none());
            }
        }
        // Entries of other spaces may or may not survive replacement, but no
        // asid-0 entry may remain anywhere.
        prop_assert_eq!(tlb.len(), tlb.len()); // sanity
    }

    /// The cache never holds two lines with the same (set, tag, asid).
    #[test]
    fn cache_no_duplicate_tags(addrs in proptest::collection::vec(0u32..0x10_0000, 1..200)) {
        let mut cache = Cache::new(CacheConfig::physical(4096, 16, WritePolicy::Through, 10));
        for addr in addrs {
            cache.access(addr, Asid(0), AccessKind::Read);
        }
        // Re-access any line: hits must be stable (a duplicate would make
        // occupancy exceed capacity).
        prop_assert!(cache.len() <= (4096 / 16) as usize);
    }

    /// Accessing the same address twice in a row always hits the second time
    /// (for a read-allocating configuration).
    #[test]
    fn cache_second_access_hits(addr in 0u32..0x100_0000) {
        let mut cache = Cache::new(CacheConfig::physical(8192, 16, WritePolicy::Back, 10));
        cache.access(addr, Asid(0), AccessKind::Read);
        let second = cache.access(addr, Asid(0), AccessKind::Read);
        prop_assert!(second.hit);
    }

    /// Write-buffer stall accounting is non-negative and bursts of stores to
    /// one page on a page-mode buffer never stall.
    #[test]
    fn writebuffer_page_mode_never_stalls_same_page(count in 1usize..200) {
        let mut wb = WriteBuffer::new(WriteBufferConfig::decstation_5000());
        for (now, i) in (0..count).enumerate() {
            let stall = wb.store(now as u64, 0x3000 + (i as u32 % 64) * 4);
            prop_assert_eq!(stall, 0);
        }
    }

    /// Total stall cycles are monotone in burst length for the 3100 buffer.
    #[test]
    fn writebuffer_stalls_monotone(len_a in 1usize..60, len_b in 1usize..60) {
        let run = |n: usize| {
            let mut wb = WriteBuffer::new(WriteBufferConfig::decstation_3100());
            let mut now = 0u64;
            for i in 0..n {
                let s = wb.store(now, i as u32 * 4);
                now += 1 + u64::from(s);
            }
            wb.total_stall_cycles()
        };
        let (short, long) = if len_a <= len_b { (len_a, len_b) } else { (len_b, len_a) };
        prop_assert!(run(short) <= run(long));
    }

    /// Protection display never panics and always renders three characters.
    #[test]
    fn protection_display_total(prot in arb_prot()) {
        prop_assert_eq!(format!("{prot}").len(), 3);
    }
}
