//! Page tables: linear (VAX), multi-level (SPARC/Cypress), and software-managed (MIPS).
//!
//! Section 3.2 of the paper contrasts three organisations:
//!
//! * the VAX's **linear** page table, simple but "problematic" for sparse address
//!   spaces because the table must span the mapped range;
//! * the SPARC/Cypress **3-level** table whose terminal entries may appear at any
//!   level, mapping a contiguous super-page region with a single TLB entry;
//! * the MIPS **software-managed** scheme in which the architecture "does not
//!   dictate page table structure" at all — the OS refills the TLB itself.

use crate::addr::{VirtAddr, PAGE_SHIFT};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{BitAnd, BitOr};

/// The kind of access being performed, used for protection checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A data load.
    Read,
    /// A data store.
    Write,
    /// An instruction fetch.
    Execute,
}

/// Page protection bits.
///
/// A small hand-rolled flag set (the study predates anything fancier): combine
/// with `|`, test with [`Protection::allows`].
///
/// # Example
///
/// ```
/// use osarch_mem::{AccessKind, Protection};
/// let p = Protection::READ | Protection::EXECUTE;
/// assert!(p.allows(AccessKind::Read));
/// assert!(!p.allows(AccessKind::Write));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Protection(u8);

impl Protection {
    /// No access at all.
    pub const NONE: Protection = Protection(0);
    /// Load permission.
    pub const READ: Protection = Protection(1);
    /// Store permission.
    pub const WRITE: Protection = Protection(2);
    /// Instruction-fetch permission.
    pub const EXECUTE: Protection = Protection(4);
    /// Read + write.
    pub const RW: Protection = Protection(1 | 2);
    /// Read + execute.
    pub const RX: Protection = Protection(1 | 4);
    /// Read + write + execute.
    pub const RWX: Protection = Protection(1 | 2 | 4);

    /// Does this protection permit `kind` accesses?
    #[must_use]
    pub fn allows(self, kind: AccessKind) -> bool {
        let needed = match kind {
            AccessKind::Read => Protection::READ,
            AccessKind::Write => Protection::WRITE,
            AccessKind::Execute => Protection::EXECUTE,
        };
        self.0 & needed.0 == needed.0
    }

    /// Does this protection include every bit of `other`?
    #[must_use]
    pub fn contains(self, other: Protection) -> bool {
        self.0 & other.0 == other.0
    }

    /// True when no access is permitted.
    #[must_use]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for Protection {
    type Output = Protection;
    fn bitor(self, rhs: Protection) -> Protection {
        Protection(self.0 | rhs.0)
    }
}

impl BitAnd for Protection {
    type Output = Protection;
    fn bitand(self, rhs: Protection) -> Protection {
        Protection(self.0 & rhs.0)
    }
}

impl fmt::Display for Protection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = if self.contains(Protection::READ) {
            'r'
        } else {
            '-'
        };
        let w = if self.contains(Protection::WRITE) {
            'w'
        } else {
            '-'
        };
        let x = if self.contains(Protection::EXECUTE) {
            'x'
        } else {
            '-'
        };
        write!(f, "{r}{w}{x}")
    }
}

/// A page-table entry: the unit whose update cost Table 1 measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pte {
    /// Physical frame number the page maps to.
    pub pfn: u32,
    /// Access rights.
    pub prot: Protection,
    /// Whether the translation is valid (resident).
    pub valid: bool,
    /// Whether accesses to the page may be cached.
    pub cacheable: bool,
}

impl Pte {
    /// A valid, cacheable entry with the given frame and protection.
    #[must_use]
    pub fn new(pfn: u32, prot: Protection) -> Pte {
        Pte {
            pfn,
            prot,
            valid: true,
            cacheable: true,
        }
    }

    /// The same entry with different protection bits.
    #[must_use]
    pub fn with_prot(self, prot: Protection) -> Pte {
        Pte { prot, ..self }
    }
}

/// Which page-table organisation an architecture dictates (or doesn't).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageTableKind {
    /// VAX-style linear array indexed by virtual page number.
    Linear,
    /// SPARC/Cypress-style 3-level tree with super-page terminal entries.
    ThreeLevel,
    /// MIPS-style: the OS picks the structure and refills the TLB in software.
    SoftwareManaged,
}

impl fmt::Display for PageTableKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            PageTableKind::Linear => "linear",
            PageTableKind::ThreeLevel => "3-level",
            PageTableKind::SoftwareManaged => "software-managed",
        };
        f.write_str(text)
    }
}

/// Common interface over the three page-table organisations.
///
/// `walk_mem_refs` reports how many memory references a refill walk performs
/// for the given address — the quantity that decides TLB-miss latency.
pub trait PageTable: fmt::Debug {
    /// Look up the translation for `va`, if any.
    fn translate(&self, va: VirtAddr) -> Option<Pte>;
    /// Install (or replace) the translation for the page containing `va`.
    fn map(&mut self, va: VirtAddr, pte: Pte);
    /// Remove the translation for the page containing `va`, returning it.
    fn unmap(&mut self, va: VirtAddr) -> Option<Pte>;
    /// Change the protection of an existing translation. Returns `false` when
    /// no translation exists.
    fn protect(&mut self, va: VirtAddr, prot: Protection) -> bool;
    /// Memory references needed for a translation walk of `va`.
    fn walk_mem_refs(&self, va: VirtAddr) -> u32;
    /// Number of currently mapped pages.
    fn mapped_pages(&self) -> usize;
    /// The organisation this table implements.
    fn kind(&self) -> PageTableKind;
}

// ---------------------------------------------------------------------------
// Linear (VAX)
// ---------------------------------------------------------------------------

/// A VAX-style linear page table.
///
/// The VAX table is a contiguous array indexed by virtual page number, so
/// mapping a page far beyond the current extent grows it to span the whole
/// range — the sparse-address-space weakness Section 3.2 calls "problematic
/// on a linear page table system like the VAX". The model stores only the
/// mapped slots; [`LinearPageTable::table_words`] still reports the span a
/// VAX would allocate.
///
/// On the VAX, per-process tables themselves live in system virtual memory, so
/// a user-space walk costs two memory references; `extra_indirection` models
/// this.
#[derive(Debug, Clone)]
pub struct LinearPageTable {
    base_vpn: u32,
    entries: BTreeMap<usize, Pte>,
    span: usize,
    extra_indirection: bool,
}

impl LinearPageTable {
    /// A table covering pages starting at `base_vpn`, with VAX-style
    /// system-space indirection if `extra_indirection`.
    #[must_use]
    pub fn new(base_vpn: u32, extra_indirection: bool) -> LinearPageTable {
        LinearPageTable {
            base_vpn,
            entries: BTreeMap::new(),
            span: 0,
            extra_indirection,
        }
    }

    /// Words of table storage a VAX would have allocated (one word per slot
    /// up to the highest slot ever mapped) — the space cost of sparsity.
    #[must_use]
    pub fn table_words(&self) -> usize {
        self.span
    }

    fn slot(&self, va: VirtAddr) -> Option<usize> {
        let vpn = va.vpn();
        if vpn < self.base_vpn {
            return None;
        }
        Some((vpn - self.base_vpn) as usize)
    }
}

impl PageTable for LinearPageTable {
    fn translate(&self, va: VirtAddr) -> Option<Pte> {
        let idx = self.slot(va)?;
        self.entries.get(&idx).copied().filter(|pte| pte.valid)
    }

    fn map(&mut self, va: VirtAddr, pte: Pte) {
        let Some(idx) = self.slot(va) else {
            return;
        };
        self.span = self.span.max(idx + 1);
        self.entries.insert(idx, pte);
    }

    fn unmap(&mut self, va: VirtAddr) -> Option<Pte> {
        let idx = self.slot(va)?;
        self.entries.remove(&idx)
    }

    fn protect(&mut self, va: VirtAddr, prot: Protection) -> bool {
        let Some(idx) = self.slot(va) else {
            return false;
        };
        match self.entries.get_mut(&idx) {
            Some(pte) => {
                *pte = pte.with_prot(prot);
                true
            }
            None => false,
        }
    }

    fn walk_mem_refs(&self, _va: VirtAddr) -> u32 {
        if self.extra_indirection {
            2
        } else {
            1
        }
    }

    fn mapped_pages(&self) -> usize {
        self.entries.len()
    }

    fn kind(&self) -> PageTableKind {
        PageTableKind::Linear
    }
}

// ---------------------------------------------------------------------------
// Three-level (SPARC / Cypress)
// ---------------------------------------------------------------------------

/// Fan-out of each level of the SPARC/Cypress table: 256 first-level entries
/// (16 MB regions), 64 second-level (256 KB regions), 64 third-level (4 KB pages).
pub const SPARC_LEVEL_FANOUT: [usize; 3] = [256, 64, 64];

#[derive(Debug, Clone)]
enum Node {
    /// An interior pointer table.
    Table(Vec<Option<Node>>),
    /// A terminal entry mapping everything below this point.
    Leaf(Pte),
}

/// A SPARC/Cypress-style three-level page table.
///
/// A terminal entry found at the first or second level maps an entire 16 MB or
/// 256 KB region with a single PTE, so "a single TLB entry can be used to hold
/// the mapping for this entire region" (Section 3.2). Install such regions
/// with [`MultiLevelPageTable::map_region`].
#[derive(Debug, Clone)]
pub struct MultiLevelPageTable {
    root: Vec<Option<Node>>,
    mapped: usize,
}

impl MultiLevelPageTable {
    /// An empty three-level table.
    #[must_use]
    pub fn new() -> MultiLevelPageTable {
        MultiLevelPageTable {
            root: vec![None; SPARC_LEVEL_FANOUT[0]],
            mapped: 0,
        }
    }

    /// Bits of address below each level's coverage: level 0 entries cover
    /// 16 MB (24 bits), level 1 entries 256 KB (18 bits), level 2 pages (12).
    const LEVEL_SHIFT: [u32; 3] = [24, 18, PAGE_SHIFT];

    fn indices(va: VirtAddr) -> [usize; 3] {
        let raw = va.0;
        [
            (raw >> Self::LEVEL_SHIFT[0]) as usize % SPARC_LEVEL_FANOUT[0],
            (raw >> Self::LEVEL_SHIFT[1]) as usize % SPARC_LEVEL_FANOUT[1],
            (raw >> Self::LEVEL_SHIFT[2]) as usize % SPARC_LEVEL_FANOUT[2],
        ]
    }

    /// Install a terminal entry at `level` (0 = 16 MB region, 1 = 256 KB
    /// region, 2 = single page), mapping the whole region containing `va`.
    ///
    /// Any finer-grained mappings under the region are replaced.
    pub fn map_region(&mut self, va: VirtAddr, pte: Pte, level: usize) {
        assert!(level < 3, "level must be 0, 1 or 2");
        let idx = Self::indices(va);
        let slot0 = &mut self.root[idx[0]];
        if level == 0 {
            *slot0 = Some(Node::Leaf(pte));
            self.mapped += 1;
            return;
        }
        let table1 = match slot0 {
            Some(Node::Table(t)) => t,
            _ => {
                *slot0 = Some(Node::Table(vec![None; SPARC_LEVEL_FANOUT[1]]));
                match slot0 {
                    Some(Node::Table(t)) => t,
                    _ => unreachable!(),
                }
            }
        };
        let slot1 = &mut table1[idx[1]];
        if level == 1 {
            *slot1 = Some(Node::Leaf(pte));
            self.mapped += 1;
            return;
        }
        let table2 = match slot1 {
            Some(Node::Table(t)) => t,
            _ => {
                *slot1 = Some(Node::Table(vec![None; SPARC_LEVEL_FANOUT[2]]));
                match slot1 {
                    Some(Node::Table(t)) => t,
                    _ => unreachable!(),
                }
            }
        };
        if table2[idx[2]].is_none() {
            self.mapped += 1;
        }
        table2[idx[2]] = Some(Node::Leaf(pte));
    }

    /// Depth at which a walk for `va` terminates (1..=3), or `None` if unmapped.
    #[must_use]
    pub fn walk_depth(&self, va: VirtAddr) -> Option<u32> {
        let idx = Self::indices(va);
        match self.root[idx[0]].as_ref()? {
            Node::Leaf(_) => Some(1),
            Node::Table(t1) => match t1[idx[1]].as_ref()? {
                Node::Leaf(_) => Some(2),
                Node::Table(t2) => match t2[idx[2]].as_ref()? {
                    Node::Leaf(_) => Some(3),
                    Node::Table(_) => None,
                },
            },
        }
    }

    fn leaf_mut(&mut self, va: VirtAddr) -> Option<&mut Pte> {
        let idx = Self::indices(va);
        match self.root[idx[0]].as_mut()? {
            Node::Leaf(pte) => Some(pte),
            Node::Table(t1) => match t1[idx[1]].as_mut()? {
                Node::Leaf(pte) => Some(pte),
                Node::Table(t2) => match t2[idx[2]].as_mut()? {
                    Node::Leaf(pte) => Some(pte),
                    Node::Table(_) => None,
                },
            },
        }
    }
}

impl Default for MultiLevelPageTable {
    fn default() -> Self {
        MultiLevelPageTable::new()
    }
}

impl PageTable for MultiLevelPageTable {
    fn translate(&self, va: VirtAddr) -> Option<Pte> {
        let idx = Self::indices(va);
        let pte = match self.root[idx[0]].as_ref()? {
            Node::Leaf(pte) => *pte,
            Node::Table(t1) => match t1[idx[1]].as_ref()? {
                Node::Leaf(pte) => *pte,
                Node::Table(t2) => match t2[idx[2]].as_ref()? {
                    Node::Leaf(pte) => *pte,
                    Node::Table(_) => return None,
                },
            },
        };
        pte.valid.then_some(pte)
    }

    fn map(&mut self, va: VirtAddr, pte: Pte) {
        self.map_region(va, pte, 2);
    }

    fn unmap(&mut self, va: VirtAddr) -> Option<Pte> {
        let idx = Self::indices(va);
        let slot0 = self.root[idx[0]].as_mut()?;
        match slot0 {
            Node::Leaf(pte) => {
                let old = *pte;
                self.root[idx[0]] = None;
                self.mapped -= 1;
                Some(old)
            }
            Node::Table(t1) => {
                let slot1 = t1[idx[1]].as_mut()?;
                match slot1 {
                    Node::Leaf(pte) => {
                        let old = *pte;
                        t1[idx[1]] = None;
                        self.mapped -= 1;
                        Some(old)
                    }
                    Node::Table(t2) => {
                        let old = match t2[idx[2]].take()? {
                            Node::Leaf(pte) => pte,
                            Node::Table(_) => return None,
                        };
                        self.mapped -= 1;
                        Some(old)
                    }
                }
            }
        }
    }

    fn protect(&mut self, va: VirtAddr, prot: Protection) -> bool {
        match self.leaf_mut(va) {
            Some(pte) => {
                *pte = pte.with_prot(prot);
                true
            }
            None => false,
        }
    }

    fn walk_mem_refs(&self, va: VirtAddr) -> u32 {
        // A miss walk reads one descriptor per level traversed; an unmapped
        // address still walks to the point of failure (assume full depth).
        self.walk_depth(va).unwrap_or(3)
    }

    fn mapped_pages(&self) -> usize {
        self.mapped
    }

    fn kind(&self) -> PageTableKind {
        PageTableKind::ThreeLevel
    }
}

// ---------------------------------------------------------------------------
// Software-managed (MIPS)
// ---------------------------------------------------------------------------

/// An operating-system-chosen page table for software-refilled TLBs.
///
/// "The operating system is free to choose whatever page table structure it
/// likes" (Section 3.2); we choose an ordered map, which handles sparse
/// address spaces gracefully — the advantage the paper credits to the MIPS
/// design.
#[derive(Debug, Clone, Default)]
pub struct SoftwarePageTable {
    entries: BTreeMap<u32, Pte>,
    /// Memory references charged per refill lookup.
    lookup_refs: u32,
}

impl SoftwarePageTable {
    /// An empty table charging two memory references per refill lookup (a
    /// hash/probe plus the entry itself).
    #[must_use]
    pub fn new() -> SoftwarePageTable {
        SoftwarePageTable {
            entries: BTreeMap::new(),
            lookup_refs: 2,
        }
    }

    /// An empty table with an explicit per-lookup memory-reference charge.
    #[must_use]
    pub fn with_lookup_refs(lookup_refs: u32) -> SoftwarePageTable {
        SoftwarePageTable {
            entries: BTreeMap::new(),
            lookup_refs,
        }
    }
}

impl PageTable for SoftwarePageTable {
    fn translate(&self, va: VirtAddr) -> Option<Pte> {
        self.entries.get(&va.vpn()).copied().filter(|pte| pte.valid)
    }

    fn map(&mut self, va: VirtAddr, pte: Pte) {
        self.entries.insert(va.vpn(), pte);
    }

    fn unmap(&mut self, va: VirtAddr) -> Option<Pte> {
        self.entries.remove(&va.vpn())
    }

    fn protect(&mut self, va: VirtAddr, prot: Protection) -> bool {
        match self.entries.get_mut(&va.vpn()) {
            Some(pte) => {
                *pte = pte.with_prot(prot);
                true
            }
            None => false,
        }
    }

    fn walk_mem_refs(&self, _va: VirtAddr) -> u32 {
        self.lookup_refs
    }

    fn mapped_pages(&self) -> usize {
        self.entries.len()
    }

    fn kind(&self) -> PageTableKind {
        PageTableKind::SoftwareManaged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pte(pfn: u32) -> Pte {
        Pte::new(pfn, Protection::RW)
    }

    #[test]
    fn protection_allows_matches_bits() {
        assert!(Protection::RWX.allows(AccessKind::Execute));
        assert!(!Protection::READ.allows(AccessKind::Write));
        assert!(Protection::NONE.is_none());
        assert_eq!(format!("{}", Protection::RX), "r-x");
    }

    #[test]
    fn linear_map_translate_roundtrip() {
        let mut table = LinearPageTable::new(0, false);
        table.map(VirtAddr(0x3000), pte(7));
        assert_eq!(table.translate(VirtAddr(0x3abc)).unwrap().pfn, 7);
        assert_eq!(table.translate(VirtAddr(0x4000)), None);
        assert_eq!(table.mapped_pages(), 1);
    }

    #[test]
    fn linear_table_grows_with_sparsity() {
        let mut table = LinearPageTable::new(0, false);
        table.map(VirtAddr(0x1000), pte(1));
        let small = table.table_words();
        table.map(VirtAddr(0x0100_0000), pte(2));
        assert!(
            table.table_words() > small * 100,
            "sparse mapping must balloon a linear table"
        );
    }

    #[test]
    fn linear_table_words_report_the_vax_span() {
        let mut table = LinearPageTable::new(0, false);
        table.map(VirtAddr(0x8000_2000), pte(1));
        assert_eq!(table.table_words(), 0x80003);
        assert_eq!(table.mapped_pages(), 1);
        table.unmap(VirtAddr(0x8000_2000));
        assert_eq!(table.table_words(), 0x80003, "a VAX table never shrinks");
    }

    #[test]
    fn linear_indirection_doubles_walk_cost() {
        let direct = LinearPageTable::new(0, false);
        let indirect = LinearPageTable::new(0, true);
        assert_eq!(direct.walk_mem_refs(VirtAddr(0)), 1);
        assert_eq!(indirect.walk_mem_refs(VirtAddr(0)), 2);
    }

    #[test]
    fn linear_unmap_and_protect() {
        let mut table = LinearPageTable::new(0, false);
        table.map(VirtAddr(0x1000), pte(1));
        assert!(table.protect(VirtAddr(0x1000), Protection::READ));
        assert_eq!(
            table.translate(VirtAddr(0x1000)).unwrap().prot,
            Protection::READ
        );
        assert!(table.unmap(VirtAddr(0x1000)).is_some());
        assert_eq!(table.translate(VirtAddr(0x1000)), None);
        assert!(!table.protect(VirtAddr(0x1000), Protection::RW));
    }

    #[test]
    fn linear_rejects_below_base() {
        let mut table = LinearPageTable::new(0x100, false);
        table.map(VirtAddr(0x1000), pte(1)); // vpn 1 < base 0x100: ignored
        assert_eq!(table.mapped_pages(), 0);
        assert_eq!(table.translate(VirtAddr(0x1000)), None);
    }

    #[test]
    fn three_level_page_mapping_walks_full_depth() {
        let mut table = MultiLevelPageTable::new();
        table.map(VirtAddr(0x0123_4000), pte(9));
        assert_eq!(table.walk_depth(VirtAddr(0x0123_4000)), Some(3));
        assert_eq!(table.walk_mem_refs(VirtAddr(0x0123_4000)), 3);
        assert_eq!(table.translate(VirtAddr(0x0123_4fff)).unwrap().pfn, 9);
    }

    #[test]
    fn three_level_superpage_shortens_walk() {
        let mut table = MultiLevelPageTable::new();
        // Terminal entry at level 1 maps a 256 KB region.
        table.map_region(VirtAddr(0x0200_0000), pte(11), 1);
        assert_eq!(table.walk_depth(VirtAddr(0x0200_0000)), Some(2));
        // Every page of the 256 KB region resolves through the one entry.
        assert_eq!(table.translate(VirtAddr(0x0203_f000)).unwrap().pfn, 11);
        // Outside the region: unmapped.
        assert_eq!(table.translate(VirtAddr(0x0204_0000)), None);
    }

    #[test]
    fn three_level_region_at_top_level() {
        let mut table = MultiLevelPageTable::new();
        table.map_region(VirtAddr(0x1000_0000), pte(5), 0);
        assert_eq!(table.walk_depth(VirtAddr(0x10ff_f000)), Some(1));
        assert_eq!(table.translate(VirtAddr(0x10ff_f000)).unwrap().pfn, 5);
    }

    #[test]
    fn three_level_unmap_and_protect() {
        let mut table = MultiLevelPageTable::new();
        table.map(VirtAddr(0x5000), pte(3));
        assert!(table.protect(VirtAddr(0x5000), Protection::READ));
        assert_eq!(
            table.translate(VirtAddr(0x5000)).unwrap().prot,
            Protection::READ
        );
        assert_eq!(table.unmap(VirtAddr(0x5000)).unwrap().pfn, 3);
        assert_eq!(table.translate(VirtAddr(0x5000)), None);
        assert_eq!(table.mapped_pages(), 0);
    }

    #[test]
    fn software_table_handles_sparse_spaces_cheaply() {
        let mut table = SoftwarePageTable::new();
        table.map(VirtAddr(0x1000), pte(1));
        table.map(VirtAddr(0xf000_0000), pte(2));
        assert_eq!(table.mapped_pages(), 2);
        assert_eq!(table.walk_mem_refs(VirtAddr(0xf000_0000)), 2);
        assert_eq!(table.translate(VirtAddr(0xf000_0123)).unwrap().pfn, 2);
    }

    #[test]
    fn invalid_pte_does_not_translate() {
        let mut table = SoftwarePageTable::new();
        let mut entry = pte(1);
        entry.valid = false;
        table.map(VirtAddr(0x1000), entry);
        assert_eq!(table.translate(VirtAddr(0x1000)), None);
    }

    #[test]
    fn kinds_are_reported() {
        assert_eq!(LinearPageTable::new(0, false).kind(), PageTableKind::Linear);
        assert_eq!(MultiLevelPageTable::new().kind(), PageTableKind::ThreeLevel);
        assert_eq!(
            SoftwarePageTable::new().kind(),
            PageTableKind::SoftwareManaged
        );
        assert_eq!(format!("{}", PageTableKind::ThreeLevel), "3-level");
    }
}
