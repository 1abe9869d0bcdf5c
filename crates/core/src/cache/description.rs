//! Cache descriptions: the index over cached query regions.
//!
//! The paper compares two implementations — a flat array scanned linearly
//! ("ACNR") and an R-tree ("ACR") — and finds they perform about the same
//! at about 1,000 regions, with the array winning on maintenance cost.
//! Both live behind one trait so the proxy (and the benchmarks) can swap
//! them. The R-tree is the serving default: every request probes the
//! description, and the array's scan grows linearly with it, while the
//! R-tree's costlier maintenance runs only when an entry is inserted or
//! removed. The sweep over 10²–10⁶ regions is `cargo bench -p fp-bench
//! --bench description`.

use fp_geometry::HyperRect;
use fp_rtree::RTree;

/// Index over the bounding boxes of cached query regions.
///
/// `candidates` must return a superset of the entries whose *regions*
/// relate to the probe (bounding boxes over-approximate regions); the
/// caller re-checks candidates with exact region tests.
pub trait CacheDescription: Send {
    /// Adds an entry.
    fn insert(&mut self, id: u64, bbox: HyperRect);
    /// Removes an entry; returns whether it was present.
    fn remove(&mut self, id: u64, bbox: &HyperRect) -> bool;
    /// Appends ids whose bounding box intersects `bbox` to `out`.
    fn candidates(&self, bbox: &HyperRect, out: &mut Vec<u64>);
    /// Number of indexed entries.
    fn len(&self) -> usize;
    /// Whether the description is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Implementation name for metrics ("array" / "rtree").
    fn kind(&self) -> DescriptionKind;
}

/// Which description implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescriptionKind {
    /// Flat array with linear scans — the paper's "ACNR".
    Array,
    /// R-tree — the paper's "ACR".
    RTree,
}

impl DescriptionKind {
    /// Creates an empty description of this kind for `dims`-dimensional
    /// regions.
    pub fn make(self, dims: usize) -> Box<dyn CacheDescription> {
        match self {
            DescriptionKind::Array => Box::new(ArrayDescription::new()),
            DescriptionKind::RTree => Box::new(RTreeDescription::new(dims)),
        }
    }
}

impl std::fmt::Display for DescriptionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DescriptionKind::Array => "array",
            DescriptionKind::RTree => "rtree",
        })
    }
}

/// The linear-scan description ("ACNR").
#[derive(Debug, Default)]
pub struct ArrayDescription {
    entries: Vec<(u64, HyperRect)>,
}

impl ArrayDescription {
    /// An empty array description.
    pub fn new() -> Self {
        ArrayDescription::default()
    }
}

impl CacheDescription for ArrayDescription {
    fn insert(&mut self, id: u64, bbox: HyperRect) {
        self.entries.push((id, bbox));
    }

    fn remove(&mut self, id: u64, _bbox: &HyperRect) -> bool {
        match self.entries.iter().position(|(e, _)| *e == id) {
            Some(i) => {
                self.entries.swap_remove(i);
                true
            }
            None => false,
        }
    }

    fn candidates(&self, bbox: &HyperRect, out: &mut Vec<u64>) {
        for (id, r) in &self.entries {
            if r.intersects_rect(bbox) {
                out.push(*id);
            }
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn kind(&self) -> DescriptionKind {
        DescriptionKind::Array
    }
}

/// The R-tree description ("ACR").
#[derive(Debug)]
pub struct RTreeDescription {
    tree: RTree<u64>,
}

impl RTreeDescription {
    /// An empty R-tree description.
    pub fn new(dims: usize) -> Self {
        RTreeDescription {
            tree: RTree::new(dims),
        }
    }
}

impl CacheDescription for RTreeDescription {
    fn insert(&mut self, id: u64, bbox: HyperRect) {
        self.tree.insert(bbox, id);
    }

    fn remove(&mut self, id: u64, bbox: &HyperRect) -> bool {
        self.tree.remove_one(bbox, |v| *v == id).is_some()
    }

    fn candidates(&self, bbox: &HyperRect, out: &mut Vec<u64>) {
        for (_, id) in self.tree.search_intersecting(bbox) {
            out.push(*id);
        }
    }

    fn len(&self) -> usize {
        self.tree.len()
    }

    fn kind(&self) -> DescriptionKind {
        DescriptionKind::RTree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: f64, hi: f64) -> HyperRect {
        HyperRect::new(vec![lo, lo], vec![hi, hi]).unwrap()
    }

    fn exercise(mut d: Box<dyn CacheDescription>) {
        assert!(d.is_empty());
        d.insert(1, rect(0.0, 1.0));
        d.insert(2, rect(5.0, 6.0));
        d.insert(3, rect(0.5, 5.5));
        assert_eq!(d.len(), 3);

        let mut out = Vec::new();
        d.candidates(&rect(0.8, 0.9), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![1, 3]);

        assert!(d.remove(3, &rect(0.5, 5.5)));
        assert!(!d.remove(3, &rect(0.5, 5.5)));
        out.clear();
        d.candidates(&rect(0.8, 0.9), &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn array_description_contract() {
        exercise(DescriptionKind::Array.make(2));
    }

    #[test]
    fn rtree_description_contract() {
        exercise(DescriptionKind::RTree.make(2));
    }

    #[test]
    fn kinds_report_themselves() {
        assert_eq!(
            DescriptionKind::Array.make(3).kind(),
            DescriptionKind::Array
        );
        assert_eq!(
            DescriptionKind::RTree.make(3).kind(),
            DescriptionKind::RTree
        );
        assert_eq!(DescriptionKind::Array.to_string(), "array");
        assert_eq!(DescriptionKind::RTree.to_string(), "rtree");
    }

    #[test]
    fn implementations_agree_on_random_workload() {
        let mut array = DescriptionKind::Array.make(2);
        let mut rtree = DescriptionKind::RTree.make(2);
        // Deterministic pseudo-random boxes.
        let mut state = 12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) * 100.0
        };
        let mut boxes = Vec::new();
        for id in 0..200u64 {
            let lo = next();
            let r = HyperRect::new(vec![lo, lo], vec![lo + 1.0 + next() * 0.1, lo + 1.5]).unwrap();
            array.insert(id, r.clone());
            rtree.insert(id, r.clone());
            boxes.push((id, r));
        }
        for probe in 0..50 {
            let lo = probe as f64 * 2.0;
            let window = HyperRect::new(vec![lo, lo], vec![lo + 3.0, lo + 3.0]).unwrap();
            let mut a = Vec::new();
            let mut b = Vec::new();
            array.candidates(&window, &mut a);
            rtree.candidates(&window, &mut b);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "probe {probe}");
        }
    }
}
