//! Allocation-count gate for inference: a tree's `predict` allocates
//! nothing, and a forest's `predict_proba` and `predict` allocate once per
//! row — the returned (or argmaxed) probability vector. The counting
//! allocator is process-wide, so this binary holds exactly one test.

use campuslab_ml::{Classifier, Dataset, DecisionTree, ForestConfig, RandomForest, TreeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocator calls that hand out memory (`alloc`, `alloc_zeroed`,
/// `realloc`). A statistic that publishes no other data, hence `Relaxed`.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Three classes over four integer-valued columns (packet-field-like ties),
/// the label a function of two of them plus a little noise.
fn dataset() -> Dataset {
    let mut s = 11u64;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        s >> 33
    };
    let (mut x, mut y) = (Vec::new(), Vec::new());
    for _ in 0..2_000 {
        let row: Vec<f64> = (0..4).map(|f| (next() % (4 + 20 * f)) as f64).collect();
        let noisy = next() % 10 == 0;
        y.push(if noisy { (next() % 3) as usize } else { usize::from(row[1] > 10.0) + usize::from(row[3] > 40.0) });
        x.push(row);
    }
    Dataset::new(x, y, (0..4).map(|f| format!("f{f}")).collect())
}

/// Allocations `infer` makes over all `rows`.
fn allocations(rows: &[Vec<f64>], infer: impl Fn(&[f64])) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for row in rows {
        infer(row);
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn inference_allocates_only_the_returned_vector() {
    let data = dataset();
    let tree = DecisionTree::fit(&data, TreeConfig::default());
    let forest = RandomForest::fit(&data, ForestConfig { n_trees: 12 });
    let rows = data.x.len() as u64;
    let tree_predict = allocations(&data.x, |row| {
        black_box(tree.predict(black_box(row)));
    });
    let forest_proba = allocations(&data.x, |row| {
        black_box(forest.predict_proba(black_box(row)));
    });
    let forest_predict = allocations(&data.x, |row| {
        black_box(forest.predict(black_box(row)));
    });
    println!(
        "allocations per row: DecisionTree::predict {}, RandomForest::predict_proba {}, \
         RandomForest::predict {}",
        tree_predict as f64 / rows as f64,
        forest_proba as f64 / rows as f64,
        forest_predict as f64 / rows as f64,
    );
    assert!(tree.n_nodes() > 3 && forest.total_nodes() > 12, "trivial models");
    assert_eq!(tree_predict, 0);
    assert_eq!(forest_proba, rows);
    assert_eq!(forest_predict, rows);
}
