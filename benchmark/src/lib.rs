//! PerfLedger: the CampusLab benchmark. One command runs six workloads
//! end to end, checks their outputs and prints every metric by name; a
//! traced pass attributes wall-clock to each layer from spans recorded
//! around the benchmark's own calls into the crates' public functions.
//! See `README.md` beside this package for the definitions.

pub mod alloc;
pub mod harness;
pub mod manifest;
pub mod report;
pub mod scenarios;
pub mod trace;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;
