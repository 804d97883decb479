//! A Tofino-like switch resource model: fixed stages, bounded TCAM per
//! stage, bounded logical tables per stage. Quantifies the paper's §2
//! scale claim — the data plane is "not capable of supporting ... hundreds
//! or thousands of such tasks concurrently".
//!
//! The model is deliberately coarse (real ASIC allocation involves key
//! widths, action memories, and crossbar limits) but preserves the two
//! constraints that bind first in practice: total TCAM capacity and
//! stage/table slots.

use crate::program::PipelineProgram;

/// The switch's resource envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchModel {
    /// Match-action stages in the ingress pipeline.
    pub stages: usize,
    /// TCAM entries available per stage (at our ~85-bit key width).
    pub tcam_entries_per_stage: usize,
    /// Logical tables that can share one stage.
    pub max_tables_per_stage: usize,
}

impl Default for SwitchModel {
    fn default() -> Self {
        // Tofino-1-flavored: 12 ingress stages; a few thousand wide-key
        // TCAM entries per stage; 8 logical tables per stage.
        SwitchModel { stages: 12, tcam_entries_per_stage: 2048, max_tables_per_stage: 8 }
    }
}

/// Why a program set does not fit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResourceError {
    /// One program alone exceeds the whole pipeline's TCAM.
    ProgramTooLarge { name: String, entries: usize, capacity: usize },
    /// The set exceeds the stage/table slots.
    OutOfSlots { needed: usize, available: usize },
    /// The set exceeds total TCAM capacity.
    OutOfTcam { needed: usize, available: usize },
}

impl std::fmt::Display for ResourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResourceError::ProgramTooLarge { name, entries, capacity } => {
                write!(f, "program {name} needs {entries} TCAM entries; pipeline holds {capacity}")
            }
            ResourceError::OutOfSlots { needed, available } => {
                write!(f, "need {needed} table slots; switch has {available}")
            }
            ResourceError::OutOfTcam { needed, available } => {
                write!(f, "need {needed} TCAM entries; switch has {available}")
            }
        }
    }
}

impl std::error::Error for ResourceError {}

/// Footprint of one program after allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramFootprint {
    pub name: String,
    pub tcam_entries: usize,
    /// Stage-slots consumed: `ceil(entries / per-stage)`, minimum 1.
    pub stage_slots: usize,
}

/// A successful allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    pub programs: Vec<ProgramFootprint>,
    pub slots_used: usize,
    pub slots_available: usize,
    pub tcam_used: usize,
    pub tcam_available: usize,
}

impl Allocation {
    /// Fraction of table slots consumed.
    pub fn slot_utilization(&self) -> f64 {
        self.slots_used as f64 / self.slots_available.max(1) as f64
    }
}

impl SwitchModel {
    /// Total TCAM entries in the pipeline.
    pub fn total_tcam(&self) -> usize {
        self.stages * self.tcam_entries_per_stage
    }

    /// Total stage/table slots.
    pub fn total_slots(&self) -> usize {
        self.stages * self.max_tables_per_stage
    }

    /// Footprint of one program on this switch.
    pub fn footprint(&self, program: &PipelineProgram) -> ProgramFootprint {
        let entries = program.n_entries();
        ProgramFootprint {
            name: program.name.clone(),
            tcam_entries: entries,
            stage_slots: entries.div_ceil(self.tcam_entries_per_stage).max(1),
        }
    }

    /// Try to place a set of concurrent programs (tasks) on the switch.
    pub fn allocate(&self, programs: &[&PipelineProgram]) -> Result<Allocation, ResourceError> {
        let mut slots_used = 0usize;
        let mut tcam_used = 0usize;
        let mut footprints = Vec::with_capacity(programs.len());
        for p in programs {
            let fp = self.footprint(p);
            if fp.tcam_entries > self.total_tcam() {
                return Err(ResourceError::ProgramTooLarge {
                    name: fp.name,
                    entries: fp.tcam_entries,
                    capacity: self.total_tcam(),
                });
            }
            slots_used += fp.stage_slots;
            tcam_used += fp.tcam_entries;
            footprints.push(fp);
        }
        if slots_used > self.total_slots() {
            return Err(ResourceError::OutOfSlots {
                needed: slots_used,
                available: self.total_slots(),
            });
        }
        if tcam_used > self.total_tcam() {
            return Err(ResourceError::OutOfTcam {
                needed: tcam_used,
                available: self.total_tcam(),
            });
        }
        Ok(Allocation {
            programs: footprints,
            slots_used,
            slots_available: self.total_slots(),
            tcam_used,
            tcam_available: self.total_tcam(),
        })
    }

    /// How many copies of `program` fit concurrently — the experiment E6
    /// "how many automation tasks can this switch actually host" number.
    pub fn max_concurrent(&self, program: &PipelineProgram) -> usize {
        let fp = self.footprint(program);
        if fp.tcam_entries > self.total_tcam() {
            return 0;
        }
        let by_slots = self.total_slots() / fp.stage_slots.max(1);
        let by_tcam = self
            .total_tcam()
            .checked_div(fp.tcam_entries)
            .unwrap_or(usize::MAX);
        by_slots.min(by_tcam)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Action, TableEntry};

    fn program(name: &str, entries: usize) -> PipelineProgram {
        PipelineProgram::new(
            name,
            (0..entries)
                .map(|_| TableEntry::default_entry(Action::Drop))
                .collect(),
        )
    }

    #[test]
    fn small_programs_fit_many_times() {
        let sw = SwitchModel::default();
        let p = program("tiny", 50);
        // Bounded by slots: 96 slots, 1 slot each.
        assert_eq!(sw.max_concurrent(&p), 96);
        let refs: Vec<&PipelineProgram> = vec![&p; 96];
        assert!(sw.allocate(&refs).is_ok());
    }

    #[test]
    fn large_programs_hit_tcam_first() {
        let sw = SwitchModel::default();
        let p = program("big", 6_000); // 3 stage-slots, 6000 entries
        let max = sw.max_concurrent(&p);
        // TCAM bound: 24576 / 6000 = 4; slot bound: 96/3 = 32.
        assert_eq!(max, 4);
        let refs: Vec<&PipelineProgram> = vec![&p; 5];
        match sw.allocate(&refs) {
            Err(ResourceError::OutOfTcam { needed, available }) => {
                assert_eq!(needed, 30_000);
                assert_eq!(available, 24_576);
            }
            other => panic!("expected OutOfTcam, got {other:?}"),
        }
    }

    #[test]
    fn monster_program_is_rejected_alone() {
        let sw = SwitchModel::default();
        let p = program("monster", 30_000);
        assert_eq!(sw.max_concurrent(&p), 0);
        match sw.allocate(&[&p]) {
            Err(ResourceError::ProgramTooLarge { entries, capacity, .. }) => {
                assert_eq!(entries, 30_000);
                assert_eq!(capacity, 24_576);
            }
            other => panic!("expected ProgramTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn slot_exhaustion_with_many_small_tables() {
        let sw = SwitchModel { stages: 2, tcam_entries_per_stage: 1000, max_tables_per_stage: 2 };
        let p = program("t", 10);
        assert_eq!(sw.max_concurrent(&p), 4);
        let refs: Vec<&PipelineProgram> = vec![&p; 5];
        assert!(matches!(
            sw.allocate(&refs),
            Err(ResourceError::OutOfSlots { needed: 5, available: 4 })
        ));
    }

    #[test]
    fn allocation_reports_utilization() {
        let sw = SwitchModel::default();
        let p1 = program("a", 2048);
        let p2 = program("b", 100);
        let alloc = sw.allocate(&[&p1, &p2]).unwrap();
        assert_eq!(alloc.slots_used, 2);
        assert_eq!(alloc.tcam_used, 2_148);
        assert!(alloc.slot_utilization() > 0.0 && alloc.slot_utilization() < 1.0);
        assert_eq!(alloc.programs.len(), 2);
    }

    #[test]
    fn errors_render() {
        let e = ResourceError::OutOfSlots { needed: 5, available: 4 };
        assert!(e.to_string().contains("5"));
    }
}
