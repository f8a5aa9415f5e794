//! Simulator configuration (the machine columns of Table I).

use msp_branch::PredictorKind;
use msp_isa::FuClass;
use msp_mem::MemoryConfig;
use msp_state::MspConfig;

/// Which state-management architecture the simulated machine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineKind {
    /// Conventional ROB-based out-of-order core (Table I "Baseline").
    Baseline,
    /// Checkpoint Processing and Recovery (Table I "CPR") with the given
    /// number of physical registers per class.
    Cpr {
        /// Integer (= floating-point) physical register file size.
        regs_per_class: usize,
    },
    /// The Multi-State Processor with `n` physical registers per logical
    /// register (Table I "n-SP"), including the arbitration stage.
    Msp {
        /// Physical registers per logical-register bank.
        regs_per_bank: usize,
    },
    /// The ideal MSP: unbounded register banks, unbounded store queue,
    /// 0-cycle LCS propagation and no arbitration stage.
    IdealMsp,
}

impl MachineKind {
    /// The paper's CPR configuration (192 integer + 192 fp registers).
    pub fn cpr() -> Self {
        MachineKind::Cpr {
            regs_per_class: 192,
        }
    }

    /// The `n-SP` MSP configuration.
    pub fn msp(n: usize) -> Self {
        MachineKind::Msp { regs_per_bank: n }
    }

    /// A short label for tables and figures (e.g. `"16-SP"`).
    pub fn label(&self) -> String {
        match self {
            MachineKind::Baseline => "Baseline".to_string(),
            MachineKind::Cpr { regs_per_class } if *regs_per_class == 192 => "CPR".to_string(),
            MachineKind::Cpr { regs_per_class } => format!("CPR-{regs_per_class}"),
            MachineKind::Msp { regs_per_bank } => format!("{regs_per_bank}-SP"),
            MachineKind::IdealMsp => "ideal MSP".to_string(),
        }
    }
}

impl std::fmt::Display for MachineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Pipeline widths and front-end depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendConfig {
    /// Instructions fetched per cycle (Table I: 3).
    pub fetch_width: usize,
    /// Instructions renamed/dispatched per cycle (Table I: 3).
    pub rename_width: usize,
    /// Instructions issued to functional units per cycle (Table I: 5).
    pub issue_width: usize,
    /// Instructions retired per cycle for the ROB baseline (Table I: 3).
    pub retire_width: usize,
    /// Cycles from fetch to rename (front-end depth). The MSP adds one extra
    /// arbitration stage on top of this.
    pub frontend_depth: u64,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            fetch_width: 3,
            rename_width: 3,
            issue_width: 5,
            retire_width: 3,
            frontend_depth: 4,
        }
    }
}

/// Capacity limits of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceConfig {
    /// Issue-queue entries (48 baseline, 128 CPR/MSP).
    pub iq_size: usize,
    /// Re-order buffer entries (baseline only).
    pub rob_size: usize,
    /// Load-queue entries.
    pub lq_size: usize,
    /// First-level store-queue entries.
    pub sq_l1_size: usize,
    /// Second-level store-queue entries (0 = no second level).
    pub sq_l2_size: usize,
    /// Extra scan latency of the second-level store queue.
    pub sq_l2_scan_latency: u64,
    /// Physical registers per class for Baseline/CPR (per logical register
    /// for the MSP, carried in [`MachineKind`] instead).
    pub regs_per_class: usize,
    /// Maximum in-flight checkpoints (CPR only).
    pub checkpoints: usize,
    /// Maximum instructions between consecutive CPR checkpoints.
    pub max_insts_per_checkpoint: u64,
    /// Number of integer ALUs (Table I: 4).
    pub int_units: usize,
    /// Number of floating-point units (Table I: 4).
    pub fp_units: usize,
    /// Number of load/store units (Table I: 2).
    pub ldst_units: usize,
}

impl Default for ResourceConfig {
    fn default() -> Self {
        ResourceConfig {
            iq_size: 128,
            rob_size: 128,
            lq_size: 48,
            sq_l1_size: 48,
            sq_l2_size: 256,
            sq_l2_scan_latency: 4,
            regs_per_class: 192,
            checkpoints: 8,
            max_insts_per_checkpoint: 256,
            int_units: 4,
            fp_units: 4,
            ldst_units: 2,
        }
    }
}

/// Execution latencies per functional-unit class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Simple integer operations.
    pub int_alu: u64,
    /// Integer multiply/divide.
    pub int_mul: u64,
    /// Floating-point add/sub/convert/compare.
    pub fp_alu: u64,
    /// Floating-point multiply.
    pub fp_mul: u64,
    /// Floating-point divide.
    pub fp_div: u64,
    /// Branch resolution.
    pub branch: u64,
    /// Address generation for loads/stores (cache latency is added on top).
    pub agen: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            int_alu: 1,
            int_mul: 3,
            fp_alu: 2,
            fp_mul: 4,
            fp_div: 12,
            branch: 1,
            agen: 1,
        }
    }
}

impl LatencyConfig {
    /// The execution latency (excluding memory) for a functional-unit class.
    pub fn for_class(&self, class: FuClass) -> u64 {
        match class {
            FuClass::IntAlu => self.int_alu,
            FuClass::IntMul => self.int_mul,
            FuClass::FpAlu => self.fp_alu,
            FuClass::FpMul => self.fp_mul,
            FuClass::FpDiv => self.fp_div,
            FuClass::Branch => self.branch,
            FuClass::Mem => self.agen,
        }
    }
}

/// Full configuration of one simulated machine.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Which state-management architecture to simulate.
    pub machine: MachineKind,
    /// Direction predictor (gshare or TAGE, Table I).
    pub predictor: PredictorKind,
    /// Pipeline widths and depth.
    pub frontend: FrontendConfig,
    /// Capacity limits.
    pub resources: ResourceConfig,
    /// Functional-unit latencies.
    pub latency: LatencyConfig,
    /// Cache hierarchy configuration.
    pub memory: MemoryConfig,
    /// LCS propagation delay override for MSP machines (None = Table I value:
    /// 1 cycle for n-SP, 0 for ideal MSP).
    pub lcs_delay: Option<usize>,
    /// Maximum renamings of the same logical register per cycle (MSP,
    /// Section 3.3; default 2).
    pub max_same_reg_renames: usize,
    /// Whether the MSP pays the extra arbitration pipeline stage and models
    /// bank-port conflicts (true for n-SP, false for ideal MSP).
    pub arbitration: bool,
}

impl SimConfig {
    /// Builds the Table I configuration for `machine` with `predictor`.
    pub fn machine(machine: MachineKind, predictor: PredictorKind) -> Self {
        let mut resources = ResourceConfig::default();
        let mut arbitration = false;
        match machine {
            MachineKind::Baseline => {
                resources.iq_size = 48;
                resources.rob_size = 128;
                resources.regs_per_class = 96;
                resources.sq_l1_size = 24;
                resources.sq_l2_size = 0;
                resources.checkpoints = 0;
            }
            MachineKind::Cpr { regs_per_class } => {
                resources.iq_size = 128;
                resources.regs_per_class = regs_per_class;
                resources.sq_l1_size = 48;
                resources.sq_l2_size = 256;
                resources.checkpoints = 8;
            }
            MachineKind::Msp { .. } => {
                resources.iq_size = 128;
                resources.sq_l1_size = 48;
                resources.sq_l2_size = 256;
                resources.checkpoints = 0;
                arbitration = true;
            }
            MachineKind::IdealMsp => {
                resources.iq_size = 128;
                resources.sq_l1_size = 1 << 20;
                resources.sq_l2_size = 1 << 20;
                resources.sq_l2_scan_latency = 0;
                resources.lq_size = 48;
                resources.checkpoints = 0;
            }
        }
        SimConfig {
            machine,
            predictor,
            frontend: FrontendConfig::default(),
            resources,
            latency: LatencyConfig::default(),
            memory: MemoryConfig::paper(),
            lcs_delay: None,
            max_same_reg_renames: 2,
            arbitration,
        }
    }

    /// The front-end redirect depth in cycles (mispredicted branches pay this
    /// before corrected-path instructions reach rename): the base front-end
    /// depth plus one cycle for the MSP's arbitration stage.
    pub fn frontend_delay(&self) -> u64 {
        self.frontend.frontend_depth + if self.arbitration { 1 } else { 0 }
    }

    /// The MSP state-manager configuration implied by this machine
    /// (panics if the machine is not an MSP variant).
    pub fn msp_config(&self) -> MspConfig {
        match self.machine {
            MachineKind::Msp { regs_per_bank } => MspConfig {
                regs_per_bank,
                iq_size: self.resources.iq_size,
                lcs_delay: self.lcs_delay.unwrap_or(1),
                ..MspConfig::default()
            },
            MachineKind::IdealMsp => MspConfig {
                iq_size: self.resources.iq_size,
                lcs_delay: self.lcs_delay.unwrap_or(0),
                ..MspConfig::ideal()
            },
            _ => panic!("msp_config requested for a non-MSP machine"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_columns_are_reproduced() {
        let baseline = SimConfig::machine(MachineKind::Baseline, PredictorKind::Gshare);
        assert_eq!(baseline.resources.iq_size, 48);
        assert_eq!(baseline.resources.rob_size, 128);
        assert_eq!(baseline.resources.regs_per_class, 96);
        assert_eq!(baseline.resources.sq_l1_size, 24);
        assert!(!baseline.arbitration);

        let cpr = SimConfig::machine(MachineKind::cpr(), PredictorKind::Tage);
        assert_eq!(cpr.resources.iq_size, 128);
        assert_eq!(cpr.resources.regs_per_class, 192);
        assert_eq!(cpr.resources.checkpoints, 8);
        assert_eq!(cpr.resources.sq_l2_size, 256);

        let msp = SimConfig::machine(MachineKind::msp(16), PredictorKind::Gshare);
        assert!(msp.arbitration);
        assert_eq!(msp.msp_config().regs_per_bank, 16);
        assert_eq!(msp.msp_config().lcs_delay, 1);
        assert_eq!(msp.frontend_delay(), 5, "arbitration adds a stage");

        let ideal = SimConfig::machine(MachineKind::IdealMsp, PredictorKind::Tage);
        assert!(!ideal.arbitration);
        assert_eq!(ideal.msp_config().lcs_delay, 0);
        assert!(ideal.msp_config().regs_per_bank >= 4096);
        assert_eq!(ideal.frontend_delay(), 4);
    }

    #[test]
    fn labels_match_the_papers_names() {
        assert_eq!(MachineKind::Baseline.label(), "Baseline");
        assert_eq!(MachineKind::cpr().label(), "CPR");
        assert_eq!(
            MachineKind::Cpr {
                regs_per_class: 256
            }
            .label(),
            "CPR-256"
        );
        assert_eq!(MachineKind::msp(16).label(), "16-SP");
        assert_eq!(MachineKind::IdealMsp.label(), "ideal MSP");
        assert_eq!(MachineKind::msp(8).to_string(), "8-SP");
    }

    #[test]
    fn latency_lookup_covers_all_classes() {
        let lat = LatencyConfig::default();
        assert_eq!(lat.for_class(FuClass::IntAlu), 1);
        assert_eq!(lat.for_class(FuClass::IntMul), 3);
        assert_eq!(lat.for_class(FuClass::FpAlu), 2);
        assert_eq!(lat.for_class(FuClass::FpMul), 4);
        assert_eq!(lat.for_class(FuClass::FpDiv), 12);
        assert_eq!(lat.for_class(FuClass::Branch), 1);
        assert_eq!(lat.for_class(FuClass::Mem), 1);
    }

    #[test]
    #[should_panic(expected = "non-MSP machine")]
    fn msp_config_rejected_for_cpr() {
        let _ = SimConfig::machine(MachineKind::cpr(), PredictorKind::Gshare).msp_config();
    }
}
