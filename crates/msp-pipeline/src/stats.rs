//! Simulation statistics: everything needed to regenerate the paper's
//! figures (IPC, executed-instruction breakdown, stall attribution).
//!
//! [`SimStats`] is the only place a run counts anything. The components
//! under the simulator report outcomes through what they return
//! (`Cache::access` whether it hit, `Btb::lookup` and `ReturnStack::pop` an
//! `Option`, `MspStateManager::rename` `Err(BankFull)`, `clock_commit` the
//! LCS), and the simulator counts here, once, each event that a report, the
//! energy model or the journal uses. A new count is a counter in one of
//! these blocks, never a field on a component.
//!
//! Each counter block ([`SimStats`], [`ExecutedBreakdown`],
//! [`StallBreakdown`], [`ActivityCounters`]) lists its fields once, in a
//! `counter_block!` invocation, which derives `Default` and the
//! `counters()`/`counters_mut()` iterators. Everything else that visits
//! every counter is a loop over those iterators: the fold
//! ([`SimStats::accumulate`]), the window subtraction
//! ([`SimStats::subtracting`]), the block totals and the journal's cell
//! codec. Adding a counter therefore takes its declaration plus one list
//! entry (forgetting the entry is a compile error), and, for an activity
//! counter, a price in the energy model's fold. It never takes an edit to
//! [`SimStats::canonical_string`], whose rendering the golden files pin.

use msp_isa::{ArchReg, NUM_LOGICAL_REGS};

/// Derives from one list of a block's counters — scalar `u64` fields,
/// per-logical-register `u64` arrays (plain or boxed) and nested blocks —
/// its `Default` (every counter zero) and `counters()`/`counters_mut()`,
/// which yield every `u64` of the block in list order: scalars, then
/// arrays, then the nested blocks' own lists. Both destructure the block
/// without a rest pattern, so a field missing from the list is a compile
/// error. The list order of [`SimStats`] is the journal's cell format, so
/// changing it means bumping the journal format version.
macro_rules! counter_block {
    ($block:ident {
        scalars: [$($scalar:ident),* $(,)?],
        arrays: [$($array:ident),* $(,)?],
        blocks: [$($nested:ident),* $(,)?] $(,)?
    }) => {
        impl Default for $block {
            fn default() -> Self {
                $block {
                    $($scalar: 0,)*
                    $($array: [0u64; NUM_LOGICAL_REGS].into(),)*
                    $($nested: Default::default(),)*
                }
            }
        }

        impl $block {
            /// Every counter of the block, nested blocks flattened, in the
            /// order of its counter list.
            pub fn counters(&self) -> impl Iterator<Item = &u64> {
                let $block { $($scalar,)* $($array,)* $($nested,)* } = self;
                [$($scalar),*]
                    .into_iter()
                    $(.chain($array.iter()))*
                    $(.chain($nested.counters()))*
            }

            /// Every counter of the block, mutably, in the order of
            /// `counters()`.
            pub fn counters_mut(&mut self) -> impl Iterator<Item = &mut u64> {
                let $block { $($scalar,)* $($array,)* $($nested,)* } = self;
                [$($scalar),*]
                    .into_iter()
                    $(.chain($array.iter_mut()))*
                    $(.chain($nested.counters_mut()))*
            }
        }
    };
}

/// Per-event activity counts of one simulation: how often each energy-
/// relevant structure was exercised, in the Wattch/CACTI activity-factor
/// tradition. The counters are incremented on the existing pipeline hot
/// paths with no allocation, compose under [`SimStats::accumulate`] /
/// [`SimStats::subtracting`] (so checkpoint-resumed and sampled windows
/// fold exactly), and drive the `msp-power` energy model through the
/// `msp-bench` energy layer.
///
/// Counts are **not** part of [`SimStats::canonical_string`] — the
/// historical golden files pin that rendering byte-for-byte — but they are
/// part of `SimStats`' structural equality, so every determinism fence
/// covers them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityCounters {
    /// Register-file reads per bank. For MSP machines the bank is the
    /// physical bank of the renamed source (what the 1R port arbiter sees);
    /// for Baseline/CPR it is the logical register's flat index (the model
    /// treats the fully-ported file's banks as interleaved by register).
    /// Distinct operands of one instruction that resolve to the same bank
    /// count once, matching the port-arbitration rule.
    pub rf_reads: [u64; NUM_LOGICAL_REGS],
    /// Register-file writes per bank, counted at writeback (after the
    /// write-port grant for arbitrated MSP machines).
    pub rf_writes: [u64; NUM_LOGICAL_REGS],
    /// Rename-map lookups: one per dispatched instruction, every machine.
    pub rename_lookups: u64,
    /// MSP State Control Table accesses: one per resolved source plus the
    /// allocation/anchor access of each rename (`RenamedInst::sct_lookups`).
    /// Zero on non-MSP machines.
    pub sct_lookups: u64,
    /// MSP LCS-unit propagations: one per commit-stage clock. Zero on
    /// non-MSP machines.
    pub lcs_propagations: u64,
    /// CPR checkpoints allocated (mirrors
    /// [`SimStats::checkpoints_allocated`] so the activity block is
    /// self-contained for the energy fold).
    pub checkpoint_allocs: u64,
    /// CPR checkpoints released, by bulk commit or recovery rollback.
    pub checkpoint_releases: u64,
    /// Issue-queue/RelIQ wakeup broadcasts delivered to sleeping consumers.
    pub reliq_wakeups: u64,
    /// Load-queue associative operations (insert at dispatch, remove at
    /// completion).
    pub lq_searches: u64,
    /// Store-queue associative operations: forwarding probes by issued
    /// loads plus store insertions at dispatch.
    pub sq_searches: u64,
    /// I-cache accesses (one per fetch block, as the fetch stage charges).
    pub icache_accesses: u64,
    /// D-cache accesses: issued loads that did not forward from the store
    /// queue, plus committed-store drains.
    pub dcache_accesses: u64,
    /// Unified L2 accesses (I- or D-side L1 miss).
    pub l2_accesses: u64,
    /// Direction-predictor table accesses (predictions and updates).
    pub predictor_lookups: u64,
    /// BTB accesses (indirect-target lookups and updates).
    pub btb_lookups: u64,
    /// Return-address-stack pushes and pops.
    pub ras_ops: u64,
}

counter_block!(ActivityCounters {
    scalars: [
        rename_lookups,
        sct_lookups,
        lcs_propagations,
        checkpoint_allocs,
        checkpoint_releases,
        reliq_wakeups,
        lq_searches,
        sq_searches,
        icache_accesses,
        dcache_accesses,
        l2_accesses,
        predictor_lookups,
        btb_lookups,
        ras_ops,
    ],
    arrays: [rf_reads, rf_writes],
    blocks: [],
});

impl ActivityCounters {
    /// Total register-file reads across all banks.
    pub fn rf_reads_total(&self) -> u64 {
        self.rf_reads.iter().sum()
    }

    /// Total register-file writes across all banks.
    pub fn rf_writes_total(&self) -> u64 {
        self.rf_writes.iter().sum()
    }
}

/// Breakdown of executed (issued-to-a-functional-unit) instructions, the
/// three bars of Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutedBreakdown {
    /// Correct-path instructions executed for the first time.
    pub correct_path: u64,
    /// Correct-path instructions re-executed after an imprecise (checkpoint)
    /// recovery squashed them even though they had executed correctly.
    pub correct_path_reexecuted: u64,
    /// Wrong-path instructions executed beyond mispredicted branches.
    pub wrong_path: u64,
}

counter_block!(ExecutedBreakdown {
    scalars: [correct_path, correct_path_reexecuted, wrong_path],
    arrays: [],
    blocks: [],
});

impl ExecutedBreakdown {
    /// Total executed instructions.
    pub fn total(&self) -> u64 {
        self.counters().sum()
    }
}

/// Dispatch-stall cycles attributed to their causes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Issue-queue full.
    pub iq_full: u64,
    /// Re-order buffer full (baseline only).
    pub rob_full: u64,
    /// Load queue full.
    pub lq_full: u64,
    /// Store queue full.
    pub sq_full: u64,
    /// Out of physical registers (baseline/CPR global file).
    pub regs_full: u64,
    /// Out of CPR checkpoints.
    pub checkpoints_full: u64,
    /// MSP: a logical register's bank was full, per logical register
    /// (indexed by [`ArchReg::flat_index`]) — the stall bars of Figs. 6–8.
    /// Boxed for the same reason as [`SimStats::activity`].
    pub bank_full: Box<[u64; NUM_LOGICAL_REGS]>,
    /// MSP: rename-group truncated by the same-register-per-cycle limit.
    pub same_reg_limit: u64,
    /// Front end had nothing to deliver (empty after a redirect or I-cache
    /// miss).
    pub frontend_empty: u64,
}

counter_block!(StallBreakdown {
    scalars: [
        iq_full,
        rob_full,
        lq_full,
        sq_full,
        regs_full,
        checkpoints_full,
        same_reg_limit,
        frontend_empty,
    ],
    arrays: [bank_full],
    blocks: [],
});

impl StallBreakdown {
    /// Total MSP bank-full stall cycles across all logical registers.
    pub fn bank_full_total(&self) -> u64 {
        self.bank_full.iter().sum()
    }

    /// The `n` logical registers with the most bank-full stall cycles,
    /// largest first, ties in flat-index order (the paper plots the top
    /// three for 16-SP).
    pub fn top_bank_stalls(&self, n: usize) -> Vec<(ArchReg, u64)> {
        let mut v: Vec<(ArchReg, u64)> = ArchReg::all()
            .zip(self.bank_full.iter().copied())
            .filter(|&(_, c)| c > 0)
            .collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v.truncate(n);
        v
    }

    /// Total stall cycles across all causes.
    pub fn total(&self) -> u64 {
        self.counters().sum()
    }
}

/// Complete statistics of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Simulated clock cycles.
    pub cycles: u64,
    /// Correct-path instructions committed (the numerator of IPC).
    pub committed: u64,
    /// Executed-instruction breakdown (Fig. 9).
    pub executed: ExecutedBreakdown,
    /// Conditional branches resolved on the correct path.
    pub branches: u64,
    /// Mispredicted conditional branches (direction or indirect target).
    pub mispredictions: u64,
    /// Recoveries performed (equals mispredictions unless coalesced).
    pub recoveries: u64,
    /// CPR only: recoveries that had to roll back to a checkpoint older than
    /// the faulting branch (imprecise recoveries).
    pub imprecise_recoveries: u64,
    /// CPR only: checkpoints allocated.
    pub checkpoints_allocated: u64,
    /// Dispatch-stall attribution.
    pub stalls: StallBreakdown,
    /// Register-file read-port conflicts (MSP arbitration).
    pub port_conflicts: u64,
    /// Loads that forwarded from the store queue.
    pub store_forwards: u64,
    /// D-cache misses observed by loads.
    pub dcache_misses: u64,
    /// Times the no-forward-progress watchdog fired and truncated the run
    /// (20,000 consecutive cycles without a commit). Always zero for a
    /// healthy configuration; a nonzero value marks the statistics as
    /// untrustworthy — the machine wedged and the run was cut short.
    pub watchdog_breaks: u64,
    /// Per-event activity counts driving the energy model (not rendered by
    /// [`SimStats::canonical_string`]; compared structurally). Boxed so the
    /// kilobyte of per-bank arrays lives off the `Simulator`'s hot cache
    /// lines; the box is reused for the whole run, so increments stay
    /// allocation-free.
    pub activity: Box<ActivityCounters>,
}

counter_block!(SimStats {
    scalars: [
        cycles,
        committed,
        branches,
        mispredictions,
        recoveries,
        imprecise_recoveries,
        checkpoints_allocated,
        port_conflicts,
        store_forwards,
        dcache_misses,
        watchdog_breaks,
    ],
    arrays: [],
    blocks: [executed, stalls, activity],
});

impl SimStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction rate over resolved correct-path branches.
    pub fn misprediction_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.branches as f64
        }
    }

    /// Executed instructions per committed instruction (>= 1; the overhead
    /// the MSP reduces in Fig. 9).
    pub fn execution_overhead(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.executed.total() as f64 / self.committed as f64
        }
    }

    /// Adds every counter of `other` into `self`. Used by the sampled-
    /// simulation aggregator to fold per-interval statistics into one
    /// whole-run summary.
    pub fn accumulate(&mut self, other: &SimStats) {
        for (mine, theirs) in self.counters_mut().zip(other.counters()) {
            *mine += theirs;
        }
    }

    /// The counter-wise difference `self − prefix`, for measuring a window
    /// of a longer run: clone the statistics where the window starts, keep
    /// simulating, and subtract. All counters are monotone during forward
    /// simulation, so saturating subtraction is exact when `prefix` really
    /// is an earlier snapshot of the same run.
    pub fn subtracting(&self, prefix: &SimStats) -> SimStats {
        let mut window = self.clone();
        for (mine, before) in window.counters_mut().zip(prefix.counters()) {
            *mine = mine.saturating_sub(*before);
        }
        window
    }

    /// A canonical, order-stable text rendering of every historical counter
    /// (`bank_full` lists its nonzero registers in flat-index order). The
    /// [`ActivityCounters`] block is deliberately **excluded** so the
    /// checked-in golden files stay byte-identical across counter
    /// additions; activity is covered by `SimStats`' structural equality,
    /// which every determinism fence asserts alongside this string.
    pub fn canonical_string(&self) -> String {
        let bank_full: Vec<String> = self
            .stalls
            .bank_full
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(flat, c)| format!("{flat}:{c}"))
            .collect();
        // The watchdog marker is appended only when it fired: healthy runs
        // keep the historical rendering (and golden files) byte-identical,
        // while a wedged run can never diff clean against a healthy one.
        let watchdog = if self.watchdog_breaks > 0 {
            format!(" WATCHDOG_TRUNCATED={}", self.watchdog_breaks)
        } else {
            String::new()
        };
        format!(
            "cycles={} committed={} exec_correct={} exec_reexec={} exec_wrong={} \
             branches={} mispred={} recoveries={} imprecise={} checkpoints={} \
             iq={} rob={} lq={} sq={} regs={} chk={} same_reg={} fe={} \
             bank_full=[{}] ports={} fwd={} dmiss={}{}",
            self.cycles,
            self.committed,
            self.executed.correct_path,
            self.executed.correct_path_reexecuted,
            self.executed.wrong_path,
            self.branches,
            self.mispredictions,
            self.recoveries,
            self.imprecise_recoveries,
            self.checkpoints_allocated,
            self.stalls.iq_full,
            self.stalls.rob_full,
            self.stalls.lq_full,
            self.stalls.sq_full,
            self.stalls.regs_full,
            self.stalls.checkpoints_full,
            self.stalls.same_reg_limit,
            self.stalls.frontend_empty,
            bank_full.join(","),
            self.port_conflicts,
            self.store_forwards,
            self.dcache_misses,
            watchdog,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Statistics whose every counter holds its own nonzero value, starting
    /// at `base`.
    fn every_counter_distinct(base: u64) -> SimStats {
        let mut stats = SimStats::default();
        for (value, counter) in (base..).zip(stats.counters_mut()) {
            *counter = value;
        }
        stats
    }

    #[test]
    fn executed_breakdown_totals() {
        let e = ExecutedBreakdown {
            correct_path: 100,
            correct_path_reexecuted: 20,
            wrong_path: 30,
        };
        assert_eq!(e.total(), 150);
    }

    #[test]
    fn stall_breakdown_ranking() {
        let mut s = StallBreakdown::default();
        s.bank_full[ArchReg::int(3).flat_index()] = 50;
        s.bank_full[ArchReg::int(7).flat_index()] = 200;
        s.bank_full[ArchReg::fp(1).flat_index()] = 10;
        s.bank_full[ArchReg::fp(4).flat_index()] = 50;
        assert_eq!(s.bank_full_total(), 310);
        let top = s.top_bank_stalls(3);
        assert_eq!(
            top,
            vec![
                (ArchReg::int(7), 200),
                (ArchReg::int(3), 50),
                (ArchReg::fp(4), 50)
            ]
        );
        assert_eq!(s.top_bank_stalls(10).len(), 4, "zero counts are omitted");
        s.iq_full = 40;
        assert_eq!(s.total(), 350);
    }

    #[test]
    fn accumulate_sums_every_counter() {
        let a = every_counter_distinct(1);
        let b = every_counter_distinct(1_000);
        let mut sum = a.clone();
        sum.accumulate(&b);
        for ((total, x), y) in sum.counters().zip(a.counters()).zip(b.counters()) {
            assert_eq!(*total, x + y);
        }
        assert_eq!(sum.cycles, a.cycles + b.cycles);
        assert_eq!(
            sum.stalls.bank_full_total(),
            a.stalls.bank_full_total() + b.stalls.bank_full_total()
        );
        // subtracting recovers the window exactly (the sampled-window
        // identity every resumed measurement relies on).
        assert_eq!(sum.subtracting(&a), b);
        assert_eq!(sum.subtracting(&b), a);
    }

    #[test]
    fn activity_counters_accumulate_and_subtract_exactly() {
        let prefix = every_counter_distinct(1);
        let window = every_counter_distinct(5_000);
        let mut full = prefix.clone();
        full.accumulate(&window);
        let sums = full.activity.counters();
        let parts = prefix.activity.counters().zip(window.activity.counters());
        for (total, (x, y)) in sums.zip(parts) {
            assert_eq!(*total, x + y);
        }
        assert_eq!(
            full.activity.rf_reads_total(),
            prefix.activity.rf_reads_total() + window.activity.rf_reads_total()
        );
        assert_eq!(full.subtracting(&prefix).activity, window.activity);
        assert_eq!(full.subtracting(&window).activity, prefix.activity);
    }

    #[test]
    fn activity_rides_along_in_simstats_fold() {
        let mut a = SimStats {
            cycles: 5,
            ..SimStats::default()
        };
        a.activity.dcache_accesses = 8;
        a.activity.rf_writes[1] = 2;
        let mut b = SimStats {
            cycles: 7,
            ..SimStats::default()
        };
        b.activity.dcache_accesses = 3;
        b.activity.rf_writes[1] = 5;
        let mut sum = a.clone();
        sum.accumulate(&b);
        assert_eq!(sum.activity.dcache_accesses, 11);
        assert_eq!(sum.activity.rf_writes[1], 7);
        assert_eq!(sum.subtracting(&a).activity, b.activity);
        // The canonical rendering stays the historical one: activity is
        // excluded so the checked-in goldens cannot shift.
        assert_eq!(
            a.canonical_string(),
            SimStats {
                cycles: 5,
                ..SimStats::default()
            }
            .canonical_string()
        );
    }

    #[test]
    fn derived_rates() {
        let stats = SimStats {
            cycles: 1000,
            committed: 1500,
            branches: 200,
            mispredictions: 20,
            executed: ExecutedBreakdown {
                correct_path: 1500,
                correct_path_reexecuted: 150,
                wrong_path: 300,
            },
            ..SimStats::default()
        };
        assert!((stats.ipc() - 1.5).abs() < 1e-9);
        assert!((stats.misprediction_rate() - 0.1).abs() < 1e-9);
        assert!((stats.execution_overhead() - 1.3).abs() < 1e-9);
        let empty = SimStats::default();
        assert_eq!(empty.ipc(), 0.0);
        assert_eq!(empty.misprediction_rate(), 0.0);
        assert_eq!(empty.execution_overhead(), 0.0);
    }
}
