//! Sampled simulation plans over the shared trace layer: SMARTS-style
//! periodic windows, SimPoint-style phase-aware representatives, and
//! adaptive stopping.
//!
//! A [`SamplingPlan`] turns one experiment cell into a handful of small
//! detailed-simulation units: the functional trace (already captured once
//! per workload, now with periodic [`ArchState`](msp_isa::ArchState)
//! checkpoints *and* per-interval basic-block vectors) is measured in
//! detail only inside short windows. The first window runs cold from the
//! start of the trace. Every later one resumes at the checkpoint of its
//! interval start with the caches and predictors of a cumulative
//! functional warm trajectory (`Simulator::resume_warmed`), simulates
//! `warmup_len` instructions in detail to fill the pipeline, then measures
//! `detail_len` committed instructions with full cycle accounting.
//! [`SampledStats`] folds the per-window
//! [`SimStats`](msp_pipeline::SimStats) into a mean-IPC estimate with a
//! relative-error figure, which the `msp-lab` emitters render alongside
//! exact runs.
//!
//! Every plan has one window shape (`interval`, `detail_len`,
//! `warmup_len`); its [`Placement`] decides **where** the windows go:
//!
//! * [`Placement::Periodic`] measures one window per interval (SMARTS).
//! * [`Placement::Phases`] clusters the intervals' basic-block vectors
//!   ([`cluster_phases`]) and measures **one window per phase**, weighted
//!   by the phase's population — the SimPoint discipline. Same accuracy
//!   from far fewer detailed instructions on phase-structured workloads.
//! * [`Placement::Adaptive`] keeps adding periodic windows in a
//!   low-discrepancy order ([`adaptive_window_order`]) until the estimate's
//!   `ipc_rel_stderr` reaches a requested target, then stops.
//!
//! The detailed-simulation cost of a cell drops from `budget` to roughly
//! `windows × (warmup_len + detail_len)` instructions, which is what makes
//! multi-million-instruction budgets tractable (`tests/sampling.rs` fences
//! the periodic plan's speed-up and every plan's accuracy at 2M
//! instructions).

use msp_isa::BbvSignature;
use msp_pipeline::SimStats;

/// Default number of phases the clusterer may pick
/// ([`SamplingPlan::phase_aware`]). SimPoint's classic configuration caps
/// k-means at a small constant; eight phases is plenty for kernel-scale
/// workloads and keeps the BIC sweep cheap.
pub const DEFAULT_MAX_PHASES: usize = 8;

/// Default clustering seed ([`SamplingPlan::phase_aware`]). Fixed and
/// boring on purpose: reproducibility comes from the seed living **in the
/// plan** (and therefore in the journal's cell fingerprint), never from
/// ambient randomness.
pub const DEFAULT_CLUSTER_SEED: u64 = 0x5EED_CAFE;

/// Default cap on adaptively-added windows ([`SamplingPlan::adaptive`]).
pub const DEFAULT_MAX_WINDOWS: usize = 64;

/// A sampled experiment's plan: the shape of its detailed windows, and
/// where they go.
///
/// Attach to an [`Experiment`](crate::Experiment) with
/// [`Experiment::sampling`](crate::Experiment::sampling). Construct with
/// [`SamplingPlan::periodic`], [`SamplingPlan::phase_aware`] or
/// [`SamplingPlan::adaptive`] and refine with [`SamplingPlan::with_interval`]
/// and [`SamplingPlan::with_window`], or write the struct out for full
/// control.
///
/// Every plan states its window shape once (`interval`, `detail_len`,
/// `warmup_len`); the [`Placement`] decides which intervals get a window
/// and how each window is weighted in the estimate. (This struct replaced
/// the old three-field `SamplingSpec` and the one-variant-per-placement
/// enum after it — see the migration table in DESIGN.md.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingPlan {
    /// Committed instructions between consecutive interval starts (also the
    /// trace's checkpoint and BBV spacing). Positive.
    pub interval: u64,
    /// Committed instructions measured in detail per window. Positive.
    pub detail_len: u64,
    /// Committed instructions of warm-up run before measurement starts in
    /// each window and excluded from it. `Lab::run` runs it in **detail**
    /// from the cumulative warm snapshot: it refills the pipeline, queues
    /// and in-flight state the snapshot cannot carry.
    pub warmup_len: u64,
    /// Where the windows go.
    pub placement: Placement,
}

/// Where a [`SamplingPlan`] places its detailed windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// One detailed window every `interval` committed instructions — the
    /// SMARTS-style systematic design.
    Periodic,
    /// One detailed window per **program phase**: the per-interval
    /// basic-block vectors are clustered ([`cluster_phases`]) and each
    /// cluster's most central interval is measured, weighted by the
    /// cluster's population — the SimPoint design.
    Phases {
        /// Upper bound on the number of phases (k-means clusters); the BIC
        /// criterion picks the actual count. Positive.
        max_phases: usize,
        /// Seed for the k-means++ initialisation. Part of the plan so the
        /// clustering — and the journal fingerprint — is reproducible.
        seed: u64,
    },
    /// Periodic windows added one at a time (in [`adaptive_window_order`])
    /// until the estimate's relative standard error reaches
    /// `target_rel_stderr` or `max_windows` windows have been measured.
    Adaptive {
        /// Stop once `ipc_rel_stderr` is at or below this. In `(0, 1)`.
        target_rel_stderr: f64,
        /// Hard cap on measured periodic windows per cell, reached when the
        /// target is unattainable within the budget. Positive.
        max_windows: usize,
    },
}

impl SamplingPlan {
    /// `placement` with the default window shape for `interval`: 2.5%
    /// measured in detail after a third-of-detail warm-up window.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    fn derived(interval: u64, placement: Placement) -> SamplingPlan {
        assert!(interval > 0, "sampling interval must be positive");
        let detail_len = (interval / 40).max(1);
        SamplingPlan {
            interval,
            detail_len,
            warmup_len: (detail_len / 3).min(interval - detail_len),
            placement,
        }
    }

    /// The default periodic plan for a given interval: 2.5% measured in
    /// detail after a third-of-detail warm-up window. The caches and
    /// predictors carry the whole prefix's history via the Lab's cumulative
    /// warm trajectory (see DESIGN.md); the warm-up window only has to
    /// re-establish pipeline *occupancy* (fill the in-flight window and
    /// queues), which takes a few hundred to a few thousand instructions on
    /// the deepest machines. At the default 250k interval this shape is
    /// fenced at ≥4× the exact sweep's speed with <2% per-cell IPC error on
    /// the 2M-budget table1 reference sweep (`tests/sampling.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn periodic(interval: u64) -> SamplingPlan {
        SamplingPlan::derived(interval, Placement::Periodic)
    }

    /// The default phase-aware plan for a given interval: the
    /// [`SamplingPlan::periodic`] window shape, at most
    /// [`DEFAULT_MAX_PHASES`] phases, [`DEFAULT_CLUSTER_SEED`].
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn phase_aware(interval: u64) -> SamplingPlan {
        SamplingPlan::derived(
            interval,
            Placement::Phases {
                max_phases: DEFAULT_MAX_PHASES,
                seed: DEFAULT_CLUSTER_SEED,
            },
        )
    }

    /// The default adaptive plan for a target relative standard error (e.g.
    /// `SamplingPlan::adaptive(0.01)` for 1%): the default 250k-interval
    /// periodic window shape, adding windows until the target or
    /// [`DEFAULT_MAX_WINDOWS`] is reached.
    ///
    /// # Panics
    ///
    /// Panics if `target_rel_stderr` is not in `(0, 1)`.
    pub fn adaptive(target_rel_stderr: f64) -> SamplingPlan {
        let plan = SamplingPlan::derived(
            crate::lab::DEFAULT_SAMPLE_INTERVAL,
            Placement::Adaptive {
                target_rel_stderr,
                max_windows: DEFAULT_MAX_WINDOWS,
            },
        );
        plan.assert_valid();
        plan
    }

    /// This plan with a different interval, re-deriving the default
    /// `detail_len`/`warmup_len` window shape for it (use
    /// [`SamplingPlan::with_window`] afterwards for explicit control).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_interval(self, interval: u64) -> SamplingPlan {
        SamplingPlan::derived(interval, self.placement)
    }

    /// This plan with an explicit `detail_len`/`warmup_len` window shape
    /// (validated by [`SamplingPlan::assert_valid`] at run time).
    pub fn with_window(self, detail_len: u64, warmup_len: u64) -> SamplingPlan {
        SamplingPlan {
            detail_len,
            warmup_len,
            ..self
        }
    }

    /// Committed instructions between consecutive interval starts (the
    /// `interval` field).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Committed instructions measured in detail per window (the
    /// `detail_len` field).
    pub fn detail_len(&self) -> u64 {
        self.detail_len
    }

    /// Warm-up instructions run (and excluded) before each window's
    /// measurement (the `warmup_len` field).
    pub fn warmup_len(&self) -> u64 {
        self.warmup_len
    }

    /// Validates the plan's internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if `interval` or `detail_len` is zero, if the warm-up plus
    /// detail window does not fit inside one interval (windows would
    /// overlap and double-count instructions), if a phase-aware plan allows
    /// zero phases, or if an adaptive plan's target is outside `(0, 1)` or
    /// its window cap is zero.
    pub fn assert_valid(&self) {
        assert!(self.interval > 0, "sampling interval must be positive");
        assert!(self.detail_len > 0, "sampling detail_len must be positive");
        assert!(
            self.warmup_len + self.detail_len <= self.interval,
            "warmup_len + detail_len ({} + {}) must fit in the interval ({})",
            self.warmup_len,
            self.detail_len,
            self.interval
        );
        match self.placement {
            Placement::Periodic => {}
            Placement::Phases { max_phases, .. } => {
                assert!(max_phases > 0, "max_phases must be positive");
            }
            Placement::Adaptive {
                target_rel_stderr,
                max_windows,
            } => {
                assert!(
                    target_rel_stderr.is_finite()
                        && target_rel_stderr > 0.0
                        && target_rel_stderr < 1.0,
                    "target_rel_stderr ({target_rel_stderr}) must be in (0, 1)"
                );
                assert!(max_windows > 0, "max_windows must be positive");
            }
        }
    }

    /// A compact human-readable rendering. Periodic plans render as the
    /// bare window shape (`interval=.. detail=.. warmup=..`), the wording
    /// sampled-run report notes have always used.
    pub fn describe(&self) -> String {
        let window = format!(
            "interval={} detail={} warmup={}",
            self.interval, self.detail_len, self.warmup_len
        );
        match self.placement {
            Placement::Periodic => window,
            Placement::Phases { max_phases, seed } => {
                format!("phase-aware(max_phases={max_phases} seed={seed:#x}) {window}")
            }
            Placement::Adaptive {
                target_rel_stderr,
                max_windows,
            } => format!(
                "adaptive(target={}% max_windows={max_windows}) {window}",
                target_rel_stderr * 100.0
            ),
        }
    }
}

/// The aggregated estimate of one sampled cell: per-window `SimStats`
/// folded into a mean IPC with a relative-error figure.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledStats {
    /// Windows that measured at least one committed instruction (empty
    /// windows past the program's end are excluded from the estimate).
    pub intervals: usize,
    /// Committed instructions measured in detail across all windows.
    pub measured_instructions: u64,
    /// Simulated cycles spent across all measured windows.
    pub measured_cycles: u64,
    /// The IPC estimate: the inverse of the span-weighted mean per-window
    /// **CPI**. Each measured window represents a span of the budget (the
    /// head stratum measures its whole span exactly, a periodic window
    /// samples one interval, a phase representative stands for its entire
    /// cluster's span), so the estimator for the exact run's aggregate
    /// `committed / cycles` is `Σ(span·cpi) / Σspan`, inverted. (A mean of
    /// window IPCs would systematically overweight fast windows.)
    pub mean_ipc: f64,
    /// Relative standard error of the mean window **CPI** over the
    /// *sampled* windows (`stddev(cpi) / (sqrt(n) * mean(cpi))`, with the
    /// first window — the exactly-measured head stratum, which contributes
    /// no sampling error — excluded): the SMARTS-style confidence figure
    /// for the estimate. `None` when fewer than two sampled windows were
    /// measured — a spread over zero or one sample is **undefined**, not
    /// zero (it used to render as perfect confidence); the emitters print
    /// `n/a`.
    pub ipc_rel_stderr: Option<f64>,
}

impl SampledStats {
    /// Folds per-window `(statistics, represented span)` pairs into the
    /// sampled estimate. Windows with no committed instructions (the
    /// program ended before them) are excluded. The first pair must be the
    /// head stratum (it is excluded from the error estimate).
    pub fn from_intervals(per_interval: &[(SimStats, u64)]) -> SampledStats {
        let measured: Vec<(&SimStats, u64)> = per_interval
            .iter()
            .filter(|(s, _)| s.committed > 0)
            .map(|(s, span)| (s, *span))
            .collect();
        let n = measured.len();
        let measured_instructions: u64 = measured.iter().map(|(s, _)| s.committed).sum();
        let measured_cycles: u64 = measured.iter().map(|(s, _)| s.cycles).sum();
        let cpis: Vec<f64> = measured
            .iter()
            .map(|(s, _)| s.cycles as f64 / s.committed as f64)
            .collect();
        let total_span: u64 = measured.iter().map(|(_, span)| span).sum();
        let mean_cpi = if total_span == 0 {
            0.0
        } else {
            measured
                .iter()
                .zip(&cpis)
                .map(|((_, span), cpi)| *span as f64 * cpi)
                .sum::<f64>()
                / total_span as f64
        };
        let mean_ipc = if mean_cpi == 0.0 { 0.0 } else { 1.0 / mean_cpi };
        // Sampling error lives in the sampled windows; the first window
        // (the head stratum) measures its span exactly and is excluded.
        let tail = &cpis[1.min(cpis.len())..];
        let tail_n = tail.len() as f64;
        let tail_mean = if tail.is_empty() {
            0.0
        } else {
            tail.iter().sum::<f64>() / tail_n
        };
        let ipc_rel_stderr = if tail.len() < 2 || tail_mean == 0.0 {
            None
        } else {
            let variance = tail
                .iter()
                .map(|cpi| (cpi - tail_mean) * (cpi - tail_mean))
                .sum::<f64>()
                / (tail_n - 1.0);
            Some(variance.sqrt() / (tail_n.sqrt() * tail_mean))
        };
        SampledStats {
            intervals: n,
            measured_instructions,
            measured_cycles,
            mean_ipc,
            ipc_rel_stderr,
        }
    }
}

// ---------------------------------------------------------------------------
// phase clustering (SimPoint-style k-means with BIC model selection)
// ---------------------------------------------------------------------------

/// The result of clustering a workload's interval BBVs into phases.
///
/// Invariants (property-tested): every interval is assigned to exactly one
/// phase, each phase's representative belongs to that phase, and the
/// weights are the phase populations normalised to sum to 1.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseAssignment {
    /// `assignment[i]` is the phase of interval `i` (`< phases()`).
    pub assignment: Vec<usize>,
    /// `representatives[p]` is the interval index measured on behalf of
    /// phase `p`: the member closest to the phase centroid (near-ties —
    /// members whose BBVs essentially coincide — go to the temporally
    /// middle member, the settled heart of the phase rather than a
    /// transition-contaminated edge).
    pub representatives: Vec<usize>,
    /// `weights[p]` is phase `p`'s share of the intervals, in `(0, 1]`,
    /// summing to 1.
    pub weights: Vec<f64>,
}

impl PhaseAssignment {
    /// Number of phases the BIC criterion selected.
    pub fn phases(&self) -> usize {
        self.representatives.len()
    }
}

/// SplitMix64: a tiny, high-quality, dependency-free PRNG. All clustering
/// randomness flows from the plan's seed through this stream, so a
/// `(bbvs, max_phases, seed)` triple always clusters identically.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform f64 in `[0, 1)` from the SplitMix64 stream.
fn next_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// One k-means clustering at a fixed k: k-means++ initialisation from the
/// seeded stream, then Lloyd iterations to convergence. Returns
/// `(assignment, centroids, total within-cluster squared distance)`.
fn kmeans(points: &[Vec<f64>], k: usize, rng: &mut u64) -> (Vec<usize>, Vec<Vec<f64>>, f64) {
    let n = points.len();
    let dims = points[0].len();
    // k-means++ seeding: first centroid uniform, then D²-weighted.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[(splitmix64(rng) % n as u64) as usize].clone());
    let mut d2: Vec<f64> = points.iter().map(|p| dist2(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with a centroid; any pick works.
            (splitmix64(rng) % n as u64) as usize
        } else {
            let mut r = next_f64(rng) * total;
            let mut pick = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                if r < d {
                    pick = i;
                    break;
                }
                r -= d;
            }
            pick
        };
        centroids.push(points[next].clone());
        for (i, p) in points.iter().enumerate() {
            d2[i] = d2[i].min(dist2(p, centroids.last().unwrap()));
        }
    }

    let mut assignment = vec![0usize; n];
    for _ in 0..100 {
        // Assign: nearest centroid, lowest index on ties (strict `<`).
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = dist2(p, &centroids[0]);
            for (c, centroid) in centroids.iter().enumerate().skip(1) {
                let d = dist2(p, centroid);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // Update: centroid = member mean; an emptied cluster is re-seeded
        // on the point farthest from its own centroid (lowest index on
        // ties), keeping k clusters alive deterministically.
        let mut counts = vec![0usize; k];
        let mut sums = vec![vec![0.0; dims]; k];
        for (i, p) in points.iter().enumerate() {
            counts[assignment[i]] += 1;
            for (s, x) in sums[assignment[i]].iter_mut().zip(p) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let da = dist2(&points[a], &centroids[assignment[a]]);
                        let db = dist2(&points[b], &centroids[assignment[b]]);
                        da.partial_cmp(&db).unwrap().then(b.cmp(&a)) // prefer the lower index
                    })
                    .unwrap();
                centroids[c] = points[far].clone();
                changed = true;
            } else {
                for (j, s) in sums[c].iter().enumerate() {
                    centroids[c][j] = s / counts[c] as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let sse: f64 = points
        .iter()
        .zip(&assignment)
        .map(|(p, &c)| dist2(p, &centroids[c]))
        .sum();
    (assignment, centroids, sse)
}

/// The Bayesian Information Criterion of a clustering under the spherical
/// Gaussian model (the X-means/SimPoint formulation): higher is better,
/// with a complexity penalty that grows with k. `var_floor` bounds the
/// variance estimate from below: near-duplicate intervals drive the
/// within-cluster variance to zero, and without a data-scaled floor the
/// log-likelihood of every k beyond the true structure diverges and BIC
/// overfits (always picking the largest k).
fn bic(points: &[Vec<f64>], assignment: &[usize], k: usize, sse: f64, var_floor: f64) -> f64 {
    let n = points.len() as f64;
    let dims = points[0].len() as f64;
    let variance = (sse / (points.len().saturating_sub(k)).max(1) as f64).max(var_floor);
    let mut counts = vec![0usize; k];
    for &c in assignment {
        counts[c] += 1;
    }
    let loglik: f64 = counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let cn = c as f64;
            cn * (cn / n).ln()
                - cn * dims / 2.0 * (2.0 * std::f64::consts::PI * variance).ln()
                - (cn - 1.0) / 2.0
        })
        .sum();
    let params = (k as f64 - 1.0) + k as f64 * dims + 1.0;
    loglik - params / 2.0 * n.ln()
}

/// Clusters a workload's per-interval basic-block vectors into phases:
/// k-means (k-means++ init, seeded by `seed`) over the L1-normalised BBV
/// frequency vectors for every `k` up to `max_phases`, scored by BIC;
/// following SimPoint, the smallest `k` scoring within 90% of the best
/// BIC range wins. Fully deterministic for a given `(bbvs, max_phases,
/// seed)` input.
///
/// # Panics
///
/// Panics if `max_phases` is zero.
pub fn cluster_phases(bbvs: &[BbvSignature], max_phases: usize, seed: u64) -> PhaseAssignment {
    assert!(max_phases > 0, "max_phases must be positive");
    let n = bbvs.len();
    if n == 0 {
        return PhaseAssignment {
            assignment: Vec::new(),
            representatives: Vec::new(),
            weights: Vec::new(),
        };
    }
    // Dimension map: the union of block start PCs, in sorted order. BBV
    // weights are already PC-sorted, so a BTreeSet-free merge would also
    // work; clarity wins at these sizes.
    let mut dims: Vec<u64> = bbvs
        .iter()
        .flat_map(|b| b.weights().iter().map(|&(pc, _)| pc))
        .collect();
    dims.sort_unstable();
    dims.dedup();
    let dim_of = |pc: u64| dims.binary_search(&pc).unwrap();
    // L1-normalised frequency vectors: a phase is about *where* time goes,
    // not how long the interval was (the tail interval may be partial).
    let points: Vec<Vec<f64>> = bbvs
        .iter()
        .map(|b| {
            let mut v = vec![0.0; dims.len()];
            let total = b.total().max(1) as f64;
            for &(pc, count) in b.weights() {
                v[dim_of(pc)] = count as f64 / total;
            }
            v
        })
        .collect();

    let max_k = max_phases.min(n);
    let mut results: Vec<(Vec<usize>, Vec<Vec<f64>>, f64)> = Vec::with_capacity(max_k);
    for k in 1..=max_k {
        // Each k gets its own deterministic stream so adding a k never
        // perturbs the others.
        let mut rng = seed ^ (k as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        results.push(kmeans(&points, k, &mut rng));
    }
    // Variance floor for the BIC: a fixed fraction of the k=1 scatter (the
    // total variance of the data set), so once a k explains the real
    // structure, larger k can't keep inflating the likelihood by shrinking
    // the variance estimate toward zero.
    let var_floor = (results[0].2 / (n.saturating_sub(1)).max(1) as f64 * 1e-3).max(1e-12);
    let scores: Vec<f64> = results
        .iter()
        .enumerate()
        .map(|(i, (assignment, _, sse))| bic(&points, assignment, i + 1, *sse, var_floor))
        .collect();
    let best = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let worst = scores.iter().cloned().fold(f64::INFINITY, f64::min);
    let threshold = worst + 0.9 * (best - worst);
    let chosen_k = scores
        .iter()
        .position(|&s| s >= threshold)
        .expect("the best-scoring k always meets the threshold")
        + 1;
    let (assignment, centroids, _) = &results[chosen_k - 1];

    // Some of the k clusters may have ended up empty on degenerate inputs
    // (n points in fewer than k distinct positions); compact them away so
    // every reported phase has members, a representative and weight > 0.
    let mut counts = vec![0usize; chosen_k];
    for &c in assignment {
        counts[c] += 1;
    }
    let mut remap = vec![usize::MAX; chosen_k];
    let mut phases = 0usize;
    for (c, &count) in counts.iter().enumerate() {
        if count > 0 {
            remap[c] = phases;
            phases += 1;
        }
    }
    let assignment: Vec<usize> = assignment.iter().map(|&c| remap[c]).collect();
    // Representative: the member closest to the phase centroid (the
    // SimPoint medoid rule). BBV distance cannot rank members whose
    // signatures (near-)coincide — the common case for loop kernels, where
    // every steady-state interval has the same block mix but the
    // microarchitectural state is still converging — so near-ties go to
    // the temporally *middle* member: a phase's edges border transitions
    // (the previous phase's pipeline/cache state is still draining), its
    // middle is the settled behaviour the whole cluster is billed at.
    let centroid_of_phase: Vec<&Vec<f64>> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &count)| count > 0)
        .map(|(c, _)| &centroids[c])
        .collect();
    let mut members: Vec<Vec<(usize, f64)>> = vec![Vec::new(); phases];
    for (i, p) in points.iter().enumerate() {
        let phase = assignment[i];
        members[phase].push((i, dist2(p, centroid_of_phase[phase])));
    }
    let representatives: Vec<usize> = members
        .iter()
        .map(|m| {
            let d_min = m.iter().map(|&(_, d)| d).fold(f64::INFINITY, f64::min);
            let near: Vec<usize> = m
                .iter()
                .filter(|&&(_, d)| d <= d_min + d_min * 1e-6 + 1e-12)
                .map(|&(i, _)| i)
                .collect();
            near[near.len() / 2]
        })
        .collect();
    let weights: Vec<f64> = (0..phases)
        .map(|p| assignment.iter().filter(|&&a| a == p).count() as f64 / n as f64)
        .collect();
    PhaseAssignment {
        assignment,
        representatives,
        weights,
    }
}

/// The order in which [`Placement::Adaptive`] adds periodic windows:
/// the van der Corput (bit-reversal) permutation of `0..n`. Each prefix of
/// the order spreads near-uniformly over the whole budget, so an estimate
/// from the first `m` windows samples early, middle and late program
/// behaviour alike — unlike `0..m`, which would oversample the start.
/// Deterministic by construction.
pub fn adaptive_window_order(n: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let bits = usize::BITS - (n - 1).max(1).leading_zeros();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (i.reverse_bits() >> (usize::BITS - bits.max(1)), i));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_isa::BbvAccumulator;
    use msp_isa::{ArchReg, Instruction, Program, Trace, TEXT_BASE};
    use proptest::prelude::*;

    fn stats(committed: u64, cycles: u64) -> SimStats {
        SimStats {
            committed,
            cycles,
            ..SimStats::default()
        }
    }

    #[test]
    fn periodic_defaults_scale_with_the_interval() {
        let plan = SamplingPlan::periodic(250_000);
        assert_eq!(plan.interval(), 250_000);
        assert_eq!(plan.detail_len(), 6_250);
        assert_eq!(plan.warmup_len(), 2_083, "third-of-detail pipeline fill");
        plan.assert_valid();
        assert_eq!(plan.describe(), "interval=250000 detail=6250 warmup=2083");
        // Tiny intervals still measure at least one instruction and stay
        // internally consistent.
        assert_eq!(SamplingPlan::periodic(5).detail_len(), 1);
        SamplingPlan::periodic(5).assert_valid();
        SamplingPlan::periodic(1).assert_valid();
    }

    #[test]
    fn phase_aware_and_adaptive_constructors_are_valid() {
        let phases = SamplingPlan::phase_aware(250_000);
        phases.assert_valid();
        assert_eq!(phases.interval(), 250_000);
        assert_eq!(phases.detail_len(), 6_250);
        assert!(phases.describe().starts_with("phase-aware(max_phases=8"));

        let adaptive = SamplingPlan::adaptive(0.01);
        adaptive.assert_valid();
        assert_eq!(adaptive.interval(), crate::lab::DEFAULT_SAMPLE_INTERVAL);
        assert!(adaptive.describe().starts_with("adaptive(target=1%"));
    }

    #[test]
    fn builder_adjusters_rewrite_the_right_fields() {
        let plan = SamplingPlan {
            placement: Placement::Phases {
                max_phases: 3,
                seed: 7,
            },
            ..SamplingPlan::phase_aware(1_000)
        }
        .with_interval(2_000)
        .with_window(100, 10);
        assert_eq!(
            plan,
            SamplingPlan {
                interval: 2_000,
                detail_len: 100,
                warmup_len: 10,
                placement: Placement::Phases {
                    max_phases: 3,
                    seed: 7,
                },
            }
        );
        let adaptive = SamplingPlan {
            placement: Placement::Adaptive {
                target_rel_stderr: 0.05,
                max_windows: 5,
            },
            ..SamplingPlan::adaptive(0.05)
        }
        .with_interval(4_000);
        assert_eq!(
            adaptive,
            SamplingPlan {
                interval: 4_000,
                detail_len: 100,
                warmup_len: 33,
                placement: Placement::Adaptive {
                    target_rel_stderr: 0.05,
                    max_windows: 5,
                },
            }
        );
    }

    #[test]
    #[should_panic(expected = "must fit in the interval")]
    fn overlapping_windows_are_rejected() {
        SamplingPlan::periodic(100)
            .with_window(80, 30)
            .assert_valid();
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1)")]
    fn out_of_range_adaptive_targets_are_rejected() {
        SamplingPlan::adaptive(1.5);
    }

    #[test]
    #[should_panic(expected = "max_phases must be positive")]
    fn zero_phase_plans_are_rejected() {
        SamplingPlan {
            placement: Placement::Phases {
                max_phases: 0,
                seed: DEFAULT_CLUSTER_SEED,
            },
            ..SamplingPlan::phase_aware(100)
        }
        .assert_valid();
    }

    #[test]
    fn aggregation_excludes_empty_intervals() {
        let per_interval = vec![
            (stats(100, 25), 10),
            (stats(100, 100), 10),
            (stats(100, 50), 10),
            (stats(0, 1), 10),
        ];
        let s = SampledStats::from_intervals(&per_interval);
        assert_eq!(s.intervals, 3);
        assert_eq!(s.measured_instructions, 300);
        assert_eq!(s.measured_cycles, 175);
        // Equal spans: inverse of the mean CPI ((0.25 + 1.0 + 0.5) / 3).
        let mean_cpi = (0.25 + 1.0 + 0.5) / 3.0;
        assert!((s.mean_ipc - 1.0 / mean_cpi).abs() < 1e-12);
        // The stderr covers the sampled windows only (the head window is
        // exact): CPIs 1.0 and 0.5 → mean 0.75, stddev sqrt(0.125),
        // stderr sqrt(0.125)/sqrt(2) = 0.25, relative 0.25/0.75 = 1/3.
        assert!((s.ipc_rel_stderr.unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn aggregation_weights_windows_by_their_span() {
        // A slow head stratum (CPI 2) spanning 30 units and a fast periodic
        // window (CPI 0.5) spanning 90: mean CPI = (30·2 + 90·0.5)/120.
        let per_interval = vec![(stats(30, 60), 30), (stats(9, 4), 90)];
        let s = SampledStats::from_intervals(&per_interval);
        let expected_cpi = (30.0 * 2.0 + 90.0 * (4.0 / 9.0)) / 120.0;
        assert!((s.mean_ipc - 1.0 / expected_cpi).abs() < 1e-12);
    }

    #[test]
    fn degenerate_aggregations_are_defined() {
        let empty = SampledStats::from_intervals(&[]);
        assert_eq!(empty.intervals, 0);
        assert_eq!(empty.mean_ipc, 0.0);
        assert_eq!(empty.ipc_rel_stderr, None);
        let single = SampledStats::from_intervals(&[(stats(10, 20), 5)]);
        assert_eq!(single.intervals, 1);
        assert!((single.mean_ipc - 0.5).abs() < 1e-12);
        assert_eq!(single.ipc_rel_stderr, None, "one interval has no spread");
    }

    #[test]
    fn fewer_than_two_periodic_windows_have_undefined_stderr() {
        // Regression (the "perfect confidence" bug): a head stratum plus a
        // *single* periodic window used to report a relative standard error
        // of exactly 0.0 — indistinguishable from a genuinely tight
        // estimate. It must be undefined instead.
        let head_plus_one =
            SampledStats::from_intervals(&[(stats(100, 50), 10), (stats(90, 60), 10)]);
        assert_eq!(head_plus_one.intervals, 2);
        assert_eq!(
            head_plus_one.ipc_rel_stderr, None,
            "one periodic window has no measurable spread"
        );
        // With two periodic windows the spread is defined (and positive for
        // unequal CPIs).
        let head_plus_two = SampledStats::from_intervals(&[
            (stats(100, 50), 10),
            (stats(90, 60), 10),
            (stats(90, 90), 10),
        ]);
        assert!(head_plus_two.ipc_rel_stderr.unwrap() > 0.0);
    }

    /// A two-phase program: a long integer-loop phase followed by a long
    /// memory-loop phase, so interval BBVs fall into two clearly separated
    /// clusters.
    fn two_phase_program(iters: i64) -> Program {
        let r = ArchReg::int;
        Program::new(vec![
            Instruction::li(r(1), iters),  // 0
            Instruction::li(r(2), 0x8000), // 1
            // Phase A: pure integer loop at PCs 2..4.
            Instruction::addi(r(3), r(3), 1),  // 2
            Instruction::addi(r(1), r(1), -1), // 3
            Instruction::bne(r(1), ArchReg::ZERO, TEXT_BASE + 8), // 4
            Instruction::li(r(1), iters),      // 5
            // Phase B: memory loop at PCs 6..8.
            Instruction::load(r(4), r(2), 0),  // 6
            Instruction::addi(r(1), r(1), -1), // 7
            Instruction::bne(r(1), ArchReg::ZERO, TEXT_BASE + 24), // 8
            Instruction::halt(),               // 9
        ])
    }

    fn two_phase_bbvs(interval: u64) -> Vec<msp_isa::BbvSignature> {
        let p = two_phase_program(2_000);
        let trace = Trace::capture_with_checkpoints(&p, u64::MAX, interval);
        assert!(trace.is_complete());
        trace.bbvs().to_vec()
    }

    #[test]
    fn clustering_separates_an_obvious_two_phase_program() {
        let bbvs = two_phase_bbvs(500);
        let phases = cluster_phases(&bbvs, 8, DEFAULT_CLUSTER_SEED);
        assert!(
            (2..=3).contains(&phases.phases()),
            "two program phases (plus at most one transition interval) \
             expected, got {}",
            phases.phases()
        );
        // The first and last intervals are in different phases.
        assert_ne!(
            phases.assignment.first().unwrap(),
            phases.assignment.last().unwrap()
        );
    }

    #[test]
    fn clustering_is_reproducible_for_a_fixed_seed() {
        let bbvs = two_phase_bbvs(250);
        let a = cluster_phases(&bbvs, 8, 42);
        let b = cluster_phases(&bbvs, 8, 42);
        assert_eq!(a, b, "same seed, same clustering");
    }

    #[test]
    fn identical_intervals_collapse_to_one_phase() {
        // One real interval signature, repeated verbatim: a constant-
        // behaviour program region must always collapse to a single phase.
        let mut acc = BbvAccumulator::new(100);
        let p = two_phase_program(50);
        let trace = Trace::capture(&p, 100);
        for rec in trace.records() {
            acc.observe(rec);
        }
        let one = acc.finish().into_iter().next().unwrap();
        let bbvs = vec![one; 5];
        let phases = cluster_phases(&bbvs, 8, DEFAULT_CLUSTER_SEED);
        assert_eq!(phases.phases(), 1, "identical BBVs are one phase");
        assert_eq!(phases.weights, vec![1.0]);
    }

    #[test]
    fn empty_input_clusters_to_nothing() {
        let phases = cluster_phases(&[], 8, 0);
        assert_eq!(phases.phases(), 0);
        assert!(phases.assignment.is_empty());
    }

    #[test]
    fn adaptive_order_is_a_spread_out_permutation() {
        for n in [0usize, 1, 2, 3, 7, 8, 9, 16, 31] {
            let order = adaptive_window_order(n);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "n={n}: a permutation");
        }
        // The first few picks of a 16-window budget span the whole range
        // rather than crowding the start.
        let order = adaptive_window_order(16);
        assert_eq!(&order[..4], &[0, 8, 4, 12]);
    }

    proptest! {
        /// Phase weights are populations normalised to 1 and every interval
        /// maps to exactly one in-range phase whose representative is a
        /// member of that phase.
        #[test]
        fn cluster_invariants_hold(
            seeds in proptest::collection::vec(0u64..u64::MAX, 1..40),
            max_phases in 1usize..10,
            seed in 0u64..u64::MAX,
        ) {
            // Synthesise BBVs from raw entropy: a few blocks with
            // entropy-derived weights.
            let mut acc_rng = seed;
            let bbvs: Vec<msp_isa::BbvSignature> = seeds
                .iter()
                .map(|&s| {
                    let mut rng = s;
                    let blocks = 1 + splitmix64(&mut rng) % 5;
                    let mut acc = BbvAccumulator::new(u64::MAX);
                    // Indirectly build a signature through the public
                    // accumulator: run a tiny synthetic program whose block
                    // mix is entropy-chosen.
                    let r = ArchReg::int;
                    let mut insts = vec![Instruction::li(r(1), blocks as i64)];
                    for b in 0..blocks {
                        insts.push(Instruction::addi(r(2), r(2), b as i64 + 1));
                    }
                    insts.push(Instruction::addi(r(1), r(1), -1));
                    let top = TEXT_BASE + 4;
                    insts.push(Instruction::bne(r(1), ArchReg::ZERO, top));
                    insts.push(Instruction::halt());
                    let p = Program::new(insts);
                    let budget = 1 + splitmix64(&mut acc_rng) % 200;
                    for rec in Trace::capture(&p, budget).records() {
                        acc.observe(rec);
                    }
                    acc.finish().into_iter().next().unwrap()
                })
                .collect();
            let phases = cluster_phases(&bbvs, max_phases, seed);
            prop_assert_eq!(phases.assignment.len(), bbvs.len());
            let k = phases.phases();
            prop_assert!(k >= 1 && k <= max_phases.min(bbvs.len()));
            for &a in &phases.assignment {
                prop_assert!(a < k, "every interval maps to a real phase");
            }
            prop_assert_eq!(phases.representatives.len(), k);
            prop_assert_eq!(phases.weights.len(), k);
            for (p, &rep) in phases.representatives.iter().enumerate() {
                prop_assert!(
                    phases.assignment[rep] == p,
                    "a representative belongs to its own phase"
                );
            }
            let total: f64 = phases.weights.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "weights sum to 1, got {}", total);
            for &w in &phases.weights {
                prop_assert!(w > 0.0, "every phase has members");
            }
        }
    }
}
