//! Generators for every table and figure of the paper's Section 5.
//!
//! Figure/table numbering follows the paper. Cycle counts are reported raw
//! (the paper plots millions; the *shapes* are what reproduce — see
//! EXPERIMENTS.md).

use smt_core::{CommitPolicy, FetchPolicy};
use smt_isa::FuClass;
use smt_mem::CacheKind;
use smt_workloads::{Group, WorkloadKind};

use crate::runner::{RunKey, Runner};
use crate::{Cell, Table};

/// Benchmarks of a group, in the paper's presentation order.
#[must_use]
pub fn group_kinds(group: Group) -> Vec<WorkloadKind> {
    WorkloadKind::ALL
        .iter()
        .copied()
        .filter(|k| k.group() == group)
        .collect()
}

/// Thread counts swept by the paper.
pub const THREAD_SWEEP: [usize; 6] = [1, 2, 3, 4, 5, 6];

/// Scheduling-unit depths swept by the paper (reconstructed; DESIGN.md).
pub const SU_SWEEP: [usize; 4] = [16, 32, 48, 64];

fn fetch_policy_figure(runner: &mut Runner, group: Group, id: &str) -> Table {
    let mut t = Table::new(
        id,
        &format!("execution cycles of {group} under the three fetch policies (4 threads) and the single-threaded base case"),
        &["TrueRR", "MaskedRR", "CSwitch", "BaseCase"],
    );
    for kind in group_kinds(group) {
        let mut row = Vec::new();
        for fetch in [
            FetchPolicy::TrueRoundRobin,
            FetchPolicy::MaskedRoundRobin,
            FetchPolicy::ConditionalSwitch,
        ] {
            let key = RunKey {
                fetch,
                ..RunKey::default_point(kind)
            };
            row.push(Cell::Int(runner.cycles(key)));
        }
        row.push(Cell::Int(runner.cycles(RunKey::base_case(kind))));
        t.push_row(kind.name(), row);
    }
    t
}

/// Figure 3 — fetch policies, Group I.
pub fn fig03_fetch_policy_group1(runner: &mut Runner) -> Table {
    fetch_policy_figure(runner, Group::I, "Figure 3")
}

/// Figure 4 — fetch policies, Group II.
pub fn fig04_fetch_policy_group2(runner: &mut Runner) -> Table {
    fetch_policy_figure(runner, Group::II, "Figure 4")
}

fn thread_sweep_figure(runner: &mut Runner, group: Group, id: &str) -> Table {
    let mut t = Table::new(
        id,
        &format!("execution cycles of {group} for 1–6 resident threads"),
        &["One", "Two", "Three", "Four", "Five", "Six"],
    );
    for kind in group_kinds(group) {
        let row = THREAD_SWEEP
            .iter()
            .map(|&threads| {
                Cell::Int(runner.cycles(RunKey {
                    threads,
                    ..RunKey::default_point(kind)
                }))
            })
            .collect();
        t.push_row(kind.name(), row);
    }
    t
}

/// Figure 5 — thread-count sweep, Group I.
pub fn fig05_threads_group1(runner: &mut Runner) -> Table {
    thread_sweep_figure(runner, Group::I, "Figure 5")
}

/// Figure 6 — thread-count sweep, Group II.
pub fn fig06_threads_group2(runner: &mut Runner) -> Table {
    thread_sweep_figure(runner, Group::II, "Figure 6")
}

fn cache_figure(runner: &mut Runner, group: Group, id: &str) -> Table {
    let mut t = Table::new(
        id,
        &format!("average execution cycles of {group} with direct-mapped vs 4-way set-associative caches, 1–6 threads"),
        &["Direct", "Associative"],
    );
    for &threads in &THREAD_SWEEP {
        let mut row = Vec::new();
        for cache in [CacheKind::DirectMapped, CacheKind::SetAssociative] {
            let kinds = group_kinds(group);
            let total: u64 = kinds
                .iter()
                .map(|&kind| {
                    runner.cycles(RunKey {
                        threads,
                        cache,
                        ..RunKey::default_point(kind)
                    })
                })
                .sum();
            row.push(Cell::Int(total / kinds.len() as u64));
        }
        t.push_row(format!("{threads} thread(s)"), row);
    }
    t
}

/// Figure 7 — direct vs associative cache, Group I averages.
pub fn fig07_cache_group1(runner: &mut Runner) -> Table {
    cache_figure(runner, Group::I, "Figure 7")
}

/// Figure 8 — direct vs associative cache, Group II averages.
pub fn fig08_cache_group2(runner: &mut Runner) -> Table {
    cache_figure(runner, Group::II, "Figure 8")
}

/// Table 2 — average hit rates for direct and associative caches across
/// thread counts, per group.
pub fn table2_hit_rates(runner: &mut Runner) -> Table {
    let mut t = Table::new(
        "Table 2",
        "average data-cache hit rates (%) for direct-mapped and 4-way set-associative caches",
        &["Direct", "Assoc."],
    );
    for &threads in &THREAD_SWEEP {
        for group in [Group::I, Group::II] {
            let kinds = group_kinds(group);
            let mut row = Vec::new();
            for cache in [CacheKind::DirectMapped, CacheKind::SetAssociative] {
                let sum: f64 = kinds
                    .iter()
                    .map(|&kind| {
                        runner
                            .run(RunKey {
                                threads,
                                cache,
                                ..RunKey::default_point(kind)
                            })
                            .cache
                            .hit_rate()
                    })
                    .sum();
                row.push(Cell::Float(sum / kinds.len() as f64));
            }
            let label = match group {
                Group::I => format!("{threads} thr, Group I"),
                Group::II => format!("{threads} thr, Group II"),
            };
            t.push_row(label, row);
        }
    }
    t
}

fn su_depth_figure(runner: &mut Runner, group: Group, id: &str) -> Table {
    let columns: Vec<String> = [4, 1]
        .iter()
        .flat_map(|&threads| SU_SWEEP.iter().map(move |&d| format!("{threads}T, SU{d}")))
        .collect();
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut t = Table::new(
        id,
        &format!("execution cycles of {group} for scheduling units of 16–64 entries, 4-thread and single-thread"),
        &col_refs,
    );
    for kind in group_kinds(group) {
        let mut row = Vec::new();
        for threads in [4usize, 1] {
            for &su_depth in &SU_SWEEP {
                row.push(Cell::Int(runner.cycles(RunKey {
                    threads,
                    su_depth,
                    ..RunKey::default_point(kind)
                })));
            }
        }
        t.push_row(kind.name(), row);
    }
    t
}

/// Figure 9 — scheduling-unit depth sweep, Group I.
pub fn fig09_su_depth_group1(runner: &mut Runner) -> Table {
    su_depth_figure(runner, Group::I, "Figure 9")
}

/// Figure 10 — scheduling-unit depth sweep, Group II.
pub fn fig10_su_depth_group2(runner: &mut Runner) -> Table {
    su_depth_figure(runner, Group::II, "Figure 10")
}

fn fu_config_figure(runner: &mut Runner, group: Group, id: &str) -> Table {
    let mut t = Table::new(
        id,
        &format!("execution cycles of {group} with default and enhanced (++) functional units, 4-thread and base"),
        &["4 Threads", "4 Threads++", "Base", "Base++"],
    );
    for kind in group_kinds(group) {
        let mut row = Vec::new();
        for (threads, enhanced) in [(4usize, false), (4, true), (1, false), (1, true)] {
            row.push(Cell::Int(runner.cycles(RunKey {
                threads,
                enhanced_fu: enhanced,
                ..RunKey::default_point(kind)
            })));
        }
        t.push_row(kind.name(), row);
    }
    t
}

/// Figure 11 — functional-unit configurations, Group I.
pub fn fig11_fu_config_group1(runner: &mut Runner) -> Table {
    fu_config_figure(runner, Group::I, "Figure 11")
}

/// Figure 12 — functional-unit configurations, Group II.
pub fn fig12_fu_config_group2(runner: &mut Runner) -> Table {
    fu_config_figure(runner, Group::II, "Figure 12")
}

/// Table 3 — average occupancy of each *extra* functional unit (enhanced
/// configuration, 4 threads) as a percentage of total cycles, per group.
pub fn table3_fu_usage(runner: &mut Runner) -> Table {
    let classes = [
        FuClass::Alu,
        FuClass::Load,
        FuClass::Store,
        FuClass::IntMul,
        FuClass::IntDiv,
        FuClass::FpAdd,
        FuClass::FpMul,
        FuClass::FpDiv,
    ];
    let mut t = Table::new(
        "Table 3",
        "average usage of the extra functional units as a percentage of total cycles (enhanced configuration, 4 threads)",
        &["Group I %", "Group II %"],
    );
    for class in classes {
        let mut row = Vec::new();
        for group in [Group::I, Group::II] {
            let kinds = group_kinds(group);
            let sum: f64 = kinds
                .iter()
                .map(|&kind| {
                    let key = RunKey {
                        enhanced_fu: true,
                        ..RunKey::default_point(kind)
                    };
                    let stats = runner.run(key);
                    stats.fu.extra_unit_pct(class, stats.cycles)
                })
                .sum();
            row.push(Cell::Float(sum / kinds.len() as f64));
        }
        t.push_row(format!("Extra {class}"), row);
    }
    t
}

fn commit_figure(runner: &mut Runner, group: Group, id: &str) -> Table {
    let mut t = Table::new(
        id,
        &format!("execution cycles of {group} with flexible (multiple-block) vs lowest-only result commit, 4 threads"),
        &["Multiple", "Lowest", "SU stalls (Multiple)", "SU stalls (Lowest)"],
    );
    for kind in group_kinds(group) {
        let flexible = runner.run(RunKey {
            commit: CommitPolicy::Flexible,
            ..RunKey::default_point(kind)
        });
        let lowest = runner.run(RunKey {
            commit: CommitPolicy::LowestOnly,
            ..RunKey::default_point(kind)
        });
        t.push_row(
            kind.name(),
            vec![
                Cell::Int(flexible.cycles),
                Cell::Int(lowest.cycles),
                Cell::Int(flexible.su_stall_cycles),
                Cell::Int(lowest.su_stall_cycles),
            ],
        );
    }
    t
}

/// Figure 13 — commit policy, Group I.
pub fn fig13_commit_group1(runner: &mut Runner) -> Table {
    commit_figure(runner, Group::I, "Figure 13")
}

/// Figure 14 — commit policy, Group II.
pub fn fig14_commit_group2(runner: &mut Runner) -> Table {
    commit_figure(runner, Group::II, "Figure 14")
}

/// Section 5.2 summary — peak improvement per benchmark over the thread
/// sweep, using the paper's speedup formula, plus prediction accuracy at
/// the default point.
pub fn summary_speedups(runner: &mut Runner) -> Table {
    let mut t = Table::new(
        "Section 5.2 summary",
        "peak speedup over single-threaded execution (max over 2–6 threads), best thread count, and branch accuracy",
        &["Peak speedup %", "Best threads", "Branch accuracy %"],
    );
    for kind in WorkloadKind::ALL {
        let base = runner.cycles(RunKey::base_case(kind));
        let (mut best_pct, mut best_threads) = (f64::NEG_INFINITY, 1);
        for &threads in &THREAD_SWEEP[1..] {
            let cycles = runner.cycles(RunKey {
                threads,
                ..RunKey::default_point(kind)
            });
            let pct = smt_core::stats::speedup(base, cycles) * 100.0;
            if pct > best_pct {
                best_pct = pct;
                best_threads = threads;
            }
        }
        let accuracy = runner.run(RunKey::default_point(kind)).branches.accuracy();
        t.push_row(
            kind.name(),
            vec![
                Cell::Float(best_pct),
                Cell::Int(best_threads as u64),
                Cell::Float(accuracy),
            ],
        );
    }
    t
}

// ---- ablations and extensions beyond the paper's figures -------------------
//
// Table 2 of the paper lists hardware features it varied but shows no
// dedicated figures for (result bypassing, scoreboarding instead of
// renaming); Section 6 proposes extensions ("employ more cache ports").
// These tables cover them, plus sensitivity sweeps for two reconstructed
// parameters (store-buffer depth, miss penalty).

/// Representative benchmarks for the ablation tables: one compute-dense
/// loop, one memory-bound loop, one irregular Group II code, one sync-bound.
const ABLATION_SET: [WorkloadKind; 4] = [
    WorkloadKind::Ll7,
    WorkloadKind::Ll12,
    WorkloadKind::Mpd,
    WorkloadKind::Ll5,
];

/// Ablation A — result bypassing on/off (Table 2's "Bypassing of results"
/// row), 4 threads and single-thread.
pub fn ablation_bypass(runner: &mut Runner) -> Table {
    let mut t = Table::new(
        "Ablation A",
        "execution cycles with and without result bypassing",
        &["4T bypass", "4T no-bypass", "1T bypass", "1T no-bypass"],
    );
    for kind in ABLATION_SET {
        let mut row = Vec::new();
        for (threads, bypass) in [(4usize, true), (4, false), (1, true), (1, false)] {
            let cfg = RunKey {
                threads,
                ..RunKey::default_point(kind)
            }
            .to_config()
            .with_bypass(bypass);
            row.push(Cell::Int(runner.run_config(kind, cfg).cycles));
        }
        t.push_row(kind.name(), row);
    }
    t
}

/// Ablation B — full register renaming vs 2-bit scoreboarding (Table 2's
/// "Register Renaming" row).
pub fn ablation_renaming(runner: &mut Runner) -> Table {
    use smt_core::RenamingMode;
    let mut t = Table::new(
        "Ablation B",
        "execution cycles with full renaming vs scoreboarding (decode stalls on RAW hazards)",
        &[
            "4T renaming",
            "4T scoreboard",
            "1T renaming",
            "1T scoreboard",
        ],
    );
    for kind in ABLATION_SET {
        let mut row = Vec::new();
        for (threads, mode) in [
            (4usize, RenamingMode::Full),
            (4, RenamingMode::Scoreboard),
            (1, RenamingMode::Full),
            (1, RenamingMode::Scoreboard),
        ] {
            let cfg = RunKey {
                threads,
                ..RunKey::default_point(kind)
            }
            .to_config()
            .with_renaming(mode);
            row.push(Cell::Int(runner.run_config(kind, cfg).cycles));
        }
        t.push_row(kind.name(), row);
    }
    t
}

/// Ablation C — store-buffer depth sensitivity (the paper fixes 8 entries).
pub fn ablation_store_buffer(runner: &mut Runner) -> Table {
    let depths = [1usize, 2, 4, 8, 16];
    let columns: Vec<String> = depths.iter().map(|d| format!("SB{d}")).collect();
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Ablation C",
        "execution cycles vs store-buffer depth (4 threads)",
        &col_refs,
    );
    for kind in [
        WorkloadKind::Sieve,
        WorkloadKind::Matrix,
        WorkloadKind::Laplace,
    ] {
        let row = depths
            .iter()
            .map(|&d| {
                let cfg = RunKey::default_point(kind).to_config().with_store_buffer(d);
                Cell::Int(runner.run_config(kind, cfg).cycles)
            })
            .collect();
        t.push_row(kind.name(), row);
    }
    t
}

/// Ablation D — miss-penalty sensitivity for the reconstructed 12-cycle
/// value (see DESIGN.md).
pub fn ablation_miss_penalty(runner: &mut Runner) -> Table {
    let penalties = [6u64, 12, 24, 48];
    let columns: Vec<String> = penalties.iter().map(|p| format!("{p}cy")).collect();
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Ablation D",
        "execution cycles vs cache miss penalty (4 threads; the repo's default is 12)",
        &col_refs,
    );
    for kind in [WorkloadKind::Ll1, WorkloadKind::Ll12, WorkloadKind::Mpd] {
        let row = penalties
            .iter()
            .map(|&p| {
                let mut cfg = RunKey::default_point(kind).to_config();
                cfg.cache.miss_penalty = p;
                Cell::Int(runner.run_config(kind, cfg).cycles)
            })
            .collect();
        t.push_row(kind.name(), row);
    }
    t
}

/// Extension — outstanding-refill (MSHR) count, the paper's Section 6
/// suggestion to "employ more cache ports, especially the scarce ones".
pub fn ext_cache_ports(runner: &mut Runner) -> Table {
    let mshrs = [1usize, 2, 4];
    let columns: Vec<String> = mshrs.iter().map(|m| format!("{m} MSHR")).collect();
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Extension: cache ports",
        "execution cycles vs outstanding-refill slots (4 threads; the paper's machine has 1)",
        &col_refs,
    );
    for kind in [WorkloadKind::Mpd, WorkloadKind::Ll12, WorkloadKind::Laplace] {
        let row = mshrs
            .iter()
            .map(|&m| {
                let mut cfg = RunKey::default_point(kind).to_config();
                cfg.cache = cfg.cache.with_mshrs(m);
                Cell::Int(runner.run_config(kind, cfg).cycles)
            })
            .collect();
        t.push_row(kind.name(), row);
    }
    t
}

/// Extension — aligned fetch blocks, the machine model behind the paper's
/// Section 6 suggestion to "align instructions in memory in such a way that
/// control transfer operations lie at the end of a fetched block, and
/// branch targets at the beginning of a block". Fetching aligned blocks
/// wastes the slots before a mid-block entry point, so unaligned targets
/// cost fetch bandwidth.
pub fn ext_fetch_alignment(runner: &mut Runner) -> Table {
    let mut t = Table::new(
        "Extension: fetch alignment",
        "execution cycles with free vs block-aligned fetch (4 threads)",
        &["Free placement", "Aligned blocks", "Penalty %"],
    );
    for kind in [
        WorkloadKind::Ll1,
        WorkloadKind::Ll7,
        WorkloadKind::Matrix,
        WorkloadKind::Laplace,
    ] {
        let free = runner.run_config(kind, RunKey::default_point(kind).to_config());
        let aligned = runner.run_config(
            kind,
            RunKey::default_point(kind)
                .to_config()
                .with_aligned_fetch(true),
        );
        let penalty = 100.0 * (aligned.cycles as f64 - free.cycles as f64) / free.cycles as f64;
        t.push_row(
            kind.name(),
            vec![
                Cell::Int(free.cycles),
                Cell::Int(aligned.cycles),
                Cell::Float(penalty),
            ],
        );
    }
    t
}

/// Observability — per-thread commit counts and IPC shares at the default
/// 4-thread point. Cycles are shared, so the per-thread IPCs sum to the
/// aggregate; the spread between the busiest and laziest thread is the
/// fairness the aggregate number hides (True Round Robin hands every
/// thread the same fetch slots, but sync stalls and cache misses land
/// unevenly).
pub fn obs_per_thread_ipc(runner: &mut Runner) -> Table {
    let mut t = Table::new(
        "Observability: per-thread IPC",
        "per-thread committed instructions and IPC share (4 threads, True Round Robin)",
        &[
            "T0 insns", "T1 insns", "T2 insns", "T3 insns", "T0 IPC", "T1 IPC", "T2 IPC", "T3 IPC",
            "IPC",
        ],
    );
    for kind in WorkloadKind::ALL {
        let stats = runner.run(RunKey::default_point(kind));
        let per = stats.per_thread_ipc();
        let mut row: Vec<Cell> = stats
            .committed
            .iter()
            .map(|&c| Cell::Int(c))
            .chain(per.iter().map(|&i| Cell::Float(i)))
            .collect();
        // The recording pass hands back placeholder stats with no
        // per-thread vectors; pad so the row width check holds either way.
        row.resize(8, Cell::Int(0));
        row.push(Cell::Float(stats.ipc()));
        t.push_row(kind.name(), row);
    }
    t
}

/// Thread counts for the CPI-stack table. Matrix and LL7 need 17 and 19
/// architectural registers, more than the 16-register split an 8-thread
/// partition would leave, so the sweep tops out at the paper's 6 threads.
const CPI_STACK_THREADS: [usize; 3] = [1, 4, 6];

/// Observability — the CPI stack of the FLOP-dense benchmarks across the
/// thread sweep: where the machine's 4 slots/cycle of frontend bandwidth
/// actually went. The `committed %` column is machine utilization; the
/// loss columns explain the saturation knee (see EXPERIMENTS.md).
pub fn obs_cpi_stack(runner: &mut Runner) -> Table {
    let causes = [
        ("committed", smt_trace::SlotCause::Committed),
        ("fragment", smt_trace::SlotCause::Fragment),
        ("fetch-starved", smt_trace::SlotCause::FetchStarved),
        ("sync-wait", smt_trace::SlotCause::SyncWait),
        ("operand-wait", smt_trace::SlotCause::OperandWait),
        ("fu-busy", smt_trace::SlotCause::FuBusy),
        ("dcache-miss", smt_trace::SlotCause::DCacheMiss),
        ("su-full", smt_trace::SlotCause::SuFull),
        ("squash", smt_trace::SlotCause::SquashDiscard),
    ];
    let mut columns = vec!["CPI".to_string()];
    columns.extend(causes.iter().map(|(name, _)| format!("{name} %")));
    columns.push("other %".to_string());
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Observability: CPI stack",
        "slot-bandwidth attribution in percent of 4 slots/cycle (True Round Robin)",
        &col_refs,
    );
    for kind in [WorkloadKind::Matrix, WorkloadKind::Ll7] {
        for threads in CPI_STACK_THREADS {
            let b = runner.run_cpi(RunKey {
                threads,
                ..RunKey::default_point(kind)
            });
            let mut row = vec![Cell::Float(b.cpi())];
            let mut listed = 0.0;
            for &(_, cause) in &causes {
                let pct = b.share_pct(cause);
                listed += pct;
                row.push(Cell::Float(pct));
            }
            row.push(Cell::Float((100.0 - listed).max(0.0)));
            t.push_row(format!("{} x{threads}", kind.name()), row);
        }
    }
    t
}

/// A named table generator, as listed by [`all`].
pub type Generator = fn(&mut Runner) -> Table;

/// Every generator, in paper order, for the report binary and benches.
#[must_use]
pub fn all() -> Vec<(&'static str, Generator)> {
    vec![
        ("fig03", fig03_fetch_policy_group1),
        ("fig04", fig04_fetch_policy_group2),
        ("fig05", fig05_threads_group1),
        ("fig06", fig06_threads_group2),
        ("fig07", fig07_cache_group1),
        ("fig08", fig08_cache_group2),
        ("table2", table2_hit_rates),
        ("fig09", fig09_su_depth_group1),
        ("fig10", fig10_su_depth_group2),
        ("fig11", fig11_fu_config_group1),
        ("fig12", fig12_fu_config_group2),
        ("table3", table3_fu_usage),
        ("fig13", fig13_commit_group1),
        ("fig14", fig14_commit_group2),
        ("summary", summary_speedups),
        ("ablation_bypass", ablation_bypass),
        ("ablation_renaming", ablation_renaming),
        ("ablation_store_buffer", ablation_store_buffer),
        ("ablation_miss_penalty", ablation_miss_penalty),
        ("ext_cache_ports", ext_cache_ports),
        ("ext_fetch_alignment", ext_fetch_alignment),
        ("obs_per_thread", obs_per_thread_ipc),
        ("obs_cpi_stack", obs_cpi_stack),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_workloads::Scale;

    #[test]
    fn fig03_has_six_rows_and_four_columns() {
        let mut r = Runner::new(Scale::Test);
        let t = fig03_fetch_policy_group1(&mut r);
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.columns.len(), 4);
        for row in &t.rows {
            for cell in &row.values {
                assert!(matches!(cell, Cell::Int(c) if *c > 0), "{row:?}");
            }
        }
    }

    #[test]
    fn table2_covers_both_groups_across_threads() {
        let mut r = Runner::new(Scale::Test);
        let t = table2_hit_rates(&mut r);
        assert_eq!(t.rows.len(), 12); // 6 thread counts × 2 groups
        for row in &t.rows {
            for cell in &row.values {
                let Cell::Float(rate) = cell else {
                    panic!("{cell:?}")
                };
                assert!((0.0..=100.0).contains(rate));
            }
        }
    }

    #[test]
    fn summary_reports_all_eleven_benchmarks() {
        let mut r = Runner::new(Scale::Test);
        let t = summary_speedups(&mut r);
        assert_eq!(t.rows.len(), 11);
    }

    #[test]
    fn generator_registry_is_complete() {
        assert_eq!(all().len(), 23);
    }

    #[test]
    fn per_thread_ipcs_sum_to_the_aggregate() {
        let mut r = Runner::new(Scale::Test);
        let t = obs_per_thread_ipc(&mut r);
        assert_eq!(t.rows.len(), 11);
        for row in &t.rows {
            let floats: Vec<f64> = row
                .values
                .iter()
                .filter_map(|c| match c {
                    Cell::Float(v) => Some(*v),
                    Cell::Int(_) => None,
                    other => panic!("{other:?}"),
                })
                .collect();
            assert_eq!(floats.len(), 5, "{row:?}");
            let sum: f64 = floats[..4].iter().sum();
            assert!((sum - floats[4]).abs() < 1e-9, "{row:?}");
        }
    }

    #[test]
    fn cpi_stack_shares_cover_the_bandwidth() {
        let mut r = Runner::new(Scale::Test);
        let t = obs_cpi_stack(&mut r);
        assert_eq!(t.rows.len(), 6); // 2 benchmarks × 3 thread counts
        for row in &t.rows {
            let shares: f64 = row.values[1..]
                .iter()
                .map(|c| match c {
                    Cell::Float(v) => *v,
                    other => panic!("{other:?}"),
                })
                .sum();
            assert!(
                (shares - 100.0).abs() < 0.5,
                "listed + other must cover ~100 %: {row:?}"
            );
        }
    }
}
