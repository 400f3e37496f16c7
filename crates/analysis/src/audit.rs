//! Soundness/precision audit: diff the dynamic taint oracle against the
//! static sink set.
//!
//! The machine's taint plane (`fpvm_machine::taint`) observes, at run time,
//! every integer-world instruction that consumes bits which may carry a
//! NaN-box at a site the patcher did *not* trap. This module is the offline
//! half: given the static [`Analysis`], the set of addresses actually
//! patched, per-site correctness-trap observations, and the taint plane's
//! site map, it classifies every site:
//!
//! * **Confirmed** — patched, and at least one trap demoted a live box: the
//!   static sink was real.
//! * **Spurious** — patched and exercised, but no trap ever found a box:
//!   precision loss; every one of those traps was wasted work.
//! * **Unexercised** — patched but never reached (or a skipped sink that
//!   never leaked); says nothing either way. Coverage is only as good as
//!   the executed paths.
//! * **Missed** — the oracle saw actual NaN-box bits enter the integer
//!   world at an unpatched site: a soundness hole. Hard failure.
//! * **TaintedOnly** — an unpatched site consumed may-box bits that never
//!   actually held a box in this run. Informational: the oracle cannot
//!   rule the site out, but it produced no evidence against the analysis.
//!
//! Precision = confirmed / (confirmed + spurious); recall = confirmed /
//! (confirmed + missed), reported overall and per [`SinkReason`].

use crate::vsa::{Analysis, SinkReason};
use fpvm_machine::{TaintSinkKind, TaintSite};
use std::collections::{BTreeMap, BTreeSet};

/// Dynamic observations at one patched sink, accumulated from
/// `TraceEvent::CorrectnessTrap` events.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiteDyn {
    /// Correctness traps taken at this site.
    pub traps: u64,
    /// Traps that demoted at least one live box.
    pub demotions: u64,
    /// Cycles charged at this site, as booked by [`SiteDyn::record`].
    pub cycles: u64,
    /// Cycles charged by traps that demoted nothing.
    pub wasted_cycles: u64,
}

impl SiteDyn {
    /// Fold one trap event into the accumulator. Pass modeled cycles
    /// (dispatch plus the modeled handler check) to get a deterministic
    /// `wasted_cycles`; the event's measured handler time varies by run.
    pub fn record(&mut self, demoted: bool, cycles: u64) {
        self.traps += 1;
        self.cycles += cycles;
        if demoted {
            self.demotions += 1;
        } else {
            self.wasted_cycles += cycles;
        }
    }
}

/// Audit verdict for one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteClass {
    /// Patched sink whose trap demoted a real box: true positive.
    Confirmed,
    /// Patched sink that trapped but never demoted: false positive.
    Spurious,
    /// Never exercised by the workload; no verdict.
    Unexercised,
    /// Unpatched site where the oracle observed real box bits: soundness
    /// hole, hard failure.
    Missed,
    /// Unpatched site that consumed may-box bits which never held a box.
    TaintedOnly,
}

/// One classified site in the audit report.
#[derive(Debug, Clone, Copy)]
pub struct AuditSite {
    /// Instruction address.
    pub addr: u64,
    /// Sink classification (static reason, or the oracle's kind mapped
    /// onto it for dynamic-only sites).
    pub reason: SinkReason,
    /// The verdict.
    pub class: SiteClass,
    /// Dynamic executions observed: trap count for patched sites, taint
    /// hits for unpatched ones.
    pub hits: u64,
    /// Box evidence: demoting traps for patched sites, boxed hits for
    /// unpatched ones.
    pub box_hits: u64,
    /// Cycles wasted at this site (spurious sites only).
    pub wasted_cycles: u64,
}

/// Confusion counts and derived metrics for one sink reason (or overall).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReasonMetrics {
    /// True positives.
    pub confirmed: usize,
    /// False positives (patched, exercised, never demoted).
    pub spurious: usize,
    /// Sites with no dynamic verdict.
    pub unexercised: usize,
    /// Soundness holes.
    pub missed: usize,
}

impl ReasonMetrics {
    fn add(&mut self, class: SiteClass) {
        match class {
            SiteClass::Confirmed => self.confirmed += 1,
            SiteClass::Spurious => self.spurious += 1,
            SiteClass::Unexercised => self.unexercised += 1,
            SiteClass::Missed => self.missed += 1,
            SiteClass::TaintedOnly => {}
        }
    }

    /// confirmed / (confirmed + spurious); 1.0 when nothing was exercised.
    pub fn precision(&self) -> f64 {
        let d = self.confirmed + self.spurious;
        if d == 0 {
            1.0
        } else {
            self.confirmed as f64 / d as f64
        }
    }

    /// confirmed / (confirmed + missed); 1.0 when nothing leaked.
    pub fn recall(&self) -> f64 {
        let d = self.confirmed + self.missed;
        if d == 0 {
            1.0
        } else {
            self.confirmed as f64 / d as f64
        }
    }
}

/// The full audit result for one (program, workload) run.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Every classified site, sorted by address.
    pub sites: Vec<AuditSite>,
    /// Metrics per sink reason.
    pub per_reason: Vec<(SinkReason, ReasonMetrics)>,
    /// Overall metrics.
    pub total: ReasonMetrics,
    /// Unpatched sites that consumed may-box bits without evidence.
    pub tainted_only: usize,
    /// Correctness-trap cycles wasted at spurious sinks.
    pub wasted_cycles: u64,
}

impl AuditReport {
    /// No missed sinks: the static analysis was sound on the paths this
    /// workload executed.
    pub fn is_sound(&self) -> bool {
        self.total.missed == 0
    }

    /// The addresses of every missed (soundness-hole) site.
    pub fn missed_addrs(&self) -> Vec<u64> {
        self.sites
            .iter()
            .filter(|s| s.class == SiteClass::Missed)
            .map(|s| s.addr)
            .collect()
    }
}

fn kind_to_reason(k: TaintSinkKind) -> SinkReason {
    match k {
        TaintSinkKind::IntLoad => SinkReason::IntLoadOfFp,
        TaintSinkKind::MovqLeak => SinkReason::MovqLeak,
        TaintSinkKind::BitwiseFp => SinkReason::BitwiseFp,
    }
}

const REASONS: [SinkReason; 3] = [
    SinkReason::IntLoadOfFp,
    SinkReason::MovqLeak,
    SinkReason::BitwiseFp,
];

/// Classify every static sink and every dynamic taint site.
///
/// * `analysis` — the static result whose sink set is being audited;
/// * `patched` — addresses actually rewritten into correctness traps (the
///   side table; may be smaller than the sink set when the patcher skipped
///   sites);
/// * `traps` — per-site correctness-trap observations from the run;
/// * `taint_sites` — the taint plane's site map (only unpatched sites are
///   recorded there by construction).
pub fn audit(
    analysis: &Analysis,
    patched: &BTreeSet<u64>,
    traps: &BTreeMap<u64, SiteDyn>,
    taint_sites: &BTreeMap<u64, TaintSite>,
) -> AuditReport {
    let mut sites = Vec::new();
    let static_addrs: BTreeSet<u64> = analysis.sinks.iter().map(|s| s.addr).collect();
    for sink in &analysis.sinks {
        let site = if patched.contains(&sink.addr) {
            let d = traps.get(&sink.addr).copied().unwrap_or_default();
            let class = if d.demotions > 0 {
                SiteClass::Confirmed
            } else if d.traps > 0 {
                SiteClass::Spurious
            } else {
                SiteClass::Unexercised
            };
            AuditSite {
                addr: sink.addr,
                reason: sink.reason,
                class,
                hits: d.traps,
                box_hits: d.demotions,
                wasted_cycles: if class == SiteClass::Spurious {
                    d.wasted_cycles
                } else {
                    0
                },
            }
        } else {
            // A sink the patcher skipped: the oracle watches it directly.
            let (hits, boxed) = taint_sites
                .get(&sink.addr)
                .map_or((0, 0), |t| (t.hits, t.boxed_hits));
            let class = if boxed > 0 {
                SiteClass::Missed
            } else if hits > 0 {
                SiteClass::TaintedOnly
            } else {
                SiteClass::Unexercised
            };
            AuditSite {
                addr: sink.addr,
                reason: sink.reason,
                class,
                hits,
                box_hits: boxed,
                wasted_cycles: 0,
            }
        };
        sites.push(site);
    }
    // Dynamic sites the analysis never flagged.
    for (&addr, t) in taint_sites {
        if static_addrs.contains(&addr) {
            continue;
        }
        let class = if t.boxed_hits > 0 {
            SiteClass::Missed
        } else {
            SiteClass::TaintedOnly
        };
        sites.push(AuditSite {
            addr,
            reason: kind_to_reason(t.kind),
            class,
            hits: t.hits,
            box_hits: t.boxed_hits,
            wasted_cycles: 0,
        });
    }
    sites.sort_by_key(|s| s.addr);

    let mut total = ReasonMetrics::default();
    let mut by_reason: BTreeMap<usize, ReasonMetrics> = BTreeMap::new();
    let mut tainted_only = 0;
    let mut wasted_cycles = 0;
    for s in &sites {
        total.add(s.class);
        let idx = REASONS.iter().position(|&r| r == s.reason).unwrap_or(0);
        by_reason.entry(idx).or_default().add(s.class);
        if s.class == SiteClass::TaintedOnly {
            tainted_only += 1;
        }
        wasted_cycles += s.wasted_cycles;
    }
    let per_reason = REASONS
        .iter()
        .enumerate()
        .filter_map(|(i, &r)| by_reason.get(&i).map(|m| (r, *m)))
        .collect();
    AuditReport {
        sites,
        per_reason,
        total,
        tainted_only,
        wasted_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vsa::{AnalysisStats, Sink};
    use fpvm_machine::Inst;

    fn sinks(addrs: &[(u64, SinkReason)]) -> Analysis {
        Analysis {
            sinks: addrs
                .iter()
                .map(|&(addr, reason)| Sink {
                    addr,
                    inst: Inst::Nop,
                    len: 3,
                    reason,
                })
                .collect(),
            stats: AnalysisStats::default(),
        }
    }

    fn taint_site(kind: TaintSinkKind, hits: u64, boxed_hits: u64) -> TaintSite {
        TaintSite {
            inst: Inst::Nop,
            kind,
            hits,
            boxed_hits,
        }
    }

    #[test]
    fn confirmed_spurious_unexercised() {
        let an = sinks(&[
            (0x1000, SinkReason::IntLoadOfFp),
            (0x1010, SinkReason::IntLoadOfFp),
            (0x1020, SinkReason::MovqLeak),
        ]);
        let patched: BTreeSet<u64> = [0x1000, 0x1010, 0x1020].into();
        let mut traps = BTreeMap::new();
        let mut a = SiteDyn::default();
        a.record(true, 100);
        a.record(false, 100);
        traps.insert(0x1000, a);
        let mut b = SiteDyn::default();
        b.record(false, 70);
        b.record(false, 70);
        traps.insert(0x1010, b);
        let report = audit(&an, &patched, &traps, &BTreeMap::new());
        assert!(report.is_sound());
        assert_eq!(report.total.confirmed, 1);
        assert_eq!(report.total.spurious, 1);
        assert_eq!(report.total.unexercised, 1);
        assert_eq!(report.wasted_cycles, 140, "only spurious sites count");
        assert_eq!(report.total.precision(), 0.5);
        assert_eq!(report.total.recall(), 1.0);
    }

    #[test]
    fn unpatched_box_leak_is_missed() {
        // The analysis found nothing; the oracle saw a real box leak.
        let an = sinks(&[]);
        let mut taint = BTreeMap::new();
        taint.insert(0x2000, taint_site(TaintSinkKind::IntLoad, 10, 3));
        let report = audit(&an, &BTreeSet::new(), &BTreeMap::new(), &taint);
        assert!(!report.is_sound());
        assert_eq!(report.missed_addrs(), vec![0x2000]);
        assert_eq!(report.total.recall(), 0.0);
        let (r, m) = report.per_reason[0];
        assert_eq!(r, SinkReason::IntLoadOfFp);
        assert_eq!(m.missed, 1);
    }

    #[test]
    fn tainted_without_box_is_informational() {
        let an = sinks(&[]);
        let mut taint = BTreeMap::new();
        taint.insert(0x3000, taint_site(TaintSinkKind::IntLoad, 5, 0));
        let report = audit(&an, &BTreeSet::new(), &BTreeMap::new(), &taint);
        assert!(report.is_sound());
        assert_eq!(report.tainted_only, 1);
        assert_eq!(report.total.missed, 0);
    }

    #[test]
    fn skipped_sink_that_leaks_is_missed() {
        // Static sink exists but was not patched (e.g. skipped by the
        // patcher); the oracle catches the leak at that very address.
        let an = sinks(&[(0x4000, SinkReason::IntLoadOfFp)]);
        let mut taint = BTreeMap::new();
        taint.insert(0x4000, taint_site(TaintSinkKind::IntLoad, 2, 2));
        let report = audit(&an, &BTreeSet::new(), &BTreeMap::new(), &taint);
        assert!(!report.is_sound());
        assert_eq!(report.sites.len(), 1, "no double-count of the address");
        assert_eq!(report.sites[0].class, SiteClass::Missed);
    }

    #[test]
    fn per_reason_metrics_are_split() {
        let an = sinks(&[
            (0x1000, SinkReason::IntLoadOfFp),
            (0x1010, SinkReason::BitwiseFp),
        ]);
        let patched: BTreeSet<u64> = [0x1000, 0x1010].into();
        let mut traps = BTreeMap::new();
        let mut a = SiteDyn::default();
        a.record(true, 10);
        traps.insert(0x1000, a);
        let mut b = SiteDyn::default();
        b.record(false, 10);
        traps.insert(0x1010, b);
        let report = audit(&an, &patched, &traps, &BTreeMap::new());
        let get = |r: SinkReason| {
            report
                .per_reason
                .iter()
                .find(|(x, _)| *x == r)
                .map(|(_, m)| *m)
                .unwrap()
        };
        assert_eq!(get(SinkReason::IntLoadOfFp).confirmed, 1);
        assert_eq!(get(SinkReason::BitwiseFp).spurious, 1);
        assert_eq!(get(SinkReason::IntLoadOfFp).precision(), 1.0);
        assert_eq!(get(SinkReason::BitwiseFp).precision(), 0.0);
    }
}
