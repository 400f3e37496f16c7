//! The shadow-value garbage collector (§4.1 "Garbage collection").
//!
//! "A relatively naïve conservative mark-and-sweep collector is used. …
//! Every epoch, the garbage collector scans all writable program memory for
//! data that appears to be a NaN-box. It then decodes it, and sets the mark
//! bit if it is located in the data structure. It then sweeps through the
//! set of all allocated values and frees their backing storage if they are
//! not marked."
//!
//! The pointer graph is bipartite (program memory → shadow arena, never
//! back), so a single scan-mark-sweep pass is complete — there is nothing
//! to trace transitively. The scan covers the data segment, the live heap,
//! the live stack, and the XMM + GPR register files (a boxed value can sit
//! in a GPR after a `movq` leak).
//!
//! The pass is serial, as in the paper. Parallelism lives one level up:
//! `fpvm-fleet` runs independent guests on separate workers.

use crate::stats::GcRecord;
use fpvm_arith::ShadowArena;
use fpvm_machine::Machine;
use fpvm_nanbox::ShadowKey;
use std::time::Instant;

/// Scan a byte range at 8-byte granularity for decodable NaN-boxes.
fn scan_range(bytes: &[u8], out: &mut Vec<ShadowKey>) {
    for chunk in bytes.chunks_exact(8) {
        let bits = u64::from_le_bytes(chunk.try_into().unwrap());
        if let Some(key) = fpvm_nanbox::decode(bits) {
            out.push(key);
        }
    }
}

/// Run one GC pass. Returns the pass record.
pub fn collect<V>(m: &Machine, arena: &mut ShadowArena<V>) -> GcRecord {
    let start = Instant::now();
    let before = arena.live();
    arena.clear_marks();
    let rsp = m.gpr[4]; // RSP
    let mut scanned: u64 = 0;
    let mut candidates: Vec<ShadowKey> = Vec::new();
    // Register files first (cheap).
    for reg in &m.xmm {
        for &lane in reg {
            if let Some(k) = fpvm_nanbox::decode(lane) {
                candidates.push(k);
            }
        }
    }
    for &g in &m.gpr {
        if let Some(k) = fpvm_nanbox::decode(g) {
            candidates.push(k);
        }
    }
    for (lo, hi) in m.mem.writable_ranges(rsp) {
        if hi > lo {
            scanned += hi - lo;
            scan_range(m.mem.slice(lo, hi), &mut candidates);
        }
    }
    for key in candidates {
        arena.mark(key);
    }
    let freed = arena.sweep();
    GcRecord {
        before,
        freed,
        alive: arena.live(),
        scanned_bytes: scanned,
        ns: start.elapsed().as_nanos() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpvm_machine::{Asm, CostModel, DATA_BASE};
    use fpvm_nanbox::encode;

    fn machine() -> Machine {
        let mut a = Asm::new();
        a.global("slots", 64);
        a.halt();
        let p = a.finish();
        let mut m = Machine::new(CostModel::r815());
        m.load_program(&p);
        m
    }

    #[test]
    fn reachable_values_survive_unreachable_freed() {
        let mut m = machine();
        let mut arena: ShadowArena<f64> = ShadowArena::new();
        let k_mem = arena.alloc(1.0);
        let k_reg = arena.alloc(2.0);
        let k_gpr = arena.alloc(3.0);
        let k_dead = arena.alloc(4.0);
        // Place boxes: one in the data segment, one in an XMM lane, one in
        // a GPR (movq leak), one nowhere.
        m.mem.write_u64(DATA_BASE, encode(k_mem)).unwrap();
        m.xmm[7][1] = encode(k_reg);
        m.gpr[3] = encode(k_gpr);
        let rec = collect(&m, &mut arena);
        assert_eq!(rec.before, 4);
        assert_eq!(rec.freed, 1);
        assert_eq!(rec.alive, 3);
        assert!(arena.contains(k_mem));
        assert!(arena.contains(k_reg));
        assert!(arena.contains(k_gpr));
        assert!(!arena.contains(k_dead));
        assert!(rec.scanned_bytes > 0);
    }

    #[test]
    fn stack_is_scanned() {
        let mut m = machine();
        let mut arena: ShadowArena<f64> = ShadowArena::new();
        let k = arena.alloc(5.0);
        let rsp = m.gpr[4];
        m.mem.write_u64(rsp + 8, encode(k)).unwrap();
        collect(&m, &mut arena);
        assert!(arena.contains(k), "value on the live stack must survive");
        // Value below rsp (dead frame) is NOT scanned: it gets collected —
        // this is exactly the implicit garbage collection by function
        // return the paper describes.
        let k2 = arena.alloc(6.0);
        m.mem.write_u64(rsp - 256, encode(k2)).unwrap();
        collect(&m, &mut arena);
        assert!(!arena.contains(k2), "dead-frame value must be collected");
    }

    #[test]
    fn false_positives_are_conservative_not_fatal() {
        // An ordinary double that bit-matches nothing and a quiet NaN do
        // not mark anything; a stale sNaN pattern marks nothing (dead key).
        let mut m = machine();
        let mut arena: ShadowArena<f64> = ShadowArena::new();
        m.mem.write_u64(DATA_BASE, f64::NAN.to_bits()).unwrap();
        m.mem
            .write_u64(DATA_BASE + 8, 0x7FF0_0000_0000_9999)
            .unwrap(); // sNaN, never allocated
        let rec = collect(&m, &mut arena);
        assert_eq!(rec.freed, 0);
        assert_eq!(rec.alive, 0);
    }
}
