//! MPD — particle advection with irregular table lookups, standing in for
//! SPLASH MP3D (see DESIGN.md's substitution notes).
//!
//! Each particle integrates position and velocity over a few steps; the
//! acceleration is fetched from a lookup table indexed by the *truncated
//! position* — a data-dependent, irregular access pattern that stresses the
//! shared cache the way the original's cell structure does.

use smt_isa::builder::ProgramBuilder;

use crate::common::{check_f64_array, emit_partition, for_range, synth, MemView};
use crate::{Scale, Workload, WorkloadKind};

const CELLS: usize = 64;

/// Builds the MPD workload at the given scale.
#[must_use]
pub fn mpd(scale: Scale) -> Workload {
    let (n, steps) = match scale {
        Scale::Test => (32usize, 2usize),
        Scale::Paper => (2001, 8),
    };
    let dt = 0.1f64;
    let damp = 0.9f64;
    let x0: Vec<f64> = (0..n).map(|i| synth(i + 2)).collect();
    let v0: Vec<f64> = (0..n).map(|i| synth(i + 47)).collect();
    let table: Vec<f64> = (0..CELLS).map(|i| synth(i + 83) * 0.1).collect();

    let mut b = ProgramBuilder::new();
    let xb = b.data_f64(&x0);
    let vb = b.data_f64(&v0);
    let tb = b.data_f64(&table);
    let [xbr, vbr, tbr, dtr, dampr, nreg, lo, hi, s, steps_r, vx, vv, addr, addr2, idx] = b.regs();
    b.li(xbr, xb as i64);
    b.li(vbr, vb as i64);
    b.li(tbr, tb as i64);
    b.lif(dtr, dt);
    b.lif(dampr, damp);
    b.li(nreg, n as i64);
    b.li(steps_r, steps as i64);
    emit_partition(&mut b, nreg, lo, hi, addr);
    for_range(&mut b, lo, hi, |b| {
        b.slli(addr, lo, 3);
        b.add(addr, addr, xbr);
        b.slli(addr2, lo, 3);
        b.add(addr2, addr2, vbr);
        b.ld(vx, addr, 0);
        b.ld(vv, addr2, 0);
        b.li(s, 0);
        for_range(b, s, steps_r, |b| {
            b.fmul(idx, vv, dtr);
            b.fadd(vx, vx, idx); // x += v*dt
            b.f2i(idx, vx);
            b.andi(idx, idx, (CELLS - 1) as i32); // cell index
            b.slli(idx, idx, 3);
            b.add(idx, idx, tbr);
            b.ld(idx, idx, 0); // accel[cell]
            b.fmul(vv, vv, dampr);
            b.fadd(vv, vv, idx); // v = v*damp + accel
        });
        b.sd(vx, addr, 0);
        b.sd(vv, addr2, 0);
    });
    b.halt();

    let mut ex = x0;
    let mut ev = v0;
    for i in 0..n {
        for _ in 0..steps {
            ex[i] += ev[i] * dt;
            let cell = ((ex[i] as i64) as u64 & (CELLS as u64 - 1)) as usize;
            ev[i] = ev[i] * damp + table[cell];
        }
    }
    Workload::from_parts(
        WorkloadKind::Mpd,
        b,
        Box::new(move |words| {
            let mem = MemView::new(words);
            check_f64_array("MPD", "x", mem, xb, &ex)?;
            check_f64_array("MPD", "v", mem, vb, &ev)
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::interp::Interp;

    #[test]
    fn mpd_correct_for_several_thread_counts() {
        let w = mpd(Scale::Test);
        for threads in [1, 2, 5] {
            let p = w.build(threads).unwrap();
            let mut interp = Interp::new(&p, threads);
            interp.run().unwrap();
            w.check(interp.mem_words())
                .unwrap_or_else(|e| panic!("{threads} threads: {e}"));
        }
    }

    #[test]
    fn truncation_semantics_match_the_isa() {
        // The reference's cell computation must equal the kernel's
        // f2i + andi sequence for negative positions too.
        for x in [-3.7f64, -0.2, 0.0, 1.9, 100.4] {
            let isa = {
                let t = smt_isa::semantics::alu_result(
                    smt_isa::Opcode::F2I,
                    smt_isa::semantics::from_f64(x),
                    0,
                    0,
                );
                smt_isa::semantics::alu_result(smt_isa::Opcode::Andi, t, 0, 63)
            };
            let rust = (x as i64) as u64 & 63;
            assert_eq!(isa, rust, "x = {x}");
        }
    }
}
