//! Small single-behavior kernels used by examples, tests and the `k:*`
//! scenario workloads (not part of the Table 3 suite).
//!
//! Each kernel isolates one behavior class: strided values, tight loops
//! (back-to-back fetches, §3.2), pointer chasing, constant values,
//! control-flow-correlated values (VTAGE's specialty), FP dependence
//! chains, and deep call/return nesting.

use crate::patterns::{self, endless_outer, lcg_step, Layout};
use rand::Rng;
use vpsim_isa::{Program, ProgramBuilder, Reg};

/// Sum a `words`-word array with the given element `stride`, forever.
/// Addresses and loop indices are perfectly stride-predictable.
///
/// # Panics
///
/// Panics if `words` is zero or `stride` is zero.
pub fn strided_loop(words: usize, stride: usize) -> Program {
    assert!(words > 0 && stride > 0);
    let mut b = ProgramBuilder::new();
    let mut layout = Layout::new();
    let base = layout.array(words);
    let mut r = patterns::rng(1, 1);
    patterns::init_random_array(&mut b, base, words, &mut r);
    let (ptr, end, acc, base_r) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
    b.load_imm(base_r, base as i64);
    endless_outer(&mut b, |b| {
        b.mov(ptr, base_r);
        b.load_imm(end, (base + (words * 8) as u64) as i64);
        let top = b.bind_label();
        b.load(Reg::int(5), ptr, 0);
        b.add(acc, acc, Reg::int(5));
        b.addi(ptr, ptr, (stride * 8) as i64);
        b.blt(ptr, end, top);
    });
    b.build().expect("valid kernel")
}

/// The tightest possible loop: 3 µops per iteration (add, add, branch).
/// Maximizes the §3.2 back-to-back fetch fraction.
pub fn tight_loop() -> Program {
    let mut b = ProgramBuilder::new();
    let acc = Reg::int(1);
    endless_outer(&mut b, |b| {
        b.addi(acc, acc, 1);
    });
    b.build().expect("valid kernel")
}

/// Chase a shuffled single-cycle permutation of `words` pointers, forever.
/// Serial load-to-load dependence; defeats stride prefetching.
///
/// # Panics
///
/// Panics if `words < 2`.
pub fn pointer_chase(words: usize) -> Program {
    assert!(words >= 2);
    let mut b = ProgramBuilder::new();
    let mut layout = Layout::new();
    let base = layout.array(words);
    let mut r = patterns::rng(2, 2);
    patterns::init_shuffled_chase(&mut b, base, words, &mut r);
    let p = Reg::int(1);
    b.load_imm(p, base as i64);
    endless_outer(&mut b, |b| {
        b.load(p, p, 0);
    });
    b.build().expect("valid kernel")
}

/// A loop whose loads always return the same value — last-value
/// prediction's best case.
pub fn constant_stream() -> Program {
    let mut b = ProgramBuilder::new();
    let mut layout = Layout::new();
    let base = layout.array(1);
    b.data(base, 777);
    let (addr, v, acc) = (Reg::int(1), Reg::int(2), Reg::int(3));
    b.load_imm(addr, base as i64);
    endless_outer(&mut b, |b| {
        b.load(v, addr, 0);
        b.add(acc, acc, v);
        b.xori(acc, acc, 0x5A);
    });
    b.build().expect("valid kernel")
}

/// Values correlated with branch direction: an alternating branch selects
/// which constant a µop produces. Context (VTAGE) predictors capture this;
/// last-value and stride predictors cannot.
pub fn branch_correlated_values() -> Program {
    let mut b = ProgramBuilder::new();
    let (phase, v, acc) = (Reg::int(1), Reg::int(2), Reg::int(3));
    let zero = Reg::int(0);
    endless_outer(&mut b, |b| {
        b.xori(phase, phase, 1);
        let else_l = b.label();
        let join = b.label();
        b.beq(phase, zero, else_l);
        b.load_imm(v, 1111);
        b.jump(join);
        b.bind(else_l);
        b.load_imm(v, 2222);
        b.bind(join);
        b.add(acc, acc, v);
    });
    b.build().expect("valid kernel")
}

/// A serialized FP accumulation (3-cycle fadd chain) over near-constant
/// data — the dependence chain value prediction can break.
pub fn fp_reduction(words: usize) -> Program {
    assert!(words > 0);
    let mut b = ProgramBuilder::new();
    let mut layout = Layout::new();
    let base = layout.array(words);
    let vals: Vec<u64> = (0..words).map(|_| 1.0f64.to_bits()).collect();
    b.data_block(base, &vals);
    let (ptr, end) = (Reg::int(1), Reg::int(2));
    let (acc, x) = (Reg::float(1), Reg::float(2));
    endless_outer(&mut b, |b| {
        b.load_imm(ptr, base as i64);
        b.load_imm(end, (base + (words * 8) as u64) as i64);
        let top = b.bind_label();
        b.load(x, ptr, 0);
        b.fadd(acc, acc, x);
        b.addi(ptr, ptr, 8);
        b.blt(ptr, end, top);
    });
    b.build().expect("valid kernel")
}

/// Alternating call/return through a small set of leaf functions —
/// exercises the RAS and call-produced link values.
pub fn call_ladder() -> Program {
    let mut b = ProgramBuilder::new();
    let lr = Reg::int(26);
    let acc = Reg::int(3);
    let f1 = b.label();
    let f2 = b.label();
    let over = b.label();
    b.jump(over);
    b.bind(f1);
    b.addi(acc, acc, 1);
    b.ret(lr);
    b.bind(f2);
    b.addi(acc, acc, 2);
    b.ret(lr);
    b.bind(over);
    endless_outer(&mut b, |b| {
        b.call(lr, f1);
        b.call(lr, f2);
        b.call(lr, f1);
    });
    b.build().expect("valid kernel")
}

/// Unpredictable data-dependent branches over LCG values: a branch
/// predictor stress kernel.
pub fn random_branches() -> Program {
    let mut b = ProgramBuilder::new();
    let (x, acc) = (Reg::int(1), Reg::int(3));
    b.load_imm(x, 0xACE1);
    endless_outer(&mut b, |b| {
        lcg_step(b, x);
        patterns::random_branch(b, x, 41, |b| {
            b.addi(acc, acc, 1);
        });
        patterns::random_branch(b, x, 51, |b| {
            b.addi(acc, acc, -1);
        });
    });
    b.build().expect("valid kernel")
}

/// A small dense matrix-matrix product (n×n, f64), looped forever. Regular
/// addressing, FP multiply-add chains, triple loop nest.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn matmul(n: usize) -> Program {
    assert!(n > 0);
    let mut b = ProgramBuilder::new();
    let mut layout = Layout::new();
    let a = layout.array(n * n);
    let c = layout.array(n * n);
    let out = layout.array(n * n);
    let mut r = patterns::rng(3, 3);
    let av: Vec<u64> = (0..n * n).map(|_| f64::to_bits(r.gen_range(0.0..2.0))).collect();
    let cv: Vec<u64> = (0..n * n).map(|_| f64::to_bits(r.gen_range(0.0..2.0))).collect();
    b.data_block(a, &av);
    b.data_block(c, &cv);
    let (i, j, k) = (Reg::int(1), Reg::int(2), Reg::int(3));
    let (ni, t0, t1, t2) = (Reg::int(4), Reg::int(5), Reg::int(6), Reg::int(7));
    let (acc, x, y) = (Reg::float(1), Reg::float(2), Reg::float(3));
    endless_outer(&mut b, |b| {
        b.load_imm(ni, n as i64);
        b.load_imm(i, 0);
        let li = b.bind_label();
        b.load_imm(j, 0);
        let lj = b.bind_label();
        b.load_imm(k, 0);
        b.load_imm(t2, 0);
        b.icvtf(acc, t2);
        let lk = b.bind_label();
        // acc += A[i*n+k] * C[k*n+j]
        b.mul(t0, i, ni);
        b.add(t0, t0, k);
        b.shli(t0, t0, 3);
        b.load_imm(t1, a as i64);
        b.add(t0, t0, t1);
        b.load(x, t0, 0);
        b.mul(t0, k, ni);
        b.add(t0, t0, j);
        b.shli(t0, t0, 3);
        b.load_imm(t1, c as i64);
        b.add(t0, t0, t1);
        b.load(y, t0, 0);
        b.fmul(x, x, y);
        b.fadd(acc, acc, x);
        b.addi(k, k, 1);
        b.blt(k, ni, lk);
        // out[i*n+j] = acc
        b.mul(t0, i, ni);
        b.add(t0, t0, j);
        b.shli(t0, t0, 3);
        b.load_imm(t1, out as i64);
        b.add(t0, t0, t1);
        b.store(t0, acc, 0);
        b.addi(j, j, 1);
        b.blt(j, ni, lj);
        b.addi(i, i, 1);
        b.blt(i, ni, li);
    });
    b.build().expect("valid kernel")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpsim_isa::Executor;

    fn runs_forever(p: &Program) {
        let n = Executor::new(p).take(20_000).count();
        assert_eq!(n, 20_000, "kernel must not run out of trace");
    }

    #[test]
    fn all_kernels_build_and_run() {
        runs_forever(&strided_loop(64, 8));
        runs_forever(&tight_loop());
        runs_forever(&pointer_chase(1024));
        runs_forever(&constant_stream());
        runs_forever(&branch_correlated_values());
        runs_forever(&fp_reduction(128));
        runs_forever(&call_ladder());
        runs_forever(&random_branches());
        runs_forever(&matmul(8));
    }

    #[test]
    fn constant_stream_loads_are_constant() {
        let p = constant_stream();
        let loads: Vec<u64> = Executor::new(&p)
            .take(5000)
            .filter(|d| d.inst.op == vpsim_isa::Opcode::Load)
            .map(|d| d.result.unwrap())
            .collect();
        assert!(loads.len() > 100);
        assert!(loads.iter().all(|&v| v == 777));
    }

    #[test]
    fn branch_correlated_kernel_alternates_values() {
        let p = branch_correlated_values();
        let vals: Vec<u64> = Executor::new(&p)
            .take(5000)
            .filter(|d| {
                d.inst.op == vpsim_isa::Opcode::LoadImm
                    && (d.result == Some(1111) || d.result == Some(2222))
            })
            .map(|d| d.result.unwrap())
            .collect();
        assert!(vals.len() > 50);
        assert!(vals.windows(2).all(|w| w[0] != w[1]), "strict alternation");
    }

    #[test]
    fn pointer_chase_addresses_are_serial_and_distinct() {
        let p = pointer_chase(256);
        let addrs: Vec<u64> =
            Executor::new(&p).take(3000).filter_map(|d| d.mem_addr).take(256).collect();
        let unique: std::collections::HashSet<_> = addrs.iter().collect();
        assert_eq!(unique.len(), addrs.len(), "one full cycle visits distinct entries");
    }

    #[test]
    fn matmul_produces_fp_results() {
        let p = matmul(4);
        let fp_ops = Executor::new(&p)
            .take(10_000)
            .filter(|d| matches!(d.inst.op, vpsim_isa::Opcode::FMul | vpsim_isa::Opcode::FAdd))
            .count();
        assert!(fp_ops > 500);
    }

    #[test]
    #[should_panic]
    fn strided_loop_rejects_zero_words() {
        let _ = strided_loop(0, 1);
    }
}
