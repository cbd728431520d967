//! Engine-level benchmarks: the SAT vs BDD tautology backends for
//! stability checks (a DESIGN.md ablation), plus raw solver/BDD
//! throughput on classic workloads.
//!
//! Run with `cargo run --release -p hfta-bench --bin engines`; see
//! [`hfta_testkit::Harness`] for the environment knobs.

use hfta_bdd::BddManager;
use hfta_fta::{BddAlg, SatAlg, StabilityOracle};
use hfta_netlist::gen::{carry_skip_block, CsaDelays};
use hfta_netlist::Time;
use hfta_sat::{SatResult, Solver};
use hfta_testkit::Harness;

fn main() {
    let mut harness = Harness::new("engines");

    {
        let mut group = harness.group("stability_backend");
        let block = carry_skip_block(4, CsaDelays::default());
        let arrivals = vec![Time::ZERO; block.inputs().len()];
        let c_out = block.find_net("c_out").expect("exists");

        group.bench("sat", || {
            let mut an =
                StabilityOracle::new(block.clone(), &arrivals, SatAlg::new()).expect("valid");
            (0..14)
                .filter(|&t| an.is_stable_at(c_out, Time::new(t)))
                .count()
        });
        group.bench("bdd", || {
            let mut an =
                StabilityOracle::new(block.clone(), &arrivals, BddAlg::new()).expect("valid");
            (0..14)
                .filter(|&t| an.is_stable_at(c_out, Time::new(t)))
                .count()
        });
    }

    {
        let mut group = harness.group("sat_solver");
        group.bench("pigeonhole_7_into_6", || {
            let n = 7;
            let m = 6;
            let mut s = Solver::new();
            let p: Vec<Vec<_>> = (0..n)
                .map(|_| (0..m).map(|_| s.new_var()).collect())
                .collect();
            for row in &p {
                let clause: Vec<_> = row.iter().map(|v| v.positive()).collect();
                s.add_clause(&clause);
            }
            #[allow(clippy::needless_range_loop)] // j enumerates holes
            for j in 0..m {
                for i1 in 0..n {
                    for i2 in (i1 + 1)..n {
                        s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                    }
                }
            }
            assert_eq!(s.solve(), SatResult::Unsat);
        });
    }

    {
        let mut group = harness.group("bdd");
        group.bench("parity_16", || {
            let mut m = BddManager::new();
            let mut acc = m.constant(false);
            for i in 0..16 {
                let v = m.var(i);
                acc = m.xor(acc, v);
            }
            assert_eq!(m.sat_count(acc, 16), 1 << 15);
        });
    }

    harness.finish();
}
