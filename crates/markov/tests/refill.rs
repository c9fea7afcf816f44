//! In-place refill of recycled rate buffers: a chain re-rated again and
//! again through `refill_trans_rates` must equal, field by field and bit
//! for bit, a chain built from scratch by `Ctmc::from_csr` on the same
//! edge rates — on a full marking graph and on a direct quotient.  A
//! stale buffer (an exit rate, `Λ` or incoming rate left over from an
//! earlier table) shows up here as a mismatch.

use repstream_markov::ctmc::{Solver, SolverChoice};
use repstream_markov::marking::{MarkingGraph, MarkingOptions, QuotientGraph};
use repstream_markov::net::EventNet;
use repstream_markov::Ctmc;
use repstream_petri::shape::{ExecModel, MappingShape, ResourceTable};
use repstream_petri::tpn::Tpn;

/// Slot-dependent rates (the full-chain path); `k` varies every entry.
fn het_rates(shape: &MappingShape, k: f64) -> ResourceTable<f64> {
    ResourceTable::from_fns(
        shape,
        |stage, slot| k / (1.0 + stage as f64 + 0.25 * slot as f64),
        |file, src, dst| 1.0 / (k + file as f64 + 0.5 * src as f64 + 0.125 * dst as f64),
    )
}

/// Orbit-invariant rates (the direct-quotient path).
fn hom_rates(shape: &MappingShape, comp: f64, comm: f64) -> ResourceTable<f64> {
    ResourceTable::from_fns(shape, |_, _| comp, |_, _, _| comm)
}

/// The CSR arrays of `c` with the given edge rates, built from scratch.
fn from_csr_with(c: &Ctmc, rates: Vec<f64>) -> Ctmc {
    let mut row_ptr = vec![0u32];
    let mut col = Vec::new();
    for s in 0..c.n_states() {
        col.extend_from_slice(c.row_targets(s));
        row_ptr.push(col.len() as u32);
    }
    Ctmc::from_csr(row_ptr, col, rates)
}

/// Field-by-field bitwise equality of two chains.
fn assert_fields_identical(a: &Ctmc, b: &Ctmc, ctx: &str) {
    assert_eq!(a.n_states(), b.n_states(), "{ctx}: states");
    assert_eq!(a.nnz(), b.nnz(), "{ctx}: edges");
    let bits = |v: Vec<(usize, f64)>| -> Vec<(usize, u64)> {
        v.into_iter().map(|(j, r)| (j, r.to_bits())).collect()
    };
    for s in 0..a.n_states() {
        assert_eq!(
            bits(a.row(s).collect()),
            bits(b.row(s).collect()),
            "{ctx}: row {s}"
        );
        assert_eq!(
            bits(a.in_edges(s).collect()),
            bits(b.in_edges(s).collect()),
            "{ctx}: in-edges of {s}"
        );
        assert_eq!(
            a.exit_rate(s).to_bits(),
            b.exit_rate(s).to_bits(),
            "{ctx}: exit rate of {s}"
        );
    }
    assert_eq!(
        a.uniformization().to_bits(),
        b.uniformization().to_bits(),
        "{ctx}: uniformization"
    );
}

/// A forced power solve (the path that derives `r/Λ` per solve) of the
/// refilled chain is bitwise the fresh chain's.
fn assert_power_identical(a: &Ctmc, b: &Ctmc, ctx: &str) {
    let force = SolverChoice::Force(Solver::Power);
    let (pa, pb) = (a.stationary_solve(force), b.stationary_solve(force));
    assert_eq!(pa.iterations, pb.iterations, "{ctx}: power sweeps");
    for (s, (x, y)) in pa.pi.iter().zip(&pb.pi).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: power π[{s}]");
    }
}

#[test]
fn full_graph_refill_equals_from_csr_over_successive_tables() {
    let shape = MappingShape::new(vec![2, 3]);
    let tpn = Tpn::build(&shape, ExecModel::Strict);
    let mg = MarkingGraph::build(
        &EventNet::from_tpn(&tpn, &het_rates(&shape, 1.0)),
        MarkingOptions::default(),
    )
    .expect("Strict TPN is safe");
    let mut chain =
        mg.ctmc_with_trans_rates(&EventNet::from_tpn(&tpn, &het_rates(&shape, 1.0)).rates);
    for k in [0.5, 3.0, 1.75, 0.125] {
        let trans_rates = EventNet::from_tpn(&tpn, &het_rates(&shape, k)).rates;
        mg.refill_trans_rates(&mut chain, &trans_rates);
        let edge_rates = mg
            .edge_transitions()
            .iter()
            .map(|&t| trans_rates[t as usize])
            .collect();
        let fresh = from_csr_with(&mg.ctmc, edge_rates);
        let ctx = format!("full 2x3, k = {k}");
        assert_fields_identical(&chain, &fresh, &ctx);
        assert_power_identical(&chain, &fresh, &ctx);
    }
}

#[test]
fn quotient_refill_equals_from_csr_over_successive_tables() {
    let shape = MappingShape::new(vec![2, 3, 2]);
    let tpn = Tpn::build(&shape, ExecModel::Strict);
    let opts = MarkingOptions::default();
    let build = |comp: f64, comm: f64| {
        let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &hom_rates(&shape, comp, comm));
        let qg = QuotientGraph::build(&net, &sym.expect("rotation"), opts).expect("safe");
        (net, qg)
    };
    let (net0, warm) = build(0.5, 2.0);
    let mut chain = warm.ctmc_with_trans_rates(&net0.rates);
    for (comp, comm) in [(0.25, 1.0), (2.0, 0.125), (1.5, 3.0), (0.75, 0.75)] {
        // The cold quotient of a net with these rates fixes the edge
        // rates the refill must reproduce.
        let (net, cold) = build(comp, comm);
        warm.refill_trans_rates(&mut chain, &net.rates);
        let edge_rates = (0..cold.n_states())
            .flat_map(|s| cold.ctmc.row_rates(s).to_vec())
            .collect();
        let fresh = from_csr_with(&cold.ctmc, edge_rates);
        let ctx = format!("quotient 2x3x2, λ ({comp},{comm})");
        assert_fields_identical(&chain, &fresh, &ctx);
        assert_power_identical(&chain, &fresh, &ctx);
    }
}

#[test]
#[should_panic(expected = "not re-rated from this graph")]
fn refill_rejects_a_chain_of_another_graph() {
    let shape = MappingShape::new(vec![1, 2]);
    let tpn = Tpn::build(&shape, ExecModel::Strict);
    let net = EventNet::from_tpn(&tpn, &het_rates(&shape, 1.0));
    let a = MarkingGraph::build(&net, MarkingOptions::default()).expect("safe");
    let b = MarkingGraph::build(&net, MarkingOptions::default()).expect("safe");
    let mut chain = b.ctmc_with_trans_rates(&net.rates);
    a.refill_trans_rates(&mut chain, &net.rates);
}

#[test]
#[should_panic(expected = "rates must be positive")]
fn refill_still_checks_every_rate() {
    let shape = MappingShape::new(vec![1, 2]);
    let tpn = Tpn::build(&shape, ExecModel::Strict);
    let net = EventNet::from_tpn(&tpn, &het_rates(&shape, 1.0));
    let mg = MarkingGraph::build(&net, MarkingOptions::default()).expect("safe");
    let mut chain = mg.ctmc_with_trans_rates(&net.rates);
    let mut bad = net.rates.clone();
    bad[0] = f64::NAN;
    mg.refill_trans_rates(&mut chain, &bad);
}
