//! Benchmarks for the miner's back end and Cable's Show FA view: the
//! prefix-tree acceptor and the sk-strings learner.

use cable_bench::harness::Group;
use cable_learn::{Pta, SkStrings};
use cable_strauss::FrontEnd;
use cable_trace::{Trace, Vocab};
use std::hint::black_box;

fn scenario_corpus(name: &str) -> Vec<Trace> {
    let registry = cable_specs::registry();
    let spec = registry.spec(name).expect("known spec");
    let mut vocab = Vocab::new();
    let workload = spec.generate(2003, &mut vocab);
    FrontEnd::new(spec.seeds())
        .extract_all(&workload, &vocab)
        .iter()
        .map(|(_, t)| t.clone())
        .collect()
}

fn main() {
    let mut group = Group::new("learner");
    // RegionsBig makes the most merges (397), XtFree the most per
    // state (460 prefix-tree states down to 4).
    for name in ["FilePair", "XtFree", "RegionsBig"] {
        let traces = scenario_corpus(name);
        group.bench(&format!("pta/{name}"), || {
            black_box(Pta::build(black_box(&traces)));
        });
        group.bench(&format!("sk_strings/{name}"), || {
            black_box(SkStrings::default().learn(black_box(&traces)));
        });
    }
    group.finish();
}
