//! Table I — profile of the six datasets: paper statistics vs the
//! generated surrogates.
//!
//! `cargo bench -p cgnp-bench --bench table1_datasets`

use cgnp_bench::banner;
use cgnp_data::{load_dataset, DatasetId};
use cgnp_eval::{ScaleSettings, TextTable};

fn main() {
    let settings = ScaleSettings::from_env();
    banner("Table I — dataset profiles", "Table I", &settings);

    let mut table = TextTable::new(vec![
        "Dataset",
        "|V| paper",
        "|E| paper",
        "|A| paper",
        "|C| paper",
        "|V| surrogate",
        "|E| surrogate",
        "|A| surrogate",
        "|C| surrogate",
    ]);
    for id in DatasetId::ALL {
        let ds = load_dataset(id, settings.scale, 42);
        let (n, m, a, c) = ds.graphs.iter().fold((0, 0, 0, 0), |(n, m, a, c), g| {
            (
                n + g.n(),
                m + g.m(),
                a.max(g.n_attrs()),
                c + g.n_communities(),
            )
        });
        table.push_row(vec![
            id.name().to_string(),
            ds.paper.nodes.to_string(),
            ds.paper.edges.to_string(),
            ds.paper.attrs.map_or("N/A".into(), |x| x.to_string()),
            ds.paper.communities.to_string(),
            n.to_string(),
            m.to_string(),
            if a == 0 { "N/A".into() } else { a.to_string() },
            c.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "surrogates preserve the community count, attribute regime and density\n\
         ordering of Table I at reduced node counts (see README, Paper experiments)."
    );
}
