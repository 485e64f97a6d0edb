//! Seeded input generation: the Default-scale instances of the repository's
//! `hotpath` benchmark, renamed so that one served database holds every
//! instance a workload needs (path4 as `P1..P4`, star3 as `S1..S3`, text3 as
//! `T1..T3`, cycle6 as `C1..C6`).

use crate::schedule::{mix, path_domain, Workload};
use anyk_datagen::{cycles, rng, text, uniform};
use anyk_storage::Database;

/// The paper's join fan-out: values are uniform in `1..=n/10`.
pub const PATH_DOMAIN_DIVISOR: usize = 10;

/// Instance sizes. [`Sizes::DEFAULT`] is what the benchmark runs; tests use
/// [`Sizes::SMALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Tuples per path4 relation (4 relations).
    pub path_n: usize,
    /// Tuples per star3 relation (3 relations).
    pub star_n: usize,
    /// Users of the text3 social graph (average out-degree 4, 3 copies).
    pub text_users: usize,
    /// Tuples per cycle6 relation (6 relations).
    pub cycle_n: usize,
}

impl Sizes {
    /// `hotpath`'s Default scale: path4 200k tuples, star3 150k, text3
    /// ≈ 96k, worst-case cycle6 6k.
    pub const DEFAULT: Sizes = Sizes {
        path_n: 50_000,
        star_n: 50_000,
        text_users: 8_000,
        cycle_n: 1_000,
    };
    /// Small instances for the benchmark's own tests.
    pub const SMALL: Sizes = Sizes {
        path_n: 2_000,
        star_n: 2_000,
        text_users: 400,
        cycle_n: 60,
    };
}

/// The generated inputs of one workload, held as one database.
pub struct Datasets {
    /// The served database (unsealed; the service seals its own clone).
    pub db: Database,
    sizes: Sizes,
}

const STREAM_PATH: u64 = 11;
const STREAM_STAR: u64 = 12;
const STREAM_CYCLE: u64 = 13;
const STREAM_TEXT: u64 = 14;

fn add_renamed(db: &mut Database, source: &Database, from: &str, prefix: &str, count: usize) {
    for i in 1..=count {
        let rel = source.expect(&format!("{from}{i}"));
        db.add(rel.filter(format!("{prefix}{i}"), |_| true));
    }
}

impl Datasets {
    /// Generate the instances `workload` uses from `seed`.
    pub fn generate(workload: Workload, seed: u64, sizes: Sizes) -> Datasets {
        let (path, star, text3, cycle) = match workload {
            Workload::ColdTopk => (true, false, true, false),
            Workload::WarmTopk => (true, true, true, false),
            Workload::DeepPage => (true, false, false, true),
            Workload::IngestMix => (true, false, false, false),
        };
        let mut db = Database::new();
        if path {
            let src = uniform::uniform_database(
                4,
                sizes.path_n,
                PATH_DOMAIN_DIVISOR,
                &mut rng(mix(seed, STREAM_PATH, 0)),
            );
            add_renamed(&mut db, &src, "R", "P", 4);
        }
        if star {
            let src = uniform::path_or_star_database(
                3,
                sizes.star_n,
                &mut rng(mix(seed, STREAM_STAR, 0)),
            );
            add_renamed(&mut db, &src, "R", "S", 3);
        }
        if text3 {
            let src = text::text_social_database(
                3,
                text::TextSocialConfig {
                    users: sizes.text_users,
                    avg_degree: 4,
                },
                &mut rng(mix(seed, STREAM_TEXT, 0)),
            );
            add_renamed(&mut db, &src, "R", "T", 3);
        }
        if cycle {
            let src = cycles::worst_case_cycle_database(
                6,
                sizes.cycle_n,
                &mut rng(mix(seed, STREAM_CYCLE, 0)),
            );
            add_renamed(&mut db, &src, "R", "C", 6);
        }
        Datasets { db, sizes }
    }

    /// path4's relation size and value domain.
    pub fn path_shape(&self) -> (usize, u64) {
        (self.sizes.path_n, path_domain(self.sizes.path_n))
    }

    /// Distinct values of path4's endpoint column `P1.x1`, ascending.
    pub fn path_endpoints(&self) -> Vec<u64> {
        let mut values = self.db.expect("P1").column(0).to_vec();
        values.sort_unstable();
        values.dedup();
        values
    }

    /// Distinct usernames in text3's endpoint column `T1.x1`, in id order.
    pub fn text_endpoints(&self) -> Vec<String> {
        let rel = self.db.expect("T1");
        let mut ids = rel.column(0).to_vec();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .map(|id| {
                self.db
                    .decode("T1", 0, id)
                    .expect("text3 endpoint column is dictionary-encoded")
            })
            .collect()
    }
}
