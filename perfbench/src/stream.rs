//! Seeded request streams.
//!
//! Every input the programs under test receive is generated here from
//! the run's `--seed`: the `hot` draw order and the `upload` programs.
//! A stream is a pure function of `(seed, client, index)`, so the same
//! seed yields byte-identical requests regardless of how many of them a
//! time-bounded run gets through.

use polyflow_bench::fuzz::{random_program_with, GenDist};
use polyflow_bench::sweep::{figure9_cells, Cell};
use polyflow_isa::rng::SplitMix64;
use polyflow_serve::json;

/// The SplitMix64 finalizer: a bijective 64-bit mixer.
fn fmix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The independent seed of draw `index` on `stream` of a run seeded
/// with `seed`.
fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    fmix(seed ^ fmix(stream.wrapping_add(0x9e37_79b9_7f4a_7c15) ^ fmix(index)))
}

/// The `hot` key set: every bundled workload × every Figure 9 cell.
pub fn hot_cells() -> Vec<(&'static str, Cell)> {
    let cells = figure9_cells();
    polyflow_workloads::names()
        .iter()
        .flat_map(|w| cells.iter().map(move |c| (*w, *c)))
        .collect()
}

/// The request line asking for one hot cell by name.
pub fn hot_line(workload: &str, cell: Cell) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"policy\":\"{}\"}}",
        cell.label()
    )
}

/// One client's `hot` draw order: seeded shuffles of the key set dealt
/// one deck after another, so every run covers the cells evenly and the
/// mix of small and large replies barely depends on the seed.
#[derive(Debug, Clone)]
pub struct HotStream {
    seed: u64,
    client: u64,
    deck: Vec<usize>,
    pos: usize,
    decks: u64,
}

impl HotStream {
    /// The stream of `client` over a key set of `keys` cells.
    pub fn new(seed: u64, client: u64, keys: usize) -> HotStream {
        HotStream {
            seed,
            client,
            deck: (0..keys).collect(),
            pos: keys,
            decks: 0,
        }
    }
}

impl Iterator for HotStream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.pos == self.deck.len() {
            let mut rng = SplitMix64::new(derive(self.seed, self.client, self.decks));
            self.deck.sort_unstable();
            for i in (1..self.deck.len()).rev() {
                let j = rng.index(i + 1);
                self.deck.swap(i, j);
            }
            self.decks += 1;
            self.pos = 0;
        }
        self.pos += 1;
        self.deck.get(self.pos - 1).copied()
    }
}

/// Stream ids of the upload clients start here, apart from the hot
/// clients' decks.
const UPLOAD_STREAM: u64 = 1 << 32;

/// One generated upload: the request line and what it asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Upload {
    /// The complete request line (no trailing newline).
    pub line: String,
    /// The program's `.program` name (unique per run, seed and variant).
    pub name: String,
    /// The generator bucket the program came from.
    pub bucket: &'static str,
    /// The cell requested.
    pub cell: Cell,
}

/// Upload `index` of `client`: a program from
/// [`random_program_with`], cycling over [`GenDist::BUCKETS`], rendered
/// with [`polyflow_isa::to_asm`] under a unique `.program` name (the
/// name is part of the content fingerprint, so every upload is a cache
/// miss), with its policy drawn from the Figure 9 set. `variant`
/// suffixes the name: the same program under another name costs the
/// service exactly the same work, which is how the traced run replays a
/// request without hitting the cache.
pub fn upload(seed: u64, client: u64, index: u64, variant: &str) -> Upload {
    let s = derive(seed, UPLOAD_STREAM + client, index);
    let (bucket, dist) = GenDist::BUCKETS[(index % GenDist::BUCKETS.len() as u64) as usize];
    let program = random_program_with(s, &dist);
    let cells = figure9_cells();
    let cell = cells[(fmix(s) % cells.len() as u64) as usize];
    let name = format!("u{seed:x}.c{client}.i{index}{variant}");
    let asm = format!(".program {name}\n{}", polyflow_isa::to_asm(&program));
    let line = format!(
        "{{\"program\":\"{}\",\"policy\":\"{}\"}}",
        json::escape(&asm),
        cell.label()
    );
    Upload {
        line,
        name,
        bucket,
        cell,
    }
}
