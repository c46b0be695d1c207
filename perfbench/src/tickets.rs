//! Workloads and their seeded ticket lists.
//!
//! A run is a fixed list of tickets generated from the workload seed,
//! never a duration: the same seed and `--seconds` give the same
//! tickets, so every simulation counter and the memory the caches hold
//! repeat exactly from run to run. Scenario seeds come from three
//! disjoint ranges — warm-up, catalog, and fresh — so a fresh ticket
//! never shares a boot with set-up work. Every seed stays below 2^53,
//! because the wire carries numbers as doubles.

use bb_serve::{JobKind, SweepArgs};

/// Scenario seeds of the sweep warm-up tickets.
pub const WARMUP_BASE: u64 = 1 << 42;
/// Scenario seeds of the serve catalog grids.
pub const CATALOG_BASE: u64 = 1 << 43;
/// Scenario seeds of timed fresh tickets; each workload seed owns a
/// window of [`FRESH_PER_RUN`] seeds above this.
pub const FRESH_BASE: u64 = 1 << 44;
/// Fresh seeds one run may draw.
pub const FRESH_PER_RUN: u64 = 1 << 20;
/// Workload seeds map into 2^24 fresh windows, which ends the fresh
/// range at 2^45.
const SEED_WINDOWS: u64 = 1 << 24;

/// Popular grids warmed into the server during set-up.
pub const CATALOG_GRIDS: u64 = 16;
/// Seeds per serve sweep ticket (hit and fresh alike).
const SERVE_SEEDS: u64 = 4;

/// The serve-mixed ticket list is built in blocks with exact class
/// shares (70 % hit, 18 % fresh, 12 % chaos), shuffled inside a block.
pub const BLOCK: usize = 50;
const BLOCK_HITS: usize = 35;
const BLOCK_FRESH: usize = 9;

/// Tickets every run holds at least: p95 then leaves 10 above it.
pub const MIN_TICKETS: usize = 200;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The CLI default grid: 136 services, 20 seeds, conventional + bb.
    SweepTv136,
    /// The same path at 1000 services, 2 seeds per ticket.
    SweepTv1000,
    /// Hit, fresh and chaos tickets over one `bbsim serve` connection.
    ServeMixed,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::SweepTv136,
        Workload::SweepTv1000,
        Workload::ServeMixed,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepTv136 => "sweep-tv136",
            Workload::SweepTv1000 => "sweep-tv1000",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }

    /// Tickets per second of `--seconds`, measured on a 2-vCPU x86-64
    /// VM, so that a run takes about `--seconds` there. Only the
    /// ticket count depends on it; a faster program finishes sooner.
    fn tickets_per_second(self) -> f64 {
        match self {
            Workload::SweepTv136 => 13.0,
            Workload::SweepTv1000 => 9.0,
            Workload::ServeMixed => 100.0,
        }
    }

    /// The fixed ticket count of a run of `seconds`.
    pub fn ticket_count(self, seconds: u64) -> usize {
        let n = ((seconds as f64 * self.tickets_per_second()).ceil() as usize).max(MIN_TICKETS);
        match self {
            Workload::ServeMixed => n.div_ceil(BLOCK) * BLOCK,
            _ => n,
        }
    }
}

/// What a ticket exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A sweep ticket of a `sweep-*` workload.
    Sweep,
    /// A catalog grid: every boot is a dedup hit.
    Hit,
    /// A sweep on seeds nothing has booted before.
    Fresh,
    /// One seed under two fault plans and one corruption plan.
    Chaos,
}

/// One ticket: a job description plus its class.
#[derive(Debug, Clone)]
pub struct Ticket {
    /// What the ticket exercises.
    pub class: Class,
    /// The job, as the CLI and the wire describe it.
    pub args: SweepArgs,
}

impl Ticket {
    fn sweep(class: Class, services: Option<usize>, seeds: u64, seed: u64) -> Ticket {
        let mut args = SweepArgs::new(JobKind::Sweep);
        args.services = services;
        args.seeds = seeds;
        args.seed = Some(seed);
        Ticket { class, args }
    }

    fn chaos(seed: u64) -> Ticket {
        let mut args = SweepArgs::new(JobKind::Chaos);
        args.seeds = 1;
        args.plans = 2;
        args.corruption = 1;
        args.seed = Some(seed);
        Ticket {
            class: Class::Chaos,
            args,
        }
    }

    /// Boots the ticket delivers: seeds × configs, and for chaos
    /// tickets × (plans + control) × (corruptions + pristine).
    pub fn boots(&self) -> usize {
        let a = &self.args;
        let grid = a.seeds * 2;
        (match a.kind {
            JobKind::Chaos => grid * (a.plans + 1) * (a.corruption + 1),
            _ => grid,
        }) as usize
    }
}

/// Shape of a `sweep-*` ticket: `(services, seeds per ticket)`.
fn sweep_shape(w: Workload) -> (Option<usize>, u64) {
    match w {
        Workload::SweepTv136 => (None, 20),
        Workload::SweepTv1000 => (Some(1000), 2),
        Workload::ServeMixed => unreachable!("serve-mixed has no sweep shape"),
    }
}

/// The serve catalog: [`CATALOG_GRIDS`] popular grids, warmed during
/// set-up, which every hit ticket repeats.
pub fn catalog() -> Vec<Ticket> {
    (0..CATALOG_GRIDS)
        .map(|k| {
            Ticket::sweep(
                Class::Hit,
                None,
                SERVE_SEEDS,
                CATALOG_BASE + k * SERVE_SEEDS,
            )
        })
        .collect()
}

/// The untimed tickets of a workload's set-up: one ticket of the sweep
/// shape, or the serve catalog.
pub fn warmup(w: Workload) -> Vec<Ticket> {
    match w {
        Workload::ServeMixed => catalog(),
        _ => {
            let (services, seeds) = sweep_shape(w);
            vec![Ticket::sweep(Class::Sweep, services, seeds, WARMUP_BASE)]
        }
    }
}

/// The timed ticket list of workload `w` for `seed`: `n` tickets.
pub fn tickets(w: Workload, seed: u64, n: usize) -> Vec<Ticket> {
    let mut fresh = Fresh::new(seed);
    match w {
        Workload::ServeMixed => serve_mixed(seed, n, &mut fresh),
        _ => {
            let (services, seeds) = sweep_shape(w);
            (0..n)
                .map(|_| Ticket::sweep(Class::Sweep, services, seeds, fresh.take(seeds)))
                .collect()
        }
    }
}

fn serve_mixed(seed: u64, n: usize, fresh: &mut Fresh) -> Vec<Ticket> {
    let mut rng = Rng::new(seed ^ 0x5e47_e000_0000_0000);
    let zipf = Zipf::new(CATALOG_GRIDS as usize);
    let catalog = catalog();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block: Vec<Class> = (0..BLOCK)
            .map(|i| match i {
                i if i < BLOCK_HITS => Class::Hit,
                i if i < BLOCK_HITS + BLOCK_FRESH => Class::Fresh,
                _ => Class::Chaos,
            })
            .collect();
        for i in (1..BLOCK).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for class in block.into_iter().take(n - out.len()) {
            out.push(match class {
                Class::Hit => catalog[zipf.draw(&mut rng)].clone(),
                Class::Fresh => {
                    Ticket::sweep(Class::Fresh, None, SERVE_SEEDS, fresh.take(SERVE_SEEDS))
                }
                Class::Chaos => Ticket::chaos(fresh.take(1)),
                Class::Sweep => unreachable!("serve blocks hold no sweep tickets"),
            });
        }
    }
    out
}

/// Hands out consecutive seeds from the run's fresh window.
struct Fresh {
    next: u64,
    end: u64,
}

impl Fresh {
    fn new(seed: u64) -> Fresh {
        let next = FRESH_BASE + (seed % SEED_WINDOWS) * FRESH_PER_RUN;
        Fresh {
            next,
            end: next + FRESH_PER_RUN,
        }
    }

    fn take(&mut self, count: u64) -> u64 {
        let first = self.next;
        self.next += count;
        assert!(self.next <= self.end, "run exhausted its fresh seed window");
        first
    }
}

/// SplitMix64: a small seeded generator; the ticket list must not
/// depend on any library's stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(1) over `n` ranks: rank k is drawn with weight 1/(k+1).
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|k| {
                total += 1.0 / (k + 1) as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty catalog");
        let u = rng.unit() * total;
        self.cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(list: &[Ticket]) -> Vec<String> {
        list.iter().map(|t| t.args.to_wire_json()).collect()
    }

    #[test]
    fn ticket_lists_are_deterministic_per_seed() {
        for w in Workload::ALL {
            let n = w.ticket_count(1);
            assert_eq!(wire(&tickets(w, 7, n)), wire(&tickets(w, 7, n)));
            assert_ne!(wire(&tickets(w, 7, n)), wire(&tickets(w, 8, n)));
            // A longer run extends the list; it never reorders it.
            let longer = tickets(w, 7, n + BLOCK);
            assert_eq!(wire(&longer[..n]), wire(&tickets(w, 7, n)));
        }
    }

    #[test]
    fn serve_mixed_hits_its_class_shares() {
        let list = tickets(Workload::ServeMixed, 3, 20 * BLOCK);
        let share = |c: Class| list.iter().filter(|t| t.class == c).count() * 100 / list.len();
        assert_eq!(share(Class::Hit), 70);
        assert_eq!(share(Class::Fresh), 18);
        assert_eq!(share(Class::Chaos), 12);
        // Hits follow Zipf: the top grid is drawn most, and each grid
        // at least once over a thousand tickets.
        let mut counts = [0usize; CATALOG_GRIDS as usize];
        for t in list.iter().filter(|t| t.class == Class::Hit) {
            let k = (t.args.seed.unwrap() - CATALOG_BASE) / SERVE_SEEDS;
            counts[k as usize] += 1;
        }
        assert_eq!(counts.iter().max(), Some(&counts[0]));
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        // Every chaos ticket boots 12 times, every serve sweep 8 times.
        for t in &list {
            let boots = if t.class == Class::Chaos { 12 } else { 8 };
            assert_eq!(t.boots(), boots);
        }
    }

    #[test]
    fn seed_ranges_never_overlap() {
        let seeds = |list: &[Ticket]| -> Vec<u64> {
            list.iter()
                .flat_map(|t| {
                    let base = t.args.seed.unwrap();
                    base..base + t.args.seeds
                })
                .collect()
        };
        let mut warm: Vec<u64> = Vec::new();
        let mut fresh: Vec<u64> = Vec::new();
        for w in Workload::ALL {
            // Serve warms its catalog; the sweeps warm one ticket each.
            match w {
                Workload::ServeMixed => assert_eq!(seeds(&warmup(w)), seeds(&catalog())),
                _ => warm.extend(seeds(&warmup(w))),
            }
            for seed in [0, 1, 2, SEED_WINDOWS - 1, SEED_WINDOWS, u64::MAX] {
                let list = tickets(w, seed, w.ticket_count(60));
                let timed = list.iter().filter(|t| t.class != Class::Hit);
                fresh.extend(seeds(&timed.cloned().collect::<Vec<_>>()));
                // Hit tickets replay the catalog and nothing else.
                let hits: Vec<Ticket> = list
                    .iter()
                    .filter(|t| t.class == Class::Hit)
                    .cloned()
                    .collect();
                assert!(seeds(&hits).iter().all(|s| seeds(&catalog()).contains(s)));
            }
        }
        let catalog = seeds(&catalog());
        let in_range = |s: &u64, lo: u64, hi: u64| (lo..hi).contains(s);
        assert!(warm.iter().all(|s| in_range(s, WARMUP_BASE, CATALOG_BASE)));
        assert!(catalog
            .iter()
            .all(|s| in_range(s, CATALOG_BASE, FRESH_BASE)));
        assert!(fresh.iter().all(|s| in_range(s, FRESH_BASE, 1 << 45)));
        // Within one run, fresh seeds never repeat.
        let list = tickets(Workload::ServeMixed, 5, 20 * BLOCK);
        let mut run: Vec<u64> = seeds(
            &list
                .iter()
                .filter(|t| t.class != Class::Hit)
                .cloned()
                .collect::<Vec<_>>(),
        );
        let len = run.len();
        run.sort_unstable();
        run.dedup();
        assert_eq!(run.len(), len);
    }
}
