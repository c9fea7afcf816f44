//! The open-loop schedule of the `serve` workload: requests due at a
//! fixed offered rate, each tagged with its traffic class, and the
//! generator-lateness statistic of a finished phase.

use crate::rng::Rng;
use crate::stats;

/// Traffic class of a served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// A warm shape with a fresh rate table: only the structure is reused.
    Hot,
    /// A shape the server has never seen.
    Cold,
    /// A 0 ms deadline that must come back degraded.
    Deadline,
    /// A small portfolio search (pooled private caches).
    Search,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 4] = [Class::Hot, Class::Cold, Class::Deadline, Class::Search];

    /// Lower-case name used in metric names and logs.
    pub fn label(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::Cold => "cold",
            Class::Deadline => "deadline",
            Class::Search => "search",
        }
    }
}

/// Class mix of one block of [`BLOCK`] consecutive requests: 15 hot,
/// 3 cold, 1 deadline, 1 search.  Every block holds exactly this mix in a
/// seeded order, so class shares are exact over any whole number of
/// blocks.  The expensive hot shape takes about two thirds of all
/// requests, so the median of all classes falls well inside it rather
/// than on the boundary between cheap and expensive requests.
pub const MIX: [(Class, usize); 4] = [
    (Class::Hot, 15),
    (Class::Cold, 3),
    (Class::Deadline, 1),
    (Class::Search, 1),
];

/// Requests per block of [`MIX`].
pub const BLOCK: usize = 20;

/// Requests of `class` in one block of [`MIX`].
pub const fn per_block(class: Class) -> usize {
    let mut i = 0;
    while i < MIX.len() {
        if MIX[i].0 as u8 == class as u8 {
            return MIX[i].1;
        }
        i += 1;
    }
    0
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    /// Seconds after the phase starts at which the request is due.
    pub due_s: f64,
    /// Its class.
    pub class: Class,
}

/// The class sequence of `n` requests: whole blocks of [`MIX`], each
/// shuffled by `rng`.
pub fn class_sequence(n: usize, rng: &mut Rng) -> Vec<Class> {
    let mut out = Vec::with_capacity(n + BLOCK);
    while out.len() < n {
        let mut block: Vec<Class> = MIX
            .iter()
            .flat_map(|&(c, k)| std::iter::repeat_n(c, k))
            .collect();
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out.truncate(n);
    out
}

/// `blocks` whole blocks of [`MIX`] due at `rate` per second, evenly
/// spaced: request `i` is due at `i / rate`.  Whole blocks make every
/// class's count independent of the seed.
pub fn open_loop(rate: f64, blocks: usize, rng: &mut Rng) -> Vec<Slot> {
    assert!(
        rate > 0.0 && rate.is_finite(),
        "offered rate must be positive"
    );
    let n = blocks * BLOCK;
    class_sequence(n, rng)
        .into_iter()
        .enumerate()
        .map(|(i, class)| Slot {
            due_s: i as f64 / rate,
            class,
        })
        .collect()
}

/// How late the generator ran: the p99 of (actual send − due), in
/// seconds, and whether it fell behind — p99 lateness above one
/// inter-arrival gap means requests queued at the generator, not only at
/// the server.
pub fn lateness(due_s: &[f64], sent_s: &[f64], rate: f64) -> (f64, bool) {
    assert_eq!(due_s.len(), sent_s.len());
    let late: Vec<f64> = due_s
        .iter()
        .zip(sent_s)
        .map(|(d, s)| (s - d).max(0.0))
        .collect();
    let p99 = stats::percentile(&late, 99.0);
    (p99, p99 > 1.0 / rate)
}

/// Completion rate of a closed-loop phase: the requests completed over
/// the time until the last of them completed (`0` for none).  A mean
/// over the whole phase rather than a median of block rates: the host's
/// slow spells last seconds, and a median of a few blocks snaps to
/// whichever speed held most of them.
pub fn phase_rate(done_s: &[f64]) -> f64 {
    let end = done_s.iter().fold(0.0f64, |m, &d| m.max(d));
    if end > 0.0 {
        done_s.len() as f64 / end
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_evenly_spaced_at_the_offered_rate() {
        let s = open_loop(4.0, 2, &mut Rng::new(1));
        assert_eq!(s.len(), 2 * BLOCK);
        for (i, slot) in s.iter().enumerate() {
            assert_eq!(slot.due_s, i as f64 / 4.0);
        }
    }

    #[test]
    fn every_block_has_the_exact_mix() {
        let seq = class_sequence(BLOCK * 25, &mut Rng::new(7));
        for block in seq.chunks(BLOCK) {
            for &(class, k) in MIX.iter() {
                assert_eq!(block.iter().filter(|&&c| c == class).count(), k);
            }
        }
        assert_eq!(MIX.iter().map(|&(_, k)| k).sum::<usize>(), BLOCK);
        assert_eq!(per_block(Class::Cold), 3);
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = open_loop(6.0, 3, &mut Rng::new(42));
        let b = open_loop(6.0, 3, &mut Rng::new(42));
        let c = open_loop(6.0, 3, &mut Rng::new(43));
        assert_eq!(a, b);
        assert_ne!(
            a.iter().map(|s| s.class).collect::<Vec<_>>(),
            c.iter().map(|s| s.class).collect::<Vec<_>>()
        );
    }

    #[test]
    fn phase_rate_spans_the_whole_phase() {
        // Completions out of order; the phase ends with the last one.
        assert_eq!(phase_rate(&[0.5, 2.0, 1.0, 4.0]), 1.0);
        assert_eq!(phase_rate(&[]), 0.0);
    }

    #[test]
    fn lateness_flags_a_generator_that_fell_behind() {
        let due = [0.0, 0.5, 1.0, 1.5];
        let (p99, behind) = lateness(&due, &[0.001, 0.5, 1.002, 1.5], 2.0);
        assert!((p99 - 0.002).abs() < 1e-12 && !behind);
        let (p99, behind) = lateness(&due, &[0.0, 0.5, 1.9, 1.5], 2.0);
        assert!((p99 - 0.9).abs() < 1e-12 && behind);
        // Sending early never counts as negative lateness.
        assert_eq!(lateness(&[1.0], &[0.5], 2.0).0, 0.0);
    }
}
