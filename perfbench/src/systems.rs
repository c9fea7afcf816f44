//! Seeded inputs: streaming systems of a given shape, the `oneshot`
//! population, and the shape sets of the `serve` classes.
//!
//! A shape is fixed by the workload; the seed draws its numbers (stage
//! work, file sizes, processor speeds, bandwidth).  A *homogeneous*
//! system gives every processor of a stage the same speed, so the Strict
//! chain keeps its row-rotation symmetry and takes the direct-quotient
//! path; a *heterogeneous* one draws every speed independently and takes
//! the full-chain path.

use crate::rng::Rng;
use repstream::core::model::{Application, Mapping, Platform, System};
use repstream::core::wire::SearchRequest;

/// A system shape: team sizes per stage, and whether speeds are
/// homogeneous per stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Team size of every stage.
    pub teams: &'static [usize],
    /// Same speed for every processor of a stage.
    pub homogeneous: bool,
}

impl Shape {
    /// `het 4x5` / `hom 6x7` style label.
    pub fn label(&self) -> String {
        let dims: Vec<String> = self.teams.iter().map(|t| t.to_string()).collect();
        let kind = if self.homogeneous { "hom" } else { "het" };
        format!("{kind} {}", dims.join("x"))
    }

    /// Draw a system of this shape (see [`system`]).
    pub fn draw(&self, rng: &mut Rng) -> System {
        system(self.teams, self.homogeneous, rng)
    }
}

const fn het(teams: &'static [usize]) -> Shape {
    Shape {
        teams,
        homogeneous: false,
    }
}

const fn hom(teams: &'static [usize]) -> Shape {
    Shape {
        teams,
        homogeneous: true,
    }
}

/// Draw a system over `teams`: every number uniform in `[1, 4)`,
/// processors numbered consecutively stage by stage on a complete
/// platform with one bandwidth.
pub fn system(teams: &[usize], homogeneous: bool, rng: &mut Rng) -> System {
    let n = teams.len();
    let work: Vec<f64> = (0..n).map(|_| rng.uniform(1.0, 4.0)).collect();
    let files: Vec<f64> = (0..n - 1).map(|_| rng.uniform(1.0, 4.0)).collect();
    let mut speeds = Vec::new();
    for &team in teams {
        let stage_speed = rng.uniform(1.0, 4.0);
        for _ in 0..team {
            speeds.push(if homogeneous {
                stage_speed
            } else {
                rng.uniform(1.0, 4.0)
            });
        }
    }
    let app = Application::new(work, files).expect("positive finite work and file sizes");
    let platform =
        Platform::complete(speeds, rng.uniform(1.0, 4.0)).expect("positive finite speeds");
    let mut next = 0;
    let mapping = Mapping::new(
        teams
            .iter()
            .map(|&t| {
                next += t;
                (next - t..next).collect()
            })
            .collect(),
    )
    .expect("non-empty disjoint teams");
    System::new(app, platform, mapping).expect("mapping fits the platform")
}

/// The `oneshot` population: 2- and 3-stage shapes, both paths, from
/// about 10² to 1.5×10⁵ Strict-chain states (full-chain state counts in
/// the comments; quotient counts after the slash).  Small and mid-size
/// systems dominate the count, the two largest dominate the time.
pub const ONESHOT: [Shape; 19] = [
    het(&[2, 2, 2]), // 144
    hom(&[2, 2, 1]), // 144 / 72
    het(&[2, 3]),    // 384
    hom(&[2, 3]),    // 384 / 64
    het(&[4, 4]),    // 256
    het(&[1, 2, 3]), // 864
    hom(&[3, 2]),    // 384 / 64
    het(&[2, 5]),    // 3 840
    het(&[2, 3, 2]), // 3 456
    hom(&[2, 2, 3]), // 3 456 / 576
    het(&[3, 4]),    // 7 680
    hom(&[3, 4]),    // 7 680 / 640
    hom(&[3, 5]),    // 26 880 / 1 792
    het(&[4, 3]),    // 7 680
    hom(&[4, 5]),    // 143 360 / 7 168
    het(&[3, 5]),    // 26 880
    het(&[2, 3, 4]), // 36 864
    hom(&[2, 3, 5]), // 207 360 / 6 912
    het(&[4, 5]),    // 143 360
];

/// Warm shapes of the `serve` hot class, with their share out of
/// [`HOT_CYCLE`] hot requests (one cycle per block of the class mix):
/// most traffic hits heterogeneous 4×5.
pub const HOT: [(Shape, usize); 3] = [(het(&[4, 5]), 13), (hom(&[3, 5]), 1), (het(&[2, 3, 2]), 1)];

/// Hot requests per cycle of [`HOT`] shares.
pub const HOT_CYCLE: usize = 15;

/// The hot shape of the `i`-th hot request.
pub fn hot_shape(i: usize) -> Shape {
    let mut k = i % HOT_CYCLE;
    for &(shape, share) in HOT.iter() {
        if k < share {
            return shape;
        }
        k -= share;
    }
    unreachable!("HOT shares sum to HOT_CYCLE")
}

/// The deadline class's shape.  No other class uses it, and every request
/// on it carries an expired deadline, so its chain is never cached and
/// every request reaches a governor checkpoint.
pub const DEADLINE: Shape = het(&[2, 2, 1]);

/// Cold shapes of the open-loop phase: 3- to 5-stage heterogeneous
/// shapes of 5.2×10³ to 1.04×10⁴ full-chain states (about 5–15 ms of
/// BFS, so the build rather than the round trip dominates a cold
/// request), none shared with another class.  An open loop of six blocks
/// sends each exactly once, in a seeded order.
pub const COLD_OPEN: [&[usize]; 18] = [
    &[2, 1, 2, 3],
    &[2, 2, 1, 3],
    &[3, 1, 1, 1, 3],
    &[3, 1, 2, 2],
    &[3, 2, 1, 2],
    &[2, 1, 3, 2],
    &[2, 3, 1, 2],
    &[3, 2, 3],
    &[1, 2, 2, 3],
    &[3, 2, 2, 1],
    &[1, 3, 1, 3, 1],
    &[1, 2, 3, 2],
    &[2, 3, 2, 1],
    &[1, 3, 2, 2],
    &[2, 2, 3, 1],
    &[2, 3, 3],
    &[3, 1, 2, 3],
    &[3, 2, 1, 3],
];

/// Cold shapes of the saturation phase, none used by another class, in
/// a fixed order (so every seed sends the same ones): team vectors over
/// `{1, 2}` with 5 stages and at least two teams of 2, 6 stages and two
/// or three, 7 stages and two.
pub fn cold_saturation() -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for (stages, twos) in [(5u32, 2..=5u32), (6, 2..=3), (7, 2..=2)] {
        for bits in 0u32..1 << stages {
            if twos.contains(&bits.count_ones()) {
                out.push(
                    (0..stages)
                        .map(|k| 1 + ((bits >> k) & 1) as usize)
                        .collect(),
                );
            }
        }
    }
    out
}

/// A small overlap portfolio search: a 3-stage application on
/// 6 processors, 24 random candidates, exponential re-rank of the
/// finalists.
pub fn search_request(rng: &mut Rng) -> SearchRequest {
    let sys = system(&[2, 2, 2], false, rng);
    SearchRequest {
        app: sys.app().clone(),
        platform: sys.platform().clone(),
        random_candidates: 24,
        seed: rng.next_u64(),
        exp_rerank: true,
        lumping: true,
        deadline_ms: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn systems_are_a_function_of_the_seed() {
        let a = ONESHOT[10].draw(&mut Rng::new(5));
        let b = ONESHOT[10].draw(&mut Rng::new(5));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.shape().teams(), &[3, 4]);
    }

    #[test]
    fn homogeneous_stages_share_one_speed() {
        let s = system(&[3, 4], true, &mut Rng::new(2));
        let p = s.platform();
        assert!((0..3).all(|i| p.speed(i) == p.speed(0)));
        assert!((3..7).all(|i| p.speed(i) == p.speed(3)));
    }

    #[test]
    fn hot_shares_skew_to_het_4x5() {
        let n = HOT_CYCLE * 10;
        let hits = (0..n).filter(|&i| hot_shape(i) == HOT[0].0).count();
        assert_eq!(hits, 130);
        assert_eq!(HOT.iter().map(|&(_, k)| k).sum::<usize>(), HOT_CYCLE);
    }

    #[test]
    fn class_shapes_are_disjoint() {
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        for (shape, _) in HOT {
            seen.insert(shape.teams.to_vec());
        }
        assert!(seen.insert(DEADLINE.teams.to_vec()));
        for teams in COLD_OPEN {
            assert!(seen.insert(teams.to_vec()), "{teams:?} repeats");
        }
        let sat = cold_saturation();
        assert_eq!(sat.len(), 26 + 35 + 21);
        for teams in sat {
            assert!(seen.insert(teams), "saturation shape repeats");
        }
    }
}
