//! Airshed pollution modelling.
//!
//! The paper's second application "contains a rich set of computation and
//! communication operations, as it simulates diverse chemical and
//! physical phenomena" [Subhlok et al. 98]. Two layers again:
//!
//! * a **real kernel** — a toy advection–reaction step on a 2-D
//!   concentration grid (upwind advection + Robertson-style linearized
//!   chemistry), enough to demonstrate the application pattern in the
//!   examples;
//! * the **program model** [`airshed_program`] — the iterated phase mix
//!   (replicated serial work, distributed parallel work, a boundary
//!   broadcast, a concentration-field redistribution) calibrated so the
//!   unloaded 3- and 5-node runs land near the paper's 908 s / 650 s.

use crate::calib;
use remos_fx::{CommPattern, Phase, Program};

/// A 2-D concentration grid with a wind field, advanced by
/// advection + chemistry steps.
#[derive(Clone, Debug)]
pub struct AirshedGrid {
    /// Grid side length.
    pub n: usize,
    /// Pollutant concentration, row-major n×n.
    pub conc: Vec<f64>,
    /// Wind (u, v) per cell.
    pub wind: Vec<(f64, f64)>,
}

impl AirshedGrid {
    /// A grid with a point emission source in the middle and a rotating
    /// wind field.
    pub fn new(n: usize) -> AirshedGrid {
        assert!(n >= 4);
        let mut conc = vec![0.0; n * n];
        conc[(n / 2) * n + n / 2] = 1000.0;
        let wind = (0..n * n)
            .map(|i| {
                let (r, c) = (i / n, i % n);
                // Solid-body rotation about the grid centre.
                let dy = r as f64 - n as f64 / 2.0;
                let dx = c as f64 - n as f64 / 2.0;
                (-dy * 0.05, dx * 0.05)
            })
            .collect();
        AirshedGrid { n, conc, wind }
    }

    /// One upwind-advection + first-order-decay step. `dt` must satisfy
    /// the CFL-ish bound `|wind| * dt < 1`.
    pub fn step(&mut self, dt: f64, decay: f64) {
        let n = self.n;
        let old = self.conc.clone();
        let get = |r: isize, c: isize| -> f64 {
            if r < 0 || c < 0 || r >= n as isize || c >= n as isize {
                0.0
            } else {
                old[r as usize * n + c as usize]
            }
        };
        self.conc
            .iter_mut()
            .enumerate()
            .for_each(|(i, v)| {
                let (r, c) = ((i / n) as isize, (i % n) as isize);
                let (u, w) = self.wind[i];
                // Upwind differences.
                let ddx = if u >= 0.0 { get(r, c) - get(r, c - 1) } else { get(r, c + 1) - get(r, c) };
                let ddy = if w >= 0.0 { get(r, c) - get(r - 1, c) } else { get(r + 1, c) - get(r, c) };
                let advected = get(r, c) - dt * (u * ddx + w * ddy);
                // Linearized chemistry: first-order decay.
                *v = (advected * (1.0 - decay * dt)).max(0.0);
            });
    }

    /// Total pollutant mass.
    pub fn total_mass(&self) -> f64 {
        self.conc.iter().sum()
    }
}

/// The Airshed program model on `p` ranks.
///
/// Per outer iteration: a compute phase with both a replicated
/// (sequential-fraction) and a distributed part, a boundary broadcast
/// from rank 0, and an all-to-all redistribution of the concentration
/// field (transport happens along rows, chemistry along columns — the
/// same transpose structure HPF codes use).
pub fn airshed_program(p: usize) -> Program {
    airshed_program_iters(p, calib::AIRSHED_ITERATIONS)
}

/// [`airshed_program`] with an explicit iteration count (short runs for
/// tests, full runs for the tables).
pub fn airshed_program_iters(p: usize, iterations: usize) -> Program {
    assert!(p >= 1);
    let pair_bytes = calib::AIRSHED_EXCHANGE_BYTES / (p * p) as u64;
    Program {
        name: "Airshed".into(),
        ranks: p,
        startup: vec![Phase::Comm(CommPattern::Broadcast {
            root: 0,
            bytes: calib::AIRSHED_BROADCAST_BYTES,
        })],
        body: vec![
            Phase::Compute {
                parallel_flops: calib::AIRSHED_PARALLEL_FLOPS,
                replicated_flops: calib::AIRSHED_REPLICATED_FLOPS,
            },
            Phase::Comm(CommPattern::Broadcast {
                root: 0,
                bytes: calib::AIRSHED_BROADCAST_BYTES,
            }),
            Phase::Comm(CommPattern::AllToAll { bytes_per_pair: pair_bytes }),
        ],
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_mass_decays_under_chemistry() {
        let mut g = AirshedGrid::new(16);
        let m0 = g.total_mass();
        for _ in 0..10 {
            g.step(0.5, 0.1);
        }
        let m1 = g.total_mass();
        assert!(m1 < m0, "{m1} !< {m0}");
        assert!(m1 > 0.0);
    }

    #[test]
    fn grid_stays_non_negative() {
        let mut g = AirshedGrid::new(12);
        for _ in 0..50 {
            g.step(0.5, 0.05);
        }
        assert!(g.conc.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn advection_moves_plume() {
        let mut g = AirshedGrid::new(32);
        // Uniform eastward wind.
        for w in g.wind.iter_mut() {
            *w = (0.8, 0.0);
        }
        let centroid = |g: &AirshedGrid| -> f64 {
            let total = g.total_mass();
            g.conc
                .iter()
                .enumerate()
                .map(|(i, &v)| (i % g.n) as f64 * v)
                .sum::<f64>()
                / total
        };
        let c0 = centroid(&g);
        for _ in 0..10 {
            g.step(0.5, 0.0);
        }
        let c1 = centroid(&g);
        assert!(c1 > c0 + 1.0, "plume did not advect east: {c0} -> {c1}");
    }

    #[test]
    fn program_shape_and_scaling() {
        let p3 = airshed_program(3);
        assert_eq!(p3.ranks, 3);
        assert_eq!(p3.iterations, calib::AIRSHED_ITERATIONS);
        assert_eq!(p3.body.len(), 3);
        let p5 = airshed_program(5);
        // Redistribution volume per pair shrinks with p².
        let pair = |p: &Program| match &p.body[2] {
            Phase::Comm(CommPattern::AllToAll { bytes_per_pair }) => *bytes_per_pair,
            _ => panic!(),
        };
        assert!(pair(&p3) > pair(&p5));
        assert_eq!(pair(&p3), calib::AIRSHED_EXCHANGE_BYTES / 9);
    }

    #[test]
    fn short_run_constructor() {
        let p = airshed_program_iters(5, 3);
        assert_eq!(p.iterations, 3);
    }
}
