//! # remos-apps — applications, testbed, and experiment scenarios
//!
//! The paper evaluates Remos with "network-aware versions of the following
//! two programs: fast Fourier transforms (FFT) and Airshed pollution
//! modelling", executed on a dedicated IP testbed (Fig 3). This crate
//! provides:
//!
//! * [`fft`] — a real radix-2 complex FFT plus [`fft::fft_program`],
//!   the 2-D FFT phase model (row FFTs, transpose, column FFTs,
//!   transpose back);
//! * [`airshed`] — a simplified advection–reaction kernel plus
//!   [`airshed::airshed_program`], the iterated mixed compute/communication
//!   phase model calibrated against the paper's execution times;
//! * [`testbed`] — topology builders: the CMU testbed (Fig 3/4), the Fig 1
//!   example network, dumbbells, stars, and seeded random networks;
//! * [`synthetic`] — the competing-traffic scenarios of §8.2–8.3;
//! * [`harness`] — one-call assembly of the full stack (simulator, SNMP
//!   agents, collector, Remos, adapter, runtime) for experiments.

pub mod airshed;
pub mod bcast;
pub mod calib;
pub mod fft;
pub mod harness;
pub mod scenario;
pub mod shipping;
pub mod sor;
pub mod synthetic;
pub mod testbed;
pub mod video;

pub use harness::TestbedHarness;
