//! Variable-timescale queries (§4.4).
//!
//! "Relevant queries in the Remos interface accept a timeframe parameter
//! which allows the user to request data collected and averaged for a
//! specific time window", covering three regimes: the most recent
//! measurement, a historical window, and a prediction of expected future
//! availability.

use remos_net::SimDuration;

/// The timescale a query refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Timeframe {
    /// Most recent measurements only ("current traffic conditions" — what
    /// the paper's experiments use: `timeframe = current`).
    Current,
    /// Statistics over the trailing window of the given length.
    Window(SimDuration),
    /// Expected availability over the coming horizon, produced by a
    /// predictor from historical samples.
    Future(SimDuration),
}

impl Timeframe {
    /// How many history samples a query in this timeframe needs at
    /// minimum, given the collector's polling period.
    pub fn min_samples(&self, poll_period: SimDuration) -> usize {
        match self {
            Timeframe::Current => 1,
            Timeframe::Window(w) | Timeframe::Future(w) => {
                let p = poll_period.as_secs_f64().max(1e-9);
                ((w.as_secs_f64() / p).ceil() as usize).max(2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_requirements() {
        let p = SimDuration::from_secs(1);
        assert_eq!(Timeframe::Current.min_samples(p), 1);
        assert_eq!(Timeframe::Window(SimDuration::from_secs(10)).min_samples(p), 10);
        assert_eq!(Timeframe::Future(SimDuration::from_secs(3)).min_samples(p), 3);
        // Even a tiny window needs two points to say anything dynamic.
        assert_eq!(Timeframe::Window(SimDuration::from_millis(1)).min_samples(p), 2);
    }
}
