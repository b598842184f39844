//! Seeded `hot-path-unwrap` violation: an `.unwrap()` in a helper
//! reachable from `Remos::run`. In a core crate clippy's `unwrap_used`
//! rejects this line too; the cross-file pass is what follows a request
//! into every other crate. This file is ANALYZED by the audit's fixture
//! tests, never compiled.

pub struct Remos {
    latest: Option<u32>,
}

impl Remos {
    pub fn run(&mut self) -> u32 {
        newest_sample(self.latest)
    }
}

fn newest_sample(s: Option<u32>) -> u32 {
    s.unwrap()
}
