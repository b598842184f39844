//! The workspace's property-test runner: a dependency-free work-alike
//! of the slice of the `proptest` crate's API the test suites use
//! (`proptest!`, `prop_assert!`, `prop_oneof!`, strategies, collections).
//!
//! No shrinking, no persistence — just deterministic pseudo-random case
//! generation: every property runs the same 64 seeded cases (or the
//! count its `proptest_config` names) on every machine, so a failure
//! reproduces by rerunning the test. A failing input worth keeping is
//! added next to the property as a named `#[test]`.

pub mod test_runner {
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 64 }
        }
    }

    /// splitmix64 — deterministic, seedable, dependency-free.
    #[derive(Clone, Debug)]
    pub struct TestRng(u64);

    impl TestRng {
        pub fn seeded(seed: u64) -> TestRng {
            TestRng(seed ^ 0x9e37_79b9_7f4a_7c15)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in [0, 1).
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform in [0, bound).
        pub fn below(&mut self, bound: u64) -> u64 {
            if bound == 0 {
                0
            } else {
                self.next_u64() % bound
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            std::rc::Rc::new(self)
        }
    }

    /// Rc rather than Box so strategies stay cloneable (real proptest's
    /// `BoxedStrategy` is `Clone` too, via an internal Arc).
    pub type BoxedStrategy<T> = std::rc::Rc<dyn Strategy<Value = T>>;

    impl<T> Strategy for std::rc::Rc<dyn Strategy<Value = T>> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    /// Real proptest treats `&str` as a regex to generate matching strings.
    /// This harness ignores the pattern and emits 0–12 lowercase letters —
    /// enough for tests that use regexes as "some short identifier".
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let len = rng.below(13) as usize;
            (0..len)
                .map(|_| char::from(b'a' + rng.below(26) as u8))
                .collect()
        }
    }

    /// `Just(v)` — constant strategy.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Weighted-equal union used by `prop_oneof!`.
    pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Union<T> {
            Union(self.0.clone())
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.0.len() as u64) as usize;
            self.0[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    lo + rng.below((hi - lo) as u64 + 1) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident.$idx:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A.0);
        (A.0, B.1);
        (A.0, B.1, C.2);
        (A.0, B.1, C.2, D.3);
        (A.0, B.1, C.2, D.3, E.4);
        (A.0, B.1, C.2, D.3, E.4, F.5);
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6);
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeSet;

    /// Size bounds accepted where real proptest takes `Into<SizeRange>`.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        pub min: usize,
        pub max: usize, // inclusive
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange { min: r.start, max: r.end - 1 }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange { min: *r.start(), max: *r.end() }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n }
        }
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.min + rng.below((self.max - self.min) as u64 + 1) as usize
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.pick(rng);
            let mut out = BTreeSet::new();
            // The element domain may be smaller than `target`; bail after
            // a bounded number of duplicate draws (real proptest rejects
            // the whole case instead — overkill for this harness).
            let mut attempts = 0;
            while out.len() < target && attempts < 64 + 16 * target {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct OptionStrategy<S>(S);

    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(2) == 0 {
                Some(self.0.generate(rng))
            } else {
                None
            }
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::marker::PhantomData;

    pub trait Arbitrary {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    pub struct Any<T>(PhantomData<T>);

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    int_arbitrary!(u8, u16, u32, u64, usize, i32, i64);

    impl Arbitrary for [u8; 4] {
        fn arbitrary(rng: &mut TestRng) -> [u8; 4] {
            (rng.next_u64() as u32).to_be_bytes()
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 0
        }
    }
}

pub mod sample {
    use crate::arbitrary::Arbitrary;
    use crate::test_runner::TestRng;

    /// Lazily-resolved index into a collection of runtime-known size.
    #[derive(Clone, Copy, Debug)]
    pub struct Index(u64);

    impl Index {
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Index {
            Index(rng.next_u64())
        }
    }
}

/// The `prop` path used via the prelude (`prop::collection::…`).
pub mod prop {
    pub use crate::collection;
    pub use crate::option;
    pub use crate::sample;
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..cfg.cases {
                let mut rng = $crate::test_runner::TestRng::seeded(
                    0x5eed ^ (case as u64).wrapping_mul(0x0100_0000_01b3),
                );
                let ($($pat,)+) = (
                    $($crate::strategy::Strategy::generate(&$strat, &mut rng),)+
                );
                let outcome: ::std::result::Result<(), ::std::string::String> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(msg) = outcome {
                    panic!("property failed at case {case}: {msg}");
                }
            }
        }
    )*};
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union(vec![
            $($crate::strategy::Strategy::boxed($arm),)+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err(
                format!("assertion failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(lhs == rhs) {
            return ::std::result::Result::Err(
                format!("{} != {}: {:?} vs {:?}", stringify!($a), stringify!($b), lhs, rhs),
            );
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(lhs == rhs) {
            return ::std::result::Result::Err(
                format!("{:?} vs {:?}: {}", lhs, rhs, format!($($fmt)+)),
            );
        }
    }};
}
