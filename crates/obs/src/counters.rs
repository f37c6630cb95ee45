//! One declaration per counter family.
//!
//! [`counters!`](crate::counters!) expands a single
//! `field: Kind "dotted.name"` list into everything a subsystem's
//! statistics need — the live struct of cells its owner bumps, a
//! `Copy` snapshot with the same public field names, `snapshot()`,
//! `since()` and `collect_metrics()` — so a new counter is one line in
//! its owning crate, and its name is spelt once.
//!
//! # Kinds
//!
//! * `Counter` — a monotone count, a [`Counter`] cell. `since`
//!   differences it (saturating) and it is exported as a Prometheus
//!   `counter`.
//! * `Gauge` — a level, a maximum, a quantile or a fact set once, a
//!   [`Gauge`] cell. `since` keeps the later value (none of these can
//!   be windowed after the fact) and it is exported as a `gauge`.
//!
//! A field declared without a name follows its kind in `since` but is
//! not exported: raw material for a mean the family exports instead
//! (`ratios`).
//!
//! A bump is one relaxed `fetch_add` on a line the bumping thread owns
//! (a [`Counter`] is striped by [`thread_slot`]); nothing is looked up
//! or locked at record time. Every transaction bumps several counters,
//! so an unstriped cell would be a line both clients write on every
//! transaction.

use crate::registry::MetricKind;
use crate::slot::{thread_slot, CachePadded};
use std::sync::atomic::{AtomicU64, Ordering};

/// Stripes a [`Counter`] is spread over.
pub const COUNTER_STRIPES: usize = 16;

/// A monotone count, striped by [`thread_slot`]: each stripe alone on
/// its own 128-byte block, summed when read. Relaxed everywhere: the
/// values feed reports, never control flow, and publish no other data.
pub struct Counter {
    stripes: Box<[CachePadded<AtomicU64>; COUNTER_STRIPES]>,
}

impl Default for Counter {
    fn default() -> Counter {
        Counter {
            stripes: Box::new(std::array::from_fn(|_| CachePadded::default())),
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

impl Counter {
    /// Counts one event.
    #[inline]
    pub fn bump(&self) {
        self.add(1);
    }

    /// Counts `n` events (or bytes).
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[thread_slot() % COUNTER_STRIPES].fetch_add(n, Ordering::Relaxed);
    }

    /// The sum over the stripes (wrapping, like the `fetch_add`s).
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .fold(0, |sum, s| sum.wrapping_add(s.load(Ordering::Relaxed)))
    }
}

/// A level, a maximum or a fact: one cell, since a last `set` or a
/// `max` cannot be recovered from per-thread parts. Relaxed, like
/// [`Counter`].
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Raises a maximum.
    #[inline]
    pub fn max(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl MetricKind {
    /// The kind-aware delta of one field between two snapshots:
    /// counters are differenced (saturating), gauges keep `now`.
    #[inline]
    pub fn since(self, now: u64, earlier: u64) -> u64 {
        match self {
            MetricKind::Counter => now.saturating_sub(earlier),
            MetricKind::Gauge => now,
        }
    }
}

/// Declares a counter family; see the [module docs](mod@crate::counters).
///
/// ```text
/// counters! {
///     /// docs
///     pub struct Live { pub(crate) extra: Histogram, }  // extra `Default` fields, usually none
///     /// docs
///     pub struct Snapshot;
///     pub(crate) cells {                 // visibility of the live cells
///         /// docs
///         field: Counter "dotted.name",
///         unnamed: Counter,              // in the snapshot, not exported
///     }
///     derived by fill {                  // snapshot-only fields, set by a
///         field: Gauge "dotted.name",    // `Live::fill(&self, &mut Snapshot)`
///     }
///     ratios {                           // `Snapshot::mean() -> f64`, a gauge
///         mean: sum_field / count_field "dotted.name",
///     }
/// }
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$live_meta:meta])*
        $live_vis:vis struct $Live:ident {
            $($(#[$extra_meta:meta])* $extra_vis:vis $extra:ident: $extra_ty:ty,)*
        }
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $Snap:ident;
        $cell_vis:vis cells {
            $($(#[$doc:meta])* $f:ident: $kind:ident $($name:literal)?,)*
        }
        $(derived by $fill:ident {
            $($(#[$ddoc:meta])* $d:ident: $dkind:ident $($dname:literal)?,)*
        })?
        $(ratios {
            $($(#[$rdoc:meta])* $ratio:ident: $num:ident / $den:ident $rname:literal,)*
        })?
    ) => {
        $(#[$live_meta])*
        #[derive(Debug, Default)]
        $live_vis struct $Live {
            $($(#[$doc])* $cell_vis $f: $crate::$kind,)*
            $($(#[$extra_meta])* $extra_vis $extra: $extra_ty,)*
        }

        $(#[$snap_meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $snap_vis struct $Snap {
            $($(#[$doc])* pub $f: u64,)*
            $($($(#[$ddoc])* pub $d: u64,)*)?
        }

        impl $Live {
            /// Snapshots every field.
            pub fn snapshot(&self) -> $Snap {
                #[allow(unused_mut)]
                let mut s = $Snap {
                    $($f: self.$f.get(),)*
                    $($($d: 0,)*)?
                };
                $(self.$fill(&mut s);)?
                s
            }
        }

        impl $Snap {
            /// What happened between `earlier` and `self`: counters
            /// are differenced (saturating), gauges keep `self`'s value.
            pub fn since(&self, earlier: &$Snap) -> $Snap {
                $Snap {
                    $($f: $crate::MetricKind::$kind.since(self.$f, earlier.$f),)*
                    $($($d: $crate::MetricKind::$dkind.since(self.$d, earlier.$d),)*)?
                }
            }

            /// Emits every named field under its stable dotted name.
            pub fn collect_metrics(&self, c: &mut $crate::Collector) {
                $($(c.sample($name, $crate::MetricKind::$kind, self.$f as f64);)?)*
                $($($(c.sample($dname, $crate::MetricKind::$dkind, self.$d as f64);)?)*)?
                $($(c.sample($rname, $crate::MetricKind::Gauge, self.$ratio());)*)?
            }

            $($(
                $(#[$rdoc])*
                pub fn $ratio(&self) -> f64 {
                    if self.$den == 0 {
                        0.0
                    } else {
                        self.$num as f64 / self.$den as f64
                    }
                }
            )*)?
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{MetricSet, MetricsRegistry};

    crate::counters! {
        /// Live.
        struct Live {}
        /// Snapshot.
        struct Snap;
        cells {
            /// Events.
            events: Counter "test.events",
            /// Raw material of `test.mean`.
            sum: Counter,
            /// Largest event.
            largest: Gauge "test.largest",
        }
        derived by fill {
            /// Twice the events.
            doubled: Counter "test.doubled",
        }
        ratios {
            /// Mean event size.
            mean: sum / events "test.mean",
        }
    }

    impl Live {
        fn fill(&self, s: &mut Snap) {
            s.doubled = 2 * s.events;
        }
    }

    #[test]
    fn one_declaration_yields_snapshot_since_and_names() {
        assert_eq!(std::mem::size_of::<Live>(), 3 * 8, "cells only");
        let live = Live::default();
        assert_eq!(live.snapshot().mean(), 0.0, "no samples, no division");
        live.events.bump();
        live.events.bump();
        live.sum.add(10);
        live.largest.max(7);
        live.largest.max(3);
        let a = live.snapshot();
        assert_eq!((a.events, a.sum, a.largest, a.doubled), (2, 10, 7, 4));
        live.events.bump();
        live.largest.set(5);
        let d = live.snapshot().since(&a);
        assert_eq!((d.events, d.sum, d.doubled), (1, 0, 2), "counters differ");
        assert_eq!(d.largest, 5, "a gauge keeps the later value");

        let reg = MetricsRegistry::new();
        reg.register_fn(&[], move |c| a.collect_metrics(c));
        let m = MetricSet::of(&reg.snapshot());
        assert_eq!(m.get("test.events"), Some(2.0));
        assert_eq!(m.get("test.doubled"), Some(4.0));
        assert_eq!(m.get("test.mean"), Some(5.0));
        assert_eq!(m.get("test.sum"), None, "an unnamed field is not exported");
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE test_events counter"));
        assert!(text.contains("# TYPE test_largest gauge"));
    }

    #[test]
    fn striped_counters_sum_exactly_and_gauges_stay_single() {
        const ROUNDS: u64 = 10_000;
        // More threads than stripes, so some share one.
        let threads = crate::test_threads().max(2 * super::COUNTER_STRIPES) as u64;
        let live = Live::default();
        std::thread::scope(|s| {
            for t in 0..threads {
                let live = &live;
                s.spawn(move || {
                    for i in 0..ROUNDS {
                        live.events.bump();
                        live.sum.add(t + 1);
                        live.largest.max(t * ROUNDS + i);
                    }
                });
            }
        });
        let s = live.snapshot();
        assert_eq!(s.events, threads * ROUNDS, "every bump counted once");
        assert_eq!(s.sum, ROUNDS * threads * (threads + 1) / 2, "every add");
        assert_eq!(s.largest, threads * ROUNDS - 1, "the maximum of all");
        live.largest.set(3);
        assert_eq!(live.snapshot().largest, 3, "a set is the gauge's value");
        live.largest.max(2);
        assert_eq!(live.snapshot().largest, 3, "a lower max leaves it");
    }
}
