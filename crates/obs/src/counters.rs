//! One declaration per counter family.
//!
//! [`counters!`](crate::counters!) expands a single
//! `field: Kind "dotted.name"` list into everything a subsystem's
//! statistics need — the live struct of [`Cell`]s its owner bumps, a
//! `Copy` snapshot with the same public field names, `snapshot()`,
//! `since()` and `collect_metrics()` — so a new counter is one line in
//! its owning crate, and its name is spelt once.
//!
//! # Kinds
//!
//! * `Counter` — a monotone count. `since` differences it (saturating)
//!   and it is exported as a Prometheus `counter`.
//! * `Gauge` — a level, a maximum, a quantile or a fact set once.
//!   `since` keeps the later value (none of these can be windowed after
//!   the fact) and it is exported as a `gauge`.
//!
//! A field declared without a name follows its kind in `since` but is
//! not exported: raw material for a mean the family exports instead
//! (`ratios`).
//!
//! A bump is one relaxed operation on a cell the owner holds directly;
//! nothing here is looked up, boxed or indirected at record time.

use crate::registry::MetricKind;
use std::sync::atomic::{AtomicU64, Ordering};

/// One live counter or gauge cell. Relaxed everywhere: the values feed
/// reports, never control flow, and publish no other data.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct Cell(AtomicU64);

impl Cell {
    /// Counts one event.
    #[inline]
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` events (or bytes).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one event as plain load + store — for a cell whose only
    /// writer holds a latch, sparing the locked read-modify-write.
    #[inline]
    pub fn bump_exclusive(&self) {
        self.0
            .store(self.0.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Sets a gauge.
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
            $($(#[$doc])* $cell_vis $f: $crate::Cell,)*
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
        live.events.bump_exclusive();
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
}
