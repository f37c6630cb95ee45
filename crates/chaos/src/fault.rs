//! The fault plane: what to inject, where, and on which hit.

use crate::site::Site;

/// What a matched fault does at its site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The I/O operation at the site fails (append/fsync error). The
    /// code under test must degrade gracefully, not panic.
    IoError,
    /// A crash at a frame boundary: the operation tears mid-write, the
    /// log poisons, and [`crate::crashed`] turns on so the workload
    /// drains. Recovery is then checked against the committed prefix.
    Crash,
    /// The thread arriving at the yield site is descheduled for this
    /// many virtual-time ticks.
    Delay(u64),
}

impl FaultKind {
    /// Stable spelling for repro files (`Delay` carries its ticks).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::IoError => "io_error",
            FaultKind::Crash => "crash",
            FaultKind::Delay(_) => "delay",
        }
    }
}

/// One armed fault: `kind` fires at `site` for every hit counted in
/// `[from_hit, from_hit + count)`.
///
/// Hits are counted deterministically per site: yield sites count
/// scheduler arrivals ([`crate::yield_point`]), I/O sites count fault
/// probes ([`crate::fault_at`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Where the fault is armed.
    pub site: Site,
    /// First hit (0-based) at which it fires.
    pub from_hit: u64,
    /// Number of consecutive hits it fires for.
    pub count: u64,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// Fires exactly once, at hit `nth`.
    pub fn once(site: Site, nth: u64, kind: FaultKind) -> FaultSpec {
        FaultSpec {
            site,
            from_hit: nth,
            count: 1,
            kind,
        }
    }

    /// Fires on every hit.
    pub fn always(site: Site, kind: FaultKind) -> FaultSpec {
        FaultSpec {
            site,
            from_hit: 0,
            count: u64::MAX,
            kind,
        }
    }

    fn matches(&self, hit: u64) -> bool {
        hit >= self.from_hit && hit - self.from_hit < self.count
    }
}

/// The set of faults armed for one run. Order matters only when two
/// specs match the same (site, hit): the first wins.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The armed faults.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with nothing armed.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan from the given specs.
    pub fn of(specs: impl Into<Vec<FaultSpec>>) -> FaultPlan {
        FaultPlan {
            specs: specs.into(),
        }
    }

    /// The fault (if any) firing at `site` on hit number `hit`.
    pub(crate) fn at(&self, site: Site, hit: u64) -> Option<FaultKind> {
        self.specs
            .iter()
            .find(|s| s.site == site && s.matches(hit))
            .map(|s| s.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_windows_match_and_first_spec_wins() {
        let plan = FaultPlan::of([
            FaultSpec::once(Site::WalAppend, 2, FaultKind::IoError),
            FaultSpec::always(Site::WalAppend, FaultKind::Crash),
        ]);
        assert_eq!(plan.at(Site::WalAppend, 0), Some(FaultKind::Crash));
        assert_eq!(plan.at(Site::WalAppend, 2), Some(FaultKind::IoError));
        assert_eq!(plan.at(Site::WalFsync, 0), None);
    }
}
