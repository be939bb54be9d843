//! Fleet routing: which device lane takes the next request.
//!
//! The router is a pure decision function over per-lane snapshots
//! ([`LaneView`]), so placement — like everything else in the serving
//! stack — is deterministic: the same fleet state always routes the
//! same way. Placement preference, in order:
//!
//! 1. **Eligibility** — only lanes that are accepting work (not
//!    draining, not dead) and serve the request's backend are
//!    considered. Lanes with an open breaker are *de-prioritized*
//!    rather than excluded: when a healthy lane exists, open lanes get
//!    nothing, but when every eligible lane is open the request is
//!    still placed (the lane's own fail-fast path rejects it
//!    deterministically — exactly what a single
//!    [`crate::DetectionServer`] would do).
//! 2. **Geometry affinity** — a lane that has already admitted this
//!    frame geometry keeps receiving it while its backlog stays within
//!    eight requests of the least-loaded eligible lane. Affinity is
//!    what lets the dynamic batcher fill same-geometry batches instead
//!    of smearing every geometry across every device (and re-paying
//!    each device's buffer-pool footprint).
//! 3. **Least load, then lowest index** — pending work breaks affinity
//!    ties; the lane index makes the order total.

/// How much deeper (in pending requests) an affine lane may be than the
/// least-loaded eligible lane before the router spills the geometry to a
/// fresh lane: the default batch size, so a lane keeps enough backlog to
/// fill batches but a sustained imbalance spills.
const AFFINITY_SLACK: usize = 8;

/// One lane's state as the router sees it at decision time.
#[derive(Debug, Clone, Copy)]
pub struct LaneView {
    /// Accepting new work (Active state — not draining, not dead).
    pub accepting: bool,
    /// The lane's fail-fast breaker is open.
    pub breaker_open: bool,
    /// Queued + calendar requests on the lane.
    pub pending: usize,
    /// The lane already admitted this request's frame geometry.
    pub has_geometry: bool,
    /// The lane's detector serves this request's backend class. A hard
    /// eligibility bound, never a preference: a Haar request on a CNN
    /// lane would silently change its results. Homogeneous fleets set
    /// this `true` everywhere, reducing to the pre-backend router.
    pub backend_match: bool,
}

/// Fleet-level routing and migration accounting.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Fresh submissions placed, per device.
    pub routed_per_device: Vec<u64>,
    /// Queued/calendar requests moved off a lost or breaker-open lane.
    pub migrations: u64,
    /// Evacuation events (breaker-open, kill or drain) that moved at
    /// least one request.
    pub failovers: u64,
    /// Requests moved by idle lanes stealing from deep queues.
    pub steals: u64,
    /// Submissions refused because no accepting lane serves the
    /// request's backend.
    pub admission_rejected: u64,
}

/// The fleet's placement engine (decision + accounting).
#[derive(Debug, Clone)]
pub struct Router {
    stats: RouterStats,
}

impl Router {
    pub fn new(devices: usize) -> Self {
        Self { stats: RouterStats { routed_per_device: vec![0; devices], ..Default::default() } }
    }

    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut RouterStats {
        &mut self.stats
    }

    /// Pick the lane for a fresh submission and count it. `None` means
    /// no lane can take the request (see [`Self::pick`]).
    pub fn route(&mut self, lanes: &[LaneView]) -> Option<usize> {
        let choice = self.pick(lanes);
        match choice {
            Some(d) => self.stats.routed_per_device[d] += 1,
            None => self.stats.admission_rejected += 1,
        }
        choice
    }

    /// The placement decision alone, without accounting. Deterministic
    /// in the snapshot. Returns `None` only when no accepting lane
    /// serves the request's backend.
    pub fn pick(&self, lanes: &[LaneView]) -> Option<usize> {
        let eligible = |l: &LaneView| l.accepting && l.backend_match;
        // Healthy (breaker closed) lanes take absolute precedence; open
        // lanes are a last resort so a fully-open fleet still fails fast
        // through a lane instead of erroring at the front door.
        let tier = |open: bool| {
            self.best_of(
                lanes.iter().enumerate().filter(|(_, l)| eligible(l) && l.breaker_open == open),
            )
        };
        tier(false).or_else(|| tier(true))
    }

    /// Min-(pending, index) with geometry affinity over one tier of
    /// candidate lanes.
    fn best_of<'a, I>(&self, candidates: I) -> Option<usize>
    where
        I: Iterator<Item = (usize, &'a LaneView)> + Clone,
    {
        let min_pending = candidates.clone().map(|(_, l)| l.pending).min()?;
        let affine = candidates
            .clone()
            .filter(|(_, l)| l.has_geometry && l.pending <= min_pending + AFFINITY_SLACK)
            .min_by_key(|&(i, l)| (l.pending, i));
        affine.or_else(|| candidates.min_by_key(|&(i, l)| (l.pending, i))).map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane(pending: usize, has_geometry: bool) -> LaneView {
        LaneView {
            accepting: true,
            breaker_open: false,
            pending,
            has_geometry,
            backend_match: true,
        }
    }

    #[test]
    fn least_loaded_lowest_index_without_an_affine_lane() {
        let r = Router::new(3);
        let lanes = [lane(4, false), lane(2, false), lane(2, false)];
        assert_eq!(r.pick(&lanes), Some(1), "load first, index breaks the tie");
    }

    #[test]
    fn affinity_holds_within_slack_then_spills() {
        let r = Router::new(2);
        // The affine lane is deeper, but within slack: it keeps the
        // geometry so batches can fill.
        assert_eq!(r.pick(&[lane(1 + AFFINITY_SLACK, true), lane(1, false)]), Some(0));
        // Past the slack the geometry spills to the emptier lane.
        assert_eq!(r.pick(&[lane(2 + AFFINITY_SLACK, true), lane(1, false)]), Some(1));
        // Two affine lanes: least-loaded affine wins.
        assert_eq!(r.pick(&[lane(3, true), lane(2, true)]), Some(1));
    }

    #[test]
    fn non_accepting_lanes_are_excluded() {
        let r = Router::new(3);
        let mut lanes = [lane(0, false), lane(5, true), lane(9, false)];
        lanes[0].accepting = false; // draining or dead
        assert_eq!(r.pick(&lanes), Some(1));
        lanes[1].accepting = false;
        assert_eq!(r.pick(&lanes), Some(2));
        lanes[2].accepting = false;
        assert_eq!(r.pick(&lanes), None, "nothing left that can take the request");
    }

    #[test]
    fn open_breakers_are_a_last_resort_tier() {
        let r = Router::new(2);
        let mut lanes = [lane(0, true), lane(7, false)];
        lanes[0].breaker_open = true;
        assert_eq!(r.pick(&lanes), Some(1), "healthy lane wins regardless of load");
        lanes[1].accepting = false;
        assert_eq!(
            r.pick(&lanes),
            Some(0),
            "an all-open fleet still places (the lane fail-fasts it deterministically)"
        );
    }

    #[test]
    fn backend_mismatch_is_a_hard_bound_not_a_preference() {
        let r = Router::new(2);
        let mut lanes = [lane(0, true), lane(9, false)];
        lanes[0].backend_match = false;
        assert_eq!(
            r.pick(&lanes),
            Some(1),
            "an idle affine lane of the wrong backend never takes the request"
        );
        lanes[1].backend_match = false;
        assert_eq!(r.pick(&lanes), None, "no matching backend anywhere");
    }

    #[test]
    fn route_accounts_placements_and_rejections() {
        let mut r = Router::new(2);
        assert_eq!(r.route(&[lane(0, false), lane(0, false)]), Some(0));
        assert_eq!(r.route(&[lane(9, false), lane(0, false)]), Some(1));
        let mut dead = [lane(0, false), lane(0, false)];
        dead[0].accepting = false;
        dead[1].accepting = false;
        assert_eq!(r.route(&dead), None);
        assert_eq!(r.stats().routed_per_device, vec![1, 1]);
        assert_eq!(r.stats().admission_rejected, 1);
    }
}
