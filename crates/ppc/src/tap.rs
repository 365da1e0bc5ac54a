//! Stage taps: the hook points between PPC stages where the fault injector
//! corrupts inter-kernel states and the anomaly detectors observe them and
//! request recomputation.

use mavfi_sim::vehicle::FlightCommand;

use crate::perception::occupancy::OccupancyGrid;
use crate::states::{CollisionEstimate, PointCloud, Trajectory};

/// The verdict a tap returns after inspecting (and possibly mutating) a
/// stage output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TapAction {
    /// Let the value flow to the next stage unchanged.
    #[default]
    Continue,
    /// Discard the value and recompute the producing stage (the recovery
    /// feedback loop of the paper's Fig. 5a).
    Recompute,
}

impl TapAction {
    /// Combines two verdicts: recomputation wins.
    pub fn merge(self, other: Self) -> Self {
        if self == Self::Recompute || other == Self::Recompute {
            Self::Recompute
        } else {
            Self::Continue
        }
    }
}

/// Observer/mutator of inter-kernel states, called by
/// [`PpcPipeline::tick`](crate::pipeline::PpcPipeline::tick) between stages.
///
/// All methods default to "do nothing"; implementors override only the hooks
/// they need.  The fault injector mutates values; the detection-and-recovery
/// node observes them and may return [`TapAction::Recompute`].
pub trait StageTap {
    /// Called after the point-cloud generation kernel.
    fn after_point_cloud(&mut self, _cloud: &mut PointCloud) {}

    /// Called after the occupancy map has been updated with the latest
    /// cloud.
    fn after_occupancy(&mut self, _grid: &mut OccupancyGrid) {}

    /// Called after the collision-check kernel (end of the perception
    /// stage).
    fn after_perception(&mut self, _estimate: &mut CollisionEstimate) -> TapAction {
        TapAction::Continue
    }

    /// Called after the planning stage with the *stored* trajectory;
    /// mutations persist until the pipeline replans.  `active_index` is the
    /// index of the way-point the controller is currently tracking.
    fn after_planning(&mut self, _trajectory: &mut Trajectory, _active_index: usize) -> TapAction {
        TapAction::Continue
    }

    /// Called after the control stage with the flight command about to be
    /// issued to the actuator.
    fn after_control(&mut self, _command: &mut FlightCommand) -> TapAction {
        TapAction::Continue
    }
}

/// A tap that does nothing; useful as a default and in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopTap;

impl StageTap for NoopTap {}

impl<T: StageTap + ?Sized> StageTap for &mut T {
    fn after_point_cloud(&mut self, cloud: &mut PointCloud) {
        (**self).after_point_cloud(cloud);
    }

    fn after_occupancy(&mut self, grid: &mut OccupancyGrid) {
        (**self).after_occupancy(grid);
    }

    fn after_perception(&mut self, estimate: &mut CollisionEstimate) -> TapAction {
        (**self).after_perception(estimate)
    }

    fn after_planning(&mut self, trajectory: &mut Trajectory, active_index: usize) -> TapAction {
        (**self).after_planning(trajectory, active_index)
    }

    fn after_control(&mut self, command: &mut FlightCommand) -> TapAction {
        (**self).after_control(command)
    }
}

/// An optional tap: `None` does nothing.
impl<T: StageTap> StageTap for Option<T> {
    fn after_point_cloud(&mut self, cloud: &mut PointCloud) {
        if let Some(tap) = self {
            tap.after_point_cloud(cloud);
        }
    }

    fn after_occupancy(&mut self, grid: &mut OccupancyGrid) {
        if let Some(tap) = self {
            tap.after_occupancy(grid);
        }
    }

    fn after_perception(&mut self, estimate: &mut CollisionEstimate) -> TapAction {
        self.as_mut().map_or(TapAction::Continue, |tap| tap.after_perception(estimate))
    }

    fn after_planning(&mut self, trajectory: &mut Trajectory, active_index: usize) -> TapAction {
        self.as_mut()
            .map_or(TapAction::Continue, |tap| tap.after_planning(trajectory, active_index))
    }

    fn after_control(&mut self, command: &mut FlightCommand) -> TapAction {
        self.as_mut().map_or(TapAction::Continue, |tap| tap.after_control(command))
    }
}

/// Runs two taps in sequence (first `A`, then `B`) and merges their
/// verdicts.  The mission runner composes the fault injector (first) with
/// the detector (second) this way, so the detector observes already
/// corrupted values exactly as it would on the ROS graph.
#[derive(Debug, Default)]
pub struct ChainTap<A, B> {
    /// The tap that runs first.
    pub first: A,
    /// The tap that runs second.
    pub second: B,
}

impl<A, B> ChainTap<A, B> {
    /// Creates a chained tap.
    pub fn new(first: A, second: B) -> Self {
        Self { first, second }
    }
}

impl<A: StageTap, B: StageTap> StageTap for ChainTap<A, B> {
    fn after_point_cloud(&mut self, cloud: &mut PointCloud) {
        self.first.after_point_cloud(cloud);
        self.second.after_point_cloud(cloud);
    }

    fn after_occupancy(&mut self, grid: &mut OccupancyGrid) {
        self.first.after_occupancy(grid);
        self.second.after_occupancy(grid);
    }

    fn after_perception(&mut self, estimate: &mut CollisionEstimate) -> TapAction {
        let a = self.first.after_perception(estimate);
        let b = self.second.after_perception(estimate);
        a.merge(b)
    }

    fn after_planning(&mut self, trajectory: &mut Trajectory, active_index: usize) -> TapAction {
        let a = self.first.after_planning(trajectory, active_index);
        let b = self.second.after_planning(trajectory, active_index);
        a.merge(b)
    }

    fn after_control(&mut self, command: &mut FlightCommand) -> TapAction {
        let a = self.first.after_control(command);
        let b = self.second.after_control(command);
        a.merge(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mavfi_sim::geometry::Vec3;

    struct Doubler;
    impl StageTap for Doubler {
        fn after_control(&mut self, command: &mut FlightCommand) -> TapAction {
            command.velocity = command.velocity * 2.0;
            TapAction::Continue
        }
    }

    struct AlwaysRecompute;
    impl StageTap for AlwaysRecompute {
        fn after_control(&mut self, _command: &mut FlightCommand) -> TapAction {
            TapAction::Recompute
        }
    }

    #[test]
    fn merge_prefers_recompute() {
        assert_eq!(TapAction::Continue.merge(TapAction::Continue), TapAction::Continue);
        assert_eq!(TapAction::Continue.merge(TapAction::Recompute), TapAction::Recompute);
        assert_eq!(TapAction::Recompute.merge(TapAction::Continue), TapAction::Recompute);
    }

    #[test]
    fn chain_runs_both_in_order_and_merges() {
        let mut chain = ChainTap::new(Doubler, AlwaysRecompute);
        let mut command = FlightCommand::new(Vec3::new(1.0, 0.0, 0.0), 0.0);
        let action = chain.after_control(&mut command);
        assert_eq!(command.velocity.x, 2.0);
        assert_eq!(action, TapAction::Recompute);
    }

    #[test]
    fn noop_tap_does_nothing() {
        let mut tap = NoopTap;
        let mut command = FlightCommand::HOLD;
        assert_eq!(tap.after_control(&mut command), TapAction::Continue);
        assert_eq!(command, FlightCommand::HOLD);
    }
}
