//! Onboard sensors: a ray-casting depth camera (stand-in for the RGB-D
//! camera) and a noisy IMU.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::env::Environment;
use crate::geometry::{Pose, Vec3};

/// A depth-camera frame expressed as a world-frame point cloud.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DepthFrame {
    /// Hit points in the world frame, one per ray that struck an obstacle.
    pub points: Vec<Vec3>,
    /// Total number of rays cast for this frame (hits plus misses).
    pub rays_cast: usize,
}

/// A depth-camera frame in hit-parameter form: for each ray that struck an
/// obstacle, the ray's frame index and the hit parameter `t` along it.
///
/// This is the compact, record-friendly dual of [`DepthFrame`]: given the
/// same [`DepthCamera`] and [`Pose`], [`DepthCamera::resolve_rays`] rebuilds
/// the exact world-frame point cloud (`origin + direction(ray) * t`,
/// bit-identical) — which is what lets mission traces store ~10 bytes per
/// hit instead of three `f64` coordinates.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RayHits {
    /// Total number of rays cast for this frame (hits plus misses).
    pub rays_cast: usize,
    /// `(ray_index, t)` per hit, in ray order.  `ray_index` is
    /// `vi * horizontal_rays + hi` for the row-major scan the camera casts.
    pub hits: Vec<(u32, f64)>,
}

impl RayHits {
    /// Removes all hits, keeping the buffer.
    pub fn clear(&mut self) {
        self.rays_cast = 0;
        self.hits.clear();
    }
}

/// A pin-hole style depth camera simulated by ray casting against the
/// environment's obstacle set.
///
/// # Examples
///
/// ```
/// use mavfi_sim::env::EnvironmentKind;
/// use mavfi_sim::geometry::Pose;
/// use mavfi_sim::sensors::DepthCamera;
///
/// let env = EnvironmentKind::Dense.build(1);
/// let camera = DepthCamera::default();
/// let frame = camera.capture(&env, &Pose::new(env.start(), 0.0));
/// assert_eq!(frame.rays_cast, camera.ray_count());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DepthCamera {
    /// Horizontal field of view (radians).
    pub horizontal_fov: f64,
    /// Vertical field of view (radians).
    pub vertical_fov: f64,
    /// Number of rays across the horizontal field of view.
    pub horizontal_rays: usize,
    /// Number of rays across the vertical field of view.
    pub vertical_rays: usize,
    /// Maximum sensing range (m).
    pub max_range: f64,
}

impl Default for DepthCamera {
    fn default() -> Self {
        Self {
            horizontal_fov: 90_f64.to_radians(),
            vertical_fov: 45_f64.to_radians(),
            horizontal_rays: 32,
            vertical_rays: 8,
            max_range: 20.0,
        }
    }
}

/// Reusable buffers for [`DepthCamera::capture_into`]: the indices of the
/// obstacles that survive the per-frame broad-phase cull.
///
/// Scratches hold no semantic state — a fresh scratch produces the same
/// frame as a reused one; reuse only avoids the per-frame allocation.
#[derive(Debug, Clone, Default)]
pub struct CaptureScratch {
    visible: Vec<usize>,
}

impl CaptureScratch {
    /// Creates an empty scratch; the buffer grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DepthCamera {
    /// Total number of rays cast per frame.
    pub fn ray_count(&self) -> usize {
        self.horizontal_rays * self.vertical_rays
    }

    /// Captures a depth frame from `pose` looking along the pose heading.
    pub fn capture(&self, env: &Environment, pose: &Pose) -> DepthFrame {
        let mut frame = DepthFrame::default();
        self.capture_into(env, pose, &mut CaptureScratch::new(), &mut frame);
        frame
    }

    /// [`DepthCamera::capture`] into caller-provided buffers: reuses the
    /// frame's point storage and the scratch's cull list, so steady-state
    /// captures perform zero heap allocations.  The produced frame is
    /// bit-identical to [`DepthCamera::capture`]'s.
    ///
    /// Before casting any rays, obstacles are broad-phase culled once per
    /// frame: boxes farther than the sensing range and boxes entirely behind
    /// the camera plane can never produce a hit, so the O(rays × obstacles)
    /// inner loop skips them.  Both tests are conservative — the surviving
    /// set always contains every obstacle any ray could hit — which is what
    /// keeps the output bit-identical.
    pub fn capture_into(
        &self,
        env: &Environment,
        pose: &Pose,
        scratch: &mut CaptureScratch,
        frame: &mut DepthFrame,
    ) {
        frame.points.clear();
        frame.rays_cast = self.ray_count();
        let origin = pose.position;
        self.cast_rays(env, pose, scratch, |_, direction, t| {
            frame.points.push(origin + direction * t);
        });
    }

    /// Captures a frame in hit-parameter form: the same rays as
    /// [`DepthCamera::capture_into`], recording `(ray_index, t)` per hit
    /// instead of the world-frame point.  [`DepthCamera::resolve_rays`] is
    /// the exact inverse back to the point cloud.
    pub fn capture_rays_into(
        &self,
        env: &Environment,
        pose: &Pose,
        scratch: &mut CaptureScratch,
        rays: &mut RayHits,
    ) {
        rays.clear();
        rays.rays_cast = self.ray_count();
        self.cast_rays(env, pose, scratch, |ray, _, t| {
            rays.hits.push((ray, t));
        });
    }

    /// Reconstructs the point cloud a capture from `pose` produced, given
    /// its hit parameters.  Because the ray direction is recomputed by the
    /// same function the capture used, the points are **bit-identical** to
    /// [`DepthCamera::capture_into`]'s — this is the replay path that takes
    /// the simulator (and its obstacle set) out of the loop.
    pub fn resolve_rays(&self, pose: &Pose, rays: &RayHits, frame: &mut DepthFrame) {
        frame.points.clear();
        frame.rays_cast = rays.rays_cast;
        let origin = pose.position;
        for &(ray, t) in &rays.hits {
            let hi = ray as usize % self.horizontal_rays;
            let vi = ray as usize / self.horizontal_rays;
            let direction = self.ray_direction(pose.yaw, hi, vi);
            frame.points.push(origin + direction * t);
        }
    }

    /// Direction of the ray at scan position (`hi`, `vi`) for a camera yawed
    /// to `pose_yaw` — the single source of truth shared by capture and
    /// replay so both produce bit-identical geometry.
    #[inline]
    fn ray_direction(&self, pose_yaw: f64, hi: usize, vi: usize) -> Vec3 {
        let v_frac = if self.vertical_rays > 1 {
            vi as f64 / (self.vertical_rays - 1) as f64 - 0.5
        } else {
            0.0
        };
        let pitch = v_frac * self.vertical_fov;
        let h_frac = if self.horizontal_rays > 1 {
            hi as f64 / (self.horizontal_rays - 1) as f64 - 0.5
        } else {
            0.0
        };
        let yaw = pose_yaw + h_frac * self.horizontal_fov;
        Vec3::new(yaw.cos() * pitch.cos(), yaw.sin() * pitch.cos(), pitch.sin())
    }

    /// Broad-phase culls the obstacle set, then casts every ray, invoking
    /// `on_hit(ray_index, direction, t)` for each ray that strikes an
    /// obstacle within range.
    fn cast_rays(
        &self,
        env: &Environment,
        pose: &Pose,
        scratch: &mut CaptureScratch,
        mut on_hit: impl FnMut(u32, Vec3, f64),
    ) {
        let origin = pose.position;

        // Broad-phase cull.  The behind-the-camera test is only valid when
        // every ray direction has a non-negative component along the camera
        // heading, i.e. both fields of view stay within a half-space.
        let forward = pose.forward();
        let half_space_valid = self.horizontal_fov <= std::f64::consts::PI
            && self.vertical_fov <= std::f64::consts::PI;
        scratch.visible.clear();
        for (index, obstacle) in env.obstacles().iter().enumerate() {
            let aabb = obstacle.aabb;
            // Range cull: the nearest point of the box is beyond max_range,
            // so any ray's entry parameter would exceed it.
            let closest = Vec3::new(
                origin.x.clamp(aabb.min.x, aabb.max.x),
                origin.y.clamp(aabb.min.y, aabb.max.y),
                origin.z.clamp(aabb.min.z, aabb.max.z),
            );
            if closest.distance(origin) > self.max_range {
                continue;
            }
            // Behind cull: if even the box's support point along the heading
            // is behind the camera plane, the whole box is (convexity), and
            // forward rays cannot enter it.
            if half_space_valid {
                let support = Vec3::new(
                    if forward.x >= 0.0 { aabb.max.x } else { aabb.min.x },
                    if forward.y >= 0.0 { aabb.max.y } else { aabb.min.y },
                    if forward.z >= 0.0 { aabb.max.z } else { aabb.min.z },
                );
                if (support - origin).dot(forward) < 0.0 {
                    continue;
                }
            }
            scratch.visible.push(index);
        }

        let obstacles = env.obstacles();
        for vi in 0..self.vertical_rays {
            for hi in 0..self.horizontal_rays {
                let direction = self.ray_direction(pose.yaw, hi, vi);
                let mut nearest: Option<f64> = None;
                for &index in &scratch.visible {
                    if let Some(t) = obstacles[index].aabb.ray_intersection(origin, direction) {
                        if t <= self.max_range && nearest.map_or(true, |best| t < best) {
                            nearest = Some(t);
                        }
                    }
                }
                if let Some(t) = nearest {
                    on_hit((vi * self.horizontal_rays + hi) as u32, direction, t);
                }
            }
        }
    }
}

/// One IMU measurement.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ImuSample {
    /// Measured linear acceleration in the world frame (m/s²), noise
    /// included.
    pub acceleration: Vec3,
    /// Measured yaw rate (rad/s), noise included.
    pub yaw_rate: f64,
}

/// A noisy inertial measurement unit.
///
/// The IMU differentiates consecutive velocity samples and adds zero-mean
/// Gaussian-ish noise (sum of uniform samples) so that downstream kernels
/// see realistic jitter.
#[derive(Debug, Clone)]
pub struct Imu {
    accel_noise_std: f64,
    gyro_noise_std: f64,
    rng: StdRng,
    previous_velocity: Option<Vec3>,
    previous_yaw: Option<f64>,
}

impl Imu {
    /// Creates an IMU with the given 1-sigma noise levels and RNG seed.
    pub fn new(accel_noise_std: f64, gyro_noise_std: f64, seed: u64) -> Self {
        Self {
            accel_noise_std,
            gyro_noise_std,
            rng: StdRng::seed_from_u64(seed),
            previous_velocity: None,
            previous_yaw: None,
        }
    }

    /// Creates a noise-free IMU (useful in tests).
    pub fn ideal() -> Self {
        Self::new(0.0, 0.0, 0)
    }

    /// Produces a measurement from the current velocity and yaw, given the
    /// time since the previous measurement.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite.
    pub fn measure(&mut self, velocity: Vec3, yaw: f64, dt: f64) -> ImuSample {
        assert!(dt > 0.0 && dt.is_finite(), "time step must be positive and finite");
        let acceleration = match self.previous_velocity {
            Some(previous) => (velocity - previous) / dt,
            None => Vec3::ZERO,
        };
        let yaw_rate = match self.previous_yaw {
            Some(previous) => crate::geometry::wrap_angle(yaw - previous) / dt,
            None => 0.0,
        };
        self.previous_velocity = Some(velocity);
        self.previous_yaw = Some(yaw);
        ImuSample {
            acceleration: acceleration
                + Vec3::new(
                    self.noise(self.accel_noise_std),
                    self.noise(self.accel_noise_std),
                    self.noise(self.accel_noise_std),
                ),
            yaw_rate: yaw_rate + self.noise(self.gyro_noise_std),
        }
    }

    /// Approximately Gaussian zero-mean noise via the sum of three uniform
    /// draws (Irwin–Hall), scaled to the requested standard deviation.
    fn noise(&mut self, std: f64) -> f64 {
        if std == 0.0 {
            return 0.0;
        }
        let sum: f64 = (0..3).map(|_| self.rng.gen_range(-1.0..1.0)).sum::<f64>();
        sum / 3.0_f64.sqrt() * std / (2.0 / 3.0_f64.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvironmentKind;

    #[test]
    fn camera_sees_obstacle_directly_ahead() {
        use crate::env::{Environment, Obstacle};
        use crate::geometry::Aabb;
        let env = Environment::new(
            "unit",
            Aabb::new(Vec3::new(-10.0, -10.0, 0.0), Vec3::new(30.0, 10.0, 10.0)),
            vec![Obstacle::from_center(Vec3::new(10.0, 0.0, 2.0), Vec3::splat(4.0))],
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::new(25.0, 0.0, 2.0),
        );
        let camera = DepthCamera::default();
        let frame = camera.capture(&env, &Pose::new(env.start(), 0.0));
        assert!(!frame.points.is_empty());
        // Every returned point lies on the obstacle within sensing range.
        for point in &frame.points {
            assert!(point.distance(env.start()) <= camera.max_range + 1e-9);
        }
        // Looking away from the obstacle sees nothing.
        let behind = camera.capture(&env, &Pose::new(env.start(), std::f64::consts::PI));
        assert!(behind.points.is_empty());
    }

    #[test]
    fn ray_capture_resolves_to_bit_identical_points() {
        for (kind, seed, yaw) in [
            (EnvironmentKind::Sparse, 3, 0.0),
            (EnvironmentKind::Dense, 8, 0.7),
            (EnvironmentKind::Randomized, 11, -2.1),
        ] {
            let env = kind.build(seed);
            let camera = DepthCamera::default();
            let pose = Pose::new(env.start() + Vec3::new(1.0, 0.5, 0.25), yaw);
            let mut scratch = CaptureScratch::new();

            let mut direct = DepthFrame::default();
            camera.capture_into(&env, &pose, &mut scratch, &mut direct);

            let mut rays = RayHits::default();
            camera.capture_rays_into(&env, &pose, &mut scratch, &mut rays);
            assert_eq!(rays.rays_cast, direct.rays_cast);
            assert_eq!(rays.hits.len(), direct.points.len());

            let mut resolved = DepthFrame::default();
            camera.resolve_rays(&pose, &rays, &mut resolved);
            assert_eq!(resolved.rays_cast, direct.rays_cast);
            for (a, b) in resolved.points.iter().zip(&direct.points) {
                assert_eq!(a.x.to_bits(), b.x.to_bits());
                assert_eq!(a.y.to_bits(), b.y.to_bits());
                assert_eq!(a.z.to_bits(), b.z.to_bits());
            }
        }
    }

    #[test]
    fn camera_range_limits_detection() {
        let env = EnvironmentKind::Sparse.build(5);
        let short = DepthCamera { max_range: 0.1, ..DepthCamera::default() };
        let frame = short.capture(&env, &Pose::new(env.start(), 0.0));
        assert!(frame.points.is_empty());
    }

    #[test]
    fn ideal_imu_differentiates_velocity() {
        let mut imu = Imu::ideal();
        let first = imu.measure(Vec3::new(1.0, 0.0, 0.0), 0.0, 0.1);
        assert_eq!(first.acceleration, Vec3::ZERO);
        let second = imu.measure(Vec3::new(2.0, 0.0, 0.0), 0.05, 0.1);
        assert!((second.acceleration.x - 10.0).abs() < 1e-9);
        assert!((second.yaw_rate - 0.5).abs() < 1e-9);
    }

    #[test]
    fn noisy_imu_is_deterministic_per_seed() {
        let mut a = Imu::new(0.1, 0.01, 9);
        let mut b = Imu::new(0.1, 0.01, 9);
        for _ in 0..10 {
            let sa = a.measure(Vec3::new(1.0, 2.0, 3.0), 0.2, 0.1);
            let sb = b.measure(Vec3::new(1.0, 2.0, 3.0), 0.2, 0.1);
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn noise_is_bounded_and_zero_mean_ish() {
        let mut imu = Imu::new(0.5, 0.0, 3);
        let mut sum = 0.0;
        for _ in 0..500 {
            let sample = imu.measure(Vec3::ZERO, 0.0, 0.1);
            sum += sample.acceleration.x;
        }
        assert!((sum / 500.0).abs() < 0.2, "noise mean should be near zero");
    }
}
