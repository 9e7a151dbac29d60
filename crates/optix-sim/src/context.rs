//! The device context: entry point of the simulated OptiX API.

use gpu_device::{Device, DeviceSpec};

/// Simulated `OptixDeviceContext`: owns the device the acceleration
/// structures and pipelines run on.
#[derive(Debug, Clone)]
pub struct DeviceContext {
    device: Device,
}

impl DeviceContext {
    /// Creates a context for the given device spec.
    pub fn new(spec: DeviceSpec) -> Self {
        DeviceContext {
            device: Device::new(spec),
        }
    }

    /// Creates a context for the paper's primary evaluation GPU (RTX 4090).
    pub fn default_eval() -> Self {
        DeviceContext {
            device: Device::default_eval(),
        }
    }

    /// The underlying simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::{AccelBuildOptions, GeometryAccel};
    use crate::build_input::BuildInput;
    use rtx_math::Vec3f;

    #[test]
    fn context_builds_accel_structures() {
        let ctx = DeviceContext::default_eval();
        let centers: Vec<Vec3f> = (0..10).map(|i| Vec3f::new(i as f32, 0.0, 0.0)).collect();
        let gas = GeometryAccel::build(
            ctx.device(),
            BuildInput::triangles_from_centers(&centers, 0.4),
            &AccelBuildOptions::default(),
        );
        assert_eq!(gas.primitive_count(), 10);
        assert!(ctx.device().memory().current_bytes() > 0);
    }

    #[test]
    fn context_exposes_spec() {
        let ctx = DeviceContext::new(DeviceSpec::rtx_3090());
        assert_eq!(ctx.device().spec().name, "RTX 3090");
    }
}
