//! Virtual-processor configuration.

/// Environment variable selecting the number of worker lanes (VPs) per
/// [`crate::Vp`]; see [`VpConfig::n_vps`]. Unset, `0`, or unparsable
/// values mean 1 (the paper's single-VP model).
pub const VPS_ENV: &str = "CHANT_VPS";

/// Tuning knobs for a [`crate::Vp`].
#[derive(Clone, Debug)]
pub struct VpConfig {
    /// Human-readable name of the VP, used in OS thread names and panics.
    pub name: String,
    /// Number of worker lanes multiplexing this VP's threads (default 1).
    /// Each worker owns a run queue, a scheduling baton and an OS thread;
    /// a thread is placed on one lane at spawn (round-robin or by
    /// [`crate::SpawnAttr::affinity`]) and stays there. At 1 the
    /// scheduler is exactly the paper's single-VP model — same code path,
    /// same counter stream.
    pub n_vps: usize,
}

impl Default for VpConfig {
    fn default() -> Self {
        VpConfig {
            name: "vp".to_string(),
            n_vps: 1,
        }
    }
}

impl VpConfig {
    /// A config with the given VP name and default tuning.
    pub fn named(name: impl Into<String>) -> Self {
        VpConfig {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Set the number of worker lanes (clamped to ≥ 1).
    pub fn with_vps(mut self, n: usize) -> Self {
        self.n_vps = n.max(1);
        self
    }

    /// The worker-lane count requested via [`VPS_ENV`], or 1.
    pub fn vps_from_env() -> usize {
        std::env::var(VPS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_keeps_defaults() {
        let c = VpConfig::named("pe0");
        assert_eq!(c.name, "pe0");
        assert_eq!(c.n_vps, 1);
    }

    #[test]
    fn with_vps_clamps_to_one() {
        assert_eq!(VpConfig::default().with_vps(0).n_vps, 1);
        assert_eq!(VpConfig::default().with_vps(4).n_vps, 4);
    }
}
