//! Virtual-processor configuration.

/// Configuration of a [`crate::Vp`].
#[derive(Clone, Debug)]
pub struct VpConfig {
    /// Human-readable name of the VP, used in thread names and panics.
    pub name: String,
}

impl Default for VpConfig {
    fn default() -> Self {
        VpConfig::named("vp")
    }
}

impl VpConfig {
    /// A config with the given VP name.
    pub fn named(name: impl Into<String>) -> Self {
        VpConfig { name: name.into() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_sets_the_name() {
        assert_eq!(VpConfig::named("pe0").name, "pe0");
        assert_eq!(VpConfig::default().name, "vp");
    }
}
