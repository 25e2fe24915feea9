//! Spawn attributes, mirroring `pthread_attr_t` for the capabilities the
//! Chant paper's Figure 2 asks of a thread package ("set attributes").

/// Scheduling priority of a user-level thread.
///
/// The ready queue is strictly priority-ordered: a ready thread of a higher
/// priority class is always dispatched before any ready thread of a lower
/// class. Chant's remote-service-request *server thread* relies on this to
/// "assume a higher scheduling priority than the computation threads,
/// ensuring that it is scheduled at the next context switch point"
/// (paper §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub(crate) u8);

impl Priority {
    /// Background work; runs only when nothing else is ready.
    pub const LOW: Priority = Priority(0);
    /// Default priority for computation threads.
    pub const NORMAL: Priority = Priority(1);
    /// Elevated priority; used by Chant's server thread once a remote
    /// service request is pending.
    pub const HIGH: Priority = Priority(2);
    /// Highest priority; reserved for runtime-internal urgent work.
    pub const CRITICAL: Priority = Priority(3);

    /// Number of distinct priority classes.
    pub const LEVELS: usize = 4;

    /// The queue index for this priority (0 = lowest).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw level, clamping to the valid range.
    pub fn from_level(level: u8) -> Priority {
        Priority(level.min(Self::LEVELS as u8 - 1))
    }
}

impl Default for Priority {
    fn default() -> Self {
        Priority::NORMAL
    }
}

/// Attributes for spawning a user-level thread (cf. `pthread_attr_t`).
#[derive(Clone, Debug, Default)]
pub struct SpawnAttr {
    pub(crate) name: Option<String>,
    pub(crate) priority: Priority,
    pub(crate) detached: bool,
    /// Requested stack size in bytes. `None` means 2 MiB, what a
    /// `std::thread` gets. The paper's Table 1 systems expose "stack
    /// management routines"; this is ours: the stack is an `mmap`'d
    /// region of this many usable bytes (rounded up to whole pages, at
    /// least 16 KiB), *reserved* but committed lazily — only pages the
    /// thread touches become resident — with a guard page below it, so
    /// an overflow kills the process by signal. It does not grow.
    pub(crate) stack_size: Option<usize>,
}

impl SpawnAttr {
    /// A fresh attribute set: unnamed, [`Priority::NORMAL`], joinable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Give the thread a human-readable name (visible in stats and panics).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Set the scheduling priority class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Spawn the thread detached: its resources are reclaimed on exit and
    /// it cannot be joined (cf. `pthread_chanter_detach`).
    pub fn detached(mut self) -> Self {
        self.detached = true;
        self
    }

    /// Request a specific stack size: reserved, guard-paged, lazily
    /// committed (see the crate docs). On targets without the native
    /// context switch the request is forwarded to the OS thread that
    /// carries the thread.
    pub fn stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = Some(bytes);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering_matches_levels() {
        assert!(Priority::LOW < Priority::NORMAL);
        assert!(Priority::NORMAL < Priority::HIGH);
        assert!(Priority::HIGH < Priority::CRITICAL);
        assert_eq!(Priority::CRITICAL.index(), Priority::LEVELS - 1);
    }

    #[test]
    fn priority_from_level_clamps() {
        assert_eq!(Priority::from_level(0), Priority::LOW);
        assert_eq!(Priority::from_level(3), Priority::CRITICAL);
        assert_eq!(Priority::from_level(200), Priority::CRITICAL);
    }

    #[test]
    fn attr_builder_accumulates() {
        let attr = SpawnAttr::new()
            .name("t0")
            .priority(Priority::HIGH)
            .detached()
            .stack_size(1 << 20);
        assert_eq!(attr.name.as_deref(), Some("t0"));
        assert_eq!(attr.priority, Priority::HIGH);
        assert!(attr.detached);
        assert_eq!(attr.stack_size, Some(1 << 20));
    }

    #[test]
    fn default_attr_is_normal_joinable() {
        let attr = SpawnAttr::default();
        assert_eq!(attr.priority, Priority::NORMAL);
        assert!(!attr.detached);
        assert!(attr.name.is_none());
    }
}
