//! Service configuration and its environment knobs.
//!
//! All env parsing routes through [`ca_obs::knobs`] (the repo-wide
//! parser), so malformed values warn once on stderr and fall back to
//! the defaults instead of being silently ignored:
//!
//! | knob | meaning | default |
//! |---|---|---|
//! | `CA_SERVICE_WORKERS` | worker threads | available parallelism, capped at 8 |
//! | `CA_QUEUE_CAP` | bounded admission-queue capacity | 256 |

/// Construction-time parameters of an [`crate::EigenService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of worker threads executing jobs (≥ 1).
    pub workers: usize,
    /// Admission-control bound: `submit` returns
    /// [`ca_eigen::EigenError::QueueFull`] once this many jobs are
    /// pending (≥ 1).
    pub queue_capacity: usize,
    /// Start with the scheduler paused: jobs are admitted (and counted
    /// against `queue_capacity`) but no worker picks any up until
    /// [`crate::EigenService::resume`]. Used for drain/maintenance
    /// windows and for deterministic queue-state tests.
    pub paused: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            queue_capacity: 256,
            paused: false,
        }
    }
}

impl ServiceConfig {
    /// The defaults with every `CA_*` service knob applied on top (see
    /// the module docs for the knob table).
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Some(w) = ca_obs::knobs::usize_env("CA_SERVICE_WORKERS") {
            cfg.workers = w;
        }
        if let Some(cap) = ca_obs::knobs::usize_env("CA_QUEUE_CAP") {
            cfg.queue_capacity = cap;
        }
        cfg
    }

    /// Number of worker threads, with the ≥ 1 clamp applied.
    pub fn effective_workers(&self) -> usize {
        self.workers.max(1)
    }

    /// Queue capacity, with the ≥ 1 clamp applied.
    pub fn effective_capacity(&self) -> usize {
        self.queue_capacity.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ServiceConfig::default();
        assert!(cfg.workers >= 1);
        assert!(cfg.queue_capacity >= 1);
        assert!(!cfg.paused);
    }

    #[test]
    fn env_overrides_apply() {
        // Serialized through distinct var names is not possible here
        // (the knobs are fixed), so set and remove around the read;
        // sibling tests in this crate do not touch these vars.
        std::env::set_var("CA_SERVICE_WORKERS", "3");
        std::env::set_var("CA_QUEUE_CAP", "11");
        let cfg = ServiceConfig::from_env();
        std::env::remove_var("CA_SERVICE_WORKERS");
        std::env::remove_var("CA_QUEUE_CAP");
        assert_eq!((cfg.workers, cfg.queue_capacity), (3, 11));
    }
}
