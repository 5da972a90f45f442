//! The deterministic fault-injection plane.
//!
//! A fault spec names a seed and a comma-separated list of rules:
//!
//! ```text
//! CABLE_FAULTS="<seed>:<kind>@<site>[#K | =P][,<kind>@<site>...]"
//! ```
//!
//! * `kind` is `panic` (unwind at the site), `io` (return an injected
//!   `std::io::Error` from the site's read/write shim), or `budget`
//!   (artificial [`crate::GuardError::BudgetExceeded`] at the site's
//!   checkpoint). The `io` kind takes an optional flavour suffix:
//!   `io:enospc` (the error carries `ErrorKind::StorageFull`), `io:eio`
//!   (a generic device-level error), or `io:short` (the write shim
//!   commits a prefix of the buffer before failing — a torn write).
//! * `site` is a dotted site name: `par.task` (every `cable-par` unit
//!   boundary), the `cable-store` shim sites (`store.write`,
//!   `store.journal.append`, `store.fsync`, `store.read`), or any
//!   checkpoint site (`fca.godin.insert`, `fa.executed`,
//!   `core.persist.ingest`, `core.persist.replay`, …).
//! * `#K` fires on exactly the K-th hit of the site (1-based); a bare
//!   rule is `#1`.
//! * `=P` fires each hit independently with probability `P` (a float in
//!   `[0,1]`), decided by `splitmix64(seed ^ fnv(site) ^ hit)` — a pure
//!   function of the seed, the site, and the site's hit ordinal.
//!
//! **Determinism.** Whether a rule fires depends only on `(seed, site,
//! hit ordinal)`; the hit ordinal is a per-`(kind, site)` counter. On a
//! sequential site (the store shims, the guarded sequential lattice
//! build) the ordinal is the logical operation index, so a given spec
//! fires at the same operation on every run. At `par.task` the ordinal
//! counts task *executions*, whose assignment to logical tasks can vary
//! with thread interleaving — the *decision sequence* is deterministic,
//! which logical task draws the firing hit is not. That is exactly what
//! the robustness suite needs: reproducible pressure, not reproducible
//! victims.
//!
//! Firing decisions cost one relaxed atomic load when no plane is
//! installed.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, RwLock};

/// What an injected fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Unwind (a panic) at a `cable-par` task boundary.
    Panic,
    /// An injected `std::io::Error` from a store read/write shim.
    Io,
    /// Artificial budget exhaustion at a checkpoint.
    Budget,
}

impl FaultKind {
    fn as_str(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Io => "io",
            FaultKind::Budget => "budget",
        }
    }
}

/// The flavour of an injected I/O error — the `io` kind's optional
/// suffix (`io:enospc`, `io:eio`, `io:short`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoFlavor {
    /// A bare `io` rule: a generic injected `std::io::Error`.
    #[default]
    Generic,
    /// Device full: the error carries [`std::io::ErrorKind::StorageFull`].
    Enospc,
    /// A device-level I/O error (what the kernel surfaces as `EIO`).
    Eio,
    /// A short write: the shim commits a prefix of the buffer to the
    /// underlying writer before surfacing the error, leaving a torn
    /// record for recovery to truncate.
    Short,
}

impl IoFlavor {
    fn as_str(self) -> &'static str {
        match self {
            IoFlavor::Generic => "io",
            IoFlavor::Enospc => "io:enospc",
            IoFlavor::Eio => "io:eio",
            IoFlavor::Short => "io:short",
        }
    }
}

/// One injected I/O fault drawn at a shim site: carries the firing
/// rule's flavour so the shim can model the right failure shape.
#[derive(Debug)]
pub struct IoFault {
    flavor: IoFlavor,
    description: String,
}

impl IoFault {
    /// The firing rule's flavour.
    pub fn flavor(&self) -> IoFlavor {
        self.flavor
    }

    /// Whether the shim should commit a prefix of the buffer before
    /// failing (an `io:short` rule).
    pub fn is_short_write(&self) -> bool {
        self.flavor == IoFlavor::Short
    }

    /// Converts the fault into the `std::io::Error` to surface.
    pub fn into_error(self) -> std::io::Error {
        let message = format!("injected fault: {}", self.description);
        match self.flavor {
            IoFlavor::Enospc => std::io::Error::new(std::io::ErrorKind::StorageFull, message),
            _ => std::io::Error::other(message),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Fire on exactly the K-th hit (1-based).
    Hit(u64),
    /// Fire each hit independently with this probability.
    Prob(f64),
}

#[derive(Debug, Clone, PartialEq)]
struct Rule {
    kind: FaultKind,
    flavor: IoFlavor,
    site: String,
    trigger: Trigger,
}

#[derive(Debug)]
struct Plane {
    seed: u64,
    rules: Vec<Rule>,
    /// Hit ordinals per `(kind, site)`.
    hits: Mutex<HashMap<(FaultKind, String), u64>>,
}

fn plane() -> &'static RwLock<Option<Plane>> {
    static PLANE: OnceLock<RwLock<Option<Plane>>> = OnceLock::new();
    PLANE.get_or_init(|| RwLock::new(None))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in s.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Parses and installs a fault spec (`<seed>:<rules>`), replacing any
/// installed plane.
///
/// # Errors
///
/// Returns a description of the first grammar violation.
pub fn install(spec: &str) -> Result<(), String> {
    let (seed_text, rules_text) = spec
        .split_once(':')
        .ok_or_else(|| format!("fault spec {spec:?} is missing the \"<seed>:\" prefix"))?;
    let seed: u64 = seed_text
        .trim()
        .parse()
        .map_err(|_| format!("fault seed {seed_text:?} is not an unsigned integer"))?;
    let mut rules = Vec::new();
    for part in rules_text.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        rules.push(parse_rule(part)?);
    }
    if rules.is_empty() {
        return Err(format!("fault spec {spec:?} has no rules"));
    }
    *plane().write().expect("fault plane poisoned") = Some(Plane {
        seed,
        rules,
        hits: Mutex::new(HashMap::new()),
    });
    crate::set_faults_installed(true);
    Ok(())
}

fn parse_rule(part: &str) -> Result<Rule, String> {
    let (kind_text, rest) = part
        .split_once('@')
        .ok_or_else(|| format!("fault rule {part:?} is missing \"@<site>\""))?;
    let (kind, flavor) = match kind_text.trim() {
        "panic" => (FaultKind::Panic, IoFlavor::Generic),
        "io" => (FaultKind::Io, IoFlavor::Generic),
        "io:enospc" => (FaultKind::Io, IoFlavor::Enospc),
        "io:eio" => (FaultKind::Io, IoFlavor::Eio),
        "io:short" => (FaultKind::Io, IoFlavor::Short),
        "budget" => (FaultKind::Budget, IoFlavor::Generic),
        other => {
            return Err(format!(
                "unknown fault kind {other:?} (expected panic, \
                 io[:enospc|:eio|:short], or budget)"
            ))
        }
    };
    let (site, trigger) = if let Some((site, k)) = rest.split_once('#') {
        let k: u64 = k
            .trim()
            .parse()
            .map_err(|_| format!("fault hit ordinal {k:?} is not an unsigned integer"))?;
        if k == 0 {
            return Err("fault hit ordinals are 1-based".to_owned());
        }
        (site, Trigger::Hit(k))
    } else if let Some((site, p)) = rest.split_once('=') {
        let p: f64 = p
            .trim()
            .parse()
            .map_err(|_| format!("fault probability {p:?} is not a float"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("fault probability {p} is outside [0, 1]"));
        }
        (site, Trigger::Prob(p))
    } else {
        (rest, Trigger::Hit(1))
    };
    let site = site.trim();
    if site.is_empty() {
        return Err(format!("fault rule {part:?} has an empty site"));
    }
    Ok(Rule {
        kind,
        flavor,
        site: site.to_owned(),
        trigger,
    })
}

/// Removes the installed plane (if any).
pub fn uninstall() {
    *plane().write().expect("fault plane poisoned") = None;
    crate::set_faults_installed(false);
}

/// What a plane evaluation decided: the firing rule's description (for
/// the error/panic message) and, for `io` rules, its flavour.
struct Fired {
    description: String,
    flavor: IoFlavor,
}

/// Evaluates the plane at a `(kind, site)` hit. Returns the firing
/// rule, or `None`. Every firing emits a `fault_injected` wide event
/// (site, hit ordinal, seed) so a drill can reconstruct the exact fault
/// timeline from the event log.
fn fire(kind: FaultKind, site: &str) -> Option<Fired> {
    let guard = plane().read().expect("fault plane poisoned");
    let plane = guard.as_ref()?;
    if !plane.rules.iter().any(|r| r.kind == kind && r.site == site) {
        return None;
    }
    let hit = {
        let mut hits = plane.hits.lock().expect("fault hits poisoned");
        let n = hits.entry((kind, site.to_owned())).or_insert(0);
        *n += 1;
        *n
    };
    for rule in plane
        .rules
        .iter()
        .filter(|r| r.kind == kind && r.site == site)
    {
        let fires = match rule.trigger {
            Trigger::Hit(k) => hit == k,
            Trigger::Prob(p) => {
                let draw = splitmix64(plane.seed ^ fnv1a(site) ^ hit);
                (draw as f64 / u64::MAX as f64) < p
            }
        };
        if fires {
            let kind_text = match kind {
                FaultKind::Io => rule.flavor.as_str(),
                other => other.as_str(),
            };
            if cable_obs::enabled() {
                cable_obs::events::emit(
                    cable_obs::WideEvent::new("fault_injected", "faults")
                        .outcome("injected")
                        .field("fault", kind_text)
                        .field("site", site.to_owned())
                        .field("hit", hit)
                        .field("seed", plane.seed),
                );
            }
            return Some(Fired {
                description: format!("{kind_text}@{site} (seed {}, hit {hit})", plane.seed),
                flavor: rule.flavor,
            });
        }
    }
    None
}

/// Panics with an `injected fault: …` message if a `panic@site` rule
/// fires. One relaxed load when no plane is installed. Call sites sit
/// inside a `catch_unwind` boundary (the `cable-par` task wrapper), so
/// the injected panic is contained like a genuine one.
#[inline]
pub fn maybe_panic(site: &str) {
    if !crate::faults_installed() {
        return;
    }
    if let Some(fired) = fire(FaultKind::Panic, site) {
        panic!("injected fault: {}", fired.description);
    }
}

/// Returns the injected I/O fault if an `io@site` rule (of any flavour)
/// fires, carrying the flavour so write shims can model short writes.
/// One relaxed load when no plane is installed.
#[inline]
pub fn io_fault(site: &str) -> Option<IoFault> {
    if !crate::faults_installed() {
        return None;
    }
    fire(FaultKind::Io, site).map(|fired| IoFault {
        flavor: fired.flavor,
        description: fired.description,
    })
}

/// Returns an injected I/O error if an `io@site` rule fires. One relaxed
/// load when no plane is installed.
#[inline]
pub fn io_error(site: &str) -> Option<std::io::Error> {
    io_fault(site).map(IoFault::into_error)
}

/// Whether a `budget@site` rule fires at this checkpoint hit. Only
/// called from the checkpoint slow path (the fast path already knows no
/// plane is installed).
pub(crate) fn budget_fault_fires(site: &str) -> bool {
    fire(FaultKind::Budget, site).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fault plane is process-global; tests that install one must
    /// not interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn grammar_rejects_malformed_specs() {
        let _l = lock();
        for bad in [
            "",
            "7",
            "x:panic@par.task",
            "7:",
            "7:panic",
            "7:frob@par.task",
            "7:panic@",
            "7:panic@par.task#0",
            "7:panic@par.task#x",
            "7:io@store.write=1.5",
            "7:io@store.write=x",
            "7:io:frob@store.write",
            "7:io:@store.write",
        ] {
            assert!(install(bad).is_err(), "spec {bad:?} should be rejected");
        }
        uninstall();
    }

    #[test]
    fn bare_rule_fires_on_the_first_hit_only() {
        let _l = lock();
        install("42:io@store.write").unwrap();
        assert!(io_error("store.write").is_some());
        assert!(io_error("store.write").is_none());
        assert!(io_error("store.read").is_none(), "other sites untouched");
        uninstall();
        assert!(io_error("store.write").is_none());
    }

    #[test]
    fn hit_ordinal_rule_fires_on_exactly_the_kth_hit() {
        let _l = lock();
        install("42:io@store.fsync#3").unwrap();
        assert!(io_error("store.fsync").is_none());
        assert!(io_error("store.fsync").is_none());
        let err = io_error("store.fsync").expect("third hit fires");
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(err.to_string().contains("hit 3"), "{err}");
        assert!(io_error("store.fsync").is_none());
        uninstall();
    }

    #[test]
    fn probabilistic_rule_is_deterministic_in_the_seed() {
        let _l = lock();
        let run = |seed: u64| -> Vec<bool> {
            install(&format!("{seed}:io@store.read=0.5")).unwrap();
            let fired = (0..64).map(|_| io_error("store.read").is_some()).collect();
            uninstall();
            fired
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same firing sequence");
        assert_ne!(a, run(8), "different seed, different sequence");
        assert!(a.iter().any(|&f| f), "p=0.5 over 64 hits fires");
        assert!(!a.iter().all(|&f| f), "p=0.5 over 64 hits also skips");
    }

    #[test]
    fn io_flavors_shape_the_injected_error() {
        let _l = lock();
        install("42:io:enospc@store.journal.append").unwrap();
        let fault = io_fault("store.journal.append").expect("first hit fires");
        assert_eq!(fault.flavor(), IoFlavor::Enospc);
        assert!(!fault.is_short_write());
        let err = fault.into_error();
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        assert!(err.to_string().contains("io:enospc@"), "{err}");

        install("42:io:short@store.journal.append").unwrap();
        let fault = io_fault("store.journal.append").expect("first hit fires");
        assert!(fault.is_short_write());
        assert!(fault.into_error().to_string().contains("io:short@"));

        install("42:io:eio@store.fsync").unwrap();
        let err = io_error("store.fsync").expect("first hit fires");
        assert!(err.to_string().contains("io:eio@store.fsync"), "{err}");
        uninstall();
    }

    #[test]
    fn firing_emits_a_fault_injected_wide_event() {
        let _l = lock();
        cable_obs::set_enabled(true);
        cable_obs::events::clear_ring();
        install("42:io@store.fsync#2").unwrap();
        assert!(io_error("store.fsync").is_none(), "hit 1 does not fire");
        assert!(io_error("store.fsync").is_some(), "hit 2 fires");
        uninstall();
        cable_obs::set_enabled(false);
        let events = cable_obs::events::recent(usize::MAX);
        let event = events
            .iter()
            .rev()
            .find(|e| {
                e.get("kind").and_then(cable_obs::json::Value::as_str) == Some("fault_injected")
            })
            .expect("fault_injected event emitted");
        cable_obs::events::check_schema(event).expect("schema holds");
        assert_eq!(
            event.get("site").and_then(cable_obs::json::Value::as_str),
            Some("store.fsync")
        );
        assert_eq!(
            event.get("hit").and_then(cable_obs::json::Value::as_u64),
            Some(2)
        );
        assert_eq!(
            event.get("seed").and_then(cable_obs::json::Value::as_u64),
            Some(42)
        );
        cable_obs::events::clear_ring();
    }

    #[test]
    fn maybe_panic_unwinds_when_the_rule_fires() {
        let _l = lock();
        install("42:panic@par.task#2").unwrap();
        maybe_panic("par.task"); // hit 1: no fire
        let result = crate::contain(|| maybe_panic("par.task"));
        uninstall();
        match result {
            Err(crate::GuardError::TaskPanic { message }) => {
                assert!(message.contains("injected fault"), "{message}");
                assert!(message.contains("panic@par.task"), "{message}");
            }
            other => panic!("expected an injected panic, got {other:?}"),
        }
    }

    #[test]
    fn budget_fault_surfaces_through_the_checkpoint() {
        let _l = lock();
        install("42:budget@fca.godin.insert").unwrap();
        let err = crate::checkpoint("fca.godin.insert").unwrap_err();
        assert_eq!(
            err,
            crate::GuardError::BudgetExceeded {
                limit: crate::Limit::Injected,
                site: "fca.godin.insert".to_owned(),
            }
        );
        assert_eq!(crate::checkpoint("fca.godin.insert"), Ok(()));
        assert_eq!(crate::checkpoint("elsewhere"), Ok(()));
        uninstall();
    }
}
