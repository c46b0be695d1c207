//! Unit model: the init scheme's description of one service, socket,
//! mount, or target.
//!
//! Mirrors the subset of systemd v208 unit semantics the paper exercises:
//! ordering (`After=`/`Before=`), requirement (`Requires=`/`Wants=`),
//! installation (`WantedBy=`/`RequiredBy=`), conflicts, path conditions,
//! service types (`simple`/`forking`/`oneshot`/`notify`), and resource
//! policy knobs (`Nice=`, `IOSchedulingClass=`).

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// A unit's name, including its type suffix (`dbus.service`,
/// `var.mount`, `sockets.target`).
///
/// The text is shared: a clone is a refcount, so the unit, its job's
/// process and its boot record's key hold one allocation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnitName(Arc<str>);

impl UnitName {
    /// Creates a name; the suffix determines the unit kind.
    ///
    /// # Panics
    ///
    /// Panics if the name has no recognized type suffix.
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        assert!(
            UnitKind::from_name(name).is_some(),
            "unit name without a recognized suffix: {name}"
        );
        UnitName(name.into())
    }

    /// Fallible constructor.
    pub fn parse(name: &str) -> Result<Self, String> {
        if UnitKind::from_name(name).is_some() {
            Ok(UnitName(name.into()))
        } else {
            Err(format!("unit name without a recognized suffix: {name}"))
        }
    }

    /// The full name including suffix.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The shared text, for a process spawned under this name.
    pub(crate) fn as_arc(&self) -> &Arc<str> {
        &self.0
    }

    /// The unit kind encoded in the suffix.
    pub fn kind(&self) -> UnitKind {
        UnitKind::from_name(&self.0).expect("validated at construction")
    }

    /// The name without its suffix (`dbus` for `dbus.service`).
    #[cfg(test)]
    fn stem(&self) -> &str {
        self.0.rsplit_once('.').expect("suffix exists").0
    }
}

// Names hash and compare as their text, so a map keyed by names can be
// searched with a `&str`.
impl Borrow<str> for UnitName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for UnitName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The kind of unit, from the name suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitKind {
    /// A daemon or one-shot program.
    Service,
    /// A listening socket with activation semantics.
    Socket,
    /// A filesystem mount point.
    Mount,
    /// A synchronization point grouping other units.
    Target,
    /// A kernel device unit.
    Device,
}

impl UnitKind {
    /// Parses the kind from a unit name's suffix.
    fn from_name(name: &str) -> Option<UnitKind> {
        let (_, suffix) = name.rsplit_once('.')?;
        Some(match suffix {
            "service" => UnitKind::Service,
            "socket" => UnitKind::Socket,
            "mount" => UnitKind::Mount,
            "target" => UnitKind::Target,
            "device" => UnitKind::Device,
            _ => return None,
        })
    }
}

/// `Type=` of a `[Service]` section: when the service counts as started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceType {
    /// Started as soon as `ExecStart` is executed.
    #[default]
    Simple,
    /// Started when the initial process forks (daemonizes).
    Forking,
    /// Started when `ExecStart` *completes*.
    Oneshot,
    /// Started when the service itself signals readiness.
    Notify,
}

impl ServiceType {
    /// Parses the `Type=` value.
    pub fn parse(s: &str) -> Option<ServiceType> {
        Some(match s {
            "simple" => ServiceType::Simple,
            "forking" => ServiceType::Forking,
            "oneshot" => ServiceType::Oneshot,
            "notify" => ServiceType::Notify,
            _ => return None,
        })
    }

    /// The canonical `Type=` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ServiceType::Simple => "simple",
            ServiceType::Forking => "forking",
            ServiceType::Oneshot => "oneshot",
            ServiceType::Notify => "notify",
        }
    }
}

/// `IOSchedulingClass=` values (the init scheme's I/O policy knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoSchedulingClass {
    /// Kernel default.
    #[default]
    BestEffort,
    /// Starved of I/O when anyone else needs it.
    Idle,
    /// Preferential I/O service.
    Realtime,
}

impl IoSchedulingClass {
    /// Parses the directive value.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "best-effort" => IoSchedulingClass::BestEffort,
            "idle" => IoSchedulingClass::Idle,
            "realtime" => IoSchedulingClass::Realtime,
            _ => return None,
        })
    }

    /// Canonical spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            IoSchedulingClass::BestEffort => "best-effort",
            IoSchedulingClass::Idle => "idle",
            IoSchedulingClass::Realtime => "realtime",
        }
    }
}

/// `Restart=` policy: when a dead service is respawned (v208 subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RestartPolicy {
    /// Never respawn (systemd's default).
    #[default]
    No,
    /// Respawn only after an unclean exit (crash).
    OnFailure,
    /// Respawn after any exit.
    Always,
}

impl RestartPolicy {
    /// Parses the `Restart=` value.
    pub fn parse(s: &str) -> Option<RestartPolicy> {
        Some(match s {
            "no" => RestartPolicy::No,
            "on-failure" => RestartPolicy::OnFailure,
            "always" => RestartPolicy::Always,
            _ => return None,
        })
    }

    /// The canonical `Restart=` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            RestartPolicy::No => "no",
            RestartPolicy::OnFailure => "on-failure",
            RestartPolicy::Always => "always",
        }
    }

    /// True if a crashed service with this policy is respawned.
    pub(crate) fn restarts_on_crash(self) -> bool {
        !matches!(self, RestartPolicy::No)
    }
}

/// The most respawns `StartLimitBurst=` may allow a service: twenty
/// times systemd's default of 5. Supervision spawns a watcher per
/// allowed respawn, per service and boot, before anything crashes.
pub const MAX_START_LIMIT_BURST: u32 = 100;

/// The longest simulated span, in milliseconds, a supervision knob
/// (`TimeoutStartSec=`, `RestartSec=`, `StartLimitIntervalSec=`) may
/// name: one hour. Simulated time counts nanoseconds in a `u64`, which
/// a millisecond count past ~1.8·10^13 would overflow.
pub const MAX_SPAN_MS: u64 = 3_600_000;

/// Execution settings from `[Service]`/`[Mount]`/`[Socket]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecConfig {
    /// Start-up semantics.
    pub service_type: ServiceType,
    /// Symbolic workload reference (stands in for the binary path).
    pub exec_start: Option<String>,
    /// CPU nice value.
    pub nice: i8,
    /// I/O scheduling class.
    pub io_class: IoSchedulingClass,
    /// Start timeout in milliseconds (0 = none).
    pub timeout_ms: u64,
    /// `Restart=` supervision policy.
    pub restart: RestartPolicy,
    /// `RestartSec=` backoff before each respawn, in milliseconds
    /// (systemd's default is 100 ms).
    pub restart_sec_ms: u64,
    /// `StartLimitBurst=` — respawns allowed within the interval before
    /// the unit is marked start-limit-hit (systemd's default is 5).
    pub start_limit_burst: u32,
    /// `StartLimitIntervalSec=` window for the burst counter, in
    /// milliseconds (systemd's default is 10 s).
    pub start_limit_interval_ms: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            service_type: ServiceType::default(),
            exec_start: None,
            nice: 0,
            io_class: IoSchedulingClass::default(),
            timeout_ms: 0,
            restart: RestartPolicy::No,
            restart_sec_ms: 100,
            start_limit_burst: 5,
            start_limit_interval_ms: 10_000,
        }
    }
}

/// One parsed unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// Unit name.
    pub name: UnitName,
    /// `Description=`.
    pub description: String,
    /// `Documentation=` entries.
    pub documentation: Vec<String>,
    /// `After=`: start this unit only after these are started.
    pub after: Vec<UnitName>,
    /// `Before=`: start this unit before these.
    pub before: Vec<UnitName>,
    /// `Requires=`: hard dependency (pulled in; failure propagates).
    pub requires: Vec<UnitName>,
    /// `Wants=`: soft dependency (pulled in; failure tolerated).
    pub wants: Vec<UnitName>,
    /// `Conflicts=`: cannot run together.
    pub conflicts: Vec<UnitName>,
    /// `WantedBy=` (from `[Install]`): reverse soft dependency.
    pub wanted_by: Vec<UnitName>,
    /// `RequiredBy=` (from `[Install]`): reverse hard dependency.
    pub required_by: Vec<UnitName>,
    /// `OnFailure=`: units activated when this unit enters a failed
    /// state (start-limit hit or unrecoverable crash).
    pub on_failure: Vec<UnitName>,
    /// `ConditionPathExists=`: run the body only if this path exists.
    pub condition_path_exists: Option<String>,
    /// `DefaultDependencies=` (affects implicit target ordering).
    pub default_dependencies: bool,
    /// Execution settings.
    pub exec: ExecConfig,
}

impl Unit {
    /// Creates an empty unit with the given name.
    pub fn new(name: UnitName) -> Self {
        Unit {
            name,
            description: String::new(),
            documentation: Vec::new(),
            after: Vec::new(),
            before: Vec::new(),
            requires: Vec::new(),
            wants: Vec::new(),
            conflicts: Vec::new(),
            wanted_by: Vec::new(),
            required_by: Vec::new(),
            on_failure: Vec::new(),
            condition_path_exists: None,
            default_dependencies: true,
            exec: ExecConfig::default(),
        }
    }

    /// Builder: adds an `After=` ordering dependency.
    pub fn after(mut self, dep: &str) -> Self {
        self.after.push(UnitName::new(dep));
        self
    }

    /// Builder: adds a `Before=` ordering dependency.
    pub fn before(mut self, dep: &str) -> Self {
        self.before.push(UnitName::new(dep));
        self
    }

    /// Builder: adds a `Requires=` dependency.
    pub fn requires(mut self, dep: &str) -> Self {
        self.requires.push(UnitName::new(dep));
        self
    }

    /// Builder: adds a `Wants=` dependency.
    pub fn wants(mut self, dep: &str) -> Self {
        self.wants.push(UnitName::new(dep));
        self
    }

    /// Builder: adds a strong dependency (`Requires=` + `After=`), the
    /// paper's red edge: "launch B after A is ready".
    pub fn needs(self, dep: &str) -> Self {
        self.requires(dep).after(dep)
    }

    /// Builder: sets `WantedBy=` (install target).
    pub fn wanted_by(mut self, target: &str) -> Self {
        self.wanted_by.push(UnitName::new(target));
        self
    }

    /// Builder: sets the service type.
    pub fn with_type(mut self, t: ServiceType) -> Self {
        self.exec.service_type = t;
        self
    }

    /// Builder: sets the symbolic workload.
    pub fn with_exec(mut self, exec: impl Into<String>) -> Self {
        self.exec.exec_start = Some(exec.into());
        self
    }

    /// Builder: sets the description.
    pub fn with_description(mut self, d: impl Into<String>) -> Self {
        self.description = d.into();
        self
    }

    /// Builder: sets the `Restart=` policy.
    pub fn with_restart(mut self, policy: RestartPolicy) -> Self {
        self.exec.restart = policy;
        self
    }

    /// Builder: sets `RestartSec=` in milliseconds.
    pub fn with_restart_sec_ms(mut self, ms: u64) -> Self {
        self.exec.restart_sec_ms = ms;
        self
    }

    /// Builder: sets `StartLimitBurst=`.
    pub fn with_start_limit_burst(mut self, burst: u32) -> Self {
        self.exec.start_limit_burst = burst;
        self
    }

    /// Builder: adds an `OnFailure=` escalation unit.
    pub fn on_failure(mut self, unit: &str) -> Self {
        self.on_failure.push(UnitName::new(unit));
        self
    }

    /// Renders the unit back to systemd unit-file syntax. Parsing the
    /// output reproduces the unit (round-trip property tested).
    pub fn to_unit_file(&self) -> String {
        let mut s = String::new();
        self.write_unit_file(&mut s)
            .expect("writing to a String cannot fail");
        s
    }

    /// Length in bytes of [`to_unit_file`](Self::to_unit_file)'s text,
    /// counted as it is written, without building the string.
    pub fn unit_file_len(&self) -> usize {
        let mut len = ByteCount(0);
        self.write_unit_file(&mut len)
            .expect("counting bytes cannot fail");
        len.0
    }

    /// Writes the unit-file text to `out`: the one renderer behind
    /// [`to_unit_file`](Self::to_unit_file) and
    /// [`unit_file_len`](Self::unit_file_len).
    fn write_unit_file(&self, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_str("[Unit]\n")?;
        if !self.description.is_empty() {
            writeln!(out, "Description={}", self.description)?;
        }
        for d in &self.documentation {
            writeln!(out, "Documentation={d}")?;
        }
        fn list(out: &mut impl fmt::Write, key: &str, items: &[UnitName]) -> fmt::Result {
            let Some((first, rest)) = items.split_first() else {
                return Ok(());
            };
            write!(out, "{key}={first}")?;
            for name in rest {
                write!(out, " {name}")?;
            }
            out.write_char('\n')
        }
        list(out, "After", &self.after)?;
        list(out, "Before", &self.before)?;
        list(out, "Requires", &self.requires)?;
        list(out, "Wants", &self.wants)?;
        list(out, "Conflicts", &self.conflicts)?;
        list(out, "OnFailure", &self.on_failure)?;
        if let Some(p) = &self.condition_path_exists {
            writeln!(out, "ConditionPathExists={p}")?;
        }
        if !self.default_dependencies {
            out.write_str("DefaultDependencies=no\n")?;
        }
        if self.name.kind() == UnitKind::Service || self.exec != ExecConfig::default() {
            out.write_str("\n[Service]\n")?;
            writeln!(out, "Type={}", self.exec.service_type.as_str())?;
            if let Some(e) = &self.exec.exec_start {
                writeln!(out, "ExecStart={e}")?;
            }
            if self.exec.nice != 0 {
                writeln!(out, "Nice={}", self.exec.nice)?;
            }
            if self.exec.io_class != IoSchedulingClass::BestEffort {
                writeln!(out, "IOSchedulingClass={}", self.exec.io_class.as_str())?;
            }
            if self.exec.timeout_ms != 0 {
                writeln!(out, "TimeoutStartSec={}ms", self.exec.timeout_ms)?;
            }
            let defaults = ExecConfig::default();
            if self.exec.restart != defaults.restart {
                writeln!(out, "Restart={}", self.exec.restart.as_str())?;
            }
            if self.exec.restart_sec_ms != defaults.restart_sec_ms {
                writeln!(out, "RestartSec={}ms", self.exec.restart_sec_ms)?;
            }
            if self.exec.start_limit_burst != defaults.start_limit_burst {
                writeln!(out, "StartLimitBurst={}", self.exec.start_limit_burst)?;
            }
            if self.exec.start_limit_interval_ms != defaults.start_limit_interval_ms {
                writeln!(
                    out,
                    "StartLimitIntervalSec={}ms",
                    self.exec.start_limit_interval_ms
                )?;
            }
        }
        if !self.wanted_by.is_empty() || !self.required_by.is_empty() {
            out.write_str("\n[Install]\n")?;
            list(out, "WantedBy", &self.wanted_by)?;
            list(out, "RequiredBy", &self.required_by)?;
        }
        Ok(())
    }
}

/// A sink that keeps only the number of bytes written to it: a
/// [`fmt::Write`] here, and the cache encoder's sink in
/// [`crate::preparse`].
pub(crate) struct ByteCount(pub(crate) usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_carry_kinds() {
        assert_eq!(UnitName::new("dbus.service").kind(), UnitKind::Service);
        assert_eq!(UnitName::new("var.mount").kind(), UnitKind::Mount);
        assert_eq!(UnitName::new("sockets.target").kind(), UnitKind::Target);
        assert_eq!(UnitName::new("tuner.socket").kind(), UnitKind::Socket);
        assert_eq!(UnitName::new("dev-hdmi.device").kind(), UnitKind::Device);
        assert_eq!(UnitName::new("dbus.service").stem(), "dbus");
    }

    #[test]
    fn bad_suffix_rejected() {
        assert!(UnitName::parse("dbus").is_err());
        assert!(UnitName::parse("dbus.banana").is_err());
        assert!(UnitName::parse("dbus.service").is_ok());
    }

    #[test]
    #[should_panic(expected = "recognized suffix")]
    fn new_panics_on_bad_suffix() {
        UnitName::new("nope");
    }

    #[test]
    fn builder_wires_dependencies() {
        let u = Unit::new(UnitName::new("myapp.service"))
            .with_description("Summarized explanation of Myapp.service")
            .before("socket.service")
            .needs("dbus.service")
            .wants("log.service")
            .wanted_by("multi-user.target")
            .with_type(ServiceType::Oneshot)
            .with_exec("myapp-service-daemon");
        assert_eq!(u.before.len(), 1);
        assert_eq!(u.requires, vec![UnitName::new("dbus.service")]);
        assert_eq!(u.after, vec![UnitName::new("dbus.service")]);
        assert_eq!(u.exec.service_type, ServiceType::Oneshot);
    }

    #[test]
    fn listing1_shape_renders() {
        // The paper's Listing 1 example.
        let u = Unit::new(UnitName::new("myapp.service"))
            .with_description("Summarized explanation of Myapp.service")
            .before("socket.service")
            .with_type(ServiceType::Oneshot)
            .with_exec("/usr/bin/myapp-service-daemon")
            .wanted_by("multi-user.target");
        let text = u.to_unit_file();
        assert!(text.contains("[Unit]"));
        assert!(text.contains("Before=socket.service"));
        assert!(text.contains("Type=oneshot"));
        assert!(text.contains("ExecStart=/usr/bin/myapp-service-daemon"));
        assert!(text.contains("WantedBy=multi-user.target"));
        assert_eq!(u.unit_file_len(), text.len());
    }

    #[test]
    fn service_type_parse_roundtrip() {
        for t in [
            ServiceType::Simple,
            ServiceType::Forking,
            ServiceType::Oneshot,
            ServiceType::Notify,
        ] {
            assert_eq!(ServiceType::parse(t.as_str()), Some(t));
        }
        assert_eq!(ServiceType::parse("dbus"), None);
    }
}
