//! Unit-file parser: systemd's INI dialect.
//!
//! Supports the subset the paper's systems use: `[Section]` headers,
//! `Key=Value` assignments, `#`/`;` comments, trailing-backslash line
//! continuations, space-separated multi-value dependency lists that
//! *accumulate* across repeated assignments, and the systemd quirk that
//! an empty assignment (`After=`) resets the accumulated list.
//!
//! This parser is the component the Pre-parser bypasses: at boot,
//! conventional systemd reads and parses every unit file as text; BB
//! loads a pre-parsed binary cache instead (§3.3). The Criterion bench
//! `preparser` measures the real difference on this very code.

use std::fmt;

use crate::unit::{
    IoSchedulingClass, RestartPolicy, ServiceType, Unit, UnitName, MAX_SPAN_MS,
    MAX_START_LIMIT_BURST,
};

/// A parse failure with its location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// Parse failure categories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Text before any `[Section]` header.
    DirectiveOutsideSection,
    /// Malformed `[Section` header.
    UnterminatedSection,
    /// A line without `=` inside a section.
    MissingEquals,
    /// A dependency list entry that is not a valid unit name.
    BadUnitName(String),
    /// An unparsable directive value.
    BadValue {
        /// The directive.
        key: String,
        /// The offending value.
        value: String,
    },
    /// Unit file given a name without a recognized suffix.
    BadFileName(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            ParseErrorKind::DirectiveOutsideSection => {
                write!(f, "directive outside any [Section]")
            }
            ParseErrorKind::UnterminatedSection => write!(f, "unterminated section header"),
            ParseErrorKind::MissingEquals => write!(f, "expected Key=Value"),
            ParseErrorKind::BadUnitName(n) => write!(f, "invalid unit name {n:?}"),
            ParseErrorKind::BadValue { key, value } => {
                write!(f, "invalid value {value:?} for {key}")
            }
            ParseErrorKind::BadFileName(n) => write!(f, "invalid unit file name {n:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Directives that real systemd understands but this model deliberately
/// does not simulate. Parsing them without warning would silently drop
/// behavior that exists on the device, so the Service Analyzer surfaces
/// them as lint findings instead.
const UNSUPPORTED_DIRECTIVES: &[(&str, &str)] = &[
    ("Unit", "PartOf"),
    ("Unit", "BindsTo"),
    ("Service", "Environment"),
    ("Service", "EnvironmentFile"),
    ("Service", "ExecStartPre"),
    ("Service", "ExecStartPost"),
    ("Service", "ExecStop"),
    ("Service", "ExecReload"),
    ("Service", "User"),
    ("Service", "Group"),
    ("Service", "WorkingDirectory"),
    ("Service", "LimitNOFILE"),
    ("Socket", "SocketMode"),
    ("Install", "Alias"),
];

/// Why a directive produced a warning instead of taking effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectiveWarningKind {
    /// A real systemd directive this model parses but does not support.
    /// The unit will behave differently here than on a real system.
    Unsupported,
    /// Not a directive either systemd or this model recognizes
    /// (systemd logs and ignores these).
    Unknown,
}

/// A non-fatal parser warning: a directive that was accepted
/// syntactically but had no effect on the unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectiveWarning {
    /// 1-based line number in the input.
    pub line: usize,
    /// The directive as `Section::Key`.
    pub directive: String,
    /// Whether the directive is known-unsupported or simply unknown.
    pub kind: DirectiveWarningKind,
}

impl fmt::Display for DirectiveWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DirectiveWarningKind::Unsupported => write!(
                f,
                "line {}: {} is parsed but not supported by this model",
                self.line, self.directive
            ),
            DirectiveWarningKind::Unknown => {
                write!(
                    f,
                    "line {}: unknown directive {}",
                    self.line, self.directive
                )
            }
        }
    }
}

/// Result of a parse: the unit plus non-fatal warnings (unsupported or
/// unknown keys, which systemd logs and ignores).
#[derive(Debug, Clone)]
pub struct Parsed {
    /// The parsed unit.
    pub unit: Unit,
    /// Directives that were dropped rather than applied.
    pub warnings: Vec<DirectiveWarning>,
}

/// Parses one unit file. `file_name` must carry a unit suffix
/// (`dbus.service`); it becomes the unit's name.
///
/// # Examples
///
/// ```
/// use bb_init::parse_unit;
///
/// let parsed = parse_unit(
///     "myapp.service",
///     "[Unit]\nBefore=socket.service\n[Service]\nType=oneshot\n",
/// )
/// .unwrap();
/// assert_eq!(parsed.unit.before[0].as_str(), "socket.service");
/// ```
pub fn parse_unit(file_name: &str, text: &str) -> Result<Parsed, ParseError> {
    let name = UnitName::parse(file_name).map_err(|_| ParseError {
        line: 0,
        kind: ParseErrorKind::BadFileName(file_name.to_owned()),
    })?;
    let mut unit = Unit::new(name);
    let mut warnings = Vec::new();
    let mut section: Option<String> = None;

    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let line_no = idx + 1;
        let mut line = raw.trim().to_owned();
        // Trailing backslash joins with following lines.
        while line.ends_with('\\') {
            line.pop();
            match lines.next() {
                Some((_, next)) => {
                    line.push(' ');
                    line.push_str(next.trim());
                }
                None => break,
            }
        }
        if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(ParseError {
                    line: line_no,
                    kind: ParseErrorKind::UnterminatedSection,
                });
            };
            section = Some(name.to_owned());
            continue;
        }
        let Some(current) = section.as_deref() else {
            return Err(ParseError {
                line: line_no,
                kind: ParseErrorKind::DirectiveOutsideSection,
            });
        };
        let Some((key, value)) = line.split_once('=') else {
            return Err(ParseError {
                line: line_no,
                kind: ParseErrorKind::MissingEquals,
            });
        };
        let key = key.trim();
        let value = value.trim();
        apply_directive(&mut unit, current, key, value, line_no, &mut warnings)?;
    }
    Ok(Parsed { unit, warnings })
}

fn parse_name_list(value: &str, line: usize, into: &mut Vec<UnitName>) -> Result<(), ParseError> {
    if value.is_empty() {
        // systemd: an empty assignment resets the accumulated list.
        into.clear();
        return Ok(());
    }
    for token in value.split_whitespace() {
        let name = UnitName::parse(token).map_err(|_| ParseError {
            line,
            kind: ParseErrorKind::BadUnitName(token.to_owned()),
        })?;
        into.push(name);
    }
    Ok(())
}

fn parse_bool(key: &str, value: &str, line: usize) -> Result<bool, ParseError> {
    match value {
        "yes" | "true" | "on" | "1" => Ok(true),
        "no" | "false" | "off" | "0" => Ok(false),
        _ => Err(ParseError {
            line,
            kind: ParseErrorKind::BadValue {
                key: key.to_owned(),
                value: value.to_owned(),
            },
        }),
    }
}

fn bad_value(key: &str, value: &str, line: usize) -> ParseError {
    ParseError {
        line,
        kind: ParseErrorKind::BadValue {
            key: key.to_owned(),
            value: value.to_owned(),
        },
    }
}

fn apply_directive(
    unit: &mut Unit,
    section: &str,
    key: &str,
    value: &str,
    line: usize,
    warnings: &mut Vec<DirectiveWarning>,
) -> Result<(), ParseError> {
    match (section, key) {
        ("Unit", "Description") => unit.description = value.to_owned(),
        ("Unit", "Documentation") => unit.documentation.push(value.to_owned()),
        ("Unit", "After") => parse_name_list(value, line, &mut unit.after)?,
        ("Unit", "Before") => parse_name_list(value, line, &mut unit.before)?,
        ("Unit", "Requires") => parse_name_list(value, line, &mut unit.requires)?,
        ("Unit", "Wants") => parse_name_list(value, line, &mut unit.wants)?,
        ("Unit", "Conflicts") => parse_name_list(value, line, &mut unit.conflicts)?,
        ("Unit", "OnFailure") => parse_name_list(value, line, &mut unit.on_failure)?,
        ("Unit", "ConditionPathExists") => {
            unit.condition_path_exists = if value.is_empty() {
                None
            } else {
                Some(value.to_owned())
            };
        }
        ("Unit", "DefaultDependencies") => {
            unit.default_dependencies = parse_bool(key, value, line)?;
        }
        ("Service" | "Mount" | "Socket", "Type") => {
            unit.exec.service_type =
                ServiceType::parse(value).ok_or_else(|| bad_value(key, value, line))?;
        }
        ("Service" | "Mount" | "Socket", "ExecStart" | "ExecMount" | "ListenStream") => {
            unit.exec.exec_start = Some(value.to_owned());
        }
        ("Service" | "Mount" | "Socket", "Nice") => {
            let nice: i8 = value.parse().map_err(|_| bad_value(key, value, line))?;
            if !(-20..=19).contains(&nice) {
                return Err(bad_value(key, value, line));
            }
            unit.exec.nice = nice;
        }
        ("Service" | "Mount" | "Socket", "IOSchedulingClass") => {
            unit.exec.io_class =
                IoSchedulingClass::parse(value).ok_or_else(|| bad_value(key, value, line))?;
        }
        ("Service" | "Mount" | "Socket", "TimeoutStartSec") => {
            unit.exec.timeout_ms =
                parse_timeout_ms(value).ok_or_else(|| bad_value(key, value, line))?;
        }
        ("Service" | "Mount" | "Socket", "Restart") => {
            unit.exec.restart =
                RestartPolicy::parse(value).ok_or_else(|| bad_value(key, value, line))?;
        }
        ("Service" | "Mount" | "Socket", "RestartSec") => {
            unit.exec.restart_sec_ms =
                parse_timeout_ms(value).ok_or_else(|| bad_value(key, value, line))?;
        }
        // In systemd v208 the start-limit knobs live in [Service].
        ("Service" | "Mount" | "Socket", "StartLimitBurst") => {
            let burst: u32 = value.parse().map_err(|_| bad_value(key, value, line))?;
            if burst > MAX_START_LIMIT_BURST {
                return Err(bad_value(key, value, line));
            }
            unit.exec.start_limit_burst = burst;
        }
        ("Service" | "Mount" | "Socket", "StartLimitIntervalSec") => {
            unit.exec.start_limit_interval_ms =
                parse_timeout_ms(value).ok_or_else(|| bad_value(key, value, line))?;
        }
        ("Install", "WantedBy") => parse_name_list(value, line, &mut unit.wanted_by)?,
        ("Install", "RequiredBy") => parse_name_list(value, line, &mut unit.required_by)?,
        _ => {
            let kind = if UNSUPPORTED_DIRECTIVES.contains(&(section, key)) {
                DirectiveWarningKind::Unsupported
            } else {
                DirectiveWarningKind::Unknown
            };
            warnings.push(DirectiveWarning {
                line,
                directive: format!("{section}::{key}"),
                kind,
            });
        }
    }
    Ok(())
}

/// Parses a time value (`TimeoutStartSec=`, `RestartSec=`,
/// `StartLimitIntervalSec=`): bare seconds, `<n>ms`, or `<n>s`, in
/// milliseconds. `None` if it is malformed or longer than
/// [`MAX_SPAN_MS`], seconds that overflow in milliseconds included.
fn parse_timeout_ms(value: &str) -> Option<u64> {
    let ms = match value.strip_suffix("ms") {
        Some(ms) => ms.parse().ok()?,
        None => {
            let secs: u64 = value.strip_suffix('s').unwrap_or(value).parse().ok()?;
            secs.checked_mul(1000)?
        }
    };
    (ms <= MAX_SPAN_MS).then_some(ms)
}

/// Loads and parses every unit file in a directory on disk. File names
/// must carry unit suffixes (`.service`, `.mount`, …); other files are
/// skipped. Files are processed in name order for determinism.
///
/// # Errors
///
/// I/O failures and parse failures are both reported; parse failures
/// carry the offending file name.
pub fn parse_unit_dir(dir: &std::path::Path) -> Result<Vec<Unit>, UnitDirError> {
    parse_unit_dir_with_warnings(dir).map(|(units, _)| units)
}

/// Per-file parser warnings: `(file_name, warning)` pairs.
pub type FileWarnings = Vec<(String, DirectiveWarning)>;

/// Like [`parse_unit_dir`], but also returns the per-file parser
/// warnings as `(file_name, warning)` pairs, so callers (the Service
/// Analyzer CLI, `bbsim --units`) can lint directives that real systemd
/// honors but this model drops.
pub fn parse_unit_dir_with_warnings(
    dir: &std::path::Path,
) -> Result<(Vec<Unit>, FileWarnings), UnitDirError> {
    let mut files: Vec<(String, std::path::PathBuf)> = std::fs::read_dir(dir)
        .map_err(UnitDirError::Io)?
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let path = entry.path();
            let name = path.file_name()?.to_str()?.to_owned();
            (path.is_file() && UnitName::parse(&name).is_ok()).then_some((name, path))
        })
        .collect();
    files.sort();
    let mut units = Vec::with_capacity(files.len());
    let mut warnings = Vec::new();
    for (name, path) in files {
        let text = std::fs::read_to_string(&path).map_err(UnitDirError::Io)?;
        let parsed = parse_unit(&name, &text).map_err(|e| UnitDirError::Parse(name.clone(), e))?;
        units.push(parsed.unit);
        warnings.extend(parsed.warnings.into_iter().map(|w| (name.clone(), w)));
    }
    Ok((units, warnings))
}

/// Failure loading a unit directory.
#[derive(Debug)]
pub enum UnitDirError {
    /// Filesystem error.
    Io(std::io::Error),
    /// A unit file failed to parse.
    Parse(String, ParseError),
}

impl fmt::Display for UnitDirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitDirError::Io(e) => write!(f, "unit directory I/O error: {e}"),
            UnitDirError::Parse(name, e) => write!(f, "{name}: {e}"),
        }
    }
}

impl std::error::Error for UnitDirError {}

/// Parses a whole directory of unit files given as `(name, text)` pairs.
/// Returns units in input order; fails on the first error, tagged with
/// the file name.
pub fn parse_unit_set<'a>(
    files: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Result<Vec<Unit>, (String, ParseError)> {
    files
        .into_iter()
        .map(|(name, text)| {
            parse_unit(name, text)
                .map(|p| p.unit)
                .map_err(|e| (name.to_owned(), e))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LISTING1: &str = "\
[Unit]
Description=Summarized explanation of Myapp.service
Before=socket.service

[Service]
Type=oneshot
ExecStart=/usr/bin/myapp-service-daemon

[Install]
WantedBy=multi-user.target
";

    #[test]
    fn parses_paper_listing1() {
        let p = parse_unit("myapp.service", LISTING1).unwrap();
        assert_eq!(
            p.unit.description,
            "Summarized explanation of Myapp.service"
        );
        assert_eq!(p.unit.before, vec![UnitName::new("socket.service")]);
        assert_eq!(p.unit.exec.service_type, ServiceType::Oneshot);
        assert_eq!(
            p.unit.exec.exec_start.as_deref(),
            Some("/usr/bin/myapp-service-daemon")
        );
        assert_eq!(p.unit.wanted_by, vec![UnitName::new("multi-user.target")]);
        assert!(p.warnings.is_empty());
    }

    #[test]
    fn multi_value_lists_accumulate() {
        let text = "[Unit]\nAfter=a.service b.service\nAfter=c.service\n";
        let p = parse_unit("x.service", text).unwrap();
        assert_eq!(p.unit.after.len(), 3);
    }

    #[test]
    fn empty_assignment_resets_list() {
        let text = "[Unit]\nAfter=a.service b.service\nAfter=\nAfter=c.service\n";
        let p = parse_unit("x.service", text).unwrap();
        assert_eq!(p.unit.after, vec![UnitName::new("c.service")]);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header\n; alt comment\n\n[Unit]\n# inner\nDescription=d\n";
        let p = parse_unit("x.service", text).unwrap();
        assert_eq!(p.unit.description, "d");
    }

    #[test]
    fn line_continuation_joins() {
        let text = "[Unit]\nAfter=a.service \\\n  b.service\n";
        let p = parse_unit("x.service", text).unwrap();
        assert_eq!(p.unit.after.len(), 2);
    }

    #[test]
    fn unknown_keys_warn_not_fail() {
        let text = "[Unit]\nFancyNewDirective=zap\n[Service]\nEnvironment=FOO=1\n";
        let p = parse_unit("x.service", text).unwrap();
        assert_eq!(p.warnings.len(), 2);
        assert_eq!(p.warnings[0].directive, "Unit::FancyNewDirective");
        assert_eq!(p.warnings[0].kind, DirectiveWarningKind::Unknown);
        // `Environment=` is real systemd, just not modeled here: flagged
        // as unsupported rather than unknown.
        assert_eq!(p.warnings[1].directive, "Service::Environment");
        assert_eq!(p.warnings[1].kind, DirectiveWarningKind::Unsupported);
        assert!(p.warnings[1].to_string().contains("not supported"));
    }

    #[test]
    fn supervision_directives_parse_into_typed_fields_not_warnings() {
        // Regression: these used to sit in UNSUPPORTED_DIRECTIVES and
        // produce lint warnings; they are modeled now.
        let text = "\
[Unit]
OnFailure=rescue.service watchdog-reboot.service
[Service]
Restart=on-failure
RestartSec=500ms
StartLimitBurst=3
StartLimitIntervalSec=30s
";
        let p = parse_unit("x.service", text).unwrap();
        assert!(p.warnings.is_empty(), "warnings: {:?}", p.warnings);
        assert_eq!(p.unit.exec.restart, RestartPolicy::OnFailure);
        assert_eq!(p.unit.exec.restart_sec_ms, 500);
        assert_eq!(p.unit.exec.start_limit_burst, 3);
        assert_eq!(p.unit.exec.start_limit_interval_ms, 30_000);
        assert_eq!(
            p.unit.on_failure,
            vec![
                UnitName::new("rescue.service"),
                UnitName::new("watchdog-reboot.service"),
            ]
        );
    }

    #[test]
    fn restart_policy_values() {
        for (text, policy) in [
            ("no", RestartPolicy::No),
            ("on-failure", RestartPolicy::OnFailure),
            ("always", RestartPolicy::Always),
        ] {
            let p = parse_unit("x.service", &format!("[Service]\nRestart={text}\n")).unwrap();
            assert_eq!(p.unit.exec.restart, policy);
        }
        let err = parse_unit("x.service", "[Service]\nRestart=sometimes\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadValue { .. }));
    }

    #[test]
    fn supervision_roundtrip_render_then_parse() {
        let u = Unit::new(UnitName::new("flaky.service"))
            .with_exec("flaky-daemon")
            .with_restart(RestartPolicy::Always)
            .with_restart_sec_ms(250)
            .with_start_limit_burst(2)
            .on_failure("rescue.service");
        let text = u.to_unit_file();
        let p = parse_unit("flaky.service", &text).unwrap();
        assert_eq!(p.unit, u);
        assert!(p.warnings.is_empty());
    }

    #[test]
    fn directive_outside_section_fails() {
        let err = parse_unit("x.service", "Description=d\n").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::DirectiveOutsideSection);
        assert_eq!(err.line, 1);
    }

    #[test]
    fn missing_equals_fails_with_line() {
        let err = parse_unit("x.service", "[Unit]\nDescription\n").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::MissingEquals);
        assert_eq!(err.line, 2);
    }

    #[test]
    fn unterminated_section_fails() {
        let err = parse_unit("x.service", "[Unit\n").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnterminatedSection);
    }

    #[test]
    fn bad_dependency_name_fails() {
        let err = parse_unit("x.service", "[Unit]\nAfter=not-a-unit\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadUnitName(_)));
    }

    #[test]
    fn bad_file_name_fails() {
        let err = parse_unit("x.banana", "[Unit]\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadFileName(_)));
    }

    #[test]
    fn nice_and_io_class_parse() {
        let text = "[Service]\nNice=-15\nIOSchedulingClass=idle\nTimeoutStartSec=5s\n";
        let p = parse_unit("x.service", text).unwrap();
        assert_eq!(p.unit.exec.nice, -15);
        assert_eq!(p.unit.exec.io_class, IoSchedulingClass::Idle);
        assert_eq!(p.unit.exec.timeout_ms, 5000);
    }

    #[test]
    fn out_of_range_nice_fails() {
        let err = parse_unit("x.service", "[Service]\nNice=42\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadValue { .. }));
    }

    #[test]
    fn timeout_formats() {
        assert_eq!(parse_timeout_ms("250ms"), Some(250));
        assert_eq!(parse_timeout_ms("5s"), Some(5000));
        assert_eq!(parse_timeout_ms("7"), Some(7000));
        assert_eq!(parse_timeout_ms("x"), None);
    }

    /// The supervision knobs stop at their caps: a burst of 100 and an
    /// hour of simulated time parse, one more is a bad value, and so
    /// are seconds whose milliseconds overflow a `u64`.
    #[test]
    fn supervision_knobs_stop_at_their_caps() {
        use crate::unit::ExecConfig;
        let knob = |directive: &str, value: &str| {
            parse_unit("x.service", &format!("[Service]\n{directive}={value}\n"))
                .map(|p| p.unit.exec)
        };
        let bad = |directive: &str, value: &str| {
            let err = knob(directive, value).unwrap_err();
            assert!(
                matches!(err.kind, ParseErrorKind::BadValue { .. }),
                "{directive}={value}: {err:?}"
            );
        };
        assert_eq!(
            knob("StartLimitBurst", "100").unwrap().start_limit_burst,
            100
        );
        bad("StartLimitBurst", "101");
        bad("StartLimitBurst", "4000000000");
        let span = |directive: &str, exec: ExecConfig| match directive {
            "TimeoutStartSec" => exec.timeout_ms,
            "RestartSec" => exec.restart_sec_ms,
            _ => exec.start_limit_interval_ms,
        };
        let max_secs = u64::MAX.to_string();
        for directive in ["TimeoutStartSec", "RestartSec", "StartLimitIntervalSec"] {
            for at_cap in ["3600", "3600s", "3600000ms"] {
                let exec = knob(directive, at_cap).unwrap();
                assert_eq!(span(directive, exec), MAX_SPAN_MS, "{directive}={at_cap}");
            }
            for over in ["3601", "3601s", "3600001ms", max_secs.as_str()] {
                bad(directive, over);
            }
        }
    }

    #[test]
    fn default_dependencies_boolean() {
        let p = parse_unit("x.service", "[Unit]\nDefaultDependencies=no\n").unwrap();
        assert!(!p.unit.default_dependencies);
        let err = parse_unit("x.service", "[Unit]\nDefaultDependencies=maybe\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadValue { .. }));
    }

    #[test]
    fn roundtrip_render_then_parse() {
        let u = Unit::new(UnitName::new("dbus.service"))
            .with_description("D-Bus IPC")
            .needs("var.mount")
            .before("fasttv.service")
            .wants("log.service")
            .with_type(ServiceType::Notify)
            .with_exec("dbus-daemon")
            .wanted_by("multi-user.target");
        let text = u.to_unit_file();
        let p = parse_unit("dbus.service", &text).unwrap();
        assert_eq!(p.unit, u);
    }

    #[test]
    fn parse_set_reports_failing_file() {
        let files = vec![
            ("a.service", "[Unit]\nDescription=ok\n"),
            ("b.service", "Description=broken\n"),
        ];
        let err = parse_unit_set(files).unwrap_err();
        assert_eq!(err.0, "b.service");
    }
}
