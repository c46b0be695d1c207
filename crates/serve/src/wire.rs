//! The `bb-serve-v1` wire format: job descriptions, request envelopes,
//! and response envelopes.
//!
//! One job description — [`SweepArgs`] — backs three surfaces at once:
//!
//! 1. the `bbsim sweep` / `bbsim chaos` CLI flags (via
//!    [`SweepArgs::parse_flag`]),
//! 2. the single-line JSON a client sends to `bbsim serve`
//!    ([`SweepArgs::to_wire_json`], decoded by [`parse_request`]), and
//! 3. the [`SweepSpec`] grid the fleet service executes
//!    ([`SweepArgs::sweep_spec`], [`SweepArgs::to_work_item`]) — one
//!    builder for both kinds, where a chaos job adds the fault-plan,
//!    corruption, supervision, and fallback axes.
//!
//! Because every surface funnels through the same grid builder, a
//! `bbsim submit` round trip produces byte-identical report JSON to the
//! in-process `bbsim sweep --json` for the same flags — the serve
//! acceptance invariant.
//!
//! The framing is newline-delimited JSON (NDJSON): every request and
//! every response is exactly one line. Requests carry a client-chosen
//! `id` that the matching response echoes; responses additionally lead
//! with the [`json::SCHEMA_SERVE`] stamp, `"ok"`, and either
//! `"result"` or `"error"`.

use std::time::Duration;

use bb_core::{BbConfig, FallbackPolicy};
use bb_fleet::json::{self, Json};
use bb_fleet::{CellSpec, Supervision, SweepSpec, TicketId, WorkItem};
use bb_init::{RestartPolicy, MAX_SPAN_MS, MAX_START_LIMIT_BURST};
use bb_workloads::{profiles, MachineProfile, TizenParams};

// ---------------------------------------------------------------------
// Job description
// ---------------------------------------------------------------------

/// Which grid a job expands to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A plain boot sweep (`bbsim sweep`, [`WorkItem::Sweep`]).
    Sweep,
    /// A fault-injection sweep (`bbsim chaos`, [`WorkItem::Chaos`]).
    Chaos,
}

impl JobKind {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Sweep => "sweep",
            JobKind::Chaos => "chaos",
        }
    }
}

impl std::str::FromStr for JobKind {
    type Err = String;

    /// Parses the wire spelling.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "sweep" => Ok(JobKind::Sweep),
            "chaos" => Ok(JobKind::Chaos),
            other => Err(format!("unknown job kind {other:?} (sweep|chaos)")),
        }
    }
}

/// One job description: every knob of the sweep/chaos grid, with the
/// CLI defaults baked in. Field meanings and defaults match the
/// historical `bbsim` flags exactly (seeds defaults to 20 for sweeps
/// and 10 for chaos; chaos' deadline defaults to the [`FallbackPolicy`]
/// supervisor deadline).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Job kind; gates which flags/fields apply.
    pub kind: JobKind,
    /// `--profiles NAMES|all`.
    pub profiles: String,
    /// `--services N`; `None` means 136.
    pub services: Option<usize>,
    /// `--seeds N`: seeds per cell.
    pub seeds: u64,
    /// `--seed N`: the seed base.
    pub seed: Option<u64>,
    /// `--features all|none|LIST` (sweep).
    pub features: String,
    /// `--deadline-ms N`: per-job wall-clock deadline (sweep) or the
    /// boot-supervisor deadline (chaos).
    pub deadline_ms: Option<u64>,
    /// Negated `--no-dedup` (sweep).
    pub dedup: bool,
    /// Whether to collect span metrics (sweep; the CLI sets this when
    /// `--metrics FILE|-` is given).
    pub metrics: bool,
    /// `--plans N` (chaos).
    pub plans: u64,
    /// `--plan-seed N` (chaos).
    pub plan_seed: u64,
    /// `--corruption N` (chaos).
    pub corruption: u64,
    /// `--corruption-seed N` (chaos).
    pub corruption_seed: u64,
    /// `--restart no|on-failure|always` (chaos).
    pub restart: String,
    /// `--restart-sec-ms N` (chaos).
    pub restart_sec_ms: u64,
    /// `--burst N` (chaos).
    pub burst: u32,
}

impl SweepArgs {
    /// The CLI defaults for `kind`.
    pub fn new(kind: JobKind) -> Self {
        SweepArgs {
            kind,
            profiles: "ue48h6200".into(),
            services: None,
            seeds: match kind {
                JobKind::Chaos => 10,
                JobKind::Sweep => 20,
            },
            seed: None,
            features: "all".into(),
            deadline_ms: None,
            dedup: true,
            metrics: false,
            plans: 4,
            plan_seed: 1000,
            corruption: 0,
            corruption_seed: 5000,
            restart: "on-failure".into(),
            restart_sec_ms: 100,
            burst: 3,
        }
    }

    /// Consumes one CLI flag if it belongs to this job kind's wire
    /// fields. Returns `Ok(true)` when consumed, `Ok(false)` when the
    /// flag is not a wire flag for this kind (the caller may still
    /// handle it as a client-side flag), and `Err` on a malformed or
    /// missing value.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        next: &mut dyn FnMut() -> Option<String>,
    ) -> Result<bool, String> {
        let mut value = |name: &str| next().ok_or_else(|| format!("missing value for {name}"));
        fn num<T: std::str::FromStr>(name: &str, raw: String) -> Result<T, String> {
            raw.parse()
                .map_err(|_| format!("bad value {raw:?} for {name}"))
        }
        match (flag, self.kind) {
            ("--profiles", _) => self.profiles = value("--profiles")?,
            ("--services", _) => {
                self.services = Some(check_services(num("--services", value("--services")?)?)?)
            }
            ("--seeds", _) => self.seeds = num("--seeds", value("--seeds")?)?,
            ("--seed", _) => self.seed = Some(num("--seed", value("--seed")?)?),
            ("--features", JobKind::Sweep) => self.features = value("--features")?,
            ("--deadline-ms", _) => {
                let ms = num("--deadline-ms", value("--deadline-ms")?)?;
                self.deadline_ms = Some(self.check_deadline_ms(ms)?)
            }
            ("--no-dedup", JobKind::Sweep) => self.dedup = false,
            ("--plans", JobKind::Chaos) => self.plans = num("--plans", value("--plans")?)?,
            ("--plan-seed", JobKind::Chaos) => {
                self.plan_seed = num("--plan-seed", value("--plan-seed")?)?
            }
            ("--corruption", JobKind::Chaos) => {
                self.corruption = num("--corruption", value("--corruption")?)?
            }
            ("--corruption-seed", JobKind::Chaos) => {
                self.corruption_seed = num("--corruption-seed", value("--corruption-seed")?)?
            }
            ("--restart", JobKind::Chaos) => self.restart = value("--restart")?,
            ("--restart-sec-ms", JobKind::Chaos) => {
                let ms = num("--restart-sec-ms", value("--restart-sec-ms")?)?;
                self.restart_sec_ms = check_sim_ms("--restart-sec-ms", ms)?
            }
            ("--burst", JobKind::Chaos) => {
                self.burst = check_burst(num("--burst", value("--burst")?)?)?
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Renders the job as one wire line (no trailing newline). Key
    /// order is fixed, so identical jobs serialize identically.
    pub fn to_wire_json(&self) -> String {
        fn opt<T: std::fmt::Display>(v: &Option<T>) -> String {
            match v {
                Some(x) => x.to_string(),
                None => "null".into(),
            }
        }
        format!(
            "{{\"kind\": \"{}\", \"profiles\": \"{}\", \"services\": {}, \
             \"seeds\": {}, \"seed\": {}, \"features\": \"{}\", \"deadline_ms\": {}, \
             \"dedup\": {}, \"metrics\": {}, \"plans\": {}, \"plan_seed\": {}, \
             \"corruption\": {}, \"corruption_seed\": {}, \"restart\": \"{}\", \
             \"restart_sec_ms\": {}, \"burst\": {}}}",
            self.kind.as_str(),
            json::escape(&self.profiles),
            opt(&self.services),
            self.seeds,
            opt(&self.seed),
            json::escape(&self.features),
            opt(&self.deadline_ms),
            self.dedup,
            self.metrics,
            self.plans,
            self.plan_seed,
            self.corruption,
            self.corruption_seed,
            json::escape(&self.restart),
            self.restart_sec_ms,
            self.burst,
        )
    }

    /// Decodes a wire job object. Missing fields take the `new(kind)`
    /// defaults, so older clients can omit knobs they don't set. A key
    /// that [`to_wire_json`](Self::to_wire_json) never writes is
    /// refused, so a misspelled knob cannot run the default grid.
    /// `"fork"`, `"scenario"` and `"cores"`, which older clients sent
    /// and no grid reads, are ignored.
    fn from_wire(v: &Json) -> Result<Self, String> {
        const IGNORED: [&str; 3] = ["fork", "scenario", "cores"];
        const KEYS: [&str; 16] = [
            "kind",
            "profiles",
            "services",
            "seeds",
            "seed",
            "features",
            "deadline_ms",
            "dedup",
            "metrics",
            "plans",
            "plan_seed",
            "corruption",
            "corruption_seed",
            "restart",
            "restart_sec_ms",
            "burst",
        ];
        if let Json::Obj(fields) = v {
            if let Some((key, _)) = fields
                .iter()
                .find(|(k, _)| !KEYS.contains(&k.as_str()) && !IGNORED.contains(&k.as_str()))
            {
                return Err(format!("unknown job field {key:?}"));
            }
        }
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("job is missing \"kind\"")?
            .parse::<JobKind>()?;
        let mut args = SweepArgs::new(kind);
        fn str_field(v: &Json, key: &str, into: &mut String) -> Result<(), String> {
            match v.get(key) {
                None => Ok(()),
                Some(Json::Str(s)) => {
                    into.clone_from(s);
                    Ok(())
                }
                Some(_) => Err(format!("job field {key:?} must be a string")),
            }
        }
        fn uint(v: &Json, key: &str) -> Result<Option<u64>, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as u64)),
                Some(_) => Err(format!("job field {key:?} must be a non-negative integer")),
            }
        }
        fn flag(v: &Json, key: &str, into: &mut bool) -> Result<(), String> {
            match v.get(key) {
                None => Ok(()),
                Some(Json::Bool(b)) => {
                    *into = *b;
                    Ok(())
                }
                Some(_) => Err(format!("job field {key:?} must be a boolean")),
            }
        }
        str_field(v, "profiles", &mut args.profiles)?;
        str_field(v, "features", &mut args.features)?;
        str_field(v, "restart", &mut args.restart)?;
        args.services = uint(v, "services")?.map(|n| n as usize);
        args.seed = uint(v, "seed")?;
        args.deadline_ms = match uint(v, "deadline_ms")? {
            Some(ms) => Some(args.check_deadline_ms(ms)?),
            None => None,
        };
        flag(v, "dedup", &mut args.dedup)?;
        flag(v, "metrics", &mut args.metrics)?;
        for (key, field) in [
            ("seeds", &mut args.seeds),
            ("plans", &mut args.plans),
            ("plan_seed", &mut args.plan_seed),
            ("corruption", &mut args.corruption),
            ("corruption_seed", &mut args.corruption_seed),
        ] {
            if let Some(n) = uint(v, key)? {
                *field = n;
            }
        }
        if let Some(ms) = uint(v, "restart_sec_ms")? {
            args.restart_sec_ms = check_sim_ms("--restart-sec-ms", ms)?;
        }
        if let Some(n) = uint(v, "burst")? {
            args.burst = check_burst(n)?;
        }
        Ok(args)
    }

    /// A chaos job's `--deadline-ms` is the simulated fallback
    /// deadline, so [`check_sim_ms`] bounds it; a sweep's is a
    /// wall-clock job deadline and is taken as given.
    fn check_deadline_ms(&self, ms: u64) -> Result<u64, String> {
        match self.kind {
            JobKind::Chaos => check_sim_ms("--deadline-ms", ms),
            _ => Ok(ms),
        }
    }

    /// Expands the job into its grid — the same grid `bbsim sweep` and
    /// `bbsim chaos` have always built: one cell per profile,
    /// `conventional` vs the boosted config, `{profile}-s{services}`
    /// labels. A sweep job boosts its `--features` and may set the
    /// wall-clock job deadline, dedup, and metrics; a chaos job
    /// boosts the full feature set and adds the fault-plan, corruption,
    /// supervision, and fallback axes (its `--deadline-ms` is the
    /// fallback deadline). The job count is checked before anything is
    /// built, so a grid too large to count is an error, not an
    /// allocation failure.
    pub fn sweep_spec(&self) -> Result<SweepSpec, String> {
        let services = check_services(self.services.unwrap_or(136))?;
        let mut spec = SweepSpec::new();
        // The boosted config, and for chaos the supervision overlay and
        // the fallback supervisor.
        let (boosted_label, boosted, chaos_axes) = match self.kind {
            JobKind::Chaos => {
                let policy = self
                    .deadline_ms
                    .map_or_else(FallbackPolicy::default, FallbackPolicy::with_deadline_ms);
                let axes = (self.supervision()?, policy);
                ("bb".to_string(), BbConfig::full(), Some(axes))
            }
            _ => {
                spec = spec.with_metrics(self.metrics).with_dedup(self.dedup);
                if let Some(ms) = self.deadline_ms {
                    spec = spec.deadline(Duration::from_millis(ms));
                }
                let boosted = BbConfig::from_feature_list(&self.features)?;
                let label = if self.features == "all" || self.features == "full" {
                    "bb".to_string()
                } else {
                    self.features.clone()
                };
                (label, boosted, None)
            }
        };
        let profiles = resolve_profiles(&self.profiles)?;
        self.job_count(profiles.len())?;
        let seed_base = self.seed.unwrap_or(0);
        for profile in profiles {
            let label = format!("{}-s{}", profile.name, services);
            let mut cell = CellSpec::tizen(
                label,
                profile,
                TizenParams {
                    services,
                    ..TizenParams::default()
                },
            )
            .seeds(seed_base..seed_base + self.seeds)
            .config("conventional", BbConfig::conventional())
            .config(boosted_label.clone(), boosted);
            if let Some((supervision, policy)) = chaos_axes {
                cell = cell
                    .fault_plans(self.plans, self.plan_seed)
                    .corruption_plans(self.corruption, self.corruption_seed)
                    .supervision(supervision)
                    .fallback(policy);
            }
            spec = spec.cell(cell);
        }
        Ok(spec)
    }

    /// The `--restart` policy as a supervision overlay (`None` for
    /// `no`).
    fn supervision(&self) -> Result<Option<Supervision>, String> {
        let restart = match self.restart.as_str() {
            "no" | "none" => return Ok(None),
            "on-failure" => RestartPolicy::OnFailure,
            "always" => RestartPolicy::Always,
            other => {
                return Err(format!(
                    "unknown --restart policy {other:?} (no|on-failure|always)"
                ))
            }
        };
        Ok(Some(Supervision {
            restart,
            restart_sec_ms: self.restart_sec_ms,
            start_limit_burst: self.burst,
        }))
    }

    /// Jobs the grid expands to, computed without building it: what the
    /// server weighs against its queue capacity before expanding a
    /// submitted job.
    pub(crate) fn jobs(&self) -> Result<usize, String> {
        self.job_count(resolve_profiles(&self.profiles)?.len())
    }

    /// `cells` × seeds (× fault plans × corruption slots for chaos),
    /// with checked arithmetic.
    fn job_count(&self, cells: usize) -> Result<usize, String> {
        let axes = match self.kind {
            JobKind::Chaos => [self.plans, self.corruption]
                .iter()
                .try_fold(1u64, |n, &extra| n.checked_mul(extra.checked_add(1)?)),
            _ => Some(1),
        };
        axes.and_then(|n| n.checked_mul(self.seeds))
            .and_then(|n| usize::try_from(n).ok()?.checked_mul(cells))
            .ok_or_else(|| "grid too large: its job count overflows".to_string())
    }

    /// The submittable [`WorkItem`] this job expands to.
    pub fn to_work_item(&self) -> Result<WorkItem, String> {
        let spec = self.sweep_spec()?;
        Ok(match self.kind {
            JobKind::Sweep => WorkItem::Sweep(spec),
            JobKind::Chaos => WorkItem::Chaos(spec),
        })
    }
}

/// The fewest services a generated TV scenario has: its backbone alone
/// needs 24.
const MIN_SERVICES: usize = 24;

/// The most services a generated TV scenario may have: five times the
/// 4,000 the graph bench plans. A one-seed sweep at 20,000 services
/// (two boots) takes about a second and peaks at ~133 MiB on one core
/// of a 2-vCPU x86-64 VM. An unbounded count sizes the scenario's
/// tables, and a failed allocation aborts the process, a serving one
/// included.
const MAX_SERVICES: usize = 20_000;

/// Checks a `--services` count (a CLI flag or a wire job's field)
/// before anything is sized by it.
pub fn check_services(services: usize) -> Result<usize, String> {
    if !(MIN_SERVICES..=MAX_SERVICES).contains(&services) {
        return Err(format!(
            "--services {services} is out of range: a generated TV scenario has \
             {MIN_SERVICES} (its backbone) to {MAX_SERVICES} services"
        ));
    }
    Ok(services)
}

/// Checks a chaos job's `--burst` (a CLI flag or a wire job's field)
/// against [`MAX_START_LIMIT_BURST`], the cap a unit file's
/// `StartLimitBurst=` has too.
fn check_burst(burst: u64) -> Result<u32, String> {
    match u32::try_from(burst) {
        Ok(burst) if burst <= MAX_START_LIMIT_BURST => Ok(burst),
        _ => Err(format!(
            "--burst {burst} is out of range: at most {MAX_START_LIMIT_BURST} respawns a service may get"
        )),
    }
}

/// Checks a chaos job's simulated span `flag` (`--restart-sec-ms` or
/// `--deadline-ms`, a CLI flag or a wire job's field) against
/// [`MAX_SPAN_MS`], the cap a unit file's time knobs have too.
fn check_sim_ms(flag: &str, ms: u64) -> Result<u64, String> {
    if ms > MAX_SPAN_MS {
        return Err(format!(
            "{flag} {ms} is out of range: at most {MAX_SPAN_MS} ms, one hour of simulated time"
        ));
    }
    Ok(ms)
}

/// Resolves a `--profiles` spec (`all` or a comma list, any
/// dash/underscore/case spelling) to machine profiles.
pub fn resolve_profiles(spec: &str) -> Result<Vec<MachineProfile>, String> {
    if spec == "all" {
        return Ok(profiles::all_profiles());
    }
    fn fold(name: &str) -> String {
        name.chars()
            .filter(char::is_ascii_alphanumeric)
            .map(|c| c.to_ascii_lowercase())
            .collect()
    }
    let all = profiles::all_profiles();
    spec.split(',')
        .map(|name| {
            all.iter()
                .find(|p| fold(p.name) == fold(name.trim()))
                .cloned()
                .ok_or_else(|| {
                    let known: Vec<&str> = all.iter().map(|p| p.name).collect();
                    format!("unknown profile {name:?} (try: {} or all)", known.join(","))
                })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Request envelope
// ---------------------------------------------------------------------

/// One decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a job; the response carries the ticket id.
    Submit {
        /// Echoed request id.
        id: u64,
        /// The job to run (boxed: a full job dwarfs the other
        /// variants).
        job: Box<SweepArgs>,
    },
    /// Non-blocking ticket progress.
    Poll {
        /// Echoed request id.
        id: u64,
        /// Which ticket.
        ticket: TicketId,
    },
    /// Block until the ticket's report is ready, then stream it back.
    Wait {
        /// Echoed request id.
        id: u64,
        /// Which ticket.
        ticket: TicketId,
    },
    /// Cancel a queued/running ticket.
    Cancel {
        /// Echoed request id.
        id: u64,
        /// Which ticket.
        ticket: TicketId,
    },
    /// Service-wide counters as a `bb-serve-stats-v1` document.
    Stats {
        /// Echoed request id.
        id: u64,
    },
    /// Stop accepting connections and exit once drained.
    Shutdown {
        /// Echoed request id.
        id: u64,
    },
}

impl Request {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Submit { id, .. }
            | Request::Poll { id, .. }
            | Request::Wait { id, .. }
            | Request::Cancel { id, .. }
            | Request::Stats { id }
            | Request::Shutdown { id } => *id,
        }
    }
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).map_err(|e| format!("bad request JSON: {e}"))?;
    let id = match v.get("id") {
        None => 0,
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => *n as u64,
        Some(_) => return Err("request \"id\" must be a non-negative integer".into()),
    };
    let method = v
        .get("method")
        .and_then(Json::as_str)
        .ok_or("request is missing \"method\"")?;
    let ticket = || -> Result<TicketId, String> {
        match v.get("ticket") {
            Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as TicketId),
            _ => Err(format!("method {method:?} needs an integer \"ticket\"")),
        }
    };
    match method {
        "submit" => {
            let job = v.get("job").ok_or("submit needs a \"job\" object")?;
            Ok(Request::Submit {
                id,
                job: Box::new(SweepArgs::from_wire(job)?),
            })
        }
        "poll" => Ok(Request::Poll {
            id,
            ticket: ticket()?,
        }),
        "wait" => Ok(Request::Wait {
            id,
            ticket: ticket()?,
        }),
        "cancel" => Ok(Request::Cancel {
            id,
            ticket: ticket()?,
        }),
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(format!(
            "unknown method {other:?} (submit|poll|wait|cancel|stats|shutdown)"
        )),
    }
}

// ---------------------------------------------------------------------
// Response envelope
// ---------------------------------------------------------------------

/// Renders a success response line: `fields` is the pre-rendered
/// contents of the `"result"` object (no braces).
pub fn render_ok(id: u64, fields: &str) -> String {
    format!(
        "{{\"schema\": \"{}\", \"id\": {id}, \"ok\": true, \"result\": {{{fields}}}}}",
        json::SCHEMA_SERVE
    )
}

/// Renders an error response line.
pub fn render_err(id: u64, msg: &str) -> String {
    format!(
        "{{\"schema\": \"{}\", \"id\": {id}, \"ok\": false, \"error\": \"{}\"}}",
        json::SCHEMA_SERVE,
        json::escape(msg)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_round_trip_through_the_wire() {
        let mut job = SweepArgs::new(JobKind::Chaos);
        job.profiles = "all".into();
        job.services = Some(48);
        job.seed = Some(7);
        job.corruption = 2;
        job.restart = "always".into();
        let line = job.to_wire_json();
        let back = SweepArgs::from_wire(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, job);
        // And a default job survives too.
        let dflt = SweepArgs::new(JobKind::Sweep);
        let back = SweepArgs::from_wire(&json::parse(&dflt.to_wire_json()).unwrap()).unwrap();
        assert_eq!(back, dflt);
    }

    #[test]
    fn wire_defaults_match_the_cli_defaults() {
        // An older client's `"fork"`, `"scenario"` and `"cores"` keys
        // are ignored: its job runs the plain sweep.
        for line in [
            r#"{"kind": "sweep"}"#,
            r#"{"kind": "sweep", "fork": true}"#,
            r#"{"kind": "sweep", "scenario": "tv", "cores": null}"#,
        ] {
            let job = SweepArgs::from_wire(&json::parse(line).unwrap()).unwrap();
            assert_eq!(job, SweepArgs::new(JobKind::Sweep), "{line}");
        }
        assert_eq!(SweepArgs::new(JobKind::Sweep).seeds, 20);
        assert_eq!(SweepArgs::new(JobKind::Chaos).seeds, 10);
    }

    #[test]
    fn jobs_refuse_keys_and_values_the_decoder_does_not_read() {
        for (line, error) in [
            (
                r#"{"kind": "sweep", "dedupe": false}"#,
                r#"unknown job field "dedupe""#,
            ),
            (
                r#"{"kind": "sweep", "seed_count": 4}"#,
                r#"unknown job field "seed_count""#,
            ),
            (
                r#"{"kind": "sweep", "features": ["rcu-booster"]}"#,
                r#"job field "features" must be a string"#,
            ),
            (
                r#"{"kind": "chaos", "restart": null}"#,
                r#"job field "restart" must be a string"#,
            ),
            (
                r#"{"kind": "suspend"}"#,
                r#"unknown job kind "suspend" (sweep|chaos)"#,
            ),
        ] {
            let got = SweepArgs::from_wire(&json::parse(line).unwrap());
            assert_eq!(got, Err(error.to_owned()), "{line}");
        }
    }

    #[test]
    fn flags_are_gated_by_kind() {
        let mut sweep = SweepArgs::new(JobKind::Sweep);
        let feed = |vals: &[&str]| {
            let mut it: Vec<String> = vals.iter().map(|s| s.to_string()).collect();
            it.reverse();
            move || it.pop()
        };
        assert_eq!(sweep.parse_flag("--no-dedup", &mut feed(&[])), Ok(true));
        assert!(!sweep.dedup);
        // A chaos-only flag is not consumed by a sweep job...
        assert_eq!(sweep.parse_flag("--plans", &mut feed(&["3"])), Ok(false));
        // ...but is by a chaos job.
        let mut chaos = SweepArgs::new(JobKind::Chaos);
        assert_eq!(chaos.parse_flag("--plans", &mut feed(&["3"])), Ok(true));
        assert_eq!(chaos.plans, 3);
        // Bad values and missing values are errors, not silent skips.
        assert!(chaos.parse_flag("--seeds", &mut feed(&["many"])).is_err());
        assert!(chaos.parse_flag("--seeds", &mut feed(&[])).is_err());
        assert!(sweep
            .parse_flag("--deadline-ms", &mut feed(&["soon"]))
            .is_err());
    }

    #[test]
    fn counts_are_checked_where_they_enter() {
        let feed = |v: &'static str| move || Some(v.to_string());
        let mut sweep = SweepArgs::new(JobKind::Sweep);
        assert_eq!(sweep.parse_flag("--services", &mut feed("20000")), Ok(true));
        assert_eq!(sweep.services, Some(20_000));
        for bad in ["23", "20001", "100000000000"] {
            let err = sweep.parse_flag("--services", &mut feed(bad)).unwrap_err();
            assert!(err.contains("out of range"), "{err}");
        }
        // A wire job's count meets the same check when its grid is built.
        sweep.services = Some(100_000_000_000);
        assert!(sweep.sweep_spec().unwrap_err().contains("out of range"));
    }

    #[test]
    fn sweep_spec_builds_the_cli_grid() {
        let mut job = SweepArgs::new(JobKind::Sweep);
        job.services = Some(24);
        job.seeds = 3;
        job.seed = Some(5);
        let spec = job.sweep_spec().unwrap();
        assert_eq!(spec.cells.len(), 1);
        assert_eq!(spec.cells[0].label, "UE48H6200-s24");
        assert_eq!(spec.cells[0].configs.len(), 2);
        assert_eq!(spec.cells[0].configs[0].0, "conventional");
        assert_eq!(spec.cells[0].configs[1].0, "bb");
        assert_eq!(spec.total_boots(), 6);
        // Feature subsets rename the boosted config after the list.
        job.features = "preparser".into();
        let spec = job.sweep_spec().unwrap();
        assert_eq!(spec.cells[0].configs[1].0, "preparser");
        // Validation failures are errors, not exits.
        job.services = Some(8);
        assert!(job.sweep_spec().is_err());
        job.services = Some(24);
        job.features = "warp-drive".into();
        assert!(job.sweep_spec().is_err());
    }

    #[test]
    fn chaos_jobs_build_supervised_cells() {
        let mut job = SweepArgs::new(JobKind::Chaos);
        job.services = Some(24);
        job.seeds = 2;
        let spec = job.sweep_spec().unwrap();
        assert_eq!(spec.cells.len(), 1);
        // 2 seeds x (4 plans + control) x (0 corruption + pristine) x 2 configs.
        assert_eq!(spec.total_boots(), 2 * 5 * 2);
        assert_eq!(job.jobs(), Ok(2 * 5));
        let cell = &spec.cells[0];
        assert_eq!(cell.configs[1].0, "bb");
        assert_eq!(cell.plan_seeds[1], Some(1000));
        assert!(cell.supervision.is_some());
        assert_eq!(
            cell.fallback.map(|p| p.deadline),
            Some(FallbackPolicy::default().deadline)
        );
        // Chaos ignores the sweep-only knobs, and --deadline-ms is the
        // fallback deadline, not a wall-clock job deadline.
        job.features = "warp-drive".into();
        job.deadline_ms = Some(4000);
        job.restart = "no".into();
        let spec = job.sweep_spec().unwrap();
        assert_eq!(spec.deadline, None);
        assert!(spec.cells[0].supervision.is_none());
        assert_eq!(
            spec.cells[0].fallback.map(|p| p.deadline),
            Some(FallbackPolicy::with_deadline_ms(4000).deadline)
        );
        job.restart = "sometimes".into();
        assert!(job.sweep_spec().is_err());
    }

    #[test]
    fn oversized_grids_are_counted_not_built() {
        let mut job = SweepArgs::new(JobKind::Sweep);
        job.services = Some(24);
        job.seeds = 1_000_000_000_000_000;
        assert_eq!(job.jobs(), Ok(1_000_000_000_000_000));
        job.profiles = "all".into();
        job.seeds = u64::MAX;
        assert!(job.jobs().is_err(), "profiles x seeds overflows");
        assert!(job.sweep_spec().is_err(), "refused before allocating");
        let mut chaos = SweepArgs::new(JobKind::Chaos);
        chaos.plans = u64::MAX;
        assert!(chaos.jobs().is_err(), "the control plan overflows");
    }

    #[test]
    fn supervision_knobs_are_capped_where_they_enter() {
        let job = |field: &str, value: u64| {
            let line = format!(r#"{{"kind": "chaos", "{field}": {value}}}"#);
            SweepArgs::from_wire(&json::parse(&line).unwrap())
        };
        // Every allowed respawn is a watcher process per service and
        // boot, so the cap applies before the value is narrowed or used:
        // 2^32 + 3 must not wrap to 3 either.
        assert_eq!(job("burst", 100).unwrap().burst, 100);
        for burst in [101, u64::from(u32::MAX), 4_294_967_299] {
            let err = job("burst", burst).expect_err("burst over the cap");
            assert!(
                err.starts_with(&format!("--burst {burst} is out of range")),
                "{err}"
            );
        }
        // Simulated spans stop at one hour, short of overflowing the
        // nanosecond clock.
        for field in ["restart_sec_ms", "deadline_ms"] {
            assert!(job(field, 3_600_000).is_ok(), "{field}");
            let err = job(field, 3_600_001).expect_err("span over the cap");
            assert!(err.contains("is out of range"), "{field}: {err}");
        }
        // A sweep's deadline is wall-clock time and stays unbounded.
        let line = r#"{"kind": "sweep", "deadline_ms": 18446744073709551615}"#;
        assert!(SweepArgs::from_wire(&json::parse(line).unwrap()).is_ok());
        // The CLI takes the same checks.
        let mut cli = SweepArgs::new(JobKind::Chaos);
        let mut refuse = |flag: &str, value: &str| {
            let mut next = Some(value.to_string());
            cli.parse_flag(flag, &mut || next.take())
                .expect_err("over the cap")
        };
        assert!(refuse("--burst", "101").contains("out of range"));
        assert!(refuse("--restart-sec-ms", "3600001").contains("out of range"));
        assert!(refuse("--deadline-ms", "18446744073709551615").contains("out of range"));
    }

    #[test]
    fn requests_parse_and_responses_render() {
        let req =
            parse_request(r#"{"id": 3, "method": "submit", "job": {"kind": "sweep", "seeds": 2}}"#)
                .unwrap();
        match &req {
            Request::Submit { id, job } => {
                assert_eq!(*id, 3);
                assert_eq!(job.seeds, 2);
            }
            other => panic!("expected submit, got {other:?}"),
        }
        assert_eq!(req.id(), 3);
        let req = parse_request(r#"{"id": 9, "method": "wait", "ticket": 4}"#).unwrap();
        assert_eq!(req, Request::Wait { id: 9, ticket: 4 });
        assert!(parse_request(r#"{"id": 1, "method": "wait"}"#).is_err());
        assert!(parse_request(r#"{"id": 1, "method": "launch"}"#).is_err());
        assert!(parse_request("not json").is_err());

        let ok = render_ok(7, "\"ticket\": 12");
        let v = json::parse(&ok).unwrap();
        assert_eq!(v.get("schema").and_then(Json::as_str), Some("bb-serve-v1"));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            v.get("result")
                .and_then(|r| r.get("ticket"))
                .and_then(Json::as_f64),
            Some(12.0)
        );
        let err = render_err(7, "queue \"full\"");
        let v = json::parse(&err).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            v.get("error").and_then(Json::as_str),
            Some("queue \"full\"")
        );
    }
}
