//! # bb-serve — persistent boot-simulation service
//!
//! `bbsim serve` keeps one [`bb_fleet::FleetService`] — long-lived
//! workers and a shared [`bb_fleet::FleetCache`] of deduplicated boots
//! and compiled plans — alive behind a socket, so sweeps submitted
//! over time and from many clients reuse each other's work instead of
//! re-simulating it.
//!
//! * [`wire`] — the `bb-serve-v1` NDJSON protocol: [`SweepArgs`] (the
//!   one job description shared by the `bbsim` CLI flags, the wire
//!   format, and the grid builders), request parsing, and response
//!   rendering.
//! * [`server`] — [`Server`]: binds a Unix or TCP socket
//!   ([`BindAddr`]), runs a thread per connection, and maps each
//!   connection to a fleet [`bb_fleet::ClientId`] so quotas and
//!   round-robin fairness apply per client.
//! * [`client`] — [`Client`]: submit/poll/wait/cancel/stats/shutdown
//!   calls, decoding result documents back into strings that are
//!   byte-identical to the in-process `bbsim sweep --json` output.
//!
//! Determinism survives the network hop: report JSON depends only on
//! the job's grid, never on worker count, cache state, or client
//! interleaving, so a served sweep diffs cleanly against a local one.

pub mod client;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, JobResult};
pub use server::{BindAddr, Server, StopHandle};
pub use wire::{
    check_services, parse_request, render_err, render_ok, resolve_profiles, JobKind, Request,
    SweepArgs,
};
