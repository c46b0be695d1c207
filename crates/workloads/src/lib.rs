//! # bb-workloads — machine profiles, workload generators, scenarios
//!
//! Everything the experiments run on: machine profiles of the devices
//! the paper discusses ([`profiles`]), the deterministic synthetic
//! Tizen TV service graph mirroring Figure 2 ([`tizen`]), and fully
//! assembled boot scenarios ([`scenario`]) — most importantly
//! [`scenario::tv_scenario`], the UE48H6200-with-commercial-Tizen
//! configuration behind the paper's headline Figure 6 numbers.

pub mod custom;
pub mod profiles;
pub mod scenario;
pub mod tizen;

pub use custom::custom_scenario;
pub use profiles::MachineProfile;
pub use scenario::{
    camera_scenario, tv_kernel_plan, tv_scenario, tv_scenario_open_source, tv_scenario_with,
};
pub use tizen::{tizen_tv, TizenParams, TizenWorkload};
