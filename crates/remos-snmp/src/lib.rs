//! # remos-snmp — an SNMP-like management substrate
//!
//! The Remos Collector in the paper "uses SNMP [RFC 1905] to extract both
//! static topology and dynamic bandwidth information from the routers"
//! (§5). This crate provides that substrate against the simulated network:
//!
//! * [`oid::Oid`] — object identifiers with the standard total order;
//! * [`value::Value`] — SMI value types (Counter32, Gauge32, OctetString…);
//! * [`mib`] — a MIB tree plus builders for the `system`, `interfaces`
//!   (ifTable) and neighbor (LLDP-style) groups;
//! * [`pdu`] / [`codec`] — GET / GETNEXT / GETBULK / RESPONSE protocol data
//!   units and a compact binary TLV encoding over `Vec<u8>`;
//! * [`agent`] — request handling over a MIB view, with community-string
//!   authentication; [`sim`] materializes agents from a shared
//!   [`remos_net::Simulator`] (interface speeds and wrapped Counter32
//!   octet counters straight from the fluid model);
//! * [`manager`] — client-side get/walk/bulk-walk helpers with exponential
//!   backoff, seeded jitter, and a per-request deadline budget;
//! * [`transport`] — a simulated UDP transport that routes encoded
//!   messages to agents, with drop injection and byte accounting;
//! * [`fault`] — scriptable per-agent fault plans (crash/restart with
//!   counter and `sysUpTime` resets, freezes, flaky loss windows) applied
//!   by the transport and the simulated agents.
//!
//! The protocol surface is deliberately a *subset* of SNMPv2c with a
//! non-BER wire encoding: the Remos collector only needs table walks and
//! counter polls, and the substitution is documented in DESIGN.md.

pub mod agent;
pub mod codec;
pub mod error;
pub mod fault;
pub mod manager;
pub mod mib;
pub mod oid;
pub mod pdu;
pub mod sim;
pub mod transport;
pub mod value;

pub use agent::Agent;
pub use error::{SnmpError, SnmpResult};
pub use fault::{Fault, FaultDirector, FaultPlan};
pub use manager::{Manager, RetryObserver, RetryPolicy};
pub use mib::Mib;
pub use oid::Oid;
pub use pdu::{ErrorStatus, Pdu, PduType, VarBind};
pub use transport::{SimTransport, Transport, TransportStats};
pub use value::Value;
