//! User-visible events (the callback side of the paper's Table 1 API).

use onepipe_controller::CtrlEvent;
use onepipe_types::ids::ProcessId;
use onepipe_types::time::Timestamp;
use onepipe_types::wire::Datagram;

/// Events surfaced to the application by [`Endpoint::poll_event`].
///
/// [`Endpoint::poll_event`]: crate::endpoint::Endpoint::poll_event
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UserEvent {
    /// A best-effort message was lost (NAK or ACK timeout) — the
    /// `onepipe_send_fail_callback` of Table 1. Loss recovery is up to the
    /// application.
    SendFailed {
        /// Timestamp the message was sent with.
        ts: Timestamp,
        /// Scattering sequence number.
        seq: u64,
        /// The destination that did not receive it.
        dst: ProcessId,
    },
    /// A reliable scattering was aborted because a receiver failed before
    /// acknowledging (failure atomicity: no receiver will deliver it).
    Recalled {
        /// Timestamp of the recalled scattering.
        ts: Timestamp,
        /// Scattering sequence number.
        seq: u64,
    },
    /// A reliable scattering is fully acknowledged and committed: every
    /// live receiver will deliver it.
    Committed {
        /// Timestamp of the committed scattering.
        ts: Timestamp,
        /// Scattering sequence number.
        seq: u64,
    },
    /// The controller announced failed processes — the
    /// `onepipe_proc_fail_callback` of Table 1. After the application has
    /// reacted it must call `complete_failure_callback` so the endpoint
    /// can report completion to the controller.
    ProcessFailed {
        /// Announcement id (echo in the completion).
        announce_id: u64,
        /// Failed processes with failure timestamps.
        failures: Vec<(ProcessId, Timestamp)>,
    },
}

/// Requests from the endpoint to the controller (management network).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtrlRequest {
    /// Repeated retransmissions failed; ask the controller to forward the
    /// packet to its destination (§5.2 "Controller Forwarding").
    Forward {
        /// The packet to forward.
        dgram: Datagram,
    },
    /// The failure callback (and all recall work) for `announce_id` is
    /// complete.
    CallbackComplete {
        /// The announcement being acknowledged.
        announce_id: u64,
    },
}

impl CtrlRequest {
    /// What process `from`'s request becomes on the management network:
    /// the event the controller cluster must log, or — for `Forward`,
    /// which is relayed and never logged — the datagram to relay.
    pub fn into_event(self, from: ProcessId) -> Result<CtrlEvent, Datagram> {
        match self {
            CtrlRequest::CallbackComplete { announce_id } => {
                Ok(CtrlEvent::CallbackComplete { announce_id, from })
            }
            CtrlRequest::Forward { dgram } => Err(dgram),
        }
    }
}
