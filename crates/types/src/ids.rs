//! Identifiers for hosts, processes, network nodes and links.

/// Identifies a physical server in the data center.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl std::fmt::Debug for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Identifies an application process. Processes are the endpoints of 1Pipe:
/// every send and delivery happens between a pair of processes.
///
/// The flat `u32` is globally unique; the host a process runs on is tracked
/// by the process registry (simulator or controller).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

impl std::fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Sentinel process id of hop-by-hop packets, which have no process-level
/// source or destination: both ends of a beacon, the destination of a
/// Commit message (it dies at the first-hop switch).
pub const HOP_LOCAL: ProcessId = ProcessId(u32::MAX);

/// A node in the routing graph: a host NIC or a (logical) switch.
///
/// Following the paper's Figure 3, each physical switch is split into an
/// *uplink* and a *downlink* logical switch so that the routing graph is a
/// DAG; the simulator allocates distinct `NodeId`s for the two halves.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed link in the routing graph, identified by its endpoints.
///
/// Links are the unit of the FIFO property and of barrier bookkeeping: each
/// switch keeps one barrier register per *input* link (paper §4.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
}

impl LinkId {
    /// Construct a directed link id.
    pub fn new(from: NodeId, to: NodeId) -> Self {
        LinkId { from, to }
    }

    /// The reverse direction of this link.
    pub fn reversed(self) -> Self {
        LinkId { from: self.to, to: self.from }
    }
}

impl std::fmt::Debug for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}->{:?}", self.from, self.to)
    }
}

/// Identifies one scattering (a group of messages sharing one position in
/// the total order) within a sender: `(sender, seq)` is globally unique.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ScatteringId {
    /// The process that issued the scattering.
    pub sender: ProcessId,
    /// Sender-local sequence number of the scattering.
    pub seq: u64,
}

impl std::fmt::Debug for ScatteringId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sc({:?},{})", self.sender, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_reversal() {
        let l = LinkId::new(NodeId(1), NodeId(2));
        assert_eq!(l.reversed(), LinkId::new(NodeId(2), NodeId(1)));
        assert_eq!(l.reversed().reversed(), l);
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", HostId(3)), "h3");
        assert_eq!(format!("{:?}", ProcessId(7)), "p7");
        assert_eq!(format!("{:?}", LinkId::new(NodeId(1), NodeId(2))), "n1->n2");
    }

    #[test]
    fn scattering_id_ordering_is_by_sender_then_seq() {
        let a = ScatteringId { sender: ProcessId(1), seq: 9 };
        let b = ScatteringId { sender: ProcessId(2), seq: 0 };
        assert!(a < b);
    }
}
