//! Memory request and response types.

use serde::{Deserialize, Serialize};

/// Identifier assigned to a request when it is accepted by a controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RequestId(pub u64);

/// Whether a request reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum RequestKind {
    /// Read `bytes` from `addr`.
    Read,
    /// Write `bytes` to `addr`.
    Write,
}

/// A memory request as issued by a NeuraCore, NeuraMem eviction or the
/// dispatcher's instruction fetch path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryRequest {
    /// Byte address.
    pub addr: u64,
    /// Number of bytes requested.
    pub bytes: usize,
    /// Read or write.
    pub(crate) kind: RequestKind,
    /// The requester's own label, returned untouched in the response.
    tag: u32,
}

impl MemoryRequest {
    /// Creates a read request.
    pub fn read(addr: u64, bytes: usize) -> Self {
        MemoryRequest { addr, bytes, kind: RequestKind::Read, tag: 0 }
    }

    /// Creates a write request.
    pub fn write(addr: u64, bytes: usize) -> Self {
        MemoryRequest { addr, bytes, kind: RequestKind::Write, tag: 0 }
    }

    /// This request labelled with `tag`, an opaque value the controller
    /// carries to the [`MemoryResponse`] (the chip names the issuing
    /// pipeline with it). Requests start with tag 0.
    pub fn with_tag(self, tag: u32) -> Self {
        MemoryRequest { tag, ..self }
    }

    /// The label given by [`Self::with_tag`].
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// Returns `true` for read requests.
    pub fn is_read(&self) -> bool {
        matches!(self.kind, RequestKind::Read)
    }

    /// Whether `other` starts exactly where this request ends (candidates for
    /// coalescing into one DRAM transaction).
    pub fn is_contiguous_with(&self, other: &MemoryRequest) -> bool {
        self.kind == other.kind && self.addr + self.bytes as u64 == other.addr
    }
}

/// Completion record returned by the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryResponse {
    /// Identifier returned by [`MemoryController::submit`](crate::MemoryController::submit).
    pub id: RequestId,
    /// The original request.
    pub request: MemoryRequest,
    /// Cycle at which the request was accepted.
    pub issued_at: u64,
    /// Cycle at which the data became available.
    pub completed_at: u64,
}

impl MemoryResponse {
    /// Total latency in cycles experienced by the request.
    pub fn latency(&self) -> u64 {
        self.completed_at - self.issued_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert!(MemoryRequest::read(0, 8).is_read());
        assert!(!MemoryRequest::write(0, 8).is_read());
    }

    #[test]
    fn the_tag_travels_with_the_request_and_is_not_an_address() {
        let tagged = MemoryRequest::read(0, 64).with_tag(u32::MAX);
        assert_eq!((MemoryRequest::read(0, 64).tag(), tagged.tag()), (0, u32::MAX));
        assert!(tagged.is_contiguous_with(&MemoryRequest::read(64, 8).with_tag(7)));
    }

    #[test]
    fn contiguity_requires_same_kind_and_adjacency() {
        let a = MemoryRequest::read(0, 64);
        let b = MemoryRequest::read(64, 64);
        let c = MemoryRequest::write(128, 64);
        assert!(a.is_contiguous_with(&b));
        assert!(!b.is_contiguous_with(&a));
        assert!(!b.is_contiguous_with(&c));
    }

    #[test]
    fn response_latency() {
        let resp = MemoryResponse {
            id: RequestId(1),
            request: MemoryRequest::read(0, 64),
            issued_at: 10,
            completed_at: 52,
        };
        assert_eq!(resp.latency(), 42);
    }
}
