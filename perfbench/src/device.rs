//! A timing [`BlockDevice`] wrapper for the traced run.
//!
//! The cold workloads create their index device themselves, so the traced
//! run slips this wrapper between the index and its simulator device: every
//! page read becomes a `storage/read` span on the tracer of the query being
//! answered, and every page write during a build is counted. Untraced runs
//! never construct it.

use reach_core::IndexError;
use reach_obs::Tracer;
use reach_storage::{BlockDevice, IoStats, PageCache, PageId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What the wrapper observed, shared with the benchmark.
#[derive(Debug, Default)]
pub struct Probe {
    tracer: Mutex<Tracer>,
    /// Pages written through the wrapper since construction.
    pub pages_written: AtomicU64,
}

impl Probe {
    /// Routes subsequent read spans to `tracer` (pass [`Tracer::off`] to
    /// stop recording).
    pub fn attach(&self, tracer: Tracer) {
        *self.tracer.lock().expect("probe lock poisoned") = tracer;
    }

    fn span(&self) -> reach_obs::Span {
        self.tracer
            .lock()
            .expect("probe lock poisoned")
            .span("storage/read")
    }
}

/// Forwards to an inner device, recording reads and writes on a [`Probe`].
#[derive(Debug)]
pub struct TimedDevice {
    inner: Box<dyn BlockDevice>,
    probe: Arc<Probe>,
}

impl TimedDevice {
    /// Wraps `inner`, reporting to `probe`.
    pub fn new(inner: Box<dyn BlockDevice>, probe: Arc<Probe>) -> Self {
        Self { inner, probe }
    }
}

impl BlockDevice for TimedDevice {
    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn len_pages(&self) -> u64 {
        self.inner.len_pages()
    }

    fn allocate(&mut self, n: usize) -> Result<PageId, IndexError> {
        self.inner.allocate(n)
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<(), IndexError> {
        self.probe.pages_written.fetch_add(1, Ordering::Relaxed);
        self.inner.write_page(id, data)
    }

    fn read_page_into(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), IndexError> {
        let _span = self.probe.span();
        self.inner.read_page_into(id, buf)
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn break_sequence(&mut self) {
        self.inner.break_sequence()
    }

    fn note_cache_hit(&mut self) {
        self.inner.note_cache_hit()
    }

    fn note_prefetched(&mut self) {
        self.inner.note_prefetched()
    }

    fn note_prefetch_hit(&mut self) {
        self.inner.note_prefetch_hit()
    }

    fn shared_cache(&self) -> Option<Arc<PageCache>> {
        self.inner.shared_cache()
    }

    fn sync(&mut self) -> Result<(), IndexError> {
        self.inner.sync()
    }

    fn size_bytes(&self) -> u64 {
        self.inner.size_bytes()
    }
}
