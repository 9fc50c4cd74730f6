//! Property tests for the storage substrate.
//!
//! Runs are CI-deterministic: the case count is pinned here and the RNG seed
//! derives from the test name (override with `PROPTEST_SEED=<u64>` to replay
//! or explore a different stream).

use proptest::prelude::*;
use reach_storage::{read_record, BlockDevice, FileDevice, Pager, RecordWriter, SimDevice};

/// Writes `records` through a fresh `RecordWriter` on `disk`, returning the
/// record pointers.
fn write_records(disk: &mut dyn BlockDevice, records: &[Vec<u8>]) -> Vec<reach_storage::RecordPtr> {
    let mut w = RecordWriter::new(disk).unwrap();
    let ptrs = records
        .iter()
        .map(|payload| w.append(disk, payload).unwrap())
        .collect();
    w.finish(disk).unwrap();
    disk.reset_stats();
    ptrs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any sequence of variable-length records written through the layout
    /// writer is recoverable byte-for-byte through the pager, regardless of
    /// page size or cache size, and each record starts exactly where the
    /// previous one ended: no byte of any page is padding.
    #[test]
    fn record_layout_roundtrips(
        page_size in prop::sample::select(vec![64usize, 128, 256, 4096]),
        cache in 0usize..16,
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..600), 1..40),
    ) {
        let mut disk = SimDevice::new(page_size);
        let ptrs = write_records(&mut disk, &records);
        let at = |p: &reach_storage::RecordPtr| {
            (p.page - ptrs[0].page) as usize * page_size + p.offset as usize
        };
        for (pair, payload) in ptrs.windows(2).zip(&records) {
            prop_assert_eq!(at(&pair[1]), at(&pair[0]) + 4 + payload.len());
        }
        let mut pager = Pager::new(Box::new(disk), cache);
        for (ptr, payload) in ptrs.iter().zip(&records) {
            prop_assert_eq!(&read_record(&mut pager, *ptr).unwrap(), payload);
        }
        // Read IO must be bounded by the number of pages touched per record.
        let stats = pager.stats();
        prop_assert!(stats.total_reads() + stats.cache_hits >= records.len() as u64);
    }

    /// A pager's own cache behaves exactly like a brute-force recency
    /// list: a read hits iff the model holds the page (and touches it) or
    /// misses, reads the device and inserts it (evicting the LRU page when
    /// full), and residency always equals the model's set.
    #[test]
    fn lru_matches_reference_model(
        capacity in 1usize..8,
        reads in prop::collection::vec(0u64..12, 1..200),
    ) {
        let mut disk = SimDevice::new(64);
        disk.allocate(12).unwrap();
        let mut pager = Pager::new(Box::new(disk), capacity);
        let mut model: Vec<u64> = Vec::new(); // front = MRU
        for &page in &reads {
            let before = pager.stats();
            pager.read(page).unwrap();
            let hit = pager.stats().cache_hits > before.cache_hits;
            let model_hit = match model.iter().position(|&p| p == page) {
                Some(pos) => {
                    model.remove(pos);
                    true
                }
                None => {
                    model.truncate(capacity - 1);
                    false
                }
            };
            model.insert(0, page);
            prop_assert_eq!(hit, model_hit, "hit mismatch for page {}", page);
            prop_assert_eq!(
                pager.stats().total_reads() - before.total_reads(),
                u64::from(!hit)
            );
            for p in 0..12 {
                prop_assert_eq!(pager.is_cached(p), model.contains(&p), "residency of page {}", p);
            }
        }
    }

    /// Sequential/random classification: reading pages `0..n` in order costs
    /// exactly 1 random + (n-1) sequential; reading them strided is all
    /// random. Writes follow the same rule with their own head.
    #[test]
    fn io_classification_extremes(n in 2usize..50) {
        let mut d = SimDevice::new(64);
        d.allocate(2 * n).unwrap();
        let mut buf = vec![0u8; 64];
        for i in 0..n as u64 {
            d.read_page_into(i, &mut buf).unwrap();
        }
        prop_assert_eq!(d.stats().random_reads, 1);
        prop_assert_eq!(d.stats().seq_reads, (n - 1) as u64);

        d.reset_stats();
        for i in 0..n as u64 {
            d.read_page_into(i * 2, &mut buf).unwrap();
        }
        prop_assert_eq!(d.stats().random_reads, n as u64);
        prop_assert_eq!(d.stats().seq_reads, 0);

        d.reset_stats();
        for i in 0..n as u64 {
            d.write_page(i, b"w").unwrap();
        }
        prop_assert_eq!(d.stats().random_writes, 1);
        prop_assert_eq!(d.stats().seq_writes, (n - 1) as u64);
    }

    /// Backend equivalence at the substrate level: the same record workload
    /// written to a `SimDevice` and a `FileDevice` produces byte-identical
    /// pages, identical IO counters, and identical reads back — including
    /// after dropping and reopening the file.
    #[test]
    fn file_device_matches_sim_byte_for_byte(
        page_size in prop::sample::select(vec![64usize, 128, 256]),
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..20),
        case_tag in 0u64..u64::MAX,
    ) {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "streach-props-{}-{case_tag:x}.pages",
            std::process::id()
        ));

        let mut sim = SimDevice::new(page_size);
        let sim_ptrs = write_records(&mut sim, &records);
        let mut file = FileDevice::create(&path, page_size).unwrap();
        let file_ptrs = write_records(&mut file, &records);
        prop_assert_eq!(&sim_ptrs, &file_ptrs);
        prop_assert_eq!(sim.len_pages(), file.len_pages());
        file.sync().unwrap();
        drop(file);

        // Byte-identical pages after reopen.
        let mut reopened = FileDevice::open(&path, page_size).unwrap();
        let mut sim_buf = vec![0u8; page_size];
        let mut file_buf = vec![0u8; page_size];
        for p in 0..sim.len_pages() {
            sim.read_page_into(p, &mut sim_buf).unwrap();
            reopened.read_page_into(p, &mut file_buf).unwrap();
            prop_assert_eq!(&sim_buf, &file_buf, "page {} differs", p);
        }
        sim.reset_stats();
        reopened.reset_stats();

        // Identical record reads with identical accounting.
        let mut sim_pager = Pager::new(Box::new(sim), 8);
        let mut file_pager = Pager::new(Box::new(reopened), 8);
        for (ptr, payload) in sim_ptrs.iter().zip(&records) {
            prop_assert_eq!(&read_record(&mut sim_pager, *ptr).unwrap(), payload);
            prop_assert_eq!(&read_record(&mut file_pager, *ptr).unwrap(), payload);
        }
        prop_assert_eq!(sim_pager.stats(), file_pager.stats());
        let _ = std::fs::remove_file(&path);
    }
}
