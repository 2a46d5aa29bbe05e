//! Property tests for the durable storage tier.
//!
//! Two families:
//!
//! * **Round-trip** — random [`WalRecord`] sequences, framed and written
//!   through a real [`DiskBackend`] with aggressive segment rotation, must
//!   read back bit-identically after a cold reopen, for every grouping of
//!   appends into commits.
//! * **Crash surface** — the ISSUE's truncation sweep: chop the final
//!   segment at *every* byte offset and require recovery to yield exactly
//!   the longest record prefix whose frames survived, never an error and
//!   never a record the log did not durably hold. A sibling property flips
//!   a single random byte anywhere in a segment and requires the CRC to
//!   catch it.

use proptest::prelude::*;
use rrs_core::{ColorId, ColorTable};
use rrs_service::storage::frame::{self, Codec, FrameError};
use rrs_service::{
    DiskBackend, DiskConfig, PolicySpec, ShardFaults, ShardStore, StorageBackend, TenantSpec,
    WalRecord,
};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rrs-props-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small segments so even short record sequences rotate several times.
fn tiny_segment_config(root: &Path) -> DiskConfig {
    let mut cfg = DiskConfig::new(root);
    cfg.max_segment_bytes = 192;
    cfg.fsync = false; // no power-loss modeling here; keep the sweep fast
    cfg
}

fn record_strategy() -> impl Strategy<Value = WalRecord> {
    let arrivals = proptest::collection::vec((0u32..3, 1u64..9), 1..=3)
        .prop_map(|rows| rows.into_iter().map(|(c, n)| (ColorId(c), n)).collect::<Vec<_>>());
    prop_oneof![
        Just(WalRecord::Tick),
        (0u64..6, arrivals)
            .prop_map(|(tenant, arrivals)| WalRecord::SubmitBatch { entries: vec![(tenant, arrivals)] }),
        proptest::collection::vec((0u64..6, 0u32..3, 1u64..9), 1..=4).prop_map(|rows| {
            WalRecord::SubmitBatch {
                entries: rows
                    .into_iter()
                    .map(|(t, c, n)| (t, vec![(ColorId(c), n)]))
                    .collect(),
            }
        }),
        (0u64..6).prop_map(|id| WalRecord::AddTenant {
            id,
            spec: TenantSpec::new(
                PolicySpec::DlruEdf,
                ColorTable::from_delay_bounds(&[2, 4]),
                4,
                2,
            ),
        }),
    ]
}

fn open_store(backend: &mut DiskBackend) -> Box<dyn ShardStore> {
    backend.open_shard(0, ShardFaults::none()).unwrap()
}

/// Writes `records` through a fresh store, committing every `commit_every`
/// appends (and once at the end), and returns the directory.
fn write_log(dir: &Path, records: &[WalRecord], commit_every: usize) {
    let mut backend = DiskBackend::new(tiny_segment_config(dir));
    let mut store = open_store(&mut backend);
    for (i, record) in records.iter().enumerate() {
        store.append(record).unwrap();
        if (i + 1) % commit_every == 0 {
            store.commit().unwrap();
        }
    }
    store.commit().unwrap();
}

fn read_log(dir: &Path) -> Vec<WalRecord> {
    let mut backend = DiskBackend::new(tiny_segment_config(dir));
    let store = open_store(&mut backend);
    store.records_from(0)
}

/// Sorted `.seg` paths for shard 0, in offset order.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let shard = dir.join("shard-000");
    let mut offsets: Vec<(u64, PathBuf)> = std::fs::read_dir(&shard)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?.to_owned();
            let off = name.strip_prefix("wal-")?.strip_suffix(".seg")?.parse().ok()?;
            Some((off, p))
        })
        .collect();
    offsets.sort();
    offsets.into_iter().map(|(_, p)| p).collect()
}

/// Copies shard 0's directory into a scratch root.
fn clone_log(src: &Path, dst: &Path) {
    let to = dst.join("shard-000");
    std::fs::create_dir_all(&to).unwrap();
    for entry in std::fs::read_dir(src.join("shard-000")).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Frame layer: any record sequence encodes to a buffer that
    /// `scan_values` walks back verbatim, with no spurious tail error.
    #[test]
    fn frames_round_trip_in_memory(
        records in proptest::collection::vec(record_strategy(), 0..=24),
    ) {
        let mut buf = Vec::new();
        for record in &records {
            frame::encode_value_into(record, Codec::Binary, &mut buf).unwrap();
        }
        let (decoded, valid, err) = frame::scan_values::<WalRecord>(&buf);
        prop_assert_eq!(&decoded, &records);
        prop_assert_eq!(valid, buf.len());
        prop_assert!(err.is_none(), "clean buffer scanned with {err:?}");
    }

    /// Disk layer: whatever the commit grouping, a cold reopen returns the
    /// exact committed sequence (segment rotation included).
    #[test]
    fn segments_round_trip_through_reopen(
        records in proptest::collection::vec(record_strategy(), 1..=32),
        commit_every in 1usize..5,
    ) {
        let dir = temp_dir("roundtrip");
        write_log(&dir, &records, commit_every);
        prop_assert!(!segments(&dir).is_empty());
        prop_assert_eq!(read_log(&dir), records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A single flipped byte anywhere in any segment never survives
    /// recovery: the reopened log is a strict prefix of the original and
    /// the scan charges either the CRC or the torn-tail counter.
    #[test]
    fn any_single_byte_flip_is_detected(
        records in proptest::collection::vec(record_strategy(), 4..=24),
        flip in (0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let dir = temp_dir("bitflip");
        write_log(&dir, &records, 3);
        let segs = segments(&dir);
        let seg = &segs[(flip.0 % segs.len() as u64) as usize];
        let mut bytes = std::fs::read(seg).unwrap();
        prop_assert!(!bytes.is_empty());
        let at = (flip.1 % bytes.len() as u64) as usize;
        bytes[at] ^= 0xA5;
        std::fs::write(seg, &bytes).unwrap();

        let mut backend = DiskBackend::new(tiny_segment_config(&dir));
        let store = open_store(&mut backend);
        let recovered = store.records_from(0);
        prop_assert!(
            recovered.len() < records.len(),
            "a corrupted byte must cost at least its own record ({} vs {})",
            recovered.len(),
            records.len()
        );
        prop_assert_eq!(&recovered[..], &records[..recovered.len()]);
        let stats = backend.stats();
        prop_assert!(
            stats.corrupt_frames_dropped + stats.torn_tails_repaired >= 1,
            "recovery repaired silently: {}", stats
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The ISSUE's sweep, exhaustively: truncate the final segment at **every**
/// byte offset and require recovery to produce exactly the records whose
/// frames fit inside the kept prefix — never an error, never invented data.
#[test]
fn truncation_at_every_byte_of_the_final_segment_recovers_the_prefix() {
    let master = temp_dir("truncate-master");
    // A fixed, mixed workload long enough to span several tiny segments.
    let records: Vec<WalRecord> = (0..40)
        .map(|i| match i % 4 {
            0 => WalRecord::SubmitBatch {
                entries: vec![(i % 5, vec![(ColorId((i % 3) as u32), 1 + i % 4)])],
            },
            1 => WalRecord::SubmitBatch {
                entries: vec![(i % 5, vec![(ColorId(0), 2)]), ((i + 1) % 5, vec![(ColorId(1), 3)])],
            },
            2 => WalRecord::Tick,
            _ => WalRecord::AddTenant {
                id: 100 + i,
                spec: TenantSpec::new(
                    PolicySpec::Dlru,
                    ColorTable::from_delay_bounds(&[2, 4]),
                    4,
                    2,
                ),
            },
        })
        .collect();
    write_log(&master, &records, 4);

    let segs = segments(&master);
    assert!(segs.len() >= 2, "workload must rotate segments, got {}", segs.len());
    let last = segs.last().unwrap().clone();
    let last_name = last.file_name().unwrap().to_owned();
    let last_bytes = std::fs::read(&last).unwrap();
    let first_kept: u64 = last_name
        .to_str()
        .unwrap()
        .strip_prefix("wal-")
        .unwrap()
        .strip_suffix(".seg")
        .unwrap()
        .parse()
        .unwrap();

    // How many whole frames fit in the first `len` bytes of the segment.
    let frames_within = |len: usize| -> u64 {
        let (vals, _, _) = frame::scan_values::<WalRecord>(&last_bytes[..len]);
        vals.len() as u64
    };

    let scratch = temp_dir("truncate-scratch");
    for len in 0..=last_bytes.len() {
        let _ = std::fs::remove_dir_all(&scratch);
        clone_log(&master, &scratch);
        let seg = scratch.join("shard-000").join(&last_name);
        let file = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len as u64).unwrap();
        drop(file);

        let expect_end = first_kept + frames_within(len);
        let mut backend = DiskBackend::new(tiny_segment_config(&scratch));
        let store = open_store(&mut backend);
        assert_eq!(
            store.end(),
            expect_end,
            "truncation at byte {len}/{} recovered the wrong prefix",
            last_bytes.len()
        );
        let recovered = store.records_from(0);
        assert_eq!(
            recovered[..],
            records[..expect_end as usize],
            "records diverge after truncation at byte {len}"
        );
        // A cut strictly inside a frame is a torn tail and must be counted.
        if frames_within(len) < frames_within(last_bytes.len())
            && len > 0
            && frames_within(len - 1) == frames_within(len)
        {
            assert!(
                backend.stats().torn_tails_repaired >= 1,
                "mid-frame cut at byte {len} not flagged as torn"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&master);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Torn-vs-corrupt classification stays sharp at the frame layer: every
/// proper prefix of a frame is `Torn`, never `Corrupt`.
#[test]
fn every_frame_prefix_is_torn_not_corrupt() {
    let frame = frame::encode_value_with(&WalRecord::Tick, Codec::Binary).unwrap();
    for len in 0..frame.len() {
        match frame::decode_frame(&frame[..len]) {
            Err(FrameError::Torn) => {}
            other => panic!("prefix {len}/{} classified {other:?}", frame.len()),
        }
    }
    assert!(frame::decode_frame(&frame).is_ok());
}
