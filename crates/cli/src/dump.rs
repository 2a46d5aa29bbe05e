//! `rrs dump <file>`: one WAL segment (`wal-*.seg`) or checkpoint
//! (`ck-*.ck`) file rendered as JSON, one line per frame.
//!
//! Frames are walked with [`frame::scan_frames`] and each payload decodes
//! as a generic value tree, not as today's `WalRecord` or `Checkpoint`, so
//! records in shapes this build no longer reads print too. A torn or
//! corrupt tail, or a payload that does not decode, is reported on stderr
//! with its byte offset and makes the exit code 1; the frames around it
//! still print.

use rrs_service::storage::frame::{self, FrameError, FRAME_HEADER};
use serde_json::Value;
use std::io::Write;
use std::process::ExitCode;

pub fn cmd_dump(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("dump: missing file (a wal-*.seg or ck-*.ck)");
        return ExitCode::from(2);
    };
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("dump: read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let (frames, valid_len, err) = frame::scan_frames(&bytes);
    let mut out = std::io::stdout().lock();
    let mut clean = true;
    for (i, &at) in frames.iter().enumerate() {
        let end = frames.get(i + 1).copied().unwrap_or(valid_len);
        match frame::decode_payload::<Value>(&bytes[at + FRAME_HEADER..end]) {
            Ok(tree) => {
                let line = serde_json::to_string(&tree).expect("a value tree renders as JSON");
                if writeln!(out, "{line}").is_err() {
                    return ExitCode::from(1);
                }
            }
            Err(_) => {
                eprintln!("dump: {path}: frame at byte {at} passes its CRC but does not decode");
                clean = false;
            }
        }
    }
    if let Some(err) = err {
        let what = match err {
            FrameError::Torn => "torn",
            FrameError::Corrupt => "corrupt",
        };
        eprintln!("dump: {path}: {what} frame at byte {valid_len}");
        clean = false;
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
