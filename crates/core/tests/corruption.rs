//! Exhaustive single-byte corruption drills over the durable artifacts:
//! flip one byte at every offset of a sweep journal and a serialized
//! checkpoint, and truncate a journal at every byte boundary of its
//! final record. Every mutation must surface as a typed error or a
//! bit-identical recovery — never wrong data, never a panic.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

use gpusim::{Checkpoint, Simulator};
use vtq::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vtq-corruption-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

const KEYS: [&str; 3] = ["corrupt/w0/0/REF#aa", "corrupt/w0/1/BUNNY#bb", "corrupt/w0/2/LANDS#cc"];

/// Writes a journal with the three [`KEYS`] recorded `done` and returns
/// its bytes.
fn build_journal(dir: &Path) -> Vec<u8> {
    let journal = SweepJournal::start(dir).expect("start journal");
    for key in KEYS {
        journal.record(key, CellDisposition::Done, 0, "").expect("record");
    }
    drop(journal);
    fs::read(dir.join(JOURNAL_FILE)).expect("read journal")
}

/// Byte offset where each line of `text` starts, plus the line's span.
fn line_spans(text: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    for (i, &b) in text.iter().enumerate() {
        if b == b'\n' {
            spans.push((start, i + 1));
            start = i + 1;
        }
    }
    if start < text.len() {
        spans.push((start, text.len()));
    }
    spans
}

/// Satellite (c), journal half: flip one byte at EVERY offset of a
/// complete journal. Resume must never panic and never invent data: the
/// completed set stays a subset of the keys actually written, lines
/// before the flipped one always survive, and a checksum-rejected flip
/// line truncates itself and everything after it.
#[test]
fn every_byte_flip_in_a_journal_is_detected_or_payload_safe() {
    let dir = temp_dir("journal-flip");
    let original = build_journal(&dir);
    let spans = line_spans(&original);
    let key_set: HashSet<&str> = KEYS.iter().copied().collect();
    // Which line holds each done record (the last three non-empty lines
    // are the cell records, in KEYS order).
    let cell_lines: Vec<usize> = (spans.len() - KEYS.len()..spans.len()).collect();
    let path = dir.join(JOURNAL_FILE);

    for offset in 0..original.len() {
        for bit in [0u8, 3, 6] {
            let mut mutated = original.clone();
            mutated[offset] ^= 1 << bit;
            if mutated == original {
                continue;
            }
            fs::write(&path, &mutated).expect("write mutated journal");

            let flip_line = spans
                .iter()
                .position(|&(s, e)| offset >= s && offset < e)
                .expect("offset maps to a line");
            let (ls, le) = spans[flip_line];
            let flip_line_rejected = {
                let line = std::str::from_utf8(&mutated[ls..le])
                    .map(|l| l.trim_end_matches(['\n', '\r']).to_string());
                match line {
                    Ok(l) => gpusim::frames::check_line(&l).is_err(),
                    Err(_) => true, // non-UTF-8 journals fail the read outright
                }
            };

            match SweepJournal::resume(&dir) {
                Err(_) => {} // typed I/O error (e.g. invalid UTF-8): detected
                Ok(journal) => {
                    for (i, key) in KEYS.iter().enumerate() {
                        let line = cell_lines[i];
                        let completed = journal.completed(key);
                        assert!(
                            !completed || key_set.contains(key),
                            "offset {offset} bit {bit}: invented key"
                        );
                        if line < flip_line {
                            assert!(
                                completed,
                                "offset {offset} bit {bit}: key `{key}` on an intact line \
                                 before the flip was lost"
                            );
                        }
                        if flip_line_rejected && line >= flip_line {
                            assert!(
                                !completed,
                                "offset {offset} bit {bit}: key `{key}` at/after a \
                                 checksum-rejected line survived truncation"
                            );
                        }
                    }
                    assert!(journal.completed_count() <= KEYS.len());
                }
            }
        }
    }
}

/// Satellite (d): truncate the journal at every byte boundary inside its
/// final record. Resume must recover the first two completions exactly,
/// and re-recording the lost cell must converge the journal — the
/// exactly-once shape: only the torn cell re-runs.
#[test]
fn journal_truncated_at_every_boundary_of_the_final_record_recovers_exactly_once() {
    let dir = temp_dir("journal-trunc");
    let original = build_journal(&dir);
    let spans = line_spans(&original);
    let (final_start, final_end) = *spans.last().expect("journal has lines");
    let path = dir.join(JOURNAL_FILE);

    for cut in final_start..=final_end {
        fs::write(&path, &original[..cut]).expect("write truncated journal");
        let journal = SweepJournal::resume(&dir).expect("resume");
        let torn = cut < final_end;
        if torn {
            assert!(
                journal.completed(KEYS[0]) && journal.completed(KEYS[1]),
                "cut {cut}: intact completions lost"
            );
            assert!(
                !journal.completed(KEYS[2]),
                "cut {cut}: torn final record must not count as done"
            );
            assert_eq!(journal.completed_count(), 2, "cut {cut}");
            // The engine re-runs exactly the torn cell; emulate its
            // journaling and require convergence across another resume.
            journal.record(KEYS[2], CellDisposition::Done, 0, "").expect("re-record");
        } else {
            assert_eq!(journal.completed_count(), 3, "clean cut {cut} lost a completion");
            assert!(journal.truncated_tail().is_none(), "clean cut {cut} reported truncation");
        }
        drop(journal);
        let journal = SweepJournal::resume(&dir).expect("second resume");
        assert_eq!(journal.completed_count(), 3, "cut {cut}: journal did not converge");
        assert!(journal.truncated_tail().is_none(), "cut {cut}: converged journal not clean");
    }
}

/// Satellite (c), checkpoint half: flip one byte at (strided) offsets of
/// a serialized checkpoint. Parsing must fail typed, or — when the flip
/// lands in a frame's own field text, leaving the payload intact —
/// round-trip to the identical original. Never wrong state, never a
/// panic.
#[test]
fn checkpoint_byte_flips_are_rejected_or_payload_safe() {
    let cfg = ExperimentConfig { resolution: 8, detail_divisor: 64, ..ExperimentConfig::quick() };
    let prepared = Prepared::build(SceneId::Ref, &cfg);
    let sim = Simulator::new(&prepared.bvh, prepared.scene.triangles(), cfg.gpu);
    let mut snap = None;
    sim.try_run_checkpointed(&prepared.workload, 16, &mut |ck| {
        if snap.is_none() {
            snap = Some(ck);
        }
    })
    .expect("checkpointed run");
    let text = snap.expect("captured a checkpoint").to_jsonl();
    let bytes = text.as_bytes();

    // Cover every offset of the first and last lines plus a coprime
    // stride across the middle, bounding the quadratic cost.
    let spans = line_spans(bytes);
    let (first_end, last_start) = (spans.first().unwrap().1, spans.last().unwrap().0);
    let offsets =
        (0..first_end).chain(last_start..bytes.len()).chain((first_end..last_start).step_by(97));
    for offset in offsets {
        let bit = 1u8 << (offset % 7);
        let mut mutated = bytes.to_vec();
        mutated[offset] ^= bit;
        let Ok(mutated) = String::from_utf8(mutated) else {
            continue; // read_to_string would already have failed
        };
        match Checkpoint::from_jsonl(&mutated) {
            Err(_) => {} // typed rejection: detected
            Ok(ck) => assert_eq!(
                ck.to_jsonl(),
                text,
                "offset {offset}: a checkpoint that differs from the original was accepted"
            ),
        }
    }
}
