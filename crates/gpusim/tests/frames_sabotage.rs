//! The chaos campaign's sabotage gate, in a test binary of its own: the
//! gate is process-global, and tests in any other binary that verify
//! frames concurrently must never observe it switched on.

use gpusim::frames::{check_line, frame_line, sabotage_accept_unverified_frames, FlatRecord};

#[test]
fn sabotage_gate_admits_corrupt_frames() {
    let framed = frame_line("{\"k\":\"v\",\"n\":3}");
    let mut bytes = framed.clone().into_bytes();
    bytes[2] ^= 0x01; // flip a payload bit
    let corrupt = String::from_utf8(bytes).unwrap();
    assert!(check_line(&corrupt).is_err());
    assert!(FlatRecord::parse(&corrupt).is_err());
    sabotage_accept_unverified_frames(true);
    let admitted = check_line(&corrupt);
    let parsed = FlatRecord::parse(&corrupt);
    sabotage_accept_unverified_frames(false);
    assert!(admitted.is_ok(), "sabotage gate must disable verification");
    assert!(parsed.is_ok(), "the record parser verifies through the same gate");
    assert!(check_line(&corrupt).is_err(), "gate must be restorable");
}
