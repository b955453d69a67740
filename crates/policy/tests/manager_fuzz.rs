//! ioctl protocol robustness: arbitrary bytes must never panic either
//! side of `/dev/carat` — the kernel decodes commands from user space,
//! and the `policy-manager` tool decodes whatever reply bytes come back.
//! Every command and response variant must also survive an encode →
//! decode round trip unchanged.

use proptest::prelude::*;

use kop_core::{Protection, Region, Size, VAddr};
use kop_policy::stats::GuardStatsSnapshot;
use kop_policy::{DefaultAction, PolicyCmd, PolicyResponse, ViolationAction};

fn region(base: u64, len: u64, prot: Protection) -> Region {
    Region::new(VAddr(base), Size(len), prot).unwrap()
}

/// An opcode byte followed by a little-endian `u64`.
fn op_u64(op: u8, v: u64) -> Vec<u8> {
    let mut bytes = vec![op];
    bytes.extend_from_slice(&v.to_le_bytes());
    bytes
}

#[test]
fn hostile_counts_and_lengths_are_typed_errors() {
    // A region count, an intrinsic count and an error-string length of
    // u64::MAX with nothing behind them.
    for op in [0x81u8, 0x83, 0xff] {
        let bytes = op_u64(op, u64::MAX);
        assert!(
            PolicyResponse::decode(&bytes).is_err(),
            "{op:#x} with count u64::MAX must be rejected"
        );
    }
    // Counts that overstate the payload by one element.
    assert!(PolicyResponse::decode(&op_u64(0x81, 1)).is_err());
    assert!(PolicyResponse::decode(&op_u64(0x83, 1)).is_err());
    assert!(PolicyResponse::decode(&op_u64(0xff, 1)).is_err());
}

#[test]
fn responses_reject_trailing_bytes() {
    for resp in all_responses() {
        let mut bytes = resp.encode();
        bytes.push(0);
        assert!(
            PolicyResponse::decode(&bytes).is_err(),
            "{resp:?} accepted a trailing byte"
        );
    }
}

fn all_commands() -> Vec<PolicyCmd> {
    vec![
        PolicyCmd::AddRegion(region(0x1000, 0x2000, Protection::READ_WRITE)),
        PolicyCmd::AddRegion(region(u64::MAX - 0xfff, 0x1000, Protection::NONE)),
        PolicyCmd::RemoveRegion(VAddr(0x1000)),
        PolicyCmd::List,
        PolicyCmd::SetDefault(DefaultAction::Allow),
        PolicyCmd::SetDefault(DefaultAction::Deny),
        PolicyCmd::SetViolation(ViolationAction::Panic),
        PolicyCmd::SetViolation(ViolationAction::LogAndDeny),
        PolicyCmd::SetViolation(ViolationAction::LogAndAllow),
        PolicyCmd::SetViolation(ViolationAction::Quarantine),
        PolicyCmd::Stats,
        PolicyCmd::Reset,
        PolicyCmd::AllowIntrinsic(u32::MAX),
        PolicyCmd::RevokeIntrinsic(0),
        PolicyCmd::ListIntrinsics,
    ]
}

fn all_responses() -> Vec<PolicyResponse> {
    vec![
        PolicyResponse::Ok,
        PolicyResponse::Regions(Vec::new()),
        PolicyResponse::Regions(vec![
            region(0x1000, 0x100, Protection::READ_ONLY),
            region(0x4000, 0x10, Protection::ALL),
        ]),
        PolicyResponse::Stats(GuardStatsSnapshot {
            checks: 10,
            permitted: 7,
            denied_no_match: 1,
            denied_insufficient: 1,
            denied_malformed: 1,
        }),
        PolicyResponse::Intrinsics(Vec::new()),
        PolicyResponse::Intrinsics(vec![0, 1, u32::MAX]),
        PolicyResponse::Err(String::new()),
        PolicyResponse::Err("policy table full (64 regions)".into()),
    ]
}

#[test]
fn every_variant_round_trips() {
    for cmd in all_commands() {
        assert_eq!(PolicyCmd::decode(&cmd.encode()), Ok(cmd));
    }
    for resp in all_responses() {
        assert_eq!(PolicyResponse::decode(&resp.encode()), Ok(resp));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Totally random bytes: both decoders return Ok or Err, never panic.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = PolicyCmd::decode(&bytes);
        let _ = PolicyResponse::decode(&bytes);
    }

    /// A known opcode followed by random bytes reaches deep into each
    /// variant's decoder; a decoded value must re-encode to the input.
    #[test]
    fn opcode_plus_garbage_never_panics(
        op in prop_oneof![
            Just(1u8), Just(2), Just(3), Just(4), Just(5), Just(6), Just(7), Just(8), Just(9),
            Just(10), Just(0x80), Just(0x81), Just(0x82), Just(0x83), Just(0xff),
        ],
        tail in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        let mut bytes = vec![op];
        bytes.extend_from_slice(&tail);
        if let Ok(cmd) = PolicyCmd::decode(&bytes) {
            prop_assert_eq!(cmd.encode(), bytes.clone());
        }
        if let Ok(resp) = PolicyResponse::decode(&bytes) {
            // Error strings are decoded lossily, so only valid UTF-8
            // re-encodes byte for byte.
            if !matches!(resp, PolicyResponse::Err(_)) {
                prop_assert_eq!(resp.encode(), bytes);
            }
        }
    }

    /// A count or length word followed by a few random bytes: the count
    /// is almost always a lie, and must be caught as one.
    #[test]
    fn random_counts_never_panic(
        op in prop_oneof![Just(0x81u8), Just(0x83), Just(0xff)],
        count in any::<u64>(),
        tail in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let mut bytes = op_u64(op, count);
        bytes.extend_from_slice(&tail);
        let _ = PolicyResponse::decode(&bytes);
    }
}
