//! The synthetic weights are part of every recorded result: a network's
//! device-memory image after `build_network` must not move by a bit when
//! the way weights are drawn changes (bulk fills, vectorised loops).
//!
//! The digests below were recorded with one scalar `SplitMix64::xavier` /
//! `uniform` call per weight, before the bulk fills existed. The fill
//! loop vectorises only at the release opt-level, so ci.sh runs this test
//! there as well as in the default profile.

use tango_nets::{build_network, NetworkKind, Preset};
use tango_sim::{GlobalMemory, Gpu, GpuConfig};

const SEED: u64 = 0x7A16_0201_9151;

/// FNV-1a over every allocated device word, in address order.
fn image_digest(gpu: &Gpu) -> u64 {
    let mem = gpu.memory();
    let end = GlobalMemory::ALIGN + mem.allocated_bytes() as u32;
    (GlobalMemory::ALIGN..end)
        .step_by(4)
        .fold(0xcbf2_9ce4_8422_2325u64, |h, addr| (h ^ mem.read_u32(addr) as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// `(network, preset, digest)` at the default seed, tiny and bench presets
/// of all eight networks.
const RECORDED: [(NetworkKind, Preset, u64); 16] = [
    (NetworkKind::CifarNet, Preset::Tiny, 0x6c34852ced21135b),
    (NetworkKind::CifarNet, Preset::Bench, 0xf3f295fd2f1f760d),
    (NetworkKind::AlexNet, Preset::Tiny, 0x09400252c9e12f3b),
    (NetworkKind::AlexNet, Preset::Bench, 0xf0a3f0e1fab84c58),
    (NetworkKind::SqueezeNet, Preset::Tiny, 0x25fd40e5e096066a),
    (NetworkKind::SqueezeNet, Preset::Bench, 0xb4acd5d1b7cc0db9),
    (NetworkKind::ResNet50, Preset::Tiny, 0x7c572cd6791a2102),
    (NetworkKind::ResNet50, Preset::Bench, 0xab4daa0f7883716d),
    (NetworkKind::VggNet16, Preset::Tiny, 0xd0904b64dd371a62),
    (NetworkKind::VggNet16, Preset::Bench, 0xda50f9f37aac95b2),
    (NetworkKind::Gru, Preset::Tiny, 0x1d9b851202e4aac9),
    (NetworkKind::Gru, Preset::Bench, 0x0d5b23027ff69bf8),
    (NetworkKind::Lstm, Preset::Tiny, 0xbca620a8df4c0b32),
    (NetworkKind::Lstm, Preset::Bench, 0x6f39bfb2134fc0b8),
    (NetworkKind::MobileNet, Preset::Tiny, 0x24bc42842dad7166),
    (NetworkKind::MobileNet, Preset::Bench, 0x480d85cc1a5793fc),
];

#[test]
fn weight_image_digests_match_the_scalar_draws() {
    for (kind, preset, want) in RECORDED {
        let mut gpu = Gpu::new(GpuConfig::gp102());
        build_network(&mut gpu, kind, preset, SEED)
            .unwrap_or_else(|e| panic!("cannot build {}@{}: {e}", kind.name(), preset.name()));
        let got = image_digest(&gpu);
        assert_eq!(
            got,
            want,
            "{}@{}: device image digest {got:#018x} differs from the recorded {want:#018x}",
            kind.name(),
            preset.name()
        );
    }
}
