//! The workspace builds for x86-64-v3 (the root `.cargo/config.toml`),
//! so the 16-lane structure-of-arrays sweeps of the Eq. 14 kernels run
//! on 256-bit AVX2 registers. A build that loses that setting still
//! passes every other test, bit for bit, but spends 20–40% more CPU
//! per cold placement; this test makes it fail instead.
//!
//! A deliberate baseline build (`RUSTFLAGS="-C target-cpu=x86-64"`, for
//! CPUs without AVX2) fails here and nowhere else.

#![cfg(target_arch = "x86_64")]

#[test]
fn kernels_build_for_avx2_and_fma() {
    let features = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
    ];
    let missing: Vec<&str> = features
        .iter()
        .filter(|(_, enabled)| !enabled)
        .map(|(name, _)| *name)
        .collect();
    assert!(
        missing.is_empty(),
        "built without {missing:?}: is .cargo/config.toml's target-cpu=x86-64-v3 in effect?"
    );
}
