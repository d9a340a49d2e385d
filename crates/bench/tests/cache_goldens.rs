//! Figure 2 and E1 pinned byte for byte: `fig2_dma` (the DMA's decision
//! trace and its eviction-mode comparison) and `ext_cache` (the DMA in
//! both modes against the LFU and LRU baselines) must print exactly the
//! committed stdout. Seed 4 of `fig2_dma` shows a single attempt that
//! evicts in vain (`DoesNotFit { evicted: [...] }`).

use std::process::Command;

#[test]
fn fig2_dma_and_ext_cache_match_their_goldens() {
    let fig2 = env!("CARGO_BIN_EXE_fig2_dma");
    let cases = [
        (fig2, 42, include_str!("golden/fig2_dma_seed42.txt")),
        (fig2, 4, include_str!("golden/fig2_dma_seed4.txt")),
        (
            env!("CARGO_BIN_EXE_ext_cache"),
            42,
            include_str!("golden/ext_cache_seed42.txt"),
        ),
    ];
    assert!(cases[1].2.contains("DoesNotFit { evicted: ["));
    for (binary, seed, golden) in cases {
        let out = Command::new(binary)
            .args(["--seed", &seed.to_string()])
            .output()
            .unwrap_or_else(|e| panic!("cannot run {binary}: {e}"));
        assert!(out.status.success(), "{binary} --seed {seed} failed");
        let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        assert!(
            stdout == golden,
            "{binary} --seed {seed} moved from its golden:\n{stdout}"
        );
    }
}
