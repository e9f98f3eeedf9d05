//! Figure 8: static vs. dynamic (miss-ratio based) selective-sets resizing of
//! the i-cache, on the in-order/blocking and out-of-order/non-blocking
//! processor configurations.

use rescache_core::ResizableCacheSide;

fn main() {
    rescache_bench::strategy_figure(
        ResizableCacheSide::Instruction,
        "Figure 8 — i-cache resizing in two processor configurations",
        &[
            "Paper reference: in-order static 16 % vs dynamic 18 %; out-of-order static 11 % vs dynamic 15 %.",
            "For the i-cache, dynamic's advantage is larger on the out-of-order configuration,",
            "where i-cache misses are more exposed to performance.",
        ],
    );
}
