//! Figure 7: static vs. dynamic (miss-ratio based) selective-sets resizing of
//! the d-cache, on the in-order/blocking and out-of-order/non-blocking
//! processor configurations.

use rescache_core::ResizableCacheSide;

fn main() {
    rescache_bench::strategy_figure(
        ResizableCacheSide::Data,
        "Figure 7 — d-cache resizing in two processor configurations",
        &[
            "Paper reference: in-order static 5 % vs dynamic 9 %; out-of-order static 9 % vs dynamic 11 %.",
            "Dynamic's advantage should be clearly larger on the in-order/blocking configuration.",
        ],
    );
}
