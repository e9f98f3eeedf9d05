//! Figure 6: effectiveness of the hybrid selective-sets-and-ways
//! organization across associativities, against both single organizations.

use rescache_core::Organization;

fn main() {
    rescache_bench::org_assoc_figure(
        "Figure 6 — effectiveness of hybrid organizations",
        &Organization::ALL,
        &[
            "associativity",
            "ways EDP red. %",
            "sets EDP red. %",
            "hybrid EDP red. %",
        ],
        &[
            "Paper reference (d-cache hybrid): 9/12/13/15 % for 2/4/8/16-way;",
            "(i-cache hybrid): 11/13/14/17 %. Hybrid always >= max(ways, sets).",
        ],
    );
}
