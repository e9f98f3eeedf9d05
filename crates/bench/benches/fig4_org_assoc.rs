//! Figure 4: processor energy-delay reduction of static selective-ways vs.
//! selective-sets resizing, for 2/4/8/16-way 32K L1 d- and i-caches.

use rescache_core::Organization;

fn main() {
    rescache_bench::org_assoc_figure(
        "Figure 4 — resizable cache organizations and energy-delay reductions",
        &[Organization::SelectiveWays, Organization::SelectiveSets],
        &[
            "associativity",
            "selective-ways EDP red. %",
            "selective-sets EDP red. %",
        ],
        &[
            "Paper reference (d-cache): ways 5/8/11/15 %, sets 9/11/9/6 % for 2/4/8/16-way.",
            "Paper reference (i-cache): ways 6/10/13/17 %, sets 11/12/11/8 %.",
        ],
    );
}
