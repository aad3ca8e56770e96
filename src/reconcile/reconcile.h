#ifndef RECONCILE_RECONCILE_H_
#define RECONCILE_RECONCILE_H_

/// Umbrella header: the full public API of the reconcile library.
///
/// Downstream users can include this one header; the library is small
/// enough that the compile-time cost is negligible. Individual headers
/// remain includable on their own (each is self-contained), which the
/// test suite relies on.
///
/// Layering (see DESIGN.md §2 for the subsystem inventory):
///   util -> graph -> {gen, sampling, seed, theory}
///        -> core -> baseline -> api -> eval

#include "reconcile/util/flags.h"          // IWYU pragma: export
#include "reconcile/util/logging.h"        // IWYU pragma: export
#include "reconcile/util/rng.h"            // IWYU pragma: export
#include "reconcile/util/thread_pool.h"    // IWYU pragma: export
#include "reconcile/util/timer.h"          // IWYU pragma: export

#include "reconcile/graph/algorithms.h"    // IWYU pragma: export
#include "reconcile/graph/edge_list.h"     // IWYU pragma: export
#include "reconcile/graph/graph.h"         // IWYU pragma: export
#include "reconcile/graph/io.h"            // IWYU pragma: export
#include "reconcile/graph/permutation.h"   // IWYU pragma: export
#include "reconcile/graph/statistics.h"    // IWYU pragma: export
#include "reconcile/graph/types.h"         // IWYU pragma: export

#include "reconcile/gen/affiliation.h"     // IWYU pragma: export
#include "reconcile/gen/chung_lu.h"        // IWYU pragma: export
#include "reconcile/gen/configuration.h"   // IWYU pragma: export
#include "reconcile/gen/erdos_renyi.h"     // IWYU pragma: export
#include "reconcile/gen/preferential_attachment.h"  // IWYU pragma: export
#include "reconcile/gen/rmat.h"            // IWYU pragma: export
#include "reconcile/gen/sbm.h"             // IWYU pragma: export
#include "reconcile/gen/watts_strogatz.h"  // IWYU pragma: export

#include "reconcile/sampling/attack.h"       // IWYU pragma: export
#include "reconcile/sampling/cascade.h"      // IWYU pragma: export
#include "reconcile/sampling/community.h"    // IWYU pragma: export
#include "reconcile/sampling/independent.h"  // IWYU pragma: export
#include "reconcile/sampling/realization.h"  // IWYU pragma: export
#include "reconcile/sampling/tie_strength.h" // IWYU pragma: export
#include "reconcile/sampling/timeslice.h"    // IWYU pragma: export

#include "reconcile/seed/seeding.h"          // IWYU pragma: export

#include "reconcile/theory/empirics.h"       // IWYU pragma: export
#include "reconcile/theory/predictions.h"    // IWYU pragma: export

#include "reconcile/core/best_table.h"       // IWYU pragma: export
#include "reconcile/core/confidence.h"       // IWYU pragma: export
#include "reconcile/core/matcher.h"          // IWYU pragma: export
#include "reconcile/core/result.h"           // IWYU pragma: export
#include "reconcile/core/witness.h"          // IWYU pragma: export

#include "reconcile/baseline/bp_matcher.h"        // IWYU pragma: export
#include "reconcile/baseline/common_neighbors.h"  // IWYU pragma: export
#include "reconcile/baseline/feature_matching.h"  // IWYU pragma: export
#include "reconcile/baseline/percolation.h"       // IWYU pragma: export
#include "reconcile/baseline/propagation.h"       // IWYU pragma: export

#include "reconcile/api/adapters.h"      // IWYU pragma: export
#include "reconcile/api/reconciler.h"    // IWYU pragma: export
#include "reconcile/api/registry.h"      // IWYU pragma: export
#include "reconcile/api/spec.h"          // IWYU pragma: export

#include "reconcile/eval/datasets.h"     // IWYU pragma: export
#include "reconcile/eval/disagreement.h" // IWYU pragma: export
#include "reconcile/eval/experiment.h"   // IWYU pragma: export
#include "reconcile/eval/match_io.h"     // IWYU pragma: export
#include "reconcile/eval/metrics.h"      // IWYU pragma: export
#include "reconcile/eval/sweep.h"        // IWYU pragma: export
#include "reconcile/eval/table.h"        // IWYU pragma: export
#include "reconcile/eval/validation.h"   // IWYU pragma: export

#endif  // RECONCILE_RECONCILE_H_
