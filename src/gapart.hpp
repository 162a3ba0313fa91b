// Umbrella header: the full public API of gapart.
//
// gapart reproduces "Genetic Algorithms for Graph Partitioning and
// Incremental Graph Partitioning" (Maini, Mehrotra, Mohan & Ranka, Proc.
// IEEE Supercomputing 1994): the KNUX/DKNUX knowledge-based crossover
// operators, the distributed-population GA, incremental repartitioning, and
// every substrate the paper's evaluation depends on (FE-style meshes,
// recursive spectral bisection, index-based partitioning, classical
// baselines).
#pragma once

#include "common/assert.hpp"    // IWYU pragma: export
#include "common/cli.hpp"       // IWYU pragma: export
#include "common/executor.hpp"  // IWYU pragma: export
#include "common/rng.hpp"       // IWYU pragma: export
#include "common/stats.hpp"     // IWYU pragma: export
#include "common/table.hpp"     // IWYU pragma: export
#include "common/timer.hpp"     // IWYU pragma: export

#include "graph/coarsen.hpp"          // IWYU pragma: export
#include "graph/components.hpp"       // IWYU pragma: export
#include "graph/delaunay.hpp"         // IWYU pragma: export
#include "graph/generators.hpp"       // IWYU pragma: export
#include "graph/graph.hpp"            // IWYU pragma: export
#include "graph/io.hpp"               // IWYU pragma: export
#include "graph/mesh.hpp"             // IWYU pragma: export
#include "graph/partition.hpp"        // IWYU pragma: export
#include "graph/recursive_split.hpp"  // IWYU pragma: export
#include "graph/subgraph.hpp"         // IWYU pragma: export
#include "graph/types.hpp"            // IWYU pragma: export

#include "spectral/eigen.hpp"       // IWYU pragma: export
#include "spectral/fiedler.hpp"     // IWYU pragma: export
#include "spectral/lanczos.hpp"     // IWYU pragma: export
#include "spectral/laplacian.hpp"   // IWYU pragma: export
#include "spectral/multilevel.hpp"  // IWYU pragma: export
#include "spectral/rsb.hpp"         // IWYU pragma: export

#include "sfc/ibp.hpp"       // IWYU pragma: export
#include "sfc/indexing.hpp"  // IWYU pragma: export

#include "baselines/greedy_incremental.hpp"  // IWYU pragma: export
#include "baselines/kl.hpp"                  // IWYU pragma: export
#include "baselines/rcb.hpp"                 // IWYU pragma: export
#include "baselines/rgb.hpp"                 // IWYU pragma: export

#include "core/contracted_ga.hpp"  // IWYU pragma: export
#include "core/crossover.hpp"      // IWYU pragma: export
#include "core/dpga.hpp"           // IWYU pragma: export
#include "core/eval.hpp"           // IWYU pragma: export
#include "core/ga_engine.hpp"      // IWYU pragma: export
#include "core/graph_delta.hpp"    // IWYU pragma: export
#include "core/hill_climb.hpp"     // IWYU pragma: export
#include "core/individual.hpp"     // IWYU pragma: export
#include "core/init.hpp"           // IWYU pragma: export
#include "core/mutation.hpp"       // IWYU pragma: export
#include "core/presets.hpp"        // IWYU pragma: export
#include "core/selection.hpp"      // IWYU pragma: export
#include "core/topology.hpp"       // IWYU pragma: export
#include "core/vcycle_ga.hpp"      // IWYU pragma: export
