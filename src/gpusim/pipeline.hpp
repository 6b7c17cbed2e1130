#pragma once
// Discrete simulation of the cp.async multi-buffer software pipeline
// (paper §3.4 "Memory Load Pipelining", Figure 3).
//
// The kernel prefetches the tile used P-1 iterations ahead; one extra buffer
// holds the current tile. The simulation tracks the memory engine (tile
// transfers are serialised at streaming bandwidth, plus a fixed GMEM->SMEM
// latency) and the compute engine (one tile's worth of tensor-core math),
// with buffer recycling after compute completes. This yields both the total
// time and the stall fraction, which the pipeline-depth ablation sweeps.
//
// Exactness and cost: the result is bit-identical to stepping every tile
// in order. The recurrence is max-plus with constant inputs, so after a
// short transient the state repeats every P tiles shifted by a constant K.
// Within one binade [2^e, 2^(e+1)) of the state each add rounds alike at
// every grid point (unless its constant is a rounding tie there) and max
// commutes with the shift, so once an exact shift is seen the loop adds
// j*K for j whole periods instead of stepping them, keeping every value
// below 2^(e+1). That costs O(P) steps per binade the times cross, about
// O(P log num_tiles) in all, for depths up to 32 with non-negative finite
// inputs; other inputs step every tile.

namespace marlin::gpusim {

struct PipelineParams {
  int depth = 4;              // P: number of in-flight buffers
  int num_tiles = 0;          // tiles processed by one SM
  double tile_load_s = 0;     // bandwidth-limited transfer time per tile
  double load_latency_s = 0;  // fixed cp.async GMEM latency component
  double tile_compute_s = 0;  // tensor-core time per tile
};

struct PipelineResult {
  double total_s = 0;
  double ideal_s = 0;     // max(load, compute) steady state + first fill
  double stall_s = 0;     // total - ideal (>= 0)
  double stall_fraction = 0;
};

[[nodiscard]] PipelineResult simulate_pipeline(const PipelineParams& p);

}  // namespace marlin::gpusim
