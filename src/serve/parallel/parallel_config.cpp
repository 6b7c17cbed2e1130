#include "serve/parallel/parallel_config.hpp"

#include <sstream>

#include "util/error.hpp"

namespace marlin::serve::parallel {

void ParallelConfig::validate(const ModelConfig& model) const {
  MARLIN_CHECK(tensor_parallel >= 1,
               "tensor-parallel degree must be >= 1, got " << tensor_parallel);
  MARLIN_CHECK(pipeline_parallel >= 1,
               "pipeline-parallel degree must be >= 1, got "
                   << pipeline_parallel);
  MARLIN_CHECK(microbatches >= 0,
               "microbatch count must be >= 0 (0 = one per stage), got "
                   << microbatches);
  MARLIN_CHECK(comm_buckets >= 1,
               "comm-bucket count must be >= 1 (1 = serialized), got "
                   << comm_buckets);
  MARLIN_CHECK(model.num_heads % tensor_parallel == 0 &&
                   model.num_kv_heads % tensor_parallel == 0,
               model.name << " has " << model.num_heads << " heads and "
                          << model.num_kv_heads
                          << " KV heads; tensor-parallel degree "
                          << tensor_parallel << " does not divide both");
  MARLIN_CHECK(pipeline_parallel <= model.num_layers,
               "pipeline-parallel degree " << pipeline_parallel
                                           << " exceeds the model's "
                                           << model.num_layers << " layers");
}

std::string ParallelConfig::to_string() const {
  std::ostringstream os;
  os << "tp" << tensor_parallel << " pp" << pipeline_parallel;
  if (microbatches > 0 && microbatches != pipeline_parallel) {
    os << " mb" << microbatches;
  }
  if (comm_buckets > 1) os << " cb" << comm_buckets;
  return os.str();
}

}  // namespace marlin::serve::parallel
