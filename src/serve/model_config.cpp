#include "serve/model_config.hpp"

#include "util/names.hpp"

namespace marlin::serve {

double ModelConfig::params_per_block() const {
  const double h = static_cast<double>(hidden);
  const double kvh = static_cast<double>(num_kv_heads * head_dim);
  const double qh = static_cast<double>(num_heads * head_dim);
  double per_block = h * (qh + 2.0 * kvh)  // QKV
                     + qh * h;             // attention output
  if (gated_mlp) {
    per_block += 3.0 * h * static_cast<double>(intermediate);
  } else {
    per_block += 2.0 * h * static_cast<double>(intermediate);
  }
  return per_block;
}

double ModelConfig::num_params() const {
  return params_per_block() * static_cast<double>(num_layers) +
         2.0 * static_cast<double>(hidden) *
             static_cast<double>(vocab);  // embed + lm_head
}

std::vector<LayerShape> block_linear_layers(const ModelConfig& m) {
  std::vector<LayerShape> v;
  const index_t q = m.num_heads * m.head_dim;
  const index_t kv = m.num_kv_heads * m.head_dim;
  v.push_back({"qkv_proj", m.hidden, q + 2 * kv});
  v.push_back({"o_proj", q, m.hidden});
  if (m.gated_mlp) {
    v.push_back({"gate_up_proj", m.hidden, 2 * m.intermediate});
  } else {
    v.push_back({"up_proj", m.hidden, m.intermediate});
  }
  v.push_back({"down_proj", m.intermediate, m.hidden});
  return v;
}

ModelConfig llama2_7b() {
  return {"Llama-2-7B", 4096, 11008, 32, 32, 32, 128, 32000, true};
}
ModelConfig llama2_13b() {
  return {"Llama-2-13B", 5120, 13824, 40, 40, 40, 128, 32000, true};
}
ModelConfig llama2_70b() {
  return {"Llama-2-70B", 8192, 28672, 80, 64, 8, 128, 32000, true};
}
ModelConfig llama1_33b() {
  return {"LLaMA-33B", 6656, 17920, 60, 52, 52, 128, 32000, true};
}
ModelConfig llama1_65b() {
  return {"LLaMA-65B", 8192, 22016, 80, 64, 64, 128, 32000, true};
}
ModelConfig yi_34b() {
  return {"Yi-34B", 7168, 20480, 60, 56, 8, 128, 64000, true};
}
ModelConfig falcon_180b() {
  // Falcon uses parallel attention + a plain 4h MLP and GQA with 8 KV heads.
  return {"Falcon-180B", 14848, 4 * 14848, 80, 232, 8, 64, 65024, false};
}
ModelConfig tinyllama_1_1b() {
  // The standard small Llama-architecture draft model for speculative
  // decoding against Llama-2 targets (same 32k vocabulary, GQA).
  return {"TinyLlama-1.1B", 2048, 5632, 22, 32, 4, 64, 32000, true};
}

std::vector<ModelConfig> all_models() {
  return {llama2_7b(),  llama2_13b(), llama1_33b(),    llama1_65b(),
          llama2_70b(), yi_34b(),     falcon_180b(),   tinyllama_1_1b()};
}

ModelConfig model_by_name(const std::string& name) {
  return by_name("model", name, all_models(),
                 [](const ModelConfig& m) { return m.name; });
}

}  // namespace marlin::serve
