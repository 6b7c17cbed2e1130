# Input-boundary checks for any bench or example binary.
#
# Usage:
#   cmake -DBINARY=<bin> -DMODE=help -P cli_error_check.cmake
#       --help exits 0, and stdout starts with `<bin> — ` and lists
#       --threads.
#   cmake -DBINARY=<bin> -DMODE=unknown-flag -P cli_error_check.cmake
#       --no-such-flag is a clean error (see expect_clean_error).
#   cmake -DBINARY=<bin> -P cli_error_check.cmake
#       the bad-input cases listed below for that binary.
#
# A clean error exits 2 with empty stdout and exactly one `<bin>: ...`
# stderr line containing the expected text and no source location or C++
# condition, instead of aborting or being silently ignored.

get_filename_component(name "${BINARY}" NAME_WE)

function(expect_clean_error expect)
  list(JOIN ARGN " " args)
  execute_process(COMMAND ${BINARY} ${ARGN}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(FIND "${err}" "${expect}" at)
  string(FIND "${err}" ".cpp:" source_at)
  string(FIND "${err}" "check `" condition_at)
  string(REGEX MATCHALL "\n" newlines "${err}")
  list(LENGTH newlines lines)
  if(NOT rc EQUAL 2 OR at EQUAL -1 OR NOT lines EQUAL 1 OR
     NOT err MATCHES "^${name}: " OR NOT out STREQUAL "" OR
     NOT source_at EQUAL -1 OR NOT condition_at EQUAL -1)
    message(FATAL_ERROR "`${name} ${args}` exited with ${rc}; expected 2, "
      "no stdout and one plain stderr line containing `${expect}`, got:\n"
      "${out}${err}")
  endif()
endfunction()

# A run that succeeds but warns: exit 0, output on stdout, and stderr
# lines that all start with `<bin>: warning: ` and name `expect`.
function(expect_warning expect)
  list(JOIN ARGN " " args)
  execute_process(COMMAND ${BINARY} ${ARGN}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(FIND "${err}" "${expect}" at)
  string(REGEX REPLACE "${name}: warning: [^\n]*\n" "" rest "${err}")
  if(NOT rc EQUAL 0 OR at EQUAL -1 OR out STREQUAL "" OR
     NOT rest STREQUAL "")
    message(FATAL_ERROR "`${name} ${args}` exited with ${rc}; expected 0, "
      "a table on stdout and `${name}: warning: ` lines naming "
      "`${expect}`, got:\n${out}${err}")
  endif()
endfunction()

# `--help` wins over bad values: exit 0, no stderr and a listing naming
# `usage` (e.g. `--threads INT`).
function(expect_listing usage)
  list(JOIN ARGN " " args)
  execute_process(COMMAND ${BINARY} ${ARGN}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(FIND "${out}" "\n  ${usage} " at)
  if(NOT rc EQUAL 0 OR at EQUAL -1 OR NOT err STREQUAL "")
    message(FATAL_ERROR "`${name} ${args}` exited with ${rc}; expected 0, "
      "no stderr and a listing that names `${usage}`, got:\n${out}${err}")
  endif()
endfunction()

if(MODE STREQUAL "help")
  execute_process(COMMAND ${BINARY} --help
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(FIND "${out}" "${name} — " at)
  string(FIND "${out}" "\n  --threads " threads_at)
  if(NOT rc EQUAL 0 OR NOT at EQUAL 0 OR threads_at EQUAL -1)
    message(FATAL_ERROR "`${name} --help` exited with ${rc}; expected 0 "
      "and a listing that starts with `${name} — ` and names --threads, "
      "got:\n${out}${err}")
  endif()
elseif(MODE STREQUAL "unknown-flag")
  expect_clean_error("unknown flag `--no-such-flag`" --no-such-flag)
elseif(name STREQUAL "serving_simulation")
  # The removed --gpus flag points at the one way to shard.
  expect_clean_error("--tp N" --gpus 2)
  # TP 3 divides neither of Llama-2-7B's 32 heads and 32 KV heads.
  expect_clean_error("tensor-parallel degree 3" --tp 3 --qps 1 --duration 5)
  # A misspelt flag names the flag it was probably meant to be.
  expect_clean_error("did you mean `--qps`?" --qpss 5)
  # An invalid serving config fails before the banner is printed.
  expect_clean_error("at least one replica" --replicas 0)
  expect_clean_error("QPS must be positive" --qps -1)
  expect_clean_error("at least one prefill replica" --prefill-replicas 0)
  expect_clean_error("block size must be >= 1" --kv-block-size 0)
  expect_clean_error("exceeds the model's 32 layers" --pp 100)
  expect_clean_error("sampling_n must be >= 1" --sampling-n 0)
  expect_clean_error("draft acceptance must be in [0, 1]"
    --spec-accept 2 --spec-depth 2)
  expect_clean_error("negative TTFT deadline" --ttft-slo -1)
  # So does a budget derived from HBM that FP16 Llama-2-70B's weights
  # leave no room for on one 48 GB RTX A6000.
  expect_clean_error("exceed the usable" --model llama-2-70b --kv-blocks -1)
  # A KV budget no request fits in runs, but says why the table is empty.
  expect_warning("rejected" --kv-blocks 1 --duration 5)
elseif(name STREQUAL "bench_fig15_tpot")
  # The figure fixes its own QPS axis, so --qps is no flag of this bench.
  expect_clean_error("unknown flag `--qps`" --qps 5)
  # --help wins over a bad value: the listing, exit 0.
  expect_listing("--policy STR" --help --policy bogus)
elseif(name STREQUAL "bench_fig1_peak")
  # A negative thread count is a value error too, so --help still wins.
  expect_clean_error("--threads must be >= 0 (0 = auto), got `-1`"
    --threads -1)
  expect_listing("--threads INT" --help --threads -1)
  # MARLIN_THREADS follows the --threads rules instead of falling back.
  set(ENV{MARLIN_THREADS} abc)
  expect_clean_error("MARLIN_THREADS expects an integer, got `abc`")
  set(ENV{MARLIN_THREADS} -3)
  expect_clean_error("MARLIN_THREADS must be >= 0")
elseif(name STREQUAL "bench_serve_cluster")
  expect_clean_error("unknown scheduling policy `bogus`" --policy bogus)
  # The sweep's base config is validated before the banner is printed.
  expect_clean_error("QPS must be positive" --qps -1)
  expect_clean_error("max cached blocks must be >= 0"
    --prefix-cache-blocks -1)
  expect_clean_error("negative TTFT deadline" --ttft-slo -1)
else()
  message(FATAL_ERROR "no bad-input cases are listed for ${name}")
endif()
