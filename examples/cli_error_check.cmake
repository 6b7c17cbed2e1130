# Input-boundary check: each bad serving_simulation invocation must exit 2
# with exactly one `serving_simulation: ...` stderr line containing the
# expected text, instead of aborting or being silently ignored.
#
# Usage:  cmake -DBINARY=<serving_simulation> -P cli_error_check.cmake

function(expect_clean_error expect)
  list(JOIN ARGN " " args)
  execute_process(COMMAND ${BINARY} ${ARGN}
    OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(FIND "${err}" "${expect}" at)
  string(REGEX MATCHALL "\n" newlines "${err}")
  list(LENGTH newlines lines)
  if(NOT rc EQUAL 2 OR at EQUAL -1 OR NOT lines EQUAL 1 OR
     NOT err MATCHES "^serving_simulation: ")
    message(FATAL_ERROR "`serving_simulation ${args}` exited with ${rc}; "
      "expected 2 and one stderr line containing `${expect}`, got:\n${err}")
  endif()
endfunction()

# The removed --gpus flag points at the one way to shard.
expect_clean_error("--tp N" --gpus 2)
# TP 3 divides neither of Llama-2-7B's 32 heads and 32 KV heads.
expect_clean_error("tensor-parallel degree 3" --tp 3 --qps 1 --duration 5)
